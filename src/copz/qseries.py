"""Terminating hypergeometric and basic hypergeometric sums.

The basic series uses the convention

    sum_k  (a1..ai; q)_k / [(b1..bj; q)_k (q; q)_k] * [(-1)^k q^C(k,2)]^(1+j-i) * z^k,

so the correction factor is trivial whenever i = j + 1.  A series is summed
over k = 0..n only; the caller supplies the termination degree n.

On the float path a call is planned once for its degree (_plan) and then
run: the atoms of the call, the numerator parameters and the argument given
as slots (_Slot) or numpy arrays, become the plan's arguments, and the rest
its constants.  For each term, the plan folds the constant factors before
the first atom's into one start and keeps each later constant factor, so a
run multiplies in only the atoms' factors and those constants, one by one
in the term loop's order, and each sum is the loop's bit for bit.  A call
given slots returns its plan, which a family's zero search runs at each of
its samples (FamilySpec._at_s); a call given floats or arrays runs its plan
at once.  On arrays, one entry per sample, each sample's sum is the one a
scalar call gives, bit for bit; the denominator parameters stay scalar.
The one term loop takes each step as a few numpy calls over the samples.  A
run on arrays of at most 256 samples, at degree 8 or more, where numpy's
per-call cost dominates, takes all terms as one (terms x points) block
instead: the term ratios of all k from one elementwise op per step, in the
loop's order, then the terms, the running totals and their TwoSum errors
each from one accumulate along the term axis.  Accumulate is sequential
and each op is the one the loop makes, so each value is the loop's bit for
bit.

The exact path has plans too.  A call given slots returns its exact plan
(_ExactPlan), built once for its degree with no per-point work: the term
ratios (p, d) over the constant parameters, the steps (u, v) that turn an
atom an/ad into its factor (an u + ad v)/ad of each ratio, and the slots
its argument and atoms are read from.  _sum_points runs the plans of one
series at several degrees over many points, points outer: each point
converts its atoms to integer ratios once, forms once, up to the highest
degree, what the sums of every degree share, and then takes each degree's
sum in turn.  A call given per-point sequences of exact atoms, one entry per
point, runs its plan over those points and returns the list of their sums,
and a call given scalars alone returns its one sum: each the one-point
call's bit for bit.

Each exact sum is the exact rational's correctly rounded float.  A plan of
degree 0 has no term ratios: its sum is 1 at every point, and a run takes
none.  Where an integer of a point's sum is wider than 128 bits, the sum is
first taken in 128-bit midpoint-radius arithmetic, whose radius bounds every
rounding made (Ziv's strategy); each end of the result is rounded once, by
float() of its integer and an exact ldexp, and if both ends round to the
same float, that float is the value.  Otherwise, and for narrower sums, the
sum runs in exact integer arithmetic.

Each term r_0 ... r_k splits into the product R_k of the plan's ratios
p_i/d_i, one per degree, and the product G_(k+1) of the point's factors
z prod_a (a u_i + v_i), which depend on the point and the term index alone.
So a 128-bit sum is the dot product 1 + sum_k R_k G_(k+1) (_dot_sum), and an
exact one a Horner pass over the point's exact factors (_point_sum).  A
point builds its table of G and its exact factors once each, where a sum
first needs them, up to the highest degree of the run, and every degree
reads them; nothing outlives the run.
"""

from __future__ import annotations

import contextlib
import contextvars
from fractions import Fraction
from itertools import chain
from math import ldexp, prod

import numpy as np

from .errors import DomainError, UndefinedSeriesError

# when set, the terminating sums run in exact rational arithmetic; float
# inputs are exact binary rationals, so only the final conversion rounds
_EXACT = contextvars.ContextVar("copz_exact_series", default=False)


@contextlib.contextmanager
def exact_summation():
    """Evaluate terminating series exactly (slow path for ill-conditioned sums)."""
    token = _EXACT.set(True)
    try:
        yield
    finally:
        _EXACT.reset(token)


# the float sums of degree _BLOCK_DEGREE or more over arrays of at most
# _BLOCK_POINTS points run as one block (_block_sum).  Measured on a 2-vCPU
# x86-64 host, the block pass beats the per-term loop from degree 8 up to
# about 300 points: 1.2-3.2x at 16-192 points and 1.0-1.4x at 256, where its
# accumulates, 3-4 ns a cell along the term axis, start to outweigh the
# loop's saved numpy calls; it breaks even at 320.  Forced at degree 6, it
# still won 1.2-1.6x at 96 points.  A degree-59 pass of 59 points took
# 62-103 us
_BLOCK_DEGREE = 8
_BLOCK_POINTS = 256


def _points(atoms) -> int:
    """The points of a float sum: the length of its ndarray atoms, and 0
    where they are plain floats or complex."""
    for x in atoms:
        if isinstance(x, np.ndarray):
            return len(x)
    return 0


def q_pochhammer(a: float, q: float, k: int) -> float:
    """(a; q)_k = prod_{j<k} (1 - a q^j)."""
    out = 1.0
    p = 1.0
    for _ in range(k):
        out *= 1.0 - a * p
        p *= q
    return out


class Neumaier:
    """Compensated accumulator for short alternating sums."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, v: float) -> None:
        t = self.total + v
        if abs(self.total) >= abs(v):
            self.comp += (self.total - t) + v
        else:
            self.comp += (v - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.comp


def _point_sum(ratios, factors, scale) -> float:
    """1 + r_0 (1 + r_1 (1 + ...)) at one point, rounded once.

    ratios[k] = (p, d) is the k-th term ratio over the constant parameters,
    and factors[k] / scale the point's factor of it, z prod_a (a u_k + v_k)
    over its atoms, as _Point.exact gives them: they end at the first that
    vanishes.  The pairs are never reduced; the sum stops at the first
    vanishing ratio.  int/int true division is correctly rounded, as
    Fraction.__float__ is.  It takes the sums of narrow integers and those
    whose 128-bit pass (_dot_sum) is in doubt, and is that pass's reference
    in the tests.
    """
    own = []
    for (p, d), f in zip(ratios, factors):
        p *= f
        if not p:
            break
        own.append((p, d * scale))
    sn = sd = 1
    for p, d in reversed(own):
        sd *= d
        sn = sd + p * sn
    if sd < 0:
        sn, sd = -sn, -sd
    return sn / sd


def _vanishing(bn: int, bd: int, k: int) -> UndefinedSeriesError:
    return UndefinedSeriesError(
        f"denominator parameter {Fraction(bn, bd)!r} vanishes at k={k + 1}"
    )


class _PointOverflow(OverflowError):
    """The sum at the point of this index, of the plan at position plan of
    a run (_sum_points), lies beyond the float range."""

    def __init__(self, index: int, plan: int):
        super().__init__(f"the sum at point {index} overflows the float range")
        self.index, self.plan = index, plan


def _scalar(atom) -> bool:
    """True for an exact number; a per-point atom is a sequence of them."""
    return hasattr(atom, "as_integer_ratio")


# The certified pass holds a value as a ball (m, e, r): the interval
# [(m - r) 2^e, (m + r) 2^e], its midpoint m kept to about _BITS bits and its
# radius r a few units of m's last place, or 0 while no bit has been dropped
_BITS = 128
_ONE = (1, 0, 0)


def _ball(n: int, d: int = 1):
    """n/d as a ball whose midpoint has _BITS or _BITS + 1 bits; radius 0
    where the quotient is exact."""
    s = _BITS - n.bit_length() + d.bit_length()
    if d == 1 and s >= 0:
        return n, 0, 0
    m, rem = divmod(n << s, d) if s >= 0 else divmod(n, d << -s)
    return m, -s, 1 if rem else 0


def _shifted(m: int, r: int, s: int):
    """The ball's midpoint and radius in units 2^s times as large."""
    if s <= 0:
        return m << -s, r << -s
    t = m >> s
    return t, -(-r >> s) + (t << s != m)


def _times(x, y):
    """The ball of x y, narrowed to _BITS bits."""
    (m, e, r), (n, f, t) = x, y
    p = m * n
    if r or t:
        r = abs(m) * t + abs(n) * r + r * t
    s = p.bit_length() - _BITS
    if s <= 0:
        return p, e + f, r
    m = p >> s
    if m.bit_length() > _BITS:  # a negative p floored onto -2^_BITS
        m, s = m >> 1, s + 1
    return m, e + f + s, -(-r >> s) + (m << s != p)


def _plus(x, y):
    """The ball of x + y, in the unit that leaves the larger of the two _BITS
    bits: a much smaller operand is absorbed into a widened larger one."""
    (m, e, r), (n, f, t) = x, y
    if not (n or t):
        return x
    if not (m or r):
        return y
    g = max(e + m.bit_length(), f + n.bit_length()) - _BITS
    m, r = _shifted(m, r, g - e)
    n, t = _shifted(n, t, g - f)
    return m + n, g, r + t


def _cumulative(ratios):
    """The balls R_k of the products ratios[0] ... ratios[k]."""
    out, c = [], _ONE
    for ratio in ratios:
        c = _times(c, _ball(*ratio))
        out.append(c)
    return out


def _dot_sum(cumulative, table) -> float | None:
    """_point_sum at one point as 1 + sum_k R_k G_(k+1), from the balls R_k
    of _cumulative and the point's factor table G, or None where rounding is
    in doubt.

    The products are summed at one binary exponent g, _BITS bits below the
    top of the widest, with a unit of radius where a shift drops bits; each
    shifted product, and so each end m -/+ r of the sum's ball, has at most
    a few bits more than _BITS.  The 1 puts the top at 2^0 or above, so
    g >= 1 - _BITS and a nonzero end is at least 2^(1 - _BITS): no end is
    subnormal.  Each end is rounded once, by ldexp: float() of its integer
    rounds it, a zero end to +0.0, and the scaling by 2^g is exact, or
    overflows where the rounded end reaches 2^1024.  Rounding is monotone,
    so where both ends round to one float, so does the exact sum, of the
    same sign, for no end rounds to -0.0.
    """
    terms, top = [], 1
    for (m, e, r), (n, f, t) in zip(cumulative, table[1:]):
        p, e, t = m * n, e + f, abs(m) * t + abs(n) * r + r * t
        if p or t:
            terms.append((p, e, t))
            if e + p.bit_length() > top:
                top = e + p.bit_length()
    g = top - _BITS
    # the 1, then each term, shifted to the unit 2^g as _shifted shifts
    m, r = (1 << -g, 0) if g <= 0 else (0, 1)
    for p, e, t in terms:
        s = g - e
        if s <= 0:
            m += p << -s
            r += t << -s
        else:
            n = p >> s
            m += n
            r += -(-t >> s) + (n << s != p)
    try:
        lo, hi = ldexp(m - r, g), ldexp(m + r, g)
    except OverflowError:  # _point_sum names the overflow
        return None
    return lo if lo == hi else None


def _wide(pairs) -> bool:
    """True where an integer of the (n, d) pairs is wider than _BITS bits."""
    return max(map(int.bit_length, chain.from_iterable(pairs)), default=0) > _BITS


class _Point:
    """One point of a run of exact plans (_sum_points): the integer ratios of
    its z and atoms, whether one is wider than _BITS bits, and, once a sum
    needs them, its exact factors and its table of balls."""

    __slots__ = ("ratios", "wide", "exact_factors", "table")

    def __init__(self, ratios):
        self.ratios = ratios
        self.wide = _wide(ratios)
        self.exact_factors = self.table = None

    def exact(self, steps):
        """The exact factors zn prod_a (an u_i + ad v_i) of the steps (u_i, v_i),
        up to the first that vanishes, and their common denominator zd prod_a ad."""
        if self.exact_factors is None:
            (zn, zd), *atoms = self.ratios
            factors = []
            for u, v in steps:
                f = zn
                for an, ad in atoms:
                    f *= an * u + ad * v
                if not f:
                    break
                factors.append(f)
            self.exact_factors = factors, zd * prod(ad for _, ad in atoms)
        return self.exact_factors

    def factors(self, steps, balls):
        """The table G_k = prod_(i<k) z prod_a (a u_i + v_i), k <= len(steps), as
        balls, from the steps (u_i, v_i) and their balls.  A factor whose ball
        holds 0 is formed exactly, so the table ends at its first exact 0:
        every G_k past it is 0."""
        if self.table is None:
            (zn, zd), *atoms = self.ratios
            zb = None if zn == zd else _ball(zn, zd)
            atoms = [(an, ad, _ball(an, ad)) for an, ad in atoms]
            g = _ONE
            self.table = [g]
            for (u, v), (ub, vb) in zip(steps, balls):
                if zb is not None:
                    g = _times(g, zb)
                for an, ad, ab in atoms:
                    f = _plus(_times(ab, ub), vb)
                    if abs(f[0]) <= f[2]:
                        f = _ball(an * u + ad * v, ad)
                    g = _times(g, f)
                self.table.append(g)
                if not (g[0] or g[2]):
                    break
        return self.table


class _ExactPlan:
    """The exact sum of one series as a function of its atoms, the slots of
    the call: the term ratios (p, d) over its constant parameters, the steps
    (u, v) that turn an atom an/ad into its factor (an u + ad v)/ad of each
    ratio, the slots its argument z (None where z is a constant) and its
    atoms are read from, in that order, and whether a ratio is wider than
    _BITS bits.  Called on one point's atoms x, as a float plan is, it
    returns the sum there."""

    __slots__ = ("ratios", "steps", "reads", "wide")

    def __init__(self, ratios, steps, z, num):
        self.ratios, self.steps = ratios, steps
        atoms = [a for a in num if a.__class__ is _Slot]
        self.reads = (z if z.__class__ is _Slot else None, *atoms)
        self.wide = _wide(ratios)

    def __call__(self, x) -> float:
        try:
            ((value,),) = _sum_points((self,), (x,))
        except _PointOverflow as exc:
            raise exc.__cause__ from None
        return value


def _read(x, slot):
    """The integer ratio of the atom slot reads from x (see _Slot), and 1 for
    a constant z (slot None)."""
    if slot is None:
        return 1, 1
    n, d = (x if slot.index is None else x[slot.index]).as_integer_ratio()
    return (-n, d) if slot.neg else (n, d)


def _sum_points(plans, points):
    """The sums of the plans at the points, each point's atoms as a plan's
    call takes them, as one row per plan.

    The plans are one series' at several degrees: they read the same slots,
    and the steps of each begin those of the longest.  Each point converts
    its atoms to integer ratios once, before any sum.  A plan with no term
    ratios is degree 0, whose row is 1.0 at every point, filled before the
    points are taken; the loop over the points runs the other plans.  A sum
    goes first to _dot_sum where one of its integers, a ratio's p or d or a
    numerator or denominator of z or an atom, is wider than _BITS bits, and
    to _point_sum where they are all narrower or the certified sum is in
    doubt; the point's table and exact factors are built where a sum first
    needs them, up to the highest degree, and every plan reads them.  Either
    way the sum is the exact rational's correctly rounded float.

    The error raised is the one a loop over the plans, then the points,
    meets first: an atom with no integer ratio before any sum, then the first
    sum past the float range, as _PointOverflow, which names its point and
    plan.  A degree-0 sum can neither overflow nor vanish.
    """
    if not plans:
        return []
    steps = max((plan.steps for plan in plans), key=len)
    reads = plans[0].reads
    points = [_Point([_read(x, slot) for slot in reads]) for x in points]
    balls, cumulative = None, [None] * len(plans)
    rows = [[] if plan.ratios else [1.0] * len(points) for plan in plans]
    todo = [(i, plan) for i, plan in enumerate(plans) if plan.ratios]
    failed = None
    for j, point in enumerate(points):
        for at, (i, plan) in enumerate(todo):
            value = None
            if plan.wide or point.wide:
                if balls is None:
                    balls = [(_ball(u), _ball(v)) for u, v in steps]
                if cumulative[i] is None:
                    cumulative[i] = _cumulative(plan.ratios)
                value = _dot_sum(cumulative[i], point.factors(steps, balls))
            if value is None:
                try:
                    value = _point_sum(plan.ratios, *point.exact(steps))
                except OverflowError as exc:
                    # no later point's sum of this plan or a later one comes first
                    todo, failed = todo[:at], (j, i, exc)
                    break
            rows[i].append(value)
    if failed is not None:
        j, i, exc = failed
        raise _PointOverflow(j, i) from exc
    return rows


def _hyper_plan(num, den, z, n: int) -> _ExactPlan:
    # atoms a = an/ad enter as (an + k ad)/ad; the ad, bd and z move into
    # constants; the slots' atoms enter point by point
    nums = [a.as_integer_ratio() for a in num if _scalar(a)]
    dens = [b.as_integer_ratio() for b in den]
    zn, zd = z.as_integer_ratio() if _scalar(z) else (1, 1)
    cn, cd = zn * prod(bd for _, bd in dens), zd * prod(ad for _, ad in nums)
    ratios, steps = [], []
    for k in range(n):
        p, d = cn, cd * (k + 1)
        for an, ad in nums:
            p *= an + k * ad
        for bn, bd in dens:
            f = bn + k * bd
            if not f:
                raise _vanishing(bn, bd, k)
            d *= f
        ratios.append((p, d))
        steps.append((1, k))
    return _ExactPlan(ratios, steps, z, num)


def _block_sum(ratio):
    """The loop's compensated sum over the rows of ratio, the term ratios of
    k = 0..n-1: the terms, the running totals and their TwoSum errors are
    one accumulate each along the term axis.  An accumulate runs in order,
    so every op is the loop's and each value its value bit for bit.  The
    terms are accumulated under a row of 1.0, the loop's start, written in
    place: the first term is then the first ratio row, since 1.0 x = x, and
    the first total 1.0 + term_0.  The errors need no leading 0.0: the
    loop's comp = 0.0 + e_0 is e_0 unless e_0 is -0.0, and no error is,
    since prev - (t - v) is -0.0 only where prev is, and no total is."""
    n, width = ratio.shape
    terms = np.empty((n + 1, width))
    terms[0] = 1.0
    np.multiply.accumulate(ratio, axis=0, out=terms[1:])
    totals = np.add.accumulate(terms, axis=0)
    prev, t, term = totals[:-1], totals[1:], terms[1:]
    v = t - prev
    errs = (prev - (t - v)) + (term - v)
    return totals[-1] + np.add.accumulate(errs, axis=0)[-1]


class _Slot:
    """The place of an atom in a series call, which then returns the series'
    plan (_plan, or _ExactPlan under exact summation) in place of its sum.  A
    run of the plan on x reads the atom as x[index], or as x itself where
    index is None; neg marks the atom's negative, the one operation a family
    series applies to an atom."""

    __slots__ = ("index", "neg")

    def __init__(self, index=None, neg=False):
        self.index, self.neg = index, neg

    def __neg__(self):
        return _Slot(self.index, not self.neg)


def _plan(num, den, q, z, n: int):
    """The float sum of one series as a function of its atoms, the slots of
    the call: the series' plan, which returns the sum at the atoms x.

    The loop takes each term ratio as the argument z, divided by k + 1 on
    the ordinary series, times the numerator factors a + k, or 1 - a q^k on
    the basic series, divided by the denominator factors and, on the basic
    series, by 1 - q q^k, and times (-q^k)^excess.  The plan holds each term
    k as a row: its start, the product of the factors before the first
    atom, folded in that order (None where z is an atom); c, k or q^k; its
    divisors; and its last factor, the power of q, or None.  A run takes the
    start, or z, then the factors of the numerators from the first atom on,
    each from its atom or constant and c, then divides by each divisor and
    multiplies in the power: the loop's factors, in the loop's order, so
    each sum is the loop's bit for bit.

    A run reads those numerators from xs: the atoms, then their negatives
    where a slot is negated, then the constant numerators from the first
    atom on; js holds their places in xs, and zj the place of z where it is
    an atom.  A vanishing denominator factor and a power of q that raises
    are constants of the plan: building it raises them, in the loop's
    order.  A plan with atoms of degree _BLOCK_DEGREE or more also holds its
    rows as one block row, whose fields are columns over k: a run on arrays
    of at most _BLOCK_POINTS points takes it, every term at once.
    """
    if q is not None and not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    hyper = q is None
    # where the first atom stands (-1 for z); the numerators before it are
    # folded into the start
    kinds = [*map(type, (z, *num))]
    first = kinds.index(_Slot) - 1 if _Slot in kinds else len(num)
    head, tail = num[: max(first, 0)], num[max(first, 0) :]
    # whether x is the one atom (a slot's index is None), the atoms read
    # from it, and whether a slot is negated
    bare = flip = False
    width = 1
    for a in (z, *tail) if first < 0 else tail:
        if a.__class__ is _Slot:
            if a.index is None:
                bare = True
            elif a.index >= width:
                width = a.index + 1
            if a.neg:
                flip = True
    at = (2 if flip else 1) * width  # the place of the first constant
    consts, js = [], []
    for a in tail:
        if a.__class__ is _Slot:
            js.append((a.index or 0) + a.neg * width)
        else:
            js.append(at + len(consts))
            consts.append(a)
    consts = tuple(consts)
    zj = (z.index or 0) + z.neg * width if first < 0 else None
    excess = 1 + len(den) - len(num)
    rows = []
    qk = 1.0  # q^k by repeated multiplication
    for k in range(n):
        start, divs = None, []
        if hyper:
            if zj is None:
                start = z / (k + 1.0)
                for a in head:
                    start = start * (a + k)
            for b in den:
                divs.append(b + k)
        else:
            if zj is None:
                start = z
                for a in head:
                    start = start * (1.0 - a * qk)
            for b in den:
                divs.append(1.0 - b * qk)
        if 0.0 in divs:
            b = den[divs.index(0.0)]
            raise UndefinedSeriesError(f"denominator parameter {b!r} vanishes at k={k + 1}")
        if hyper:
            rows.append((start, k, divs, None))
            continue
        divs.append(1.0 - q * qk)
        # ratio of consecutive ((-1)^k q^C(k,2))^excess factors
        rows.append((start, qk, divs, (-qk) ** excess if excess else None))
        qk *= q
    block = None
    if n >= _BLOCK_DEGREE and first < len(num):
        starts, cs, divs, posts = zip(*rows)
        block = [(
            None if zj is not None else np.array(starts)[:, None],
            np.array(cs)[:, None],
            [np.array(d)[:, None] for d in zip(*divs)],
            None if posts[0] is None else np.array(posts)[:, None],
        )]

    def run(x):
        if bare:
            xs = (x, -x) if flip else (x,)
        else:
            xs = x + tuple([-a for a in x]) if flip else x
        if consts:
            xs += consts
        whole = block is not None and 0 < _points(xs) <= _BLOCK_POINTS
        # no in-place operators: the atoms may be arrays the caller holds.
        # TwoSum yields the exact error of each addition, as Neumaier.add
        # does, without its branch, so the compensated sum is the same on arrays
        total, comp, term = 1.0, 0.0, 1.0
        for ratio, c, divs, post in block if whole else rows:
            if ratio is None:
                ratio = xs[zj] / (c + 1.0) if hyper else xs[zj]
            if hyper:
                for j in js:
                    ratio = ratio * (xs[j] + c)
            else:
                for j in js:
                    ratio = ratio * (1.0 - xs[j] * c)
            for d in divs:
                ratio = ratio / d
            if post is not None:
                ratio = ratio * post
            if whole:
                return _block_sum(ratio)
            term = term * ratio
            t = total + term
            v = t - total
            comp = comp + ((total - (t - v)) + (term - v))
            total = t
        return total + comp

    return run


def _float_sum(num, den, q, z, n: int):
    """The float sum, its ndarray atoms (z or numerator parameters) taken as
    slots of a plan run on them; a call given slots returns the plan."""
    if z.__class__ is _Slot or _Slot in map(type, num):
        return _plan(num, den, q, z, n)
    arrays = []

    def slotted(a):
        if not isinstance(a, np.ndarray):
            return a
        arrays.append(a)
        return _Slot(len(arrays) - 1)

    return _plan([slotted(a) for a in num], den, q, slotted(z), n)(tuple(arrays))


def _exact_sum(num, den, q, z, n: int):
    """The exact sum: a call given slots returns its plan (_hyper_plan,
    _qhyper_plan), one given per-point sequences of atoms, one entry per
    point, the list of the points' sums from one run of the plan over them,
    and one given scalars alone its sum."""
    planned = z.__class__ is _Slot or _Slot in map(type, num)
    columns = []

    def slotted(a):
        if _scalar(a):
            return a
        columns.append(a)
        return _Slot(len(columns) - 1)

    if not planned:
        num, z = [slotted(a) for a in num], slotted(z)
    plan = _hyper_plan(num, den, z, n) if q is None else _qhyper_plan(num, den, q, z, n)
    if planned:
        return plan
    if not columns:
        return plan(())
    return _sum_points((plan,), list(zip(*columns)))[0]


def hyper_sum(num, den, z: float, n: int) -> float:
    """Terminating ordinary series iFj(num; den; z), summed over k = 0..n.

    Given slots (_Slot) in place of atoms, it returns the series' plan
    instead of its sum: _plan in float, _ExactPlan under exact summation."""
    if _EXACT.get():
        return _exact_sum(num, den, None, z, n)
    return _float_sum(num, den, None, z, n)


def _qhyper_plan(num, den, q, z, n: int) -> _ExactPlan:
    # integer bounds: comparing an exact base with float bounds converts them
    if not 0 < q < 1:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    nums = [a.as_integer_ratio() for a in num if _scalar(a)]
    dens = [b.as_integer_ratio() for b in den]
    qn, qd = q.as_integer_ratio()
    zn, zd = z.as_integer_ratio() if _scalar(z) else (1, 1)
    excess = 1 + len(den) - len(num)
    # with q^k = Qn/Qd and c = c_n/c_d each factor 1 - c q^k is
    # (c_d Qd - c_n Qn)/(c_d Qd); the powers of Qd cancel across the ratio,
    # (-q^k)^excess included, leaving (-Qn)^excess, on the denominator side
    # when excess < 0
    cn, cd = zn * qd * prod(bd for _, bd in dens), zd * prod(ad for _, ad in nums)
    Qn = Qd = 1
    ratios, steps = [], []
    for k in range(n):
        p, d = cn, cd
        for an, ad in nums:
            p *= ad * Qd - an * Qn
        for bn, bd in dens:
            f = bd * Qd - bn * Qn
            if not f:
                raise _vanishing(bn, bd, k)
            d *= f
        if excess > 0:
            p *= (-Qn) ** excess
        elif excess < 0:
            d *= (-Qn) ** -excess
        steps.append((-Qn, Qd))
        Qn *= qn
        Qd *= qd
        ratios.append((p, d * (Qd - Qn)))  # 1 - q^(k+1), from (q; q)_k
    return _ExactPlan(ratios, steps, z, num)


def qhyper_sum(num, den, q: float, z: float, n: int) -> float:
    """Terminating basic series iφj(num; den; q, z), summed over k = 0..n.

    Given slots (_Slot) in place of atoms, it returns the series' plan
    instead of its sum: _plan in float, _ExactPlan under exact summation."""
    if _EXACT.get():
        return _exact_sum(num, den, q, z, n)
    return _float_sum(num, den, q, z, n)


def binom2(k: int) -> int:
    """k choose 2."""
    return k * (k - 1) // 2


__all__ = [
    "Neumaier",
    "binom2",
    "hyper_sum",
    "q_pochhammer",
    "qhyper_sum",
]
