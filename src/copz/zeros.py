"""Zero computation by sign-change bracketing in s, plus zero-set diagnostics.

Consecutive zeros of these polynomials sit more than one lattice unit apart in
s wherever the coefficient ratio is positive on the zero set, on finite and
infinite supports alike, so sampling at step 1/2 brackets every zero; the
scan still refines to steps 1/4 and 1/8 before declaring a count failure.
A search reads the series through one function of s, the base family's
FamilySpec._at_s(n), built once: one-point calls, and its array pass many,
which gives each value bit for bit.  Each scan evaluates its samples in one
array pass, all but those it shares with the search's previous scan: the
rescans at steps 1/4 and 1/8 and each doubled window take those values from
the scan before.  On the q^s lattice of an infinite support, where X = q^s
tends to 0 and no zero lies near it, a scan stops summing at a tail start s*
that the search certifies once (_tail_start): past it the series provably
keeps the sign of P(0), so every scan sums only its samples before s* and
the first two at or past it, and each bracket, window, count and error is
the one of a scan to the window's end.  A scan of _ARRAY_SCAN samples or
more, such as those of a search at high degree or over a wide window, also
finds its node zeros and sign changes in a few numpy passes over the
samples; a smaller one, such as every scan of copz verify at low degree,
loops over them, where the loop costs less than the passes' fixed numpy
calls (the figures are at _ARRAY_SCAN).  Both give the same brackets.  The
brackets are then refined by Chandrupatla's method in the s variable and
mapped to X at the end.  A set of _LOCKSTEP or more brackets refines in
lockstep: each round moves every open bracket one step and evaluates all
their trial points in one array pass, whose arrays the float series sums as
one block (see qseries; the pass costs are at _LOCKSTEP).  Fewer brackets,
and those a lockstep set leaves open once fewer than _LOCKSTEP remain,
refine one value at a time.

track_zeros skips the scan where the zeros are nearly known, as along a
parameter sweep: it brackets each zero inside the cell of its guess and
hands the brackets to the same refinement.  n disjoint brackets with a sign
change each hold all n zeros, the count argument the scan relies on; where
it cannot certify the set, it returns None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError, EvaluationOverflowError, SingularityError, ZeroCountError
from .families import ZeroProblem
from .grid import Q_EXP
from .qseries import _EXACT, exact_summation

_STEPS = (0.5, 0.25, 0.125)
_NODE_TOL = 1e-13
_WIDTH_REL = 1e-12
_MAX_WINDOW = 4096.0
# open brackets from which one array pass of the float series refines them in
# lockstep: the fewest for which one pass costs less than a one-point call
# per bracket at every degree.  A set this large has degree 8 or more, so its
# passes are summed as one block (qseries._BLOCK_DEGREE); on a 2-vCPU x86-64
# host a pass of 8 points cost about as much as 5-9 one-point calls at degree
# 8 (14-25 us against 2.4-4.1 us), 2-4.5 at degree 16 and 1.2-1.8 at degree
# 59 (21-46 us against 14-25 us), and one of 4 points still 4.5-7.5 at
# degree 8
_LOCKSTEP = 8
# samples from which a scan finds its brackets in array passes rather than a
# loop: the crossover of the two, which lay between 81 and 89 samples at
# degrees 5-30 on a 2-vCPU x86-64 host.  Whole scans, the array pass of the
# series included, took 42-61 us by the loop and 61-95 us by the passes at
# 11 samples, 88-189 us against 67-168 us at 161, and 0.80-2.05 ms against
# 0.15-0.92 ms at 2,561
_ARRAY_SCAN = 85
# the tail start s* on the q^s lattice: the atom z = q^(s+1) at most
# _TAIL_REACH / e_1 there, and e_1 read by a complex step h of at most
# e_1 h = _TAIL_STEP, from a first step of _TAIL_H down to _TAIL_H_MIN
_TAIL_REACH = 0.125
_TAIL_STEP = 1e-10
_TAIL_H, _TAIL_H_MIN = 1e-20, 1e-280


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of one polynomial, in lattice and polynomial coordinates.

    ``zeros_s`` is strictly increasing; ``zeros_X`` follows the lattice
    direction (ascending on increasing lattices, descending otherwise).
    ``residuals`` gives |P| at each zero relative to the larger end value of
    the bracket its refinement started from, the scan's pair or the tracked
    bracket; it is inf where the float value at the zero is NaN or inf,
    which the float series does not confirm as a zero.  The residuals are
    computed on first read, from the search's function of s under the
    summation the search ran in and the brackets' scales, which the set
    keeps out of its comparison and repr.
    """

    problem: ZeroProblem
    zeros_s: tuple[float, ...]
    zeros_X: tuple[float, ...]
    bracket_widths: tuple[float, ...]
    # what residuals reads: whether the search ran under exact summation, and
    # each bracket's max(|gl|, |gr|, 1e-300)
    _exact: bool = field(default=False, compare=False, repr=False)
    _scales: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.zeros_s)

    @cached_property
    def residuals(self) -> tuple[float, ...]:
        """|g| at each zero over its bracket's scale: one array pass for a
        set of _LOCKSTEP or more zeros, one call each for fewer, each value
        the one-point call's bit for bit.

        g, the search's FamilySpec._at_s, is built again here, a function of
        the family, the degree and the summation alone.  A set that kept it
        would hold its plan and closures for as long as a sweep keeps its
        sets, for residuals that no sweep, finite difference or verify line
        reads."""
        token = _EXACT.set(self._exact)
        try:
            g = self.problem.family.resolve_base()._at_s(self.problem.degree)
            zs = self.zeros_s
            gz = g.many(zs).tolist() if len(zs) >= _LOCKSTEP else list(map(g, zs))
        finally:
            _EXACT.reset(token)
        return tuple(
            abs(v) / scale if math.isfinite(v) else math.inf for v, scale in zip(gz, self._scales)
        )

    @property
    def zeros_X_sorted(self) -> tuple[float, ...]:
        return tuple(sorted(self.zeros_X))

    @property
    def min_gap_s(self) -> float:
        if len(self.zeros_s) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.zeros_s, self.zeros_s[1:]))


def _scan(g, lo: float, hi: float, step: float, held=None, tail=math.inf):
    """Sample g, a polynomial as a function of s (FamilySpec._at_s), on
    [lo, hi] and return zero brackets as (sl, sr, gl, gr) tuples, in
    increasing s, and the scan's samples and their values, as two arrays.

    tail is the tail start s* of _tail_start: only the samples before it and
    the first two at or past it are evaluated, and the brackets and the
    samples returned are theirs.  Past s* the float series keeps within
    e^(1/8) - 1 of P(0), so no sample there is a node zero or pairs a sign
    change, and the first two settle the brackets of the samples before: the
    full scan's brackets, bit for bit.

    held is the samples and values of the search's previous scan, or None.
    A sample equal as a float to a held one takes its value, since g is a
    function of s alone; the others are evaluated together, in one array
    pass of the float series (g.many), which picks its summation from the
    pass's arrays.  Held samples never raised, so an error names the first
    failing sample in grid order, as a pass over every sample would.  A
    sample within the node tolerance of zero (relative to its neighbors)
    counts as a width-zero bracket; its gl and gr carry the neighbors'
    magnitude, the local scale its residual is measured against.  A NaN or
    inf neighbor is no scale and counts as 0.0, as past the window's ends.
    No sign change is paired across such a zero.

    A scan of _ARRAY_SCAN samples or more finds its node zeros and sign
    changes in a few array passes (_array_brackets); a smaller one visits
    each sample in a loop, which costs less there than the passes' numpy
    calls.  Both give the same brackets, bit for bit.
    """
    count = max(2, int(round((hi - lo) / step)) + 1)
    ss = lo + (hi - lo) * np.arange(count) / (count - 1)
    ss = ss[: np.searchsorted(ss, tail) + 2]
    if held is None:
        vs = g.many(ss)
    else:
        # the grids need not nest: match each sample to its place among the
        # held ones, which are sorted as every grid is
        hs, hv = held
        at = np.minimum(np.searchsorted(hs, ss), len(hs) - 1)
        vs, new = hv[at], hs[at] != ss
        if new.any():
            vs[new] = g.many(ss[new])
    if len(ss) >= _ARRAY_SCAN:
        brackets = _array_brackets(ss, vs)
    else:
        brackets = _looped_brackets(ss.tolist(), vs.tolist())
    return brackets, (ss, vs)


def _looped_brackets(ss: list, vs: list) -> list:
    """_scan's brackets, one sample at a time."""
    mags = list(map(abs, vs))
    # the sum is finite unless a sample is NaN or inf; where finite
    # magnitudes overflow it, the rebuild changes nothing
    if not math.isfinite(sum(mags)):
        mags = [m if m < math.inf else 0.0 for m in mags]
    nbrs = map(max, [0.0, *mags[:-1]], [*mags[1:], 0.0])
    brackets = []
    # the last sample with a definite sign since the last node zero; pv = 0.0
    # when there is none, so that pv * v < 0.0 fails
    ps = pv = 0.0
    for s, v, nbr in zip(ss, vs, nbrs):
        if v == 0.0 or abs(v) < _NODE_TOL * nbr:
            brackets.append((s, s, nbr, nbr))
            pv = 0.0
            continue
        if pv * v < 0.0:
            brackets.append((ps, s, pv, v))
        ps, pv = s, v
    return brackets


def _array_brackets(ss: np.ndarray, vs: np.ndarray) -> list:
    """_scan's brackets from array passes over the samples, the loop's bit
    for bit.  The loop pairs a sample with the last one since a node zero
    that is not one itself: with no node zero between, that is the sample
    just before.  So a sign change pairs two neighbouring samples that are
    not node zeros and whose product is below 0.0: a NaN pairs with neither
    side, an inf pairs.  A bracket's place in sample order is its right end."""
    with np.errstate(all="ignore"):
        size = np.abs(vs)
        mags = np.where(size < np.inf, size, 0.0)  # NaN and inf are no scale
        nbrs = np.maximum(np.append(0.0, mags[:-1]), np.append(mags[1:], 0.0))
        node = (vs == 0.0) | (size < _NODE_TOL * nbrs)
        # the samples that pair with the one before
        pair = np.append(False, ~(node[:-1] | node[1:]) & (vs[:-1] * vs[1:] < 0.0))
    ends = np.flatnonzero(node | pair)
    starts = ends - pair[ends]
    at_node = node[ends]
    gl = np.where(at_node, nbrs[ends], vs[starts])
    gr = np.where(at_node, nbrs[ends], vs[ends])
    return list(zip(ss[starts].tolist(), ss[ends].tolist(), gl.tolist(), gr.tolist()))


def _chandrupatla(lo: float, hi: float, glo: float, ghi: float):
    """Refine the bracket [lo, hi], where g changes sign, by Chandrupatla's
    method, as a stepper: the generator yields each trial point, is sent g
    there, and returns the zero and the final bracket width.  It stops at a
    width of 2 eps = _WIDTH_REL * max(1, |s|), taken at the bracket's
    midpoint, returns a point where g is exactly 0.0 with width 0.0, as a
    scan node zero is, and closes with a secant step.

    Chandrupatla (Adv. Eng. Softw. 28, 1997) keeps the bracket's newest end
    a, its other end b and the end c that a displaced.  Where the inverse
    quadratic through the three is monotone on the bracket, xi = (a - b) /
    (c - b) and phi = (g_a - g_b) / (g_c - g_b) with phi^2 < xi and
    (1 - phi)^2 < 1 - xi, the next trial point is its zero, kept eps from
    both ends; elsewhere, and at the first trial point, it is the midpoint.
    A NaN or inf value fails the test, so its step bisects.  On smooth
    brackets the interpolation converges superlinearly; on a flat or
    sign-only g it can creep, so trial point j (from 0) is the midpoint
    wherever the width still exceeds 2 eps 2^(n_max - j - 1), what bisection
    alone closes in the trial points after it.  The bracket thus narrows to
    2 eps within n_max = ceil(log2(width / (2 eps))) + 2 trial points,
    bisection's count plus 2.
    """
    if lo == hi:
        return lo, 0.0
    eps = 0.5 * _WIDTH_REL * max(1.0, abs(0.5 * (lo + hi)))
    two_eps = 2.0 * eps
    n_max = math.ceil(math.log2((hi - lo) / two_eps)) + 2
    room = math.ldexp(two_eps, n_max - 1)  # 2 eps 2^(n_max - j - 1), halved each step
    a, ga, b, gb = lo, glo, hi, ghi
    d, t = hi - lo, 0.5
    for _ in range(n_max):
        width = abs(d)
        if width <= two_eps:
            break
        if width > room:
            t = 0.5
        room *= 0.5
        x = a + t * d
        gx = yield x
        if gx == 0.0:
            return x, 0.0
        if (ga < 0.0) == (gx < 0.0):
            c, gc = a, ga
        else:
            c, gc, b, gb = b, gb, a, ga
        a, ga = x, gx
        d = b - a
        # g_c - g_b and g_b - g_a pair values of opposite sign, never equal;
        # 0 < phi < 1 keeps g_c - g_a off 0.0 too
        xi = d / (b - c)
        phi = (ga - gb) / (gc - gb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = ga / (gb - ga) * gc / (gb - gc) + (c - a) / d * ga / (gc - ga) * gb / (gc - gb)
            edge = eps / abs(d)
            if not t >= edge:  # NaN too, where the values overflow
                t = edge
            elif t > 1.0 - edge:
                t = 1.0 - edge
        else:
            t = 0.5
    lo, hi, glo, ghi = (a, b, ga, gb) if a < b else (b, a, gb, ga)
    # inside the final bracket the polynomial is linear to machine precision;
    # one secant step takes the zero well below the bracket width
    if ghi != glo:
        z = hi - ghi * (hi - lo) / (ghi - glo)
        if lo <= z <= hi:
            return z, hi - lo
    return 0.5 * (lo + hi), hi - lo


def _drive(steps, g, gx=None) -> tuple[float, float]:
    """Run a bracket stepper to its end, one call of g per trial point; gx is g
    at the trial point it last yielded, None if it has not started."""
    try:
        while True:
            gx = g(steps.send(gx))
    except StopIteration as stop:
        return stop.value


def _tail_start(base, n: int, g) -> float:
    """The tail start s* of a degree-n search on the q^s lattice, from which
    the series keeps the sign of P(0): math.inf, no cut, on other lattices,
    under exact summation, and where s* is not certified.

    A positive measure on {q^k} puts all n zeros z_i of P, as a polynomial
    in its atom z = q^(s+1), in (0, q).  So the power series of P/P(0) in z
    alternates, its k-th coefficient e_k(1/z_i) at most e_1^k / k!
    (Maclaurin), with e_1 = sum 1/z_i = -P'(0)/P(0); and for z at most
    _TAIL_REACH / e_1 = 1/(8 e_1), |P(z)/P(0) - 1| <= e^(1/8) - 1 < 0.134.
    Such a sample is no node zero, its neighbours in the tail within a ratio
    of 0.76, and no two of them pair a sign change.

    e_1 is read by a complex step, P(ih)/P(0) = 1 - i e_1 h + O((e_1 h)^2),
    from the search's function g (FamilySpec._at_s), whose at_atoms takes
    a complex atom.  h shrinks from _TAIL_H until the step moves P by at
    most _TAIL_STEP relative, which bounds e_1 h (e_1 grows like q^-n, so
    no fixed step serves small q).  No cut is made where g's lookup of the
    degree, prefactor or series raises, P(0) or e_1 is not finite, e_1 < n,
    which the zeros' place forbids, or h would fall below _TAIL_H_MIN.
    """
    if base.grid.tag != Q_EXP or _EXACT.get():
        return math.inf
    try:
        value = g.at_atoms
        p0, h = value(0.0), _TAIL_H
        while math.isfinite(p0) and p0 != 0.0 and h >= _TAIL_H_MIN:
            w = value(h * 1j) / p0
            # |w - 1| bounds e_1 h: it is at least sin(arctan(e_1 h)) while
            # the phase sum of arctan(h / z_i) stays below pi / 2, and a phase
            # wound past 2 pi would take |w| past 1.9 at n <= 30
            moved = abs(w - 1.0)
            if moved <= _TAIL_STEP:
                e1 = -w.imag / (h * w.real)
                if not n <= e1 < math.inf:
                    break
                return math.log(e1 / _TAIL_REACH) / -math.log(base.grid.q) - 1.0
            shrink = 0.5 * _TAIL_STEP / moved  # NaN or 0.0 past the float range
            h *= shrink if shrink > 1e-30 else 1e-30
    except (DomainError, ArithmeticError):
        pass
    return math.inf


def find_zeros(problem: ZeroProblem) -> ZeroSet:
    """Locate all ``problem.degree`` zeros of the polynomial.

    The scan window starts at the support start a.  On a finite support it is
    (a, b-1), the support less its top point, and is scanned once.  On an
    infinite support it starts as a + max(6, 2n+4) and doubles, up to a width
    of _MAX_WINDOW, while the step-1/2 scan finds fewer than n sign changes or
    n of them without five separation units of clearance past the last.  The
    final window is rescanned at steps 1/4 and 1/8 while fewer than n are
    found.  Raises ZeroCountError with the window width and the count at each
    step scanned when the count is not n; when it is short and the last scan
    met NaN or inf values of the float series, the error also gives how many
    and the first such s.

    On the q^s lattice the tail start s* is computed once per search
    (_tail_start), and each scan sums its samples up to the first two at or
    past it: the windows, rescans, counts and errors are those of scans to
    each window's end.
    """
    fam = problem.family
    n = problem.degree
    base = fam.resolve_base()
    g = base._at_s(n)
    tail = _tail_start(base, n, g)
    a = fam.support_start
    # a finite window never grows: doubling would leave the support, and a
    # window that collapses in float (a + N - 1 == a) would double to itself
    if fam.is_finite:
        hi = fam.support_end - 1.0
    else:
        hi, top = a + max(6.0, 2.0 * n + 4.0), a + _MAX_WINDOW
    held = None
    while True:
        brackets, held = _scan(g, a, hi, _STEPS[0], held, tail)
        found, wider = len(brackets), a + 2.0 * (hi - a)
        if fam.is_finite or wider > top or found > n or found == n and hi > brackets[-1][1] + 5.0:
            break
        hi = wider
    diagnostics = {"kind": fam.kind, "degree": n, "window": hi - a}
    diagnostics[f"count_at_step_{_STEPS[0]}"] = len(brackets)
    for step in _STEPS[1:]:
        # finer sampling can only reveal missed pairs, never remove changes
        if len(brackets) >= n:
            break
        brackets, held = _scan(g, a, hi, step, held, tail)
        diagnostics[f"count_at_step_{step}"] = len(brackets)
    if len(brackets) != n:
        message = f"{fam.kind}: found {len(brackets)} sign changes, expected {n}"
        # a short count is the step-1/8 scan's, and no pair crosses its NaN or inf
        ss, vs = held
        lost = ss[~np.isfinite(vs)].tolist() if len(brackets) < n else []
        if lost:
            diagnostics["nonfinite_samples"] = len(lost)
            diagnostics["first_nonfinite_s"] = lost[0]
            message += (
                f"; the float series is not finite at {len(lost)} samples of the"
                f" step-{_STEPS[-1]} scan, the first at s={lost[0]!r}"
            )
        raise ZeroCountError(message, diagnostics)

    return _refined(problem, g, brackets)


def track_zeros(problem: ZeroProblem, guesses, radii) -> ZeroSet | None:
    """Locate the zeros near strictly increasing guesses, or return None.

    Zero j is bracketed inside its cell, which runs between the midpoints to
    the neighbouring guesses and is clipped to find_zeros' scan range: (a, b-1)
    on a finite support, a + _MAX_WINDOW on an infinite one.  The bracket
    starts at guesses[j] +/- radii[j], at least the refinement's stopping
    width, and grows 4x while its ends have no strict sign change; a guess
    outside its cell starts from the cell's nearer end.  n disjoint
    brackets with a sign change each hold all n zeros of the polynomial, so
    the result is the whole zero set.  When there are not n guesses and n
    radii, the guesses are not strictly increasing, a guess or radius is NaN
    or inf, or a cell holds no sign change, the zeros are not certified and
    None is returned: the caller falls back to find_zeros.  The brackets
    refine as find_zeros' do (_refined).
    """
    fam = problem.family
    n = problem.degree
    if len(guesses) != n or len(radii) != n or any(v <= u for u, v in zip(guesses, guesses[1:])):
        return None
    # a NaN would pass every test below and grow its bracket forever
    if not all(map(math.isfinite, guesses)) or not all(map(math.isfinite, radii)):
        return None
    a = fam.support_start
    top = fam.support_end - 1.0 if fam.is_finite else a + _MAX_WINDOW
    mids = [0.5 * (u + v) for u, v in zip(guesses, guesses[1:])]
    brackets = []
    g = fam.resolve_base()._at_s(n)
    for cl, cr, p, r in zip([a, *mids], [*mids, top], guesses, radii):
        cl, cr = max(cl, a), min(cr, top)
        if not cl < cr:
            return None
        p = min(max(p, cl), cr)
        r = max(r, _WIDTH_REL * max(1.0, abs(p)))
        while True:
            sl, sr = max(p - r, cl), min(p + r, cr)
            try:
                gl, gr = g(sl), g(sr)
            except EvaluationOverflowError:
                return None
            if gl * gr < 0.0:
                break
            if sl == cl and sr == cr:
                return None
            r *= 4.0
        brackets.append((sl, sr, gl, gr))
    return _refined(problem, g, brackets)


def _refined(problem: ZeroProblem, g, brackets) -> ZeroSet:
    """Refine each (sl, sr, gl, gr) bracket of g by _chandrupatla, and map
    its zero to X.

    While _LOCKSTEP or more brackets are open, they refine in lockstep: each
    round evaluates the trial points of all of them in one array pass,
    g.many, and each takes its next step.  The brackets left open
    then refine one at a time, one call of g per trial point; so do sets of
    fewer than _LOCKSTEP brackets from the start.  Every value is the
    one-at-a-time value bit for bit.  g is not evaluated at the zeros: the
    set keeps each bracket's larger end value, the local scale of the
    polynomial, and computes the residuals when they are read (ZeroSet).
    """
    fam = problem.family
    if len(brackets) < _LOCKSTEP:
        found = [_drive(_chandrupatla(*b), g) for b in brackets]
    else:
        found = [None] * len(brackets)
        # (trial point, bracket index, stepper) of each open bracket, and g at
        # each trial point; None starts a stepper
        trials = [(None, i, _chandrupatla(*b)) for i, b in enumerate(brackets)]
        values = [None] * len(trials)
        while True:
            stepped = []
            for (_, i, steps), gx in zip(trials, values):
                try:
                    stepped.append((steps.send(gx), i, steps))
                except StopIteration as stop:
                    found[i] = stop.value
            trials = stepped
            if len(trials) < _LOCKSTEP:
                break
            values = g.many([x for x, _, _ in trials]).tolist()
        for x, i, steps in trials:
            found[i] = _drive(steps, g, g(x))
    zs, widths = zip(*found)
    xs = [fam.zero_scale * fam.grid.x_raw(z) for z in zs]
    scales = tuple(max(abs(gl), abs(gr), 1e-300) for _, _, gl, gr in brackets)
    return ZeroSet(problem, zs, tuple(xs), widths, _EXACT.get(), scales)


@dataclass(frozen=True)
class SeparationReport:
    min_gap: float
    passed: bool
    vacuous: bool


def separation_check(zs: ZeroSet) -> SeparationReport:
    """Consecutive zeros must sit more than one unit apart in s (vacuous for n < 2)."""
    if len(zs) < 2:
        return SeparationReport(math.inf, True, True)
    gap = zs.min_gap_s
    return SeparationReport(gap, gap > 1.0, False)


@dataclass(frozen=True)
class Eq1Report:
    """Per-zero residuals of the intrinsic three-point identity.

    At any zero y, the coefficient ratio must reproduce the value ratio,
    f(y) = -P(x(y-1)) / P(x(y+1)).  An inconsistent coefficient table violates
    this at every zero with order-one residuals, so the flag requires all
    residuals to exceed the tolerance; isolated spikes happen legitimately
    when a shifted point y +/- 1 falls close to an adjacent zero (gaps
    approach one lattice unit at higher degrees) and the zero-location error
    is amplified by 1/(gap - 1).
    """

    residuals: tuple[float, ...]
    f_values: tuple[float, ...]
    rhs_values: tuple[float, ...]
    flagged: bool
    anomalies: tuple[int, ...]
    tolerance: ClassVar[float] = 1e-6


def eq1_consistency(zs: ZeroSet) -> Eq1Report:
    """The identity at each zero, P(x(y +/- 1)) summed exactly: at higher
    degrees the float series loses enough digits near the top of q-lattice
    supports to mimic a flag.  The 2n shifted points y_1 - 1, y_1 + 1,
    y_2 - 1, ... are one exact array pass (FamilySpec._exact_many); where it
    raises, each zero evaluates its own two, so an error is met, or counted
    as an anomaly, at the zero it belongs to."""
    fam = zs.problem.family
    base = fam.resolve_base()
    n = zs.problem.degree
    try:
        values = base._exact_many(n, [y + d for y in zs.zeros_s for d in (-1.0, 1.0)]).tolist()
    except (ValueError, ArithmeticError):
        values = None
    residuals = []
    f_values = []
    rhs_values = []
    anomalies = []
    for j, y in enumerate(zs.zeros_s):
        try:
            if values is None:
                with exact_summation():
                    p_minus = base.eval_at_s(n, y - 1.0)
                    p_plus = base.eval_at_s(n, y + 1.0)
            else:
                p_minus, p_plus = values[2 * j : 2 * j + 2]
            if p_plus == 0.0:
                raise ZeroDivisionError
            fv = fam.monotonicity_f(y)
        except (ZeroDivisionError, SingularityError):
            # a shifted point on another zero, or a zero pressed onto a
            # coefficient pole at the support edge
            anomalies.append(j)
            residuals.append(math.inf)
            f_values.append(math.nan)
            rhs_values.append(math.nan)
            continue
        rhs = -p_minus / p_plus
        f_values.append(fv)
        rhs_values.append(rhs)
        residuals.append(abs(fv - rhs) / max(1.0, abs(fv)))
    finite = [r for r in residuals if math.isfinite(r)]
    flagged = bool(finite) and all(r > Eq1Report.tolerance for r in finite)
    return Eq1Report(
        tuple(residuals), tuple(f_values), tuple(rhs_values), flagged, tuple(anomalies)
    )
