"""Zero computation by sign-change bracketing in s, plus zero-set diagnostics.

Consecutive zeros of these polynomials sit more than one lattice unit apart in
s wherever the coefficient ratio is positive on the zero set, on finite and
infinite supports alike, so sampling at step 1/2 brackets every zero; the
scan still refines to steps 1/4 and 1/8 before declaring a count failure.
On an infinite support the one window a search scans ends past the
Laguerre-Samuelson bound on the zeros, which the series' own top
coefficients give (families._zeros_end).  A search reads the series through
one function of s, the base family's FamilySpec._at_s(n), built once:
one-point calls, and its array pass many, which gives each value bit for
bit.  Each scan evaluates its samples in one array pass, all but those it
shares with the search's previous scan: the rescans at steps 1/4 and 1/8
take those values from the scan before.  A scan of _ARRAY_SCAN samples or
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

from .errors import EvaluationOverflowError, SingularityError, ZeroCountError
from .families import ZeroProblem, _zeros_end
from .qseries import _EXACT, exact_summation

_STEPS = (0.5, 0.25, 0.125)
_NODE_TOL = 1e-13
_WIDTH_REL = 1e-12
# the widest window on an infinite support, a guard on memory: a bound
# outgrows it as q nears 1 (9,198 units at q_laguerre q = 0.999, n = 30) and
# at huge parameters (2e12 samples at charlier alpha = 1e12)
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


def _scan(g, lo: float, hi: float, step: float, held=None):
    """Sample g, a polynomial as a function of s (FamilySpec._at_s), on
    [lo, hi] and return zero brackets as (sl, sr, gl, gr) tuples, in
    increasing s, and the scan's samples and their values, as two arrays.

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


def _window_end(fam, n: int) -> float:
    """The end of find_zeros' window on an infinite support, a + W: W the
    whole units from a to just past the zeros' bound (families._zeros_end),
    at most _MAX_WINDOW.  W is whole, so each sample a + W k / (2 W) of a
    scan is a + k/2 bit for bit.  Where the bound is not formed, the window
    is the widest: where the series' float parameters overflow (q**-n at
    q = 1e-300, n = 2), the scan's first sample raises that overflow too."""
    a = fam.support_start
    try:
        end = _zeros_end(fam.resolve_base(), n)
    except (ArithmeticError, ValueError):
        end = math.inf
    # at n = 1 the bound is the zero, and may round below it to a - 1e-16
    return a + max(math.floor(min(end - a, _MAX_WINDOW - 1.0)), 0) + 1.0


def find_zeros(problem: ZeroProblem) -> ZeroSet:
    """Locate all ``problem.degree`` zeros of the polynomial.

    The scan window starts at the support start a.  On a finite support it is
    (a, b-1), the support less its top point.  On an infinite support it is
    [a, a + W], W the whole units to just past the Laguerre-Samuelson bound
    on the zeros (_window_end).  The window is scanned at step 1/2, and
    rescanned at steps 1/4 and 1/8 while fewer than n sign changes are
    found.  Raises ZeroCountError with the window width and the count at
    each step scanned when the count is not n; when it is short and the last
    scan met NaN or inf values of the float series, the error also gives how
    many and the first such s.
    """
    fam = problem.family
    n = problem.degree
    g = fam.resolve_base()._at_s(n)
    a = fam.support_start
    hi = fam.support_end - 1.0 if fam.is_finite else _window_end(fam, n)
    diagnostics = {"kind": fam.kind, "degree": n, "window": hi - a}
    held = None
    for step in _STEPS:
        brackets, held = _scan(g, a, hi, step, held)
        diagnostics[f"count_at_step_{step}"] = len(brackets)
        # finer sampling can only reveal missed pairs, never remove changes
        if len(brackets) >= n:
            break
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
    on a finite support, [a, _window_end] on an infinite one, whose end is
    computed only where the last bracket must grow past its first try, not at
    each point of a sweep.  The bracket starts at guesses[j] +/- radii[j], at
    least the refinement's stopping width, and grows 4x while its ends have
    no strict sign change; a guess outside its cell starts from the cell's
    nearer end.  n disjoint brackets with a sign change each hold all n zeros
    of the polynomial, so the result is the whole zero set.  When there are
    not n guesses and n radii, the guesses are not strictly increasing, a
    guess or radius is NaN or inf, or a cell holds no sign change, the zeros
    are not certified and None is returned: the caller falls back to
    find_zeros.  The brackets refine as find_zeros' do (_refined).
    """
    fam = problem.family
    n = problem.degree
    if len(guesses) != n or len(radii) != n or any(v <= u for u, v in zip(guesses, guesses[1:])):
        return None
    # a NaN would pass every test below and grow its bracket forever
    if not all(map(math.isfinite, guesses)) or not all(map(math.isfinite, radii)):
        return None
    a = fam.support_start
    top = fam.support_end - 1.0 if fam.is_finite else math.inf
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
            if cr == math.inf:
                cr = _window_end(fam, n)
                if not cl < cr:
                    return None
                p = min(p, cr)
            elif sl == cl and sr == cr:
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
