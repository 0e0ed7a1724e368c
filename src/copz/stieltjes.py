"""Sign hypotheses and the zero-derivative linear system.

Differentiating the three-point identity at each zero y_j(t) of a degree-n
polynomial yields the linear system  f2(y_j) = sum_k a_jk y'_k  with

    a_jk = f(y_j) c_jk                       (j != k)
    a_jj = -f1(y_j) + f(y_j) (sum_k b_jk - sum_{k != j} c_jk)

where f = B/A, f1 = df/ds, f2 = df/dt, and b_jk, c_jk are built from the
lattice map and its derivative.  Where f > 0 and f1 < 0 hold on the zero set
the matrix has positive diagonal, negative off-diagonal entries, strict
diagonal dominance, and an entrywise-positive inverse, which pins the common
sign of all y'_j to the sign of f2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationOverflowError,
    IllConditionedSystemError,
    SweepDiscontinuityError,
)
from .families import ZeroProblem
from .grid import Grid, Q_ANTISYMMETRIC
from .zeros import ZeroSet, find_zeros, track_zeros

#: parameters that move the lattice or the support; the zero-derivative system
#: assumes both are held fixed while t varies
STRUCTURAL_PARAMS = ("q", "N", "a")


def _problem_at(problem: ZeroProblem, param: str, t: float) -> ZeroProblem:
    return ZeroProblem(problem.family.with_param(param, float(t)), problem.degree)


def _finite_range(t_range) -> None:
    """DomainError naming the sweep range where an end is NaN or infinite."""
    if not all(map(math.isfinite, t_range)):
        raise DomainError(f"sweep range {t_range!r} is not finite")


@dataclass(frozen=True)
class HypothesisReport:
    kind: str
    degree: int
    param: str
    t: float
    k_interval: tuple[float, float]
    f_positive: bool
    f1_negative: bool
    f2_sign: str  # "+", "-", or "mixed"
    grid4_condition: str  # "pass", "fail", "not-applicable"
    zero_set_inside_k: bool
    sample_count: int
    counterexamples: tuple[float, ...]

    @property
    def hypotheses_hold(self) -> bool:
        return (
            self.f_positive
            and self.f1_negative
            and self.f2_sign in ("+", "-")
            and self.grid4_condition in ("pass", "not-applicable")
            and self.zero_set_inside_k
        )

    @property
    def predicted_direction(self) -> str | None:
        """Direction of the zeros in X implied by the signs, or None."""
        if not self.hypotheses_hold:
            return None
        return direction_from_signs(self.f2_sign, self.fgrid_increasing)

    # stored at construction; the grid object itself is not serialized
    fgrid_increasing: bool = True


def direction_from_signs(f2_sign: str, grid_increasing: bool) -> str:
    """Positive f2 pushes zeros up in s; the lattice direction maps that to X."""
    up = (f2_sign == "+") == grid_increasing
    return "increasing" if up else "decreasing"


def hypothesis_report(zs: ZeroSet, param: str, samples: int = 200) -> HypothesisReport:
    """Evaluate the sign hypotheses on the certified interval and the zero set.

    The samples are evaluated in array passes: f, f1 and f2 at all of them
    come from one pass of the A, B table each (FamilySpec.monotonicity_f and
    f_partials over an array), and the array values decide signs only.  A
    sample where f, f1 or f2 is not finite (a pole, A = 0, an overflow, or
    the removable 0/0 of the racah and dual Hahn tables at s = a = 0) is a
    counterexample, and f is not positive; it is kept past the cap of eight
    on the other counterexamples, and its signs count for nothing.  A param
    the family cannot take raises DomainError; where a term in the parameters
    alone overflows, every sample is such a counterexample.
    """
    problem = zs.problem
    fam = problem.family
    lo, hi = fam.k_interval()
    hi_eff = hi if math.isfinite(hi) else max(zs.zeros_s) + 2.0
    pts = np.linspace(lo, hi_eff, samples + 2)[1:-1].tolist()
    pts.extend(zs.zeros_s)

    try:
        with np.errstate(all="ignore"):
            ss = np.array(pts)
            fv = fam.monotonicity_f(ss)
            f1, f2 = fam.f_partials(ss, param)
    except EvaluationOverflowError:  # raised for every sample, by a term in the parameters alone
        fv, f1, f2 = np.full((3, len(pts)), np.nan)
    raised = ~(np.isfinite(fv) & np.isfinite(f1) & np.isfinite(f2))
    fv, f1, f2 = np.where(raised, np.nan, [fv, f1, f2])
    fails = (fv <= 0.0) | (f1 >= 0.0)
    counterexamples: list[float] = []
    for i in np.flatnonzero(raised | fails):
        if raised[i] or len(counterexamples) < 8:
            counterexamples.append(pts[i])
    kept = f2[~raised]
    f2_sign = "mixed"  # also where no sample is finite
    if kept.size and np.all(kept > 0.0):
        f2_sign = "+"
    elif kept.size and np.all(kept < 0.0):
        f2_sign = "-"
    is_grid4 = fam.grid.tag == Q_ANTISYMMETRIC
    grid4_vals_ok = not np.any(problem.degree * fv + f1 > 0.0)
    grid4 = "not-applicable" if not is_grid4 else ("pass" if grid4_vals_ok else "fail")
    inside = all(lo < y < hi for y in zs.zeros_s)
    return HypothesisReport(
        kind=fam.kind,
        degree=problem.degree,
        param=param,
        t=float(fam.params[param]),
        k_interval=(lo, hi),
        f_positive=not np.any(raised | (fv <= 0.0)),
        f1_negative=not np.any(f1 >= 0.0),
        f2_sign=f2_sign,
        grid4_condition=grid4,
        zero_set_inside_k=inside,
        sample_count=len(pts),
        counterexamples=tuple(counterexamples),
        fgrid_increasing=fam.grid.increasing,
    )


def b_entry(grid: Grid, yj: float, yk: float) -> float:
    """Generic lattice curvature entry b_jk from the map and its derivative."""
    xm = grid.x_raw(yj - 1.0)
    xp = grid.x_raw(yj + 1.0)
    Xk = grid.x_raw(yk)
    dk = grid.dx_ds(yk)
    return (grid.dx_ds(yj - 1.0) - dk) / (xm - Xk) - (grid.dx_ds(yj + 1.0) - dk) / (
        xp - Xk
    )


@dataclass(frozen=True)
class StieltjesSystem:
    """The assembled n x n system A y' = f2 with its structural flags."""

    t: float
    param: str
    zeros: ZeroSet
    matrix: np.ndarray
    rhs: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    solution: np.ndarray
    diag_dominant: bool
    offdiag_negative: bool
    inverse_positive: bool

    @property
    def solution_X(self) -> np.ndarray:
        """Zero derivatives mapped to the polynomial variable, dX/dt = x'(y) y'."""
        g = self.zeros.problem.family.grid
        return self.solution * np.array([g.dx_ds(y) for y in self.zeros.zeros_s])


def build_stieltjes_system(zs: ZeroSet, param: str) -> StieltjesSystem:
    """Assemble and solve the zero-derivative system at the zeros ``zs``.

    ``param`` must not move the lattice or the support (see STRUCTURAL_PARAMS).
    """
    problem = zs.problem
    if param not in problem.family.params:
        raise DomainError(f"{problem.family.kind} has no parameter {param!r}")
    if param in STRUCTURAL_PARAMS:
        raise DomainError(
            f"parameter {param!r} moves the lattice or support; the system assumes them fixed"
        )
    fam = problem.family
    g = fam.grid
    n = problem.degree
    ys = zs.zeros_s
    Xs = [g.x_raw(y) for y in ys]
    f_vals = [fam.monotonicity_f(y) for y in ys]
    partials = [fam.f_partials(y, param) for y in ys]

    b = np.empty((n, n))
    c = np.empty((n, n))
    for j in range(n):
        xm = g.x_raw(ys[j] - 1.0)
        xp = g.x_raw(ys[j] + 1.0)
        for k in range(n):
            try:
                b[j, k] = b_entry(g, ys[j], ys[k])
                c[j, k] = (1.0 / (xp - Xs[k]) - 1.0 / (xm - Xs[k])) * g.dx_ds(ys[k])
            except ZeroDivisionError as exc:
                raise IllConditionedSystemError(
                    f"{fam.kind}: the zeros y_j={ys[j]!r} and y_k={ys[k]!r} sit one "
                    "lattice step apart, so x(y_j +/- 1) = x(y_k) and the system divides by zero"
                ) from exc

    A = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                A[j, k] = f_vals[j] * c[j, k]
        offdiag_c = sum(c[j, k] for k in range(n) if k != j)
        A[j, j] = -partials[j][0] + f_vals[j] * (b[j].sum() - offdiag_c)
    rhs = np.array([p[1] for p in partials])

    try:
        sol = np.linalg.solve(A, rhs)
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedSystemError(f"{fam.kind}: {exc}") from exc

    off = A[~np.eye(n, dtype=bool)]
    offdiag_negative = bool(n == 1 or np.all(off < 0.0))
    dom = np.abs(np.diag(A)) - (np.sum(np.abs(A), axis=1) - np.abs(np.diag(A)))
    diag_dominant = bool(np.all(dom > 0.0))
    inverse_positive = bool(np.all(inv > 0.0))
    return StieltjesSystem(
        t=float(fam.params[param]),
        param=param,
        zeros=zs,
        matrix=A,
        rhs=rhs,
        b_matrix=b,
        c_matrix=c,
        solution=sol,
        diag_dominant=diag_dominant,
        offdiag_negative=offdiag_negative,
        inverse_positive=inverse_positive,
    )


def zero_derivatives_fd(problem: ZeroProblem, param: str) -> tuple[float, ...]:
    """Central-difference derivatives of the s-coordinates of the zeros.

    Independent of the linear system; pairs zeros by sorted order at t-h and
    t+h, with h = 1e-5 max(1, |t|), and requires matching counts.  A param
    the family cannot take (N, or a name it does not have) raises
    DomainError before any solve.
    """
    problem.family._check_continuous(param)
    t0 = float(problem.family.params[param])
    h = 1e-5 * max(1.0, abs(t0))
    up = find_zeros(_problem_at(problem, param, t0 + h))
    dn = find_zeros(_problem_at(problem, param, t0 - h))
    if len(up) != len(dn):
        raise SweepDiscontinuityError(
            f"zero counts differ between t-h ({len(dn)}) and t+h ({len(up)})"
        )
    return tuple((u - d) / (2.0 * h) for u, d in zip(up.zeros_s, dn.zeros_s))


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Empirical sweep of the zero trajectories in the polynomial variable."""

    kind: str
    degree: int
    param: str
    ts: tuple[float, ...]
    trajectories: tuple[tuple[float, ...], ...]  # one row per zero, X values
    directions: tuple[str, ...]
    reversals: int
    claimed: str | None
    agrees: bool | None


def _solved_near(problem: ZeroProblem, guesses, radii) -> ZeroSet:
    zs = track_zeros(problem, guesses, radii)
    return zs if zs is not None else find_zeros(problem)


def monotonicity_verdict(
    problem: ZeroProblem,
    param: str,
    t_range: tuple[float, float],
    samples: int = 15,
) -> MonotonicityVerdict:
    """Sweep t over t_range, track zero trajectories by sorted order in s.

    The sweep starts on max(3, samples) evenly spaced points.  The first two
    are solved by find_zeros.  Each later point is solved by continuation:
    track_zeros brackets every zero around the secant guess
    2 y(t_k) - y(t_(k-1)), within the step |y(t_k) - y(t_(k-1))|, and
    certifies the whole zero set by its sign changes; where it cannot, that
    point falls back to find_zeros.

    The sorted-order pairing is trusted where adjacent zero sets move by at
    most half the smallest zero gap of the sweep.  Each interval where they
    move further gets its midpoint, solved by track_zeros around the mean of
    its ends' zeros (interpolation, so the guesses increase), within half
    their move, or by find_zeros where that fails.  Every solved point is
    kept, and at most three rounds subdivide, so a refined sweep's ts are not
    evenly spaced.  A param the family cannot take (N, whose midpoints leave
    the integers, or a name it does not have), and a range with a NaN or
    infinite end, raise DomainError before any solve.
    """
    fam = problem.family
    fam._check_continuous(param)
    _finite_range(t_range)
    lo, hi = t_range
    if not lo < hi:
        raise DomainError(f"empty sweep range {t_range!r}")
    ts = list(np.linspace(lo, hi, max(3, samples)))
    sets = [find_zeros(_problem_at(problem, param, t)) for t in ts[:2]]
    for t in ts[2:]:
        before, last = sets[-2].zeros_s, sets[-1].zeros_s
        sets.append(
            _solved_near(
                _problem_at(problem, param, t),
                [2.0 * y - x for x, y in zip(before, last)],
                [abs(y - x) for x, y in zip(before, last)],
            )
        )
    for _ in range(3):
        half_gap = 0.5 * min(s.min_gap_s for s in sets)  # inf at degree 1
        new_ts, new_sets = ts[:1], sets[:1]
        for t0, t1, s0, s1 in zip(ts, ts[1:], sets, sets[1:]):
            if max(abs(u - v) for u, v in zip(s0.zeros_s, s1.zeros_s)) > half_gap:
                mid = 0.5 * (t0 + t1)
                new_ts.append(mid)
                new_sets.append(
                    _solved_near(
                        _problem_at(problem, param, mid),
                        [0.5 * (x + y) for x, y in zip(s0.zeros_s, s1.zeros_s)],
                        [0.5 * abs(y - x) for x, y in zip(s0.zeros_s, s1.zeros_s)],
                    )
                )
            new_ts.append(t1)
            new_sets.append(s1)
        if len(new_ts) == len(ts):
            break
        ts, sets = new_ts, new_sets
    n = problem.degree
    traj = tuple(tuple(zset.zeros_X[j] for zset in sets) for j in range(n))
    directions = []
    reversals = 0
    for row in traj:
        diffs = [b - a for a, b in zip(row, row[1:])]
        if all(d > 0.0 for d in diffs):
            directions.append("increasing")
        elif all(d < 0.0 for d in diffs):
            directions.append("decreasing")
        else:
            directions.append("non-monotone")
            lead = 1.0 if diffs[0] > 0 else -1.0
            reversals += sum(1 for d in diffs if d * lead <= 0.0)
    claim = next((c for c in fam.claims() if c.param == param), None)
    claimed = claim.direction if claim is not None else None
    agrees = None
    if claimed is not None:
        agrees = all(d == claimed for d in directions)
    return MonotonicityVerdict(
        kind=fam.kind,
        degree=n,
        param=param,
        ts=tuple(ts),
        trajectories=traj,
        directions=tuple(directions),
        reversals=reversals,
        claimed=claimed,
        agrees=agrees,
    )
