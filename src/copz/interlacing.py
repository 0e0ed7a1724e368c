"""Zero interlacing between support sizes N and N+1 for finite families.

The statements here require the two instances to be orthogonal with respect to
the same weight function; the precondition is checked numerically by comparing
the one-step weight ratios on the shared support.  Among the catalogued
parameterizations the check passes when the weight shape is N-free (for
example the linear-lattice four-parameter family with its first parameter at
zero); instances whose weight depends on N in shape are reported
not-applicable rather than force-normalized.

Monic polynomials are rebuilt from the computed zeros, since the connection
formula

    P_n[N+1](X) = P_n[N](X)
                  - eta_n P_n[N+1](x(b)) (P_{n-1}[N](x(b)) P_n[N](X)
                                          - P_n[N](x(b)) P_{n-1}[N](X)) / (X - x(b)),

with eta_n = w(b) dx(b-1/2) / ||P_{n-1}[N]||^2, holds in the monic
normalization.  Setting X = x(b) gives zeta_n P_n[N+1](x(b)) = P_n[N](x(b))
with zeta_n = 1 + eta_n (P_{n-1}(x(b)) P_n'(x(b)) - P_{n-1}'(x(b)) P_n(x(b))).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, EvaluationOverflowError, WeightMismatchError
from .families import MAX_FINITE_SUPPORT, FamilySpec, ZeroProblem, make_family
from .weights import weight_ratio, weight_table
from .zeros import find_zeros

_SAME_WEIGHT_TOL = 1e-12
_IDENTICAL_TOL = 1e-10


def _monic(zeros):
    def p(X: float) -> float:
        out = 1.0
        for y in zeros:
            out *= X - y
        return out

    return p


def _pair(kind: str, params: dict, N: int) -> tuple[FamilySpec, FamilySpec]:
    key_params = dict(params)
    key_params.pop("N", None)
    spec_n = make_family(kind, {**key_params, "N": N})
    if N + 1 > MAX_FINITE_SUPPORT:
        raise DomainError(
            f"{spec_n.kind}: interlacing compares N with N+1, so N must satisfy "
            f"N+1 <= {MAX_FINITE_SUPPORT} (got {N!r})"
        )
    spec_n1 = make_family(kind, {**key_params, "N": N + 1})
    return spec_n, spec_n1


def same_weight(spec_n: FamilySpec, spec_n1: FamilySpec) -> bool:
    """True when both instances share the weight shape on the common support."""
    a = spec_n.support_start
    npts = int(round(spec_n.support_end - a))
    for k in range(npts - 1):
        s = a + k
        r1 = weight_ratio(spec_n, s)
        r2 = weight_ratio(spec_n1, s)
        if abs(r1 - r2) > _SAME_WEIGHT_TOL * max(abs(r1), abs(r2), 1.0):
            return False
    return True


@dataclass(frozen=True)
class InterlacingReport:
    kind: str
    params: dict
    n: int
    N: int
    zeros_n: tuple[float, ...]  # X values, ascending
    zeros_n1: tuple[float, ...]
    xb: float
    p_at_xb: float
    case: str  # "identical" | "interior-interlace" | "split-at-xb"
    zone_counts: tuple[int, ...]
    zones_ok: bool
    weight_shared: bool
    connection: float | None  # connection-formula residual; None unless the weight is shared


def interlace_check(
    kind: str, params: dict, n: int, N: int, check_weight: bool = True
) -> InterlacingReport:
    """Classify how the degree-n zeros move when the support grows by one point.

    With ``check_weight`` (the default), instances whose weight shape depends
    on N raise WeightMismatchError; pass False to compute the empirical report
    anyway.  Shared-weight instances also carry the connection-formula residual.
    """
    spec_n, spec_n1 = _pair(kind, params, N)
    problem_n, problem_n1 = ZeroProblem(spec_n, n), ZeroProblem(spec_n1, n)
    shared = same_weight(spec_n, spec_n1)
    if check_weight and not shared:
        raise WeightMismatchError(
            f"{spec_n.kind}: weight shape depends on the support size; interlacing "
            "statements need a shared weight"
        )
    zn = find_zeros(problem_n).zeros_X_sorted
    zn1 = find_zeros(problem_n1).zeros_X_sorted
    g = spec_n.grid
    xb = g.x(spec_n.support_end)
    p = _monic(zn)
    p_at_xb = p(xb)
    try:
        scale = max(abs(xb - y) for y in zn) ** n
    except OverflowError as exc:
        raise EvaluationOverflowError(
            f"{spec_n.kind}: max|x(b) - y_j|^{n} over the degree-{n} zeros overflows "
            f"the float range (x(b)={xb!r})"
        ) from exc
    case = classify_case(zn, xb, p_at_xb, scale)
    if case == "identical":
        zone_counts: tuple[int, ...] = ()
        ok = max(abs(u - v) for u, v in zip(zn, zn1)) <= 1e-8 * max(1.0, abs(xb))
    else:
        # x(b) splits the zeros or, on the increasing finite lattices, sits above them
        bounds = sorted([*zn, xb])
        counts = []
        for lo, hi in zip(bounds, bounds[1:]):
            counts.append(sum(1 for z in zn1 if lo < z < hi))
        zone_counts = tuple(counts)
        ok = all(cnt == 1 for cnt in zone_counts)
    conn = _connection(spec_n, spec_n1, n, zn, zn1) if shared else None
    return InterlacingReport(
        kind=spec_n.kind,
        params=dict(spec_n.params),
        n=n,
        N=N,
        zeros_n=zn,
        zeros_n1=zn1,
        xb=xb,
        p_at_xb=p_at_xb,
        case=case,
        zone_counts=zone_counts,
        zones_ok=ok,
        weight_shared=shared,
        connection=conn,
    )


def connection_residual(
    kind: str, params: dict, n: int, N: int, sample_X=None
) -> float:
    """Largest relative residual of the support-extension connection formula.

    Also folds in the boundary-value relation zeta_n P_n[N+1](x(b)) =
    P_n[N](x(b)); derivatives inside zeta_n are central differences.  Sample
    points equal to x(b) are skipped (removable singularity).
    """
    spec_n, spec_n1 = _pair(kind, params, N)
    problem_n, problem_n1 = ZeroProblem(spec_n, n), ZeroProblem(spec_n1, n)
    if not same_weight(spec_n, spec_n1):
        raise WeightMismatchError(
            f"{spec_n.kind}: connection formula needs a shared weight shape"
        )
    zn = find_zeros(problem_n).zeros_X_sorted
    zn1 = find_zeros(problem_n1).zeros_X_sorted
    return _connection(spec_n, spec_n1, n, zn, zn1, sample_X)


def _connection(spec_n, spec_n1, n: int, zn, zn1, sample_X=None) -> float:
    """connection_residual from the pair and its two degree-n zero sets (X, ascending)."""
    g = spec_n.grid
    xb = g.x(spec_n.support_end)
    znm1 = (
        find_zeros(ZeroProblem(spec_n, n - 1)).zeros_X_sorted if n >= 2 else ()
    )
    pn = _monic(zn)
    pn1 = _monic(zn1)
    pnm1 = _monic(znm1)

    # the (N+1)-instance table covers the shared support plus s = b
    table = weight_table(spec_n1)
    a = spec_n.support_start
    npts = int(round(spec_n.support_end - a))
    hnm1 = 0.0
    for k in range(npts):
        s = a + k
        hnm1 += pnm1(g.x_raw(s)) ** 2 * table.weight(k) * g.delta_x_half(s)
    w_b = table.weight(npts)
    eta = w_b * g.delta_x_half(spec_n.support_end) / hnm1

    pb_n = pn(xb)
    pb_n1 = pn1(xb)
    pb_nm1 = pnm1(xb)

    if sample_X is None:
        sample_X = [0.5 * (u + v) for u, v in zip(zn, zn[1:])]
        sample_X.append(0.5 * (g.x(a) + zn[0]))
    worst = 0.0
    for X in sample_X:
        if X == xb:
            continue
        lhs = pn1(X)
        rhs = pn(X) - eta * pb_n1 * (pb_nm1 * pn(X) - pb_n * pnm1(X)) / (X - xb)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

    h = 1e-6 * max(1.0, abs(xb))
    dpn = (pn(xb + h) - pn(xb - h)) / (2.0 * h)
    dpnm1 = (pnm1(xb + h) - pnm1(xb - h)) / (2.0 * h)
    zeta = 1.0 + eta * (pb_nm1 * dpn - dpnm1 * pb_n)
    zeta_residual = abs(zeta * pb_n1 - pb_n) / max(1.0, abs(pb_n))
    return max(worst, zeta_residual)


def classify_case(zeros_n, xb: float, p_at_xb: float, scale: float) -> str:
    """Trichotomy decision used by interlace_check, exposed for direct testing."""
    if abs(p_at_xb) <= _IDENTICAL_TOL * max(scale, 1.0):
        return "identical"
    n = len(zeros_n)
    if any(zeros_n[k] < xb < zeros_n[k + 1] for k in range(n - 1)):
        return "split-at-xb"
    return "interior-interlace"
