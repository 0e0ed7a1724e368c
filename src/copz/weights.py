"""Weight tables from the first-order ratio recurrence, and orthogonality checks.

The weight is generated from the coefficient tables themselves,

    w(s+1)/w(s) = B(s) dx(s-1/2) / [A(s+1) dx(s+1/2)],

normalized to w(a) = 1 and accumulated in log space.  Sums use the positively
oriented measure w(s) |dx(s-1/2)| so that norms stay positive on decreasing
lattices.  A non-positive ratio signals an inconsistent coefficient table; by
default it raises, and with ``allow_sign_flip`` the table is built from the
absolute ratios, for a caller that has already flagged the table.

Orthogonality sums take the polynomial values from the exact lattice path,
``eval_exact_at_support``, in one batched call over the table's points: float
summation loses every digit near the top support points at higher degrees,
where the terminating series cancels by many orders.  Each value is the exact
rational's correctly rounded float: a sum with integers wider than 128 bits
is taken first at 128 bits with a rigorous error radius, and summed exactly
only where the radius leaves its rounding in doubt.  In that call every
degree reads one table of factor products per point, so the 128-bit sum of
a degree at a point is one dot product with that degree's ratio products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, TruncationError, WeightPositivityError
from .families import FamilySpec, _count, eval_exact_at_support
from .qseries import Neumaier

_TAIL_REL = 1e-14
_MAX_POINTS = 10_000


@dataclass(frozen=True)
class WeightTable:
    """Log-space weight values on s = start, start+1, ... with w(start) = 1.

    ``terms`` holds the walk's ratio terms, _ratio_terms at each s but the
    last, whose quotient is w(s+1)/w(s): pearson_residual_max reads them.
    """

    family: FamilySpec
    start: float
    log_values: tuple[float, ...]
    log_measures: tuple[float, ...]  # log w(s) + log|dx(s-1/2)|, the measure sums use
    truncation_bound: float
    terms: tuple[tuple[float, float], ...] = field(default=(), repr=False)

    def __len__(self) -> int:
        return len(self.log_values)

    def s_at(self, k: int) -> float:
        return self.start + k

    def weight(self, k: int) -> float:
        return math.exp(self.log_values[k])


def _ratio_terms(family: FamilySpec, s: float) -> tuple[float, float]:
    """B(s) dx(s-1/2) and A(s+1) dx(s+1/2), whose quotient is w(s+1)/w(s)."""
    g = family.grid
    _, B = family.coeffs_AB(s)
    A1, _ = family.coeffs_AB(s + 1.0)
    return B * g.delta_x_half(s), A1 * g.delta_x_half(s + 1.0)


def weight_ratio(family: FamilySpec, s: float) -> float:
    """The one-step ratio w(s+1)/w(s) read off the coefficient tables."""
    num, den = _ratio_terms(family, s)
    if den == 0.0:
        raise WeightPositivityError(s, math.inf)
    return num / den


def _mass_tail(log_mu: float, r: float) -> float:
    """The geometric tail mu r / (1 - r) past a point of measure mu = exp(log_mu)."""
    return math.exp(log_mu + math.log(r) - math.log1p(-r)) if r < 1.0 else math.inf


def weight_table(
    family: FamilySpec, degree_hint: int = 8, allow_sign_flip: bool = False
) -> WeightTable:
    """Tabulate the weight and its measure over the support in one walk.

    A finite table covers the N support points.  An infinite table stops
    2*max(1, degree_hint) points past the first point where both the mass
    tail and the tail weighted by max(1, |X|)^(2*degree_hint) drop below the
    relative bound.  That margin covers pairing sums up to degree
    ``degree_hint``: on decreasing lattices the polynomials tend to 1 in the
    tail while high-degree norms are tiny.

    The walk reads A, B and dx(s-1/2) once per point: the step from s takes
    B(s) and dx(s-1/2) from the step before, which read them at its s + 1.0,
    wherever that is the same float as this s, and reads them afresh where
    it is not.  Each ratio is weight_ratio's bit for bit, in the same order
    of calls where one raises.

    A degree_hint that is not an integer (by operator.index) or is negative
    raises DomainError.
    """
    degree_hint = _count(family, "degree_hint", degree_hint)
    g = family.grid
    a = family.support_start
    margin = 2 * max(1, degree_hint)
    stop = int(round(family.support_end - a)) - 1 if family.is_finite else None
    logs, log_measures, terms = [], [], []
    mass_partial = Neumaier()
    heavy_max = prev_heavy = -math.inf
    log_w = 0.0
    # the last point whose A, B and whose dx(s-1/2) were read, and their values
    s_ab = s_dx = None
    for k in range(_MAX_POINTS):
        if k:
            s = a + (k - 1)
            B = ab[1] if s == s_ab else family.coeffs_AB(s)[1]
            s_ab = s + 1.0
            ab = family.coeffs_AB(s_ab)
            num = B * dx_half  # dx(s-1/2), read at the end of the step before
            s_dx, dx_half = s_ab, g.delta_x_half(s_ab)
            den = ab[0] * dx_half
            terms.append((num, den))
            if den == 0.0:
                raise WeightPositivityError(s, math.inf)
            r = num / den
            if r <= 0.0 or math.isinf(r):
                if not allow_sign_flip or r == 0.0 or math.isinf(r):
                    raise WeightPositivityError(s, r)
                r = -r
            log_w += math.log(r)
            if log_w > 600.0:
                raise TruncationError(
                    f"{family.kind}: weight magnitude overflow (log w = {log_w:.1f} at s={s + 1})"
                )
        s = a + k
        if s != s_dx:
            s_dx, dx_half = s, g.delta_x_half(s)
        # a zero step at s = a is a coefficient pole, which the next ratio reports
        dx = abs(dx_half)
        logmu = log_w + (math.log(dx) if dx else -math.inf)
        logs.append(log_w)
        log_measures.append(logmu)
        if not family.is_finite:
            if logmu > 600.0:
                raise TruncationError(
                    f"{family.kind}: weight measure diverges (log mass {logmu:.1f} at s={s})"
                )
            mass_partial.add(math.exp(logmu))
            h = logmu + margin * math.log(max(1.0, abs(g.x_raw(s))))
            heavy_max = max(heavy_max, h)
            rh = math.exp(h - prev_heavy) if h < prev_heavy else 1.0
            prev_heavy = h
            if stop is None and rh < 0.999:
                if h + math.log(rh) - math.log1p(-rh) <= heavy_max + math.log(_TAIL_REL):
                    if _mass_tail(logmu, rh) / mass_partial.value <= _TAIL_REL:
                        stop = k + margin
        if k == stop:
            bound = 0.0 if family.is_finite else _mass_tail(logmu, rh) / mass_partial.value
            return WeightTable(
                family, a, tuple(logs), tuple(log_measures), bound, tuple(terms)
            )
    raise TruncationError(
        f"{family.kind}: weight table exceeded {_MAX_POINTS} points without meeting its tail bound"
    )


def _pair_sum_values(
    table: WeightTable, vm: list[float], vn: list[float]
) -> float:
    # Neumaier.add's steps on local variables, in its order
    total = comp = 0.0
    for a, b, log_mu in zip(vm, vn, table.log_measures, strict=True):
        prod = a * b
        if prod == 0.0:
            continue
        v = math.copysign(math.exp(math.log(abs(prod)) + log_mu), prod)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def _check_table(family: FamilySpec, table: WeightTable) -> None:
    """DomainError unless the table was walked for family, or for a family of
    the same base: an alias's table is its base's, point for point."""
    if family.resolve_base() != table.family.resolve_base():
        raise DomainError(
            f"{family.kind} {dict(family.params)}: the weight table was walked for"
            f" {table.family.kind} {dict(table.family.params)}"
        )


def orthogonality_residual(
    family: FamilySpec, m: int, n: int, table: WeightTable
) -> float:
    """Normalized pairing of degrees m and n; the m = n case returns the norm squared.

    The norm is the family's own, an alias's prefactor included.  The m != n
    pairing reads an alias's base values, as the Gram matrix does: the
    normalization cancels the prefactor.  A table walked for a family of
    another base raises DomainError, as in pearson_residual_max.
    """
    _check_table(family, table)
    if m == n:
        (v,) = eval_exact_at_support(family, (n,), range(len(table)))
        return _pair_sum_values(table, v, v)
    vm, vn = eval_exact_at_support(family.resolve_base(), (m, n), range(len(table)))
    smn = _pair_sum_values(table, vm, vn)
    return abs(smn) / math.sqrt(
        _pair_sum_values(table, vm, vm) * _pair_sum_values(table, vn, vn)
    )


def gram_offdiag_max(family: FamilySpec, kmax: int, table: WeightTable) -> float:
    """Largest normalized off-diagonal entry of the Gram matrix of degrees 0..kmax.

    An alias pairs its base's values: its prefactor only rescales each degree.
    A kmax that is not an integer (by operator.index) or is negative raises
    DomainError, and so does a table walked for a family of another base, as
    in pearson_residual_max.
    """
    kmax = _count(family, "kmax", kmax)
    _check_table(family, table)
    values = eval_exact_at_support(family.resolve_base(), range(kmax + 1), range(len(table)))
    norms = [_pair_sum_values(table, v, v) for v in values]
    worst = 0.0
    for m in range(kmax + 1):
        for n in range(m + 1, kmax + 1):
            r = abs(_pair_sum_values(table, values[m], values[n])) / math.sqrt(
                norms[m] * norms[n]
            )
            worst = max(worst, r)
    return worst


def pearson_residual_max(family: FamilySpec, table: WeightTable) -> float:
    """Largest pointwise residual of the ratio recurrence over the table.

    The ratio terms are those the table's walk read (WeightTable.terms), so
    the table must be walked for family or a family of the same base, whose
    terms are the same: another raises DomainError.
    """
    _check_table(family, table)
    worst = 0.0
    for k, (t2, t1) in enumerate(table.terms):
        # w(s+1) t1 - w(s) t2 = 0, evaluated through the log table
        lhs = math.exp(table.log_values[k + 1] - table.log_values[k]) * t1
        scale = max(abs(lhs), abs(t2))
        if scale > 0.0:
            worst = max(worst, abs(lhs - t2) / scale)
    return worst
