"""Test oracles: values the library computes another way.

The float series as the compensated loops the float plans replaced, summed
with the Neumaier accumulator; the TwoSum-compensated loop over given term
ratios that qseries._block_sum takes as one block; the ITP bracket stepper the
zero search refined by before Chandrupatla's method, the baseline of its call
counts; the lattice curvature entries b_jk in closed form, against which the
tests check stieltjes.b_entry, the generic form from the lattice map; the
closed forms of four summation identities (Chu-Vandermonde, Sheppard,
q-Pfaff-Saalschutz, q-Chu-Vandermonde), against which the tests check the
series; the inverse of each lattice map; and the boundary terms of the
weighted lower coefficient, which vanish at both support ends.
"""

import math
from dataclasses import dataclass

from copz import DomainError, SingularityError, UndefinedSeriesError, weight_table
from copz.families import FamilySpec
from copz.grid import LINEAR, Q_EXP, Q_EXP_NEG, Q_SYMMETRIC, QUADRATIC, Grid
from copz.qseries import Neumaier, q_pochhammer
from copz.weights import weight_ratio
from copz.zeros import _WIDTH_REL

# relative slop for inverse-map arguments that sit on the image boundary
_EDGE_TOL = 1e-9


def reference_hyper_sum(num, den, z, n):
    """The float iFj(num; den; z) over k = 0..n, one term after another."""
    acc = Neumaier()
    term = 1.0
    acc.add(term)
    for k in range(n):
        ratio = z / (k + 1.0)
        for a in num:
            ratio *= a + k
        for b in den:
            d = b + k
            if d == 0.0:
                raise UndefinedSeriesError(
                    f"denominator parameter {b!r} vanishes at k={k + 1}"
                )
            ratio /= d
        term *= ratio
        acc.add(term)
    return acc.value


def reference_qhyper_sum(num, den, q, z, n):
    """The float iφj(num; den; q, z) over k = 0..n, one term after another."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    excess = 1 + len(den) - len(num)
    acc = Neumaier()
    term = 1.0
    acc.add(term)
    qk = 1.0
    for k in range(n):
        ratio = z
        for a in num:
            ratio *= 1.0 - a * qk
        for b in den:
            d = 1.0 - b * qk
            if d == 0.0:
                raise UndefinedSeriesError(
                    f"denominator parameter {b!r} vanishes at k={k + 1}"
                )
            ratio /= d
        ratio /= 1.0 - q * qk
        if excess:
            ratio *= (-qk) ** excess
        term *= ratio
        acc.add(term)
        qk *= q
    return acc.value


def reference_compensated_sum(ratios):
    """1 + r_0 + r_0 r_1 + ... over the term ratios, one term after another,
    each addition's TwoSum error carried in a second sum."""
    total, comp, term = 1.0, 0.0, 1.0
    for ratio in ratios:
        term = term * ratio
        t = total + term
        v = t - total
        comp = comp + ((total - (t - v)) + (term - v))
        total = t
    return total + comp


def reference_itp(lo: float, hi: float, glo: float, ghi: float):
    """Refine the bracket [lo, hi], where g changes sign, by ITP, as a
    stepper: the generator yields each trial point, is sent g there, and
    returns the zero and the final bracket width.

    ITP (Oliveira & Takahashi, ACM TOMS 2020) steps from the regula falsi
    point towards the midpoint by kappa1 * width**kappa2, at least eps, and
    projects the step into a ball about the midpoint that shrinks so that the
    bracket narrows to 2 eps = _WIDTH_REL * max(1, |s|) within
    ceil(log2(width / (2 eps))) + n0 trial points, bisection's count plus n0.
    kappa1 = 0.2 / width, kappa2 = 2 and n0 = 1.  A point where g is exactly
    0.0 is returned with width 0.0, as a scan node zero is.
    """
    if lo == hi:
        return lo, 0.0
    eps = 0.5 * _WIDTH_REL * max(1.0, abs(0.5 * (lo + hi)))
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / (2.0 * eps))) + 1
    for j in range(n_max):
        width = hi - lo
        if width <= 2.0 * eps:
            break
        mid = 0.5 * (lo + hi)
        xf = lo + width * (glo / (glo - ghi))
        sigma = math.copysign(1.0, mid - xf)
        # kappa1 * width**2 drops below an ulp of s as the bracket closes; a
        # step of eps keeps xt off xf, which may already be a bracket end
        delta = max(kappa1 * width * width, eps)
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        r = math.ldexp(eps, n_max - j) - 0.5 * width
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        gx = yield x
        if gx == 0.0:
            return x, 0.0
        if (glo < 0.0) == (gx < 0.0):
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
    # inside the final bracket the polynomial is linear to machine precision;
    # one secant step takes the zero well below the bracket width
    if ghi != glo:
        z = hi - ghi * (hi - lo) / (ghi - glo)
        if lo <= z <= hi:
            return z, hi - lo
    return 0.5 * (lo + hi), hi - lo


def b_quadratic_closed(yj: float, yk: float) -> float:
    """Closed form of b_jk on the lattice X = s(s+1)."""
    return 4.0 / ((yj + yk) * (yj + yk + 2.0))


def b_symmetric_closed(theta: float, yj: float, yk: float) -> float:
    """Closed form of b_jk on the cosh lattice, base q = exp(-2*theta)."""
    u1 = (yj + yk - 1.0) * theta
    u2 = (yj + yk + 1.0) * theta
    return 2.0 * theta * math.sinh(2.0 * theta) / (math.sinh(u1) * math.sinh(u2))


def b_antisymmetric_closed(theta: float, yj: float, yk: float) -> float:
    """Closed form of b_jk on the sinh lattice; lands in (-1, 0)."""
    u1 = (yj + yk - 1.0) * theta
    u2 = (yj + yk + 1.0) * theta
    return -2.0 * theta * math.sinh(2.0 * theta) / (math.cosh(u1) * math.cosh(u2))


def theta(grid: Grid) -> float:
    """Positive hyperbolic rate of a q-lattice; the base satisfies q = exp(-2*theta)."""
    if grid.q is None:
        raise DomainError(f"{grid.tag} lattice has no theta")
    return -0.5 * math.log(grid.q)


def x_inverse(grid: Grid, X: float) -> float:
    """The s with grid.x(s) = X on the monotone branch."""
    if grid.tag == LINEAR:
        return X
    if grid.tag == QUADRATIC:
        lo = -0.25
        if X < lo - _EDGE_TOL * max(1.0, abs(lo)):
            raise DomainError(f"X={X!r} below the quadratic-lattice image")
        return 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * X)))
    q = grid.q
    if grid.tag in (Q_EXP_NEG, Q_EXP):
        if X <= 0.0:
            raise DomainError(f"X={X!r} outside the image of {grid.tag}")
        s = math.log(X) / math.log(q)
        return -s if grid.tag == Q_EXP_NEG else s
    if grid.tag == Q_SYMMETRIC:
        if X < 1.0 - _EDGE_TOL:
            raise DomainError(f"X={X!r} below the symmetric-lattice image")
        X = max(X, 1.0)
        # q^s = X - sqrt(X^2-1); evaluate through the large root for stability
        s = -math.log(X + math.sqrt(X * X - 1.0)) / math.log(q)
        # x magnifies an ulp of s about s |ln q| times, so keep whichever
        # neighbour of the rounded s lands closest to X
        steps = (s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf))
        return min(steps, key=lambda t: abs(grid.x_raw(t) - X))
    return math.asinh(X) / (2.0 * theta(grid))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k; the empty product is 1."""
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def chu_vandermonde(n: int, b: float, c: float) -> float:
    """2F1(-n, b; c; 1) = (c-b)_n / (c)_n."""
    den = pochhammer(c, n)
    if den == 0.0:
        raise DomainError(f"(c)_n vanishes for c={c!r}, n={n}")
    return pochhammer(c - b, n) / den


def sheppard(n: int, a: float, b: float, c: float) -> float:
    """Balanced 3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / [(c)_n (c-a-b)_n]."""
    den = pochhammer(c, n) * pochhammer(c - a - b, n)
    if den == 0.0:
        raise DomainError(f"denominator shifted factorial vanishes for c={c!r}, n={n}")
    return pochhammer(c - a, n) * pochhammer(c - b, n) / den


def q_pfaff_saalschutz(n: int, a: float, b: float, c: float, q: float) -> float:
    """Balanced 3φ2(q^-n, a, b; c, a b q^(1-n)/c; q, q) in closed form."""
    if a == 0.0 or b == 0.0 or c == 0.0:
        raise DomainError("parameters of the balanced 3φ2 must be nonzero")
    den = q_pochhammer(c, q, n) * q_pochhammer(c / (a * b), q, n)
    if den == 0.0:
        raise DomainError("denominator q-shifted factorial vanishes")
    return q_pochhammer(c / a, q, n) * q_pochhammer(c / b, q, n) / den


def q_chu_vandermonde(n: int, b: float, c: float, q: float) -> float:
    """2φ1(q^-n, b; c; q, q) = b^n (c/b; q)_n / (c; q)_n."""
    if b == 0.0:
        raise DomainError("b must be nonzero")
    den = q_pochhammer(c, q, n)
    if den == 0.0:
        raise DomainError(f"(c; q)_n vanishes for c={c!r}, n={n}")
    return b**n * q_pochhammer(c / b, q, n) / den


@dataclass(frozen=True)
class BoundaryReport:
    passed: bool
    start_residuals: tuple[float, ...]
    end_residuals: tuple[float, ...]


def _a_lower(family: FamilySpec, s: float) -> float:
    """The lower-coefficient product A(s) * dx(s-1) * dx(s-1/2), limit-safe in A."""
    g = family.grid
    try:
        A, _ = family.coeffs_AB(s)
    except SingularityError:
        A, _ = family.coeffs_AB(s + 1e-7)
    return A * g.delta_x(s - 1.0) * g.delta_x_half(s)


def boundary_check(family: FamilySpec, k_max: int = 3) -> BoundaryReport:
    """Verify that the weighted lower coefficient vanishes at both support ends.

    Finite support: w(a) a(a) = 0 and w(b) a(b) = 0 exactly (up to rounding).
    Infinite support: the tabulated tail term must have decayed relative to the
    table maximum, for each moment order k = 0..k_max.
    """
    table = weight_table(family, degree_hint=max(k_max, 2), allow_sign_flip=True)
    g = family.grid
    a = family.support_start
    scale = max(math.exp(lv) for lv in table.log_values)
    aa = _a_lower(family, a)
    start = [abs(aa * g.x_raw(a - 0.5) ** k) / scale for k in range(k_max + 1)]
    end = []
    if family.is_finite:
        b = family.support_end
        r = weight_ratio(family, b - 1.0)
        w_b = math.exp(table.log_values[-1]) * abs(r)
        ab = _a_lower(family, b)
        for k in range(k_max + 1):
            xb = g.x_raw(b - 0.5) ** k
            end.append(abs(w_b * ab * xb) / scale)
        tol = 1e-10 * max(1.0, abs(g.x_raw(b - 0.5))) ** k_max
        ok = all(r <= tol for r in start + end)
        return BoundaryReport(ok, tuple(start), tuple(end))
    last = len(table) - 1
    s_last = table.s_at(last)
    a_last = _a_lower(family, s_last)
    log_max = max(table.log_values)
    for k in range(k_max + 1):
        tail = table.log_values[last] + math.log(max(abs(a_last), 1e-300))
        tail += k * math.log(max(1.0, abs(g.x_raw(s_last - 0.5))))
        end.append(math.exp(tail - log_max) / max(scale, 1.0))
    ok = all(r <= 1e-10 for r in start) and all(r <= 1e-8 for r in end)
    return BoundaryReport(ok, tuple(start), tuple(end))
