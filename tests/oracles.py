"""Test oracles: values the library computes another way.

The float series as the compensated loops the float plans replaced, summed
with the Neumaier accumulator; the TwoSum-compensated loop over given term
ratios that qseries._block_sum takes as one block; the ITP stepper
zeros._itp was before its steps traded calls for comparisons; and the
lattice curvature entries b_jk in closed form, against which the tests check
stieltjes.b_entry, the generic form from the lattice map.
"""

import math

from copz import DomainError, UndefinedSeriesError
from copz.qseries import Neumaier
from copz.zeros import _WIDTH_REL


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
