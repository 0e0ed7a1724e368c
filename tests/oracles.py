"""Test oracles: values the library computes another way.

The float series as the compensated loops the float plans replaced, summed
with the Neumaier accumulator, and the lattice curvature entries b_jk in
closed form, against which the tests check stieltjes.b_entry, the generic
form from the lattice map.
"""

import math

from copz import DomainError, UndefinedSeriesError
from copz.qseries import Neumaier


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
