"""Canonical lattices s -> X: pointwise maps, derivatives, differences.

Every q-dependent lattice is parameterized with a base 0 < q < 1.  The
symmetric form (q^s + q^-s)/2 and the antisymmetric form (q^-s - q^s)/2 are
cosh/sinh profiles in s with rate 2*theta, theta = -ln(q)/2 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

LINEAR = "linear"
QUADRATIC = "quadratic"
Q_EXP_NEG = "q_exp_neg"
Q_EXP = "q_exp"
Q_SYMMETRIC = "q_symmetric"
Q_ANTISYMMETRIC = "q_antisymmetric"

_Q_TAGS = (Q_EXP_NEG, Q_EXP, Q_SYMMETRIC, Q_ANTISYMMETRIC)


@dataclass(frozen=True)
class Grid:
    """One lattice map together with its calculus helpers.

    All methods are pure functions of the immutable fields; instances are
    safe to share between threads.
    """

    tag: str
    q: float | None = None

    def __post_init__(self):
        if self.tag in (LINEAR, QUADRATIC):
            if self.q is not None:
                raise DomainError(f"{self.tag} lattice takes no base q")
        elif self.tag in _Q_TAGS:
            if self.q is None or not 0.0 < self.q < 1.0:
                raise DomainError(
                    f"{self.tag} lattice needs base q in (0, 1), got {self.q!r}"
                )
        else:
            raise DomainError(f"unknown lattice tag {self.tag!r}")

    @property
    def increasing(self) -> bool:
        return self.tag != Q_EXP

    @property
    def direction(self) -> float:
        """+1 for increasing lattices, -1 for decreasing ones."""
        return 1.0 if self.increasing else -1.0

    def domain_contains(self, s: float) -> bool:
        if self.tag == QUADRATIC:
            return s > -0.5
        if self.tag == Q_SYMMETRIC:
            return s >= 0.0
        return True

    def x_raw(self, s: float) -> float:
        """The lattice formula without the monotonicity-domain guard.

        Shifted arguments such as s-1 in three-point relations may leave the
        monotone branch; the formulas themselves are total.
        """
        if self.tag == LINEAR:
            return s
        if self.tag == QUADRATIC:
            return s * (s + 1.0)
        q = self.q
        if self.tag == Q_EXP_NEG:
            return q ** (-s)
        if self.tag == Q_EXP:
            return q**s
        if self.tag == Q_SYMMETRIC:
            return 0.5 * (q**s + q ** (-s))
        return 0.5 * (q ** (-s) - q**s)

    def x(self, s: float) -> float:
        """Lattice value at s; s must lie on the strictly monotone branch."""
        if not self.domain_contains(s):
            raise DomainError(f"s={s!r} outside the monotone domain of {self.tag}")
        return self.x_raw(s)

    def dx_ds(self, s: float) -> float:
        """Analytic derivative of the lattice map."""
        if self.tag == LINEAR:
            return 1.0
        if self.tag == QUADRATIC:
            return 2.0 * s + 1.0
        q = self.q
        lq = math.log(q)
        if self.tag == Q_EXP_NEG:
            return -lq * q ** (-s)
        if self.tag == Q_EXP:
            return lq * q**s
        if self.tag == Q_SYMMETRIC:
            return 0.5 * lq * (q**s - q ** (-s))
        return -0.5 * lq * (q ** (-s) + q**s)

    def delta_x(self, s: float) -> float:
        """Forward difference x(s+1) - x(s)."""
        return self.x_raw(s + 1.0) - self.x_raw(s)

    def delta_x_half(self, s: float) -> float:
        """Centered step x(s+1/2) - x(s-1/2)."""
        return self.x_raw(s + 0.5) - self.x_raw(s - 0.5)
