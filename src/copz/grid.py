"""Canonical lattices s -> X: pointwise maps, inverses, derivatives, differences.

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

# relative slop for inverse-map arguments that sit on the image boundary
_EDGE_TOL = 1e-9


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

    @property
    def theta(self) -> float:
        """Positive hyperbolic rate; the base satisfies q = exp(-2*theta)."""
        if self.q is None:
            raise DomainError(f"{self.tag} lattice has no theta")
        return -0.5 * math.log(self.q)

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

    def x_inverse(self, X: float) -> float:
        """The s with x(s) = X on the monotone branch."""
        if self.tag == LINEAR:
            return X
        if self.tag == QUADRATIC:
            lo = -0.25
            if X < lo - _EDGE_TOL * max(1.0, abs(lo)):
                raise DomainError(f"X={X!r} below the quadratic-lattice image")
            return 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * X)))
        q = self.q
        if self.tag in (Q_EXP_NEG, Q_EXP):
            if X <= 0.0:
                raise DomainError(f"X={X!r} outside the image of {self.tag}")
            s = math.log(X) / math.log(q)
            return -s if self.tag == Q_EXP_NEG else s
        if self.tag == Q_SYMMETRIC:
            if X < 1.0 - _EDGE_TOL:
                raise DomainError(f"X={X!r} below the symmetric-lattice image")
            X = max(X, 1.0)
            # q^s = X - sqrt(X^2-1); evaluate through the large root for stability
            s = -math.log(X + math.sqrt(X * X - 1.0)) / math.log(q)
            # x magnifies an ulp of s about s |ln q| times, so keep whichever
            # neighbour of the rounded s lands closest to X
            steps = (s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf))
            return min(steps, key=lambda t: abs(self.x_raw(t) - X))
        return math.asinh(X) / (2.0 * self.theta)

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
