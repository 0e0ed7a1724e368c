"""Catalog of discrete orthogonal polynomial families on the canonical lattices.

An entry states what sets its family apart: a domain table, the lattice tag,
one (q-)hypergeometric series, the three-point difference-equation
coefficients A and B, the catalogued zero-monotonicity claims, and the sign
interval K where it is not the default.  The rest follows from the parameters
a, N and q, which every family reads the same way: the grid is the tagged
lattice with base q, the support is [a, a+N) or [a, inf) with a = 0 where the
family has no a, the degree cap is N-1 or INFINITE_DEGREE_CAP, K defaults to
the support less its top point, and a claim on a bounded interval sweeps its
central 80%.

The domain table holds one record per parameter: the inequality as
``copz families`` prints it, beside the predicate that enforces it.  The series
is written once over the base q and lattice atoms taken from s, not from
X = x(s) (see _lattice_atoms), so a float value overflows where an atom does;
exact rational atoms come from a support index, or on the quadratic lattice
from Fraction(s).  X serves output, the weights and the Stieltjes system.

The three-point relation determines A and B only up to a common factor;
everything downstream consumes the ratio f = B/A and its signs, except the
weight recurrence, which needs the canonical scaling (it mixes A and B at
neighboring points).  The coefficients follow the standard tables in that
scaling; the intrinsic identity f(y) = -P(x(y-1))/P(x(y+1)) at every zero (see
the zeros module) is the arbiter for each entry, and two catalogued tables
(q-Bessel, little q-Laguerre) knowingly fail it and are kept as tabulated so
the diagnostics can flag them.

Alias families (q-Charlier, the first Al-Salam-Carlitz family, the special
big q-Jacobi case, q-Laguerre) are parameter/argument substitutions into a base
family.  They state their own domain, claims, prefactor and zero scale, and
take the base's lattice, support, degree cap, series, A, B and K.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, EvaluationOverflowError, SingularityError
from .grid import LINEAR, Q_EXP, Q_EXP_NEG, Q_SYMMETRIC, QUADRATIC, Grid
from .qseries import (
    _EXACT,
    _PointOverflow,
    binom2,
    exact_summation,
    hyper_sum,
    q_pochhammer,
    qhyper_sum,
)

INFINITE_DEGREE_CAP = 30
MAX_FINITE_SUPPORT = 60

# imaginary step of f_partials; h*f1 stays a normal float down to |f1| ~ 2e-288
_STEP = 1e-20

#: the eighteen families carrying catalogued monotonicity statements
#: (q-Charlier is an alias of q-Meixner but has a statement of its own)
CORE_FAMILIES = (
    "hahn",
    "charlier",
    "krawtchouk",
    "meixner",
    "racah",
    "dual_hahn",
    "q_meixner",
    "q_charlier",
    "al_salam_carlitz_2",
    "q_hahn",
    "q_krawtchouk",
    "affine_q_krawtchouk",
    "quantum_q_krawtchouk",
    "q_bessel",
    "little_q_jacobi",
    "little_q_laguerre",
    "q_racah",
    "dual_q_hahn",
)


def _central(lo: float, hi: float) -> tuple[float, float]:
    """Central 80% of a bounded interval."""
    pad = 0.1 * (hi - lo)
    return (lo + pad, hi - pad)


@dataclass(frozen=True)
class Claim:
    """One catalogued monotonicity statement for a single real parameter."""

    param: str
    direction: str  # "increasing" | "decreasing", in the polynomial variable X
    interval: tuple[float, float]  # stated validity interval (may be unbounded)
    # finite sweep window inside the interval; an unbounded interval states
    # its own, a bounded one defaults to its central 80%
    window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", _central(*self.interval))


@dataclass(frozen=True)
class FamilySpec:
    """A validated family instance bound to its lattice."""

    kind: str
    params: Mapping[str, float]
    grid: Grid
    support_start: float
    support_end: float  # math.inf for infinite support
    degree_max: int
    base: "FamilySpec | None" = None
    zero_scale: float = 1.0  # maps the base's X of a zero to the alias's, for output
    # on an alias's base, the alias: its errors name the family the caller asked for
    alias_kind: str | None = field(default=None, compare=False, repr=False)

    @property
    def _label(self) -> str:
        return self.alias_kind or self.kind

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.support_end)

    def resolve_base(self) -> "FamilySpec":
        return self.base if self.base is not None else self

    def _check_degree(self, n: int) -> None:
        if not 0 <= n <= self.degree_max:
            raise DomainError(f"{self._label}: degree n={n} outside 0..{self.degree_max}")

    def eval_at_s(self, n: int, s: float) -> float:
        """Value of the degree-n polynomial at the lattice point x(s), s on or
        off the monotone branch; at a point X it is eval_at_s(n, grid.x_inverse(X)).

        This is _at_s(n) at s, the one map from s to the value, which names an
        OverflowError of the lattice atoms or of the value as EvaluationOverflowError.
        """
        return self._at_s(n)(s)

    def _at_s(self, n: int) -> Callable[[float], float]:
        """eval_at_s(n, .) as a function of s, for the many calls of a zero
        search: the degree check, prefactor, series and lattice atoms (those
        of the summation in force here) are looked up once.  Where that lookup
        raises, the function repeats it at each s, after the atoms."""
        try:
            value = self._of_atoms(n)
        except (DomainError, ArithmeticError):
            value = lambda p, x: self._of_atoms(n)(p, x)
        p, atoms = _lattice_atoms(self.resolve_base(), _EXACT.get())

        def at_s(s: float) -> float:
            try:
                return value(p, atoms(s))
            except OverflowError as exc:
                raise self._overflow(n, s) from exc

        return at_s

    def _of_atoms(self, n: int) -> Callable[[dict, object], float]:
        """The degree-n value as a function of the series' parameters and
        lattice atoms, the degree checked and prefactor and series looked up
        once; an alias scales its base's value by its own prefactor."""
        self._check_degree(n)
        entry = _CATALOG[self.kind]
        pref = entry.prefactor(self.params, n)
        if self.base is not None:
            inner = self.base._of_atoms(n)
            return lambda p, x: pref * inner(p, x)
        series = entry.series
        return lambda p, x: pref * series(p, n, x)

    def eval_at_s_many(self, n: int, ss) -> list[float]:
        """eval_at_s at every s, in one array pass of the float series.

        Zero scans pass all their samples.  The refinement of 16 or more
        zero brackets passes the trial points of all the open ones, one pass
        per ITP round, since a pass costs about as much as 14-20 one-point
        calls.  Each value is eval_at_s's bit for bit, and the error raised
        is the one the per-sample loop meets first: the first sample goes
        through eval_at_s, so an overflow of its lattice atoms comes first,
        then the degree, prefactor and series errors, which no later sample
        escapes; then the first overflow of the atoms at a later sample.
        """
        # exact sums give lists, which _of_atoms does not scale by its prefactor;
        # one sample needs no array
        if _EXACT.get() or len(ss) < 2:
            return [self.eval_at_s(n, s) for s in ss]
        out = [self.eval_at_s(n, ss[0])]
        p, atoms = _lattice_atoms(self.resolve_base(), False)
        try:
            rows = [atoms(s) for s in ss[1:]]
        except OverflowError:
            for s in ss[1:]:  # name the first s whose atoms overflow
                try:
                    atoms(s)
                except OverflowError as exc:
                    raise self._overflow(n, s) from exc
        with np.errstate(all="ignore"):
            values = self._of_atoms(n)(p, _columns(rows))
        return out + np.broadcast_to(values, len(rows)).tolist()

    def _overflow(self, n: int, s: float) -> EvaluationOverflowError:
        return EvaluationOverflowError(
            f"{self._label}: the degree-{n} value at s={s!r} overflows the float range"
        )

    def _ab_overflow(self, s: float, exc: OverflowError) -> EvaluationOverflowError:
        # a table that knows the cause raises it typed; Python's own
        # OverflowError text names no cause worth printing
        why = f": {exc}" if isinstance(exc, EvaluationOverflowError) else ""
        return EvaluationOverflowError(
            f"{self._label}: the coefficients A, B at s={s!r} overflow the float range{why}"
        )

    def coeffs_AB(self, s: float) -> tuple[float, float]:
        """The three-point coefficients (A, B) at s in the canonical scaling.

        s may be a numpy array of points, real or complex: the table is then
        one elementwise pass, where a pole or an overflow of q**s gives a
        non-finite value (and numpy's warning) instead of an error.  numpy's
        power is not Python's to the last bit, so array values decide signs
        only; a scalar s gives the scalar table's values.
        """
        base = self.resolve_base()
        try:
            return _CATALOG[base.kind].ab(base.params, s)
        except OverflowError as exc:
            raise self._ab_overflow(s, exc) from exc

    def monotonicity_f(self, s: float) -> float:
        """The coefficient ratio f = B/A whose signs steer the zero motion.

        On an array of s, f comes from one pass of the table and is NaN at
        every sample where A or B is not finite or A = 0: the samples where a
        scalar call may raise or give a non-finite f.  Elsewhere its sign is
        the scalar f's.
        """
        A, B = self.coeffs_AB(s)
        if isinstance(s, np.ndarray):
            return np.where(np.isfinite(A) & np.isfinite(B) & (A != 0.0), B / A, np.nan)
        if A == 0.0:
            raise SingularityError(f"{self.kind}: A(s)=0 at s={s!r}")
        return B / A

    def f_partials(self, s: float, param: str) -> tuple[float, float]:
        """(df/ds, df/dparam) at s, as Im f / h with s, then param, moved by ih.

        This complex step differentiates the family's one A, B table with an
        O(h^2) error, far below rounding.  The real f(s) comes first, so a pole
        raises SingularityError rather than giving a huge complex quotient.
        On an array of s, the two partials are one complex pass of the table
        each, whose signs are the scalar calls' signs; the real f is not
        taken, so the samples a scalar call raises at are the ones where
        monotonicity_f over the same array is NaN.
        """
        if param not in self.params or param == "N":
            raise DomainError(f"{self.kind} has no continuous parameter {param!r}")
        if not isinstance(s, np.ndarray):
            self.monotonicity_f(s)
        moved = {**self.params, param: self.params[param] + _STEP * 1j}
        f1 = self._complex_f(self.params, s + _STEP * 1j)
        return f1.imag / _STEP, self._complex_f(moved, s).imag / _STEP

    def _complex_f(self, params: Mapping[str, complex], s: complex) -> complex:
        """B/A at complex arguments; an alias maps its parameters first."""
        kind, entry = self.kind, _CATALOG[self.kind]
        if entry.alias_map is not None:
            kind, params = entry.alias_map(params)
        try:
            A, B = _CATALOG[kind].ab(params, s)
        except OverflowError as exc:
            raise self._ab_overflow(s.real, exc) from exc
        return B / A

    def k_interval(self) -> tuple[float, float]:
        """Certified sign interval for the hypotheses; contains the zero set.

        Unless the family states its own, K is the support less its top point.
        """
        base = self.resolve_base()
        stated = _CATALOG[base.kind].k_interval
        if stated is None:
            return (self.support_start, self.support_end - 1.0)
        return stated(base.params)

    def claims(self) -> tuple[Claim, ...]:
        return _CATALOG[self.kind].claims(self.params)

    def with_param(self, param: str, value: float) -> "FamilySpec":
        return make_family(self.kind, {**self.params, param: value})


#: a domain record: parameter name, the printed inequality, and its predicate
_Bound = tuple[str, str, Callable[[dict], bool]]

# q and N come first in validation: other bounds read them
_CHECK_FIRST = {"q": 0, "N": 1}


@dataclass(frozen=True)
class _Entry:
    """What one family states; make_family derives the rest from a, N and q.

    A base family states its lattice tag, series and A, B table, and K only
    where K is not the support less its top point.  An alias states the map
    onto its base's kind and parameters instead, and none of those.
    """

    domain: tuple[_Bound, ...]  # in parameter order
    claims: Callable[[dict], tuple[Claim, ...]]
    sample: Callable[[random.Random], dict]
    lattice: str | None = None  # a grid tag
    series: Callable[[dict, int, object], float] | None = None  # (params, n, lattice atoms)
    ab: Callable[[dict, float], tuple[float, float]] | None = None
    k_interval: Callable[[dict], tuple[float, float]] | None = None
    alias_map: Callable[[dict], tuple[str, dict]] | None = None
    zero_scale: Callable[[dict], float] = lambda p: 1.0  # alias zeros over base zeros
    prefactor: Callable[[dict, int], float] = lambda p, n: 1.0
    param_order: tuple[str, ...] = field(init=False)
    checks: tuple[_Bound, ...] = field(init=False)  # domain in validation order

    def __post_init__(self):
        object.__setattr__(self, "param_order", tuple(b[0] for b in self.domain))
        checks = sorted(self.domain, key=lambda b: _CHECK_FIRST.get(b[0], 2))
        object.__setattr__(self, "checks", tuple(checks))


# domain records shared by several families
_Q = ("q", "0 < q < 1", lambda p: 0.0 < p["q"] < 1.0)
_N = (
    "N",
    f"integer 2..{MAX_FINITE_SUPPORT}",
    lambda p: p["N"].is_integer() and 2 <= p["N"] <= MAX_FINITE_SUPPORT,
)
_A_GT_MINUS_HALF = ("a", "a > -1/2", lambda p: p["a"] > -0.5)
_A_POSITIVE = ("a", "a > 0", lambda p: p["a"] > 0.0)
_ALPHA_GT_MINUS_1 = ("alpha", "alpha > -1", lambda p: p["alpha"] > -1.0)
_ALPHA_POSITIVE = ("alpha", "alpha > 0", lambda p: p["alpha"] > 0.0)
_ALPHA_UNIT = ("alpha", "0 < alpha < 1", lambda p: 0.0 < p["alpha"] < 1.0)
_ALPHA_BELOW_1_Q = ("alpha", "0 < alpha < 1/q", lambda p: 0.0 < p["alpha"] < 1.0 / p["q"])
_BETA_BELOW_1_Q = ("beta", "0 < beta < 1/q", lambda p: 0.0 < p["beta"] < 1.0 / p["q"])


def _qp(q, e1, e2=0, e3=0, e4=0):
    """q^(e1+e2+e3+e4), for the real exponents of the q-quadratic lattice.

    Float atoms sum the exponents left to right, as the formula reads.  Exact
    atoms carry each real exponent as its rounded power (q^a, q^alpha,
    q^beta) and integer exponents as they are, so the powers multiply.
    """
    if isinstance(q, float):
        return q ** (e1 + e2 + e3 + e4)
    out, k = 1, 0
    for e in (e1, e2, e3, e4):
        if isinstance(e, int):
            k += e
        else:
            out *= e
    return out * q**k


# ---------------------------------------------------------------------------
# lattice X = s
# ---------------------------------------------------------------------------


def _hahn_series(p, n, X):
    al, be, N = p["alpha"], p["beta"], p["N"]
    return hyper_sum((-n, -X, al + be + n + 1.0), (be + 1.0, 1.0 - N), 1.0, n)


def _hahn_ab(p, s):
    al, be, N = p["alpha"], p["beta"], p["N"]
    return s * (-s + al + N), (s + be + 1.0) * (-s + N - 1.0)


_HAHN_WINDOW = _central(-1.0, 3.0)  # representative finite window for (-1, inf)


def _hahn_claims(p):
    return (
        Claim("alpha", "decreasing", (-1.0, math.inf), _HAHN_WINDOW),
        Claim("beta", "increasing", (-1.0, math.inf), _HAHN_WINDOW),
    )


def _charlier_series(p, n, X):
    return hyper_sum((-n, -X), (), -1.0 / p["alpha"], n)


_POSITIVE_WINDOW = _central(0.0, 4.0)  # representative finite window for (0, inf)


def _krawtchouk_series(p, n, X):
    return hyper_sum((-n, -X), (1.0 - p["N"],), 1.0 / p["alpha"], n)


def _meixner_series(p, n, X):
    return hyper_sum((-n, -X), (p["beta"],), 1.0 - 1.0 / p["alpha"], n)


# ---------------------------------------------------------------------------
# lattice X = s(s+1)
# ---------------------------------------------------------------------------


def _racah_series(p, n, x):
    a, al, be, N = p["a"], p["alpha"], p["beta"], p["N"]
    w, u = x  # a - s, s + a + 1
    # + 1 keeps rational parameters exact; 1.0 - N and 1.0 are exact floats
    return hyper_sum((-n, al + be + n + 1, w, u), (2 * a + al + N + 1, be + 1, 1.0 - N), 1.0, n)


def _racah_ab(p, s):
    a, al, be, N = p["a"], p["alpha"], p["beta"], p["N"]
    da = 2.0 * s * (2.0 * s + 1.0)
    db = 2.0 * (s + 1.0) * (2.0 * s + 1.0)
    # an array s is divided through: its poles, and the removable 0/0, come
    # out non-finite
    if isinstance(s, np.ndarray) or da != 0.0 and db != 0.0:
        A = (s - a) * (s + a + N) * (s - a - al - N) * (s + a - be) / da
    elif da == 0.0 and s == 0.0 and a == 0.0:
        # removable 0/0: the (s-a)/(2s) pair cancels at the support start
        A = (s + N) * (s - al - N) * (s - be) / (2.0 * (2.0 * s + 1.0))
    else:
        raise SingularityError(f"racah: coefficient pole at s={s!r}")
    B = (s + a + 1.0) * (s - a - N + 1.0) * (s + a + al + N + 1.0) * (s - a + be + 1.0) / db
    return A, B


def _racah_k(p):
    a, be, N = p["a"], p["beta"], p["N"]
    return (max(a, be - a), a + N - 1.0)


_RACAH_ALPHA_WINDOW = _central(-1.0, 2.5)


def _racah_claims(p):
    a = p["a"]
    blo = -1.0 if a >= 0.0 else a
    return (
        Claim("alpha", "decreasing", (-1.0, math.inf), _RACAH_ALPHA_WINDOW),
        Claim("beta", "increasing", (blo, 2.0 * a + 1.0)),
    )


def _dual_hahn_series(p, n, x):
    al, N = p["alpha"], p["N"]
    w, u = x  # a - s, s + a + 1
    return hyper_sum((-n, w, u), (al + 1, 1.0 - N), 1.0, n)


def _dual_hahn_ab(p, s):
    a, al, N = p["a"], p["alpha"], p["N"]
    da = 2.0 * s * (2.0 * s + 1.0)
    db = 2.0 * (s + 1.0) * (2.0 * s + 1.0)
    if isinstance(s, np.ndarray) or da != 0.0 and db != 0.0:
        A = (s - a) * (s + a + N) * (s + a - al) / da
    elif da == 0.0 and s == 0.0 and a == 0.0:
        A = (s + N) * (s - al) / (2.0 * (2.0 * s + 1.0))
    else:
        raise SingularityError(f"dual_hahn: coefficient pole at s={s!r}")
    B = (s + a + 1.0) * (-s + a + N - 1.0) * (s - a + al + 1.0) / db
    return A, B


def _dual_hahn_k(p):
    a, al, N = p["a"], p["alpha"], p["N"]
    return (max(a, al - a), a + N - 1.0)


def _dual_hahn_claims(p):
    a = p["a"]
    lo = -1.0 if a >= 0.0 else a
    return (Claim("alpha", "increasing", (lo, 2.0 * a + 1.0)),)


# ---------------------------------------------------------------------------
# lattice X = q^-s
# ---------------------------------------------------------------------------


def _q_meixner_series(p, n, X):
    al, be, q = p["alpha"], p["beta"], p["q"]
    return qhyper_sum((q ** (-n), X), (be * q,), q, -(q ** (n + 1)) / al, n)


def _q_meixner_ab(p, s):
    al, be, q = p["alpha"], p["beta"], p["q"]
    u = q**s
    return (1.0 - u) * (1.0 + al * be * u), al * u * (1.0 - be * q * u)


def _q_meixner_claims(p):
    q = p["q"]
    return (
        Claim("alpha", "increasing", (0.0, math.inf), _POSITIVE_WINDOW),
        Claim("beta", "decreasing", (0.0, 1.0 / q)),
    )


def _asc2_series(p, n, X):
    al, q = p["alpha"], p["q"]
    return qhyper_sum((q ** (-n), X), (), q, q**n / al, n)


def _asc2_prefactor(p, n):
    return (-p["alpha"]) ** n * p["q"] ** (-binom2(n))


def _asc2_ab(p, s):
    # the X-polynomial form (1-X)(alpha-X), alpha*q with X = q^-s carries an
    # extra X^2 common factor; the weight recurrence needs the canonical
    # scaling, so both entries are divided by X^2 (the ratio f is unchanged)
    al, q = p["alpha"], p["q"]
    u = q**s
    return (u - 1.0) * (al * u - 1.0), al * q ** (2.0 * s + 1.0)


def _asc2_k(p):
    al, q = p["alpha"], p["q"]
    return (max(0.0, -math.log(al) / math.log(q)), math.inf)


def _asc2_claims(p):
    q = p["q"]
    return (Claim("alpha", "increasing", (0.0, 1.0 / q)),)


def _q_hahn_series(p, n, X):
    al, be, q, N = p["alpha"], p["beta"], p["q"], p["N"]
    return qhyper_sum(
        (q ** (-n), al * be * q ** (n + 1), X), (al * q, q ** (1 - N)), q, q, n
    )


def _q_hahn_ab(p, s):
    al, be, q, N = p["alpha"], p["beta"], p["q"], p["N"]
    u = q**s
    A = al * q * (1.0 - u) * (be - u * q ** (-N))
    B = (1.0 - u * q ** (1 - N)) * (1.0 - al * q * u)
    return A, B


def _q_hahn_claims(p):
    q = p["q"]
    return (
        Claim("alpha", "decreasing", (0.0, 1.0 / q)),
        Claim("beta", "increasing", (0.0, 1.0 / q)),
    )


def _q_krawtchouk_series(p, n, X):
    al, q, N = p["alpha"], p["q"], p["N"]
    return qhyper_sum((q ** (-n), -al * q**n, X), (0.0, q ** (1 - N)), q, q, n)


def _q_krawtchouk_ab(p, s):
    al, q, N = p["alpha"], p["q"], p["N"]
    u = q**s
    return al * (u - 1.0), 1.0 - u * q ** (1 - N)


def _affine_qk_series(p, n, X):
    al, q, N = p["alpha"], p["q"], p["N"]
    return qhyper_sum((q ** (-n), 0.0, X), (al * q, q ** (1 - N)), q, q, n)


def _affine_qk_ab(p, s):
    al, q, N = p["alpha"], p["q"], p["N"]
    u = q**s
    A = al * u * q ** (1 - N) * (u - 1.0)
    B = (1.0 - u * q ** (1 - N)) * (1.0 - al * q * u)
    return A, B


def _quantum_qk_series(p, n, X):
    al, q, N = p["alpha"], p["q"], p["N"]
    return qhyper_sum((q ** (-n), X), (q ** (1 - N),), q, al * q ** (n + 1), n)


def _quantum_qk_prefactor(p, n):
    al, q, N = p["alpha"], p["q"], p["N"]
    return q_pochhammer(q ** (-N), q, n) / (al**n * q ** (n * n))


def _quantum_qk_ab(p, s):
    al, q, N = p["alpha"], p["q"], p["N"]
    u = q**s
    return (1.0 - u) * (al - u * q ** (-N)), -u * (1.0 - u * q ** (1 - N))


def _quantum_qk_alpha_ok(p):
    """alpha > q^(1-N); a bound beyond the float range exceeds every alpha."""
    try:
        return p["alpha"] > p["q"] ** (1 - p["N"])
    except OverflowError:
        return False


def _quantum_qk_k(p):
    al, q, N = p["alpha"], p["q"], p["N"]
    return (max(0.0, math.log(al) / math.log(q) + N), N - 1.0)


def _quantum_qk_claims(p):
    q, N = p["q"], p["N"]
    edge = q ** (1 - N)
    return (
        Claim("alpha", "decreasing", (edge, math.inf), _central(edge, 2.5 * edge)),
    )


# ---------------------------------------------------------------------------
# lattice X = q^s
# ---------------------------------------------------------------------------


def _q_bessel_series(p, n, X):
    al, q = p["alpha"], p["q"]
    return qhyper_sum((q ** (-n), -al * q**n), (0.0,), q, q * X, n)


def _q_bessel_ab(p, s):
    al, q = p["alpha"], p["q"]
    return q**s - 1.0, al


def _little_qj_series(p, n, X):
    al, be, q = p["alpha"], p["beta"], p["q"]
    return qhyper_sum((q ** (-n), al * be * q ** (n + 1)), (al * q,), q, q * X, n)


def _q_power_divisor(q, s):
    """u = q**s for an A, B table that divides by it.

    A scalar u that underflows to 0 puts 1/u, and so the table, past the
    float range; an array keeps numpy's inf there.
    """
    u = q**s
    if not isinstance(u, np.ndarray) and u == 0.0:
        raise EvaluationOverflowError("they divide by q**s, which underflows to 0")
    return u


def _little_qj_ab(p, s):
    al, be, q = p["alpha"], p["beta"], p["q"]
    u = _q_power_divisor(q, s)
    return (u - 1.0) / u, al * (be * q * u - 1.0) / u


def _little_qj_claims(p):
    q = p["q"]
    return (
        Claim("alpha", "decreasing", (0.0, 1.0 / q)),
        Claim("beta", "increasing", (-math.inf, 1.0 / q), _central(-2.0, 1.0 / q)),
    )


def _little_ql_series(p, n, X):
    al, q = p["alpha"], p["q"]
    return qhyper_sum((q ** (-n), 0.0), (al * q,), q, q * X, n)


def _little_ql_ab(p, s):
    al, q = p["alpha"], p["q"]
    u = _q_power_divisor(q, s)
    return u - 1.0, al / u


def _little_ql_claims(p):
    q = p["q"]
    return (Claim("alpha", "decreasing", (0.0, 1.0 / q)),)


# ---------------------------------------------------------------------------
# lattice X = (q^s + q^-s)/2
# ---------------------------------------------------------------------------


def _q_racah_series(p, n, x):
    a, al, be, q, N = p["a"], p["alpha"], p["beta"], p["q"], p["N"]
    w, u = x  # q^(a-s), q^(a+s)
    return qhyper_sum(
        (q ** (-n), _qp(q, al, be, n, 1), w, u),
        (_qp(q, a, a, al, N), _qp(q, be, 1), q ** (1 - N)),
        q,
        q,
        n,
    )


def _q_racah_ab(p, s):
    a, al, be, q, N = p["a"], p["alpha"], p["beta"], p["q"], p["N"]
    u = q**s
    u2 = u * u  # q^(2s)
    da = (q - 1.0) ** 2 * (u2 - 1.0) * (u2 / q - 1.0)
    db = (q - 1.0) ** 2 * (u2 - 1.0) * (u2 * q - 1.0)
    if not isinstance(s, np.ndarray) and (da == 0.0 or db == 0.0):
        raise SingularityError(f"q_racah: coefficient pole at s={s!r}")
    A = (
        -4.0
        * q ** (al + be + 2.5)
        * (u * q ** (-a) - 1.0)
        * (u * q ** (a + N - 1) - 1.0)
        * (u * q ** (-a - al - N) - 1.0)
        * (u * q ** (a - be - 1) - 1.0)
        / da
    )
    B = (
        -4.0
        * q**1.5
        * (u * q**a - 1.0)
        * (u * q ** (-a - N + 1) - 1.0)
        * (u * q ** (a + al + N) - 1.0)
        * (u * q ** (-a + be + 1) - 1.0)
        / db
    )
    return A, B


def _q_racah_k(p):
    a, be, N = p["a"], p["beta"], p["N"]
    return (max(a, be - a + 1.0), a + N - 1.0)


_Q_RACAH_ALPHA_WINDOW = _central(-1.0, 2.0)


def _q_racah_claims(p):
    a = p["a"]
    blo = -1.0 if a >= 0.5 else a - 0.5
    return (
        Claim("alpha", "decreasing", (-1.0, math.inf), _Q_RACAH_ALPHA_WINDOW),
        Claim("beta", "increasing", (blo, 2.0 * a)),
    )


def _dual_q_hahn_series(p, n, x):
    al, q, N = p["alpha"], p["q"], p["N"]
    w, u = x  # q^(a-s), q^(a+s)
    return qhyper_sum((q ** (-n), w, u), (_qp(q, al, 1), q ** (1 - N)), q, q, n)


def _dual_q_hahn_ab(p, s):
    # obtained from the four-factor q-quadratic table by sending its second
    # shape parameter to +inf; the q^s placement here is forced by the
    # three-point identity at the zeros (checked by the eq1 diagnostics)
    a, al, q, N = p["a"], p["alpha"], p["q"], p["N"]
    u = q**s
    u2 = u * u
    da = (q - 1.0) ** 2 * (u2 - 1.0) * (u2 / q - 1.0)
    db = (q - 1.0) ** 2 * (u2 - 1.0) * (u2 * q - 1.0)
    if not isinstance(s, np.ndarray) and (da == 0.0 or db == 0.0):
        raise SingularityError(f"dual_q_hahn: coefficient pole at s={s!r}")
    A = (
        -4.0
        * u
        * q ** (-a + al - N + 2.5)
        * (u * q ** (-a) - 1.0)
        * (u * q ** (a + N - 1) - 1.0)
        * (u * q ** (a - al - 1) - 1.0)
        / da
    )
    B = (
        4.0
        * q**1.5
        * (u * q**a - 1.0)
        * (u * q ** (-a - N + 1) - 1.0)
        * (u * q ** (-a + al + 1) - 1.0)
        / db
    )
    return A, B


def _dual_q_hahn_k(p):
    a, al, N = p["a"], p["alpha"], p["N"]
    return (max(a, al - a + 1.0), a + N - 1.0)


def _dual_q_hahn_claims(p):
    a = p["a"]
    lo = -1.0 if a >= 0.5 else a - 0.5
    return (Claim("alpha", "increasing", (lo, 2.0 * a)),)


# ---------------------------------------------------------------------------
# alias families
# ---------------------------------------------------------------------------


def _big_qj_prefactor(p, n):
    al, be, q = p["alpha"], p["beta"], p["q"]
    return (
        q_pochhammer(be * q, q, n)
        / q_pochhammer(al * q, q, n)
        * (-1.0) ** n
        * al**n
        * q ** (n + binom2(n))
    )


def _big_qj_claims(p):
    q = p["q"]
    return (
        Claim("alpha", "increasing", (0.0, 1.0 / q)),
        Claim("beta", "decreasing", (0.0, 1.0 / q)),
    )


def _q_laguerre_claims(p):
    # direction follows from the alpha -> q^alpha substitution into the base
    # family; at degree 1 the zero is 1 - q^(alpha+1), increasing in alpha
    return (Claim("alpha", "increasing", (-1.0, math.inf), _central(-1.0, 2.0)),)


# ---------------------------------------------------------------------------
# random in-domain parameter draws (tests, verification suites)
# ---------------------------------------------------------------------------


def _rand_q(rng):
    return rng.uniform(0.35, 0.8)


def _with_q(rng, build):
    q = _rand_q(rng)
    out = build(q)
    out["q"] = q
    return out


def _sample_hahn(rng):
    return {"alpha": rng.uniform(-0.8, 2.5), "beta": rng.uniform(-0.8, 2.5), "N": rng.randint(5, 12)}


def _sample_racah(rng):
    a = rng.uniform(-0.45, -0.05) if rng.random() < 0.3 else rng.uniform(0.0, 1.8)
    return {
        "a": a,
        "alpha": rng.uniform(-0.8, 2.0),
        "beta": rng.uniform(*_racah_claims({"a": a})[1].window),
        "N": rng.randint(5, 10),
    }


def _sample_dual_hahn(rng):
    a = rng.uniform(-0.45, -0.05) if rng.random() < 0.3 else rng.uniform(0.0, 1.8)
    return {
        "a": a,
        "alpha": rng.uniform(*_dual_hahn_claims({"a": a})[0].window),
        "N": rng.randint(5, 10),
    }


def _sample_q_racah(rng):
    q = rng.uniform(0.45, 0.8)
    a = rng.uniform(0.12, 0.45) if rng.random() < 0.3 else rng.uniform(0.5, 1.6)
    return {
        "a": a,
        "alpha": rng.uniform(-0.8, 1.5),
        "beta": rng.uniform(*_q_racah_claims({"a": a})[1].window),
        "q": q,
        "N": rng.randint(5, 9),
    }


def _sample_dual_q_hahn(rng):
    q = rng.uniform(0.45, 0.8)
    a = rng.uniform(0.12, 0.45) if rng.random() < 0.3 else rng.uniform(0.5, 1.6)
    return {
        "a": a,
        "alpha": rng.uniform(*_dual_q_hahn_claims({"a": a})[0].window),
        "q": q,
        "N": rng.randint(5, 9),
    }


def _sample_quantum_qk(rng):
    q = _rand_q(rng)
    N = rng.randint(5, 9)
    return {"alpha": q ** (1 - N) * rng.uniform(1.1, 2.5), "q": q, "N": N}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_CATALOG: dict[str, _Entry] = {}


def _register(name: str, entry: _Entry) -> None:
    _CATALOG[name] = entry


_register(
    "hahn",
    _Entry(
        domain=(_ALPHA_GT_MINUS_1, ("beta", "beta > -1", lambda p: p["beta"] > -1.0), _N),
        lattice=LINEAR,
        series=_hahn_series,
        ab=_hahn_ab,
        claims=_hahn_claims,
        sample=_sample_hahn,
    ),
)

_register(
    "charlier",
    _Entry(
        domain=(_ALPHA_POSITIVE,),
        lattice=LINEAR,
        series=_charlier_series,
        ab=lambda p, s: (s, p["alpha"]),
        claims=lambda p: (Claim("alpha", "increasing", (0.0, math.inf), _POSITIVE_WINDOW),),
        sample=lambda rng: {"alpha": rng.uniform(0.3, 3.5)},
    ),
)

_register(
    "krawtchouk",
    _Entry(
        domain=(_ALPHA_UNIT, _N),
        lattice=LINEAR,
        series=_krawtchouk_series,
        ab=lambda p, s: ((1.0 - p["alpha"]) * s, p["alpha"] * (-s + p["N"] - 1.0)),
        claims=lambda p: (Claim("alpha", "increasing", (0.0, 1.0)),),
        sample=lambda rng: {"alpha": rng.uniform(0.08, 0.92), "N": rng.randint(5, 12)},
    ),
)

_register(
    "meixner",
    _Entry(
        domain=(_ALPHA_UNIT, ("beta", "beta > 0", lambda p: p["beta"] > 0.0)),
        lattice=LINEAR,
        series=_meixner_series,
        ab=lambda p, s: (s, p["alpha"] * (s + p["beta"])),
        claims=lambda p: (
            Claim("alpha", "increasing", (0.0, 1.0)),
            Claim("beta", "increasing", (0.0, math.inf), _POSITIVE_WINDOW),
        ),
        sample=lambda rng: {"alpha": rng.uniform(0.1, 0.85), "beta": rng.uniform(0.2, 3.5)},
    ),
)

_register(
    "racah",
    _Entry(
        domain=(
            _A_GT_MINUS_HALF,
            _ALPHA_GT_MINUS_1,
            ("beta", "-1 < beta < 2a+1", lambda p: -1.0 < p["beta"] < 2.0 * p["a"] + 1.0),
            _N,
        ),
        lattice=QUADRATIC,
        series=_racah_series,
        ab=_racah_ab,
        k_interval=_racah_k,
        claims=_racah_claims,
        sample=_sample_racah,
    ),
)

_register(
    "dual_hahn",
    _Entry(
        domain=(
            _A_GT_MINUS_HALF,
            ("alpha", "-1 < alpha < 2a+1", lambda p: -1.0 < p["alpha"] < 2.0 * p["a"] + 1.0),
            _N,
        ),
        lattice=QUADRATIC,
        series=_dual_hahn_series,
        ab=_dual_hahn_ab,
        k_interval=_dual_hahn_k,
        claims=_dual_hahn_claims,
        sample=_sample_dual_hahn,
    ),
)

_register(
    "q_meixner",
    _Entry(
        domain=(
            _ALPHA_POSITIVE,
            ("beta", "0 <= beta < 1/q", lambda p: 0.0 <= p["beta"] < 1.0 / p["q"]),
            _Q,
        ),
        lattice=Q_EXP_NEG,
        series=_q_meixner_series,
        ab=_q_meixner_ab,
        claims=_q_meixner_claims,
        sample=lambda rng: _with_q(
            rng,
            lambda q: {"alpha": rng.uniform(0.3, 3.0), "beta": rng.uniform(0.05, 0.9) / q},
        ),
    ),
)

_register(
    "al_salam_carlitz_2",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _Q),
        lattice=Q_EXP_NEG,
        series=_asc2_series,
        ab=_asc2_ab,
        k_interval=_asc2_k,
        claims=_asc2_claims,
        prefactor=_asc2_prefactor,
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(0.1, 0.9) / q}),
    ),
)

_register(
    "q_hahn",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _BETA_BELOW_1_Q, _Q, _N),
        lattice=Q_EXP_NEG,
        series=_q_hahn_series,
        ab=_q_hahn_ab,
        claims=_q_hahn_claims,
        sample=lambda rng: _with_q(
            rng,
            lambda q: {
                "alpha": rng.uniform(0.08, 0.9) / q,
                "beta": rng.uniform(0.08, 0.9) / q,
                "N": rng.randint(5, 10),
            },
        ),
    ),
)

_register(
    "q_krawtchouk",
    _Entry(
        domain=(_ALPHA_POSITIVE, _Q, _N),
        lattice=Q_EXP_NEG,
        series=_q_krawtchouk_series,
        ab=_q_krawtchouk_ab,
        claims=lambda p: (Claim("alpha", "decreasing", (0.0, math.inf), _POSITIVE_WINDOW),),
        sample=lambda rng: _with_q(
            rng, lambda q: {"alpha": rng.uniform(0.2, 3.0), "N": rng.randint(5, 10)}
        ),
    ),
)

_register(
    "affine_q_krawtchouk",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _Q, _N),
        lattice=Q_EXP_NEG,
        series=_affine_qk_series,
        ab=_affine_qk_ab,
        claims=lambda p: (Claim("alpha", "decreasing", (0.0, 1.0 / p["q"])),),
        sample=lambda rng: _with_q(
            rng,
            lambda q: {"alpha": rng.uniform(0.1, 0.9) / q, "N": rng.randint(5, 10)},
        ),
    ),
)

_register(
    "quantum_q_krawtchouk",
    _Entry(
        domain=(
            ("alpha", "alpha > q^(1-N)", _quantum_qk_alpha_ok),
            _Q,
            _N,
        ),
        lattice=Q_EXP_NEG,
        series=_quantum_qk_series,
        ab=_quantum_qk_ab,
        k_interval=_quantum_qk_k,
        claims=_quantum_qk_claims,
        prefactor=_quantum_qk_prefactor,
        sample=_sample_quantum_qk,
    ),
)

_register(
    "q_bessel",
    _Entry(
        domain=(_ALPHA_POSITIVE, _Q),
        lattice=Q_EXP,
        series=_q_bessel_series,
        ab=_q_bessel_ab,
        claims=lambda p: (Claim("alpha", "decreasing", (0.0, math.inf), _POSITIVE_WINDOW),),
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(0.2, 3.0)}),
    ),
)

_register(
    "little_q_jacobi",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, ("beta", "beta < 1/q", lambda p: p["beta"] < 1.0 / p["q"]), _Q),
        lattice=Q_EXP,
        series=_little_qj_series,
        ab=_little_qj_ab,
        claims=_little_qj_claims,
        sample=lambda rng: _with_q(
            rng,
            lambda q: {
                "alpha": rng.uniform(0.1, 0.9) / q,
                "beta": rng.uniform(-1.5, 0.9 / q),
            },
        ),
    ),
)

_register(
    "little_q_laguerre",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _Q),
        lattice=Q_EXP,
        series=_little_ql_series,
        ab=_little_ql_ab,
        claims=_little_ql_claims,
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(0.1, 0.9) / q}),
    ),
)

_register(
    "q_racah",
    _Entry(
        domain=(
            _A_POSITIVE,
            _ALPHA_GT_MINUS_1,
            ("beta", "-1 < beta < 2a", lambda p: -1.0 < p["beta"] < 2.0 * p["a"]),
            _Q,
            _N,
        ),
        lattice=Q_SYMMETRIC,
        series=_q_racah_series,
        ab=_q_racah_ab,
        k_interval=_q_racah_k,
        claims=_q_racah_claims,
        sample=_sample_q_racah,
    ),
)

_register(
    "dual_q_hahn",
    _Entry(
        domain=(
            _A_POSITIVE,
            ("alpha", "-1 < alpha < 2a", lambda p: -1.0 < p["alpha"] < 2.0 * p["a"]),
            _Q,
            _N,
        ),
        lattice=Q_SYMMETRIC,
        series=_dual_q_hahn_series,
        ab=_dual_q_hahn_ab,
        k_interval=_dual_q_hahn_k,
        claims=_dual_q_hahn_claims,
        sample=_sample_dual_q_hahn,
    ),
)

# alias entries -------------------------------------------------------------

_register(
    "q_charlier",
    _Entry(
        domain=(_ALPHA_POSITIVE, _Q),
        claims=lambda p: (Claim("alpha", "increasing", (0.0, math.inf), _POSITIVE_WINDOW),),
        alias_map=lambda p: ("q_meixner", {"alpha": p["alpha"], "beta": 0.0, "q": p["q"]}),
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(0.3, 3.0)}),
    ),
)

_register(
    "al_salam_carlitz_1",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _Q),
        claims=_asc2_claims,
        alias_map=lambda p: ("al_salam_carlitz_2", dict(p)),
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(0.1, 0.9) / q}),
    ),
)

_register(
    "big_q_jacobi_special",
    _Entry(
        domain=(_ALPHA_BELOW_1_Q, _BETA_BELOW_1_Q, _Q),
        claims=_big_qj_claims,
        alias_map=lambda p: (
            "little_q_jacobi",
            {"alpha": p["beta"], "beta": p["alpha"], "q": p["q"]},
        ),
        zero_scale=lambda p: p["alpha"] * p["q"],
        prefactor=_big_qj_prefactor,
        sample=lambda rng: _with_q(
            rng,
            lambda q: {
                "alpha": rng.uniform(0.1, 0.9) / q,
                "beta": rng.uniform(0.1, 0.9) / q,
            },
        ),
    ),
)

# values are in the little q-Laguerre normalisation; the q-Laguerre prefactor
# q^(-alpha n) (q^(alpha+1);q)_n/(q;q)_n, which the zeros ignore, is not applied
_register(
    "q_laguerre",
    _Entry(
        domain=(_ALPHA_GT_MINUS_1, _Q),
        claims=_q_laguerre_claims,
        alias_map=lambda p: (
            "little_q_laguerre",
            {"alpha": p["q"] ** p["alpha"], "q": p["q"]},
        ),
        sample=lambda rng: _with_q(rng, lambda q: {"alpha": rng.uniform(-0.8, 1.5)}),
    ),
)

#: the kinds on a finite support [a, a+N), and the aliases of a base family
FINITE_FAMILIES = tuple(k for k, e in _CATALOG.items() if "N" in e.param_order)
ALIAS_FAMILIES = tuple(k for k, e in _CATALOG.items() if e.alias_map is not None)


# ---------------------------------------------------------------------------
# public constructors and catalog access
# ---------------------------------------------------------------------------


def normalize_kind(kind: str) -> str:
    key = kind.strip().lower().replace("-", "_").replace(" ", "_")
    if key not in _CATALOG:
        raise DomainError(f"unknown family {kind!r}; known: {', '.join(sorted(_CATALOG))}")
    return key


def catalog_kinds() -> tuple[str, ...]:
    return tuple(_CATALOG)


def make_family(kind: str, params: Mapping[str, float] | None = None, **kw) -> FamilySpec:
    """Validate parameters and bind a family to its lattice.

    Raises DomainError naming the violated inequality when a parameter lies
    outside its family's domain.
    """
    key = normalize_kind(kind)
    entry = _CATALOG[key]
    p = dict(params or {})
    p.update(kw)
    expected = set(entry.param_order)
    given = set(p)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise DomainError(f"{key}: parameter mismatch ({'; '.join(parts)})")
    p = {k: float(v) for k, v in p.items()}
    for name, text, holds in entry.checks:
        if not holds(p):
            raise DomainError(f"{key}: {name} must satisfy {text} (got {p[name]!r})")
    for name, v in p.items():
        if not math.isfinite(v):
            raise DomainError(f"{key}: {name} must be finite (got {v!r})")
    if entry.alias_map is not None:
        base = make_family(*entry.alias_map(p))
        return replace(
            base, kind=key, params=p, base=replace(base, alias_kind=key),
            zero_scale=entry.zero_scale(p),
        )
    grid = Grid(entry.lattice, p.get("q"))
    a = p.get("a", 0.0)
    if "N" not in p:
        return FamilySpec(key, p, grid, a, math.inf, INFINITE_DEGREE_CAP)
    p["N"] = int(p["N"])
    return FamilySpec(key, p, grid, a, a + p["N"], p["N"] - 1)


def sample_params(kind: str, rng: random.Random) -> dict:
    """Draw one in-domain parameter set; used by randomized verification."""
    return _CATALOG[normalize_kind(kind)].sample(rng)


def eval_exact_at_support(
    family: FamilySpec, n: int | Sequence[int], k: int | range
) -> float | list:
    """Value at the k-th support point, summed in exact rational arithmetic.

    The lattice atoms are exact rationals at the support points (on q
    lattices exact powers of the base), so the terminating series cancels
    exactly there; the rounding of float atoms otherwise dominates at degrees
    whose upper zeros crowd the top of the support.

    n may be a sequence of degrees, and k a range of support indices: the
    atoms of the points are then built once, each degree is one pass of the
    exact series over them, and the result holds the values per degree, and
    within one per point.  Each value is the one-point call's bit for bit,
    and the error raised is the first one the loop over the degrees, then
    the points, would meet.
    """
    one_degree, many = isinstance(n, int), isinstance(k, range)
    if many and not k:  # no point to evaluate, so none to fail
        return [] if one_degree else [[] for _ in n]
    base = family.resolve_base()
    entry = _CATALOG[base.kind]
    p, atom = _support_atoms(base)
    x = _columns([atom(j) for j in k]) if many else atom(k)
    rows = []
    for d in (n,) if one_degree else n:
        family._check_degree(d)
        try:
            # an alias scales its base's value by its own prefactor, as in _of_atoms
            outer = 1.0 if base is family else _CATALOG[family.kind].prefactor(family.params, d)
            pref = entry.prefactor(base.params, d)
            with exact_summation():
                values = entry.series(p, d, x)
        except OverflowError as exc:
            # a per-point sum names its point; the factors common to all fail at the first
            i = exc.index if isinstance(exc, _PointOverflow) else 0
            raise family._overflow(d, family.support_start + (k[i] if many else k)) from exc
        rows.append([outer * (pref * v) for v in values] if many else outer * (pref * values))
    return rows[0] if one_degree else rows


def _lattice_atoms(base: FamilySpec, exact: bool):
    """The series' parameters, and its lattice atoms as a function of s,
    picked once per lattice: s, (a - s, s + a + 1) on the quadratic lattice,
    q^-s or q^s on the q-linear ones, (q^a q^-s, q^a q^s) on the q-quadratic
    one.  Exact, the quadratic atoms and parameters are rationals, the atoms
    from Fraction(s); other lattices keep their float atoms, summed exactly."""
    tag, p, q = base.grid.tag, base.params, base.grid.q
    if tag == QUADRATIC:
        p, num = (_rational_params(base), Fraction) if exact else (p, float)
        a = p["a"]

        def atoms(s):
            s = num(s)
            return a - s, s + a + 1

        return p, atoms
    if tag == Q_SYMMETRIC:
        qa = q ** p["a"]
        return p, lambda s: (qa * q**-s, qa * q**s)
    return p, {LINEAR: lambda s: s, Q_EXP_NEG: lambda s: q**-s, Q_EXP: lambda s: q**s}[tag]


def _support_atoms(base: FamilySpec):
    """The series' parameters, and its lattice atoms at the support point
    s = a + j as exact rationals, as a function of j: j on the linear lattice
    and q^-j or q^j on the q-linear ones (where a = 0), (-j, 2a + 1 + j) on
    the quadratic one and (q^-j, (q^a)^2 q^j) on the q-quadratic one.  Near
    the top of the support the series cancels far below its terms, which any
    rounding of the atoms would swamp; off the linear lattice the parameters
    are rationals too, so each family is an exact polynomial model."""
    tag = base.grid.tag
    p = base.params if tag == LINEAR else _rational_params(base)
    q, a = p.get("q"), p.get("a")
    return p, {
        LINEAR: Fraction,
        QUADRATIC: lambda j: (Fraction(-j), 2 * a + 1 + j),
        Q_EXP_NEG: lambda j: q**-j,
        Q_EXP: lambda j: q**j,
        Q_SYMMETRIC: lambda j: (q**-j, a * a * q**j),
    }[tag]


def _rational_params(base: FamilySpec) -> dict:
    """The parameters as exact rationals, N as its int; on the q-quadratic
    lattice a, alpha and beta as their rounded powers q^a, q^alpha, q^beta."""
    q, power = base.grid.q, base.grid.tag == Q_SYMMETRIC
    return {
        name: v if name == "N" else Fraction(q**v if power and name != "q" else v)
        for name, v in base.params.items()
    }


def _columns(rows):
    """The points' atoms as arrays over the points, one per atom."""
    if isinstance(rows[0], tuple):
        return tuple(map(np.array, zip(*rows)))
    return np.array(rows)


def family_info(kind: str) -> dict:
    """JSON-friendly catalog record for one family."""
    key = normalize_kind(kind)
    entry = _CATALOG[key]
    rng = random.Random(0)
    p = sample_params(key, rng)
    spec = make_family(key, p)
    return {
        "kind": key,
        "params": list(entry.param_order),
        "domains": {name: text for name, text, _ in entry.domain},
        "grid": spec.grid.tag,
        "finite_support": spec.is_finite,
        "alias_of": spec.base.kind if spec.base is not None else None,
        "claims": [
            {"param": c.param, "direction": c.direction}
            for c in spec.claims()
        ],
    }


@dataclass(frozen=True)
class ZeroProblem:
    """A family instance and a degree."""

    family: FamilySpec
    degree: int

    def __post_init__(self):
        if not 1 <= self.degree <= self.family.degree_max:
            raise DomainError(
                f"degree {self.degree} outside 1..{self.family.degree_max} for {self.family.kind}"
            )
