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
from the exact s.  X serves output, the weights and the Stieltjes system.
The exact path's parameters and atoms are _Ratio values, integer pairs that
are never reduced, which the series combine by the usual operators as they
combine floats; each sum is the same correctly rounded float whatever
integers denote its rational.

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
import numbers
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import qseries
from .errors import DomainError, EvaluationOverflowError, SingularityError
from .grid import LINEAR, Q_EXP, Q_EXP_NEG, Q_SYMMETRIC, QUADRATIC, Grid
from .qseries import (
    _EXACT,
    _PointOverflow,
    _Slot,
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

    def _check_degree(self, n: int) -> int:
        """n as an int, or DomainError where it is not one or lies outside
        0..degree_max."""
        n = _integer(self, "degree n", n)
        if not 0 <= n <= self.degree_max:
            raise DomainError(f"{self._label}: degree n={n} outside 0..{self.degree_max}")
        return n

    def eval_at_s(self, n: int, s: float) -> float:
        """Value of the degree-n polynomial at the lattice point x(s), s on or
        off the monotone branch; at a point X it is the value at the s of the
        monotone branch with x(s) = X.

        This is _at_s(n) at s, the one map from s to the value, which names an
        OverflowError of the lattice atoms or of the value as EvaluationOverflowError.
        """
        return self._at_s(n)(s)

    def _at_s(self, n: int) -> Callable[[float], float]:
        """eval_at_s(n, .) as a function of s, for the many calls of a zero
        search: the degree check, prefactor and lattice atoms (those of the
        summation in force here) are looked up once, and the series is
        planned once (qseries._plan, or an exact plan under exact summation):
        in float each call multiplies in, term by term, only its atoms'
        factors and the constant factors after the first of them, each value
        the series call's bit for bit.  Where that lookup raises, the
        function repeats it at each s, after the atoms.

        Its attribute many(ss) is the array pass: the values at all of ss, a
        float array or sequence, as an array, from one run of the plan over
        the lattice atoms of the whole array, each the one-point call's bit
        for bit; the plan picks how it sums from those arrays (see qseries).
        It raises the error the per-sample loop meets first: an overflow of
        the first sample's lattice atoms, then the degree, prefactor and
        series errors, which no later sample escapes; then the first overflow
        of the atoms at a later sample.  Each of these raises in the pass
        too, so only where the pass raises, or its first value is NaN or inf,
        does many call the first sample as one point, and on a raise the
        atoms of the rest one at a time.  Under exact summation the pass is
        _exact_many.

        The function is no reference cycle: many calls a twin of it, not
        the function itself, on its cold paths.  So it and its plan die by
        reference counting where the search that built it ends: a copz
        verify pass builds thousands, and left as cycles they would make the
        cycle collector run over a hundred times a pass.
        """
        exact = _EXACT.get()
        p, atoms, array_atoms = _lattice_atoms(self.resolve_base(), exact)
        try:
            series, prefs = self._of_atoms(n, p)
        except (DomainError, ArithmeticError):
            series, prefs = (lambda x: self._of_atoms(n, p)[0](x)), ()

        # the prefactors scale the series value in place, with no call of
        # their own: a one-point call is the search's most frequent step
        def value(x):
            v = series(x)
            for pref in prefs:
                v = pref * v
            return v

        def at_s(s: float) -> float:
            try:
                v = series(atoms(s))
            except OverflowError as exc:
                raise self._overflow(n, s) from exc
            for pref in prefs:
                v = pref * v
            return v

        # at_s's value and error, with one more frame, for many's cold paths
        def one(s: float) -> float:
            try:
                return value(atoms(s))
            except OverflowError as exc:
                raise self._overflow(n, s) from exc

        def many(ss) -> np.ndarray:
            ss = np.asarray(ss, dtype=float)
            if len(ss) < 2:  # one sample needs no array
                return np.array([one(s) for s in ss.tolist()], dtype=float)
            if exact:
                return self._exact_many(n, ss.tolist())
            out = np.empty(len(ss))
            try:
                # a degree-0 value is one float for all the points
                with np.errstate(all="ignore"):
                    out[:] = value(array_atoms(ss))
            except (DomainError, ArithmeticError):
                one(float(ss[0]))
                for s in ss[1:].tolist():  # name the first s whose atoms overflow
                    try:
                        atoms(s)
                    except OverflowError as exc:
                        raise self._overflow(n, s) from exc
                raise
            if not math.isfinite(out[0]):
                out[0] = one(float(ss[0]))
            return out

        at_s.many = many
        return at_s

    def _of_atoms(self, n: int, p) -> tuple[Callable[[object], float], tuple]:
        """The degree-n series as a function of the lattice atoms, given its
        parameters p, and the prefactors that scale its value, the base's
        first: the degree checked, the prefactors looked up and the series
        planned, in float or exactly as the summation in force asks, with
        slots where _lattice_atoms puts the atoms.  An alias's value is its
        prefactor times its base's."""
        n = self._check_degree(n)
        entry = _CATALOG[self.kind]
        pref = entry.prefactor(self.params, n)
        if self.base is not None:
            series, prefs = self.base._of_atoms(n, p)
            return series, (*prefs, pref)
        return entry.series(p, n, _SLOTS[self.grid.tag]), (pref,)

    def _exact_many(self, n: int, ss: list) -> np.ndarray:
        """The values at the samples ss, floats, summed exactly, as an array:
        the array pass of _at_s under exact summation, with no function of s
        built for it.  The samples' exact lattice atoms go to one run of the
        degree's exact plan (_exact_rows), each value the one-point call's
        bit for bit.  Where that run raises, the samples are evaluated one at
        a time, which raises the error the per-sample loop meets first."""
        p, atoms, _ = _lattice_atoms(self.resolve_base(), True)
        try:
            (values,) = self._exact_rows((n,), p, [atoms(s) for s in ss], ss)
            return np.array(values)
        except (ValueError, ArithmeticError):
            with exact_summation():
                g = self._at_s(n)
                return np.array([g(s) for s in ss], dtype=float)

    def _exact_rows(self, degrees, p, points, ss) -> list[list[float]]:
        """The values of each of the degrees at the points' exact lattice
        atoms, given the parameters p, as one row per degree, each the
        one-point call's bit for bit: every degree planned first (_of_atoms
        under exact summation), then all summed in one run over the points
        (qseries._sum_points), each value scaled by its degree's prefactors.

        The error raised is the one a loop over the degrees, then the points,
        meets first: a degree's lookup or plan error before its points' sums,
        an atom with no integer ratio at the first degree.  An OverflowError
        of a sum is named at its degree and at its point's s in ss, one of a
        lookup, common to all points, at the first point's."""
        plans, failed = [], None
        with exact_summation():
            for d in degrees:
                try:
                    plans.append(self._of_atoms(d, p))
                except (ValueError, ArithmeticError) as exc:
                    failed = exc
                    break
        try:
            rows = qseries._sum_points([series for series, _ in plans], points)
        except _PointOverflow as exc:
            raise self._overflow(degrees[exc.plan], ss[exc.index]) from exc
        if isinstance(failed, OverflowError):
            raise self._overflow(degrees[len(plans)], ss[0]) from failed
        if failed is not None:
            raise failed
        for (_, prefs), row in zip(plans, rows):
            for pref in prefs:
                row[:] = [pref * v for v in row]
        return rows

    def _overflow(self, n: int, s: float) -> EvaluationOverflowError:
        return EvaluationOverflowError(
            f"{self._label}: the degree-{n} value at s={s!r} overflows the float range"
        )

    def _ab(self, params: Mapping[str, complex], s):
        """The family's A, B table at real, complex or array s, an alias's
        parameters mapped onto its base's first: the one reader of the table.

        An OverflowError is named as EvaluationOverflowError, and a scalar
        division by zero as the SingularityError of a coefficient pole.
        """
        kind, entry = self.kind, _CATALOG[self.kind]
        if entry.alias_map is not None:
            kind, params = entry.alias_map(params)
        try:
            return _CATALOG[kind].ab(params, s)
        except OverflowError as exc:
            # a table that knows the cause raises it typed; Python's own
            # OverflowError text names no cause worth printing
            why = f": {exc}" if isinstance(exc, EvaluationOverflowError) else ""
            raise EvaluationOverflowError(
                f"{self._label}: the coefficients A, B at s={s.real!r} overflow the float"
                f" range{why}"
            ) from exc
        except ZeroDivisionError as exc:
            raise SingularityError(f"{kind}: coefficient pole at s={s!r}") from exc

    def coeffs_AB(self, s: float) -> tuple[float, float]:
        """The three-point coefficients (A, B) at s in the canonical scaling.

        s may be a numpy array of points, real or complex: the table is then
        one elementwise pass, where a pole or an overflow of q**s gives a
        non-finite value (and numpy's warning) instead of an error.  numpy's
        power is not Python's to the last bit, so array values decide signs
        only; a scalar s gives the scalar table's values.
        """
        base = self.resolve_base()  # an alias's base holds its parameters mapped
        return base._ab(base.params, s)

    def monotonicity_f(self, s: float) -> float:
        """The coefficient ratio f = B/A whose signs steer the zero motion.

        A pole of the table raises SingularityError, as does A = 0.  On an
        array of s, f comes from one pass of the table and is NaN at every
        sample where A or B is not finite or A = 0: the samples where a
        scalar call may raise or give a non-finite f.  Elsewhere its sign is
        the scalar f's.
        """
        A, B = self.coeffs_AB(s)
        if isinstance(s, np.ndarray):
            return np.where(np.isfinite(A) & np.isfinite(B) & (A != 0.0), B / A, np.nan)
        if A == 0.0:
            raise SingularityError(f"{self.kind}: A(s)=0 at s={s!r}")
        return B / A

    def _check_continuous(self, param: str) -> None:
        """Raise DomainError for a param the family cannot move continuously:
        N, whose moved values leave the integers, or a name it does not have."""
        if param not in self.params or param == "N":
            raise DomainError(f"{self.kind} has no continuous parameter {param!r}")

    def f_partials(self, s: float, param: str) -> tuple[float, float]:
        """(df/ds, df/dparam) at s, as Im f / h with s, then param, moved by ih.

        This complex step differentiates the family's one A, B table (_ab)
        with an O(h^2) error, far below rounding.  A param the family cannot
        take (N, or a name it does not have) raises DomainError.  The real
        f(s) comes first, so a pole raises SingularityError rather than giving
        a huge complex quotient.  On an array of s, the two partials are one
        complex pass of the table each, whose signs are the scalar calls'
        signs; the real f is not taken, so the samples a scalar call raises
        at are among those where monotonicity_f over the same array is NaN.
        """
        self._check_continuous(param)
        if not isinstance(s, np.ndarray):
            self.monotonicity_f(s)
        moved = {**self.params, param: self.params[param] + _STEP * 1j}
        A1, B1 = self._ab(self.params, s + _STEP * 1j)
        A2, B2 = self._ab(moved, s)
        return (B1 / A1).imag / _STEP, (B2 / A2).imag / _STEP

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
        """make_family(kind, params with param at value): a sweep point calls
        it, and it runs make_family's binder, so the checks and errors are
        the same."""
        return _bind(self.kind, {**self.params, param: value})


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


def _pair(x):
    """The integer ratio (n, d), d > 0, of an exact rational x (a _Ratio, an
    int or another numbers.Rational), or None."""
    if x.__class__ is _Ratio:
        return x._n, x._d
    if x.__class__ is int:
        return x, 1
    if isinstance(x, numbers.Rational):
        return x.numerator, x.denominator
    return None


def _operators(exact, fallback):
    """An arithmetic operator of _Ratio and its reflection, as Fraction pairs
    them: exact(an, ad, bn, bd) on two exact rationals, and fallback on the
    float of the rational beside a float."""

    def forward(a, b):
        pair = _pair(b)
        if pair is not None:
            return exact(a._n, a._d, *pair)
        return fallback(float(a), b) if isinstance(b, float) else NotImplemented

    def reverse(b, a):
        pair = _pair(a)
        if pair is not None:
            return exact(*pair, b._n, b._d)
        return fallback(a, float(b)) if isinstance(a, float) else NotImplemented

    return forward, reverse


def _quotient(an, ad, bn, bd):
    if not bn:
        raise ZeroDivisionError("division by zero")
    return _Ratio(-an * bd, -ad * bn) if bn < 0 else _Ratio(an * bd, ad * bn)


def _comparison(op):
    """A comparison of _Ratio with an exact rational or a float, exact as
    Fraction's: a float that is not finite compares as it does with 0.0."""

    def compare(a, b):
        pair = _pair(b)
        if pair is None:
            if not isinstance(b, float):
                return NotImplemented
            if not math.isfinite(b):
                return op(0.0, b)
            pair = b.as_integer_ratio()
        return op(a._n * pair[1], pair[0] * a._d)

    return compare


def _via_fraction(name):
    """The Fraction method of that name, on the reduced value: for the
    operations of numbers.Rational that no series takes."""
    return lambda a, *args: getattr(Fraction(a._n, a._d), name)(*args)


class _Ratio(numbers.Rational):
    """An exact rational n/d, d > 0, held as the integers its operations
    formed: no gcd is taken, so a product is two integer products and a sum
    three (Knuth, TAOCP vol. 2, 4.5.1).  The exact plans read the pair by
    as_integer_ratio(); numerator and denominator read it reduced, so
    Fraction() takes it.  With an exact rational each operation gives the
    rational Fraction gives, and with a float the float Fraction gives."""

    __slots__ = ("_n", "_d")

    def __init__(self, n: int, d: int = 1):
        self._n, self._d = n, d

    def as_integer_ratio(self) -> tuple[int, int]:
        return self._n, self._d

    @property
    def numerator(self) -> int:
        return self._n // math.gcd(self._n, self._d)

    @property
    def denominator(self) -> int:
        return self._d // math.gcd(self._n, self._d)

    __add__, __radd__ = _operators(
        lambda an, ad, bn, bd: _Ratio(an * bd + bn * ad, ad * bd), operator.add
    )
    __sub__, __rsub__ = _operators(
        lambda an, ad, bn, bd: _Ratio(an * bd - bn * ad, ad * bd), operator.sub
    )
    __mul__, __rmul__ = _operators(lambda an, ad, bn, bd: _Ratio(an * bn, ad * bd), operator.mul)
    __truediv__, __rtruediv__ = _operators(_quotient, operator.truediv)
    __lt__, __le__ = _comparison(operator.lt), _comparison(operator.le)
    __gt__, __ge__ = _comparison(operator.gt), _comparison(operator.ge)
    __eq__ = _comparison(operator.eq)

    def __pow__(self, e):
        """An integer power exactly, as Fraction's; any other, of the float."""
        if isinstance(e, numbers.Rational) and e.denominator == 1:
            e = e.numerator
            if e >= 0:
                return _Ratio(self._n**e, self._d**e)
            return _quotient(1, 1, self._n**-e, self._d**-e)
        return float(self) ** (float(e) if isinstance(e, numbers.Rational) else e)

    def __rpow__(self, b):
        n, d = self._n, self._d
        return b ** (n // d) if n % d == 0 else b ** float(self)

    def __neg__(self):
        return _Ratio(-self._n, self._d)

    def __pos__(self):
        return self

    def __abs__(self):
        return _Ratio(abs(self._n), self._d)

    def __float__(self) -> float:
        return self._n / self._d  # correctly rounded, as Fraction's

    def __hash__(self) -> int:
        return hash(Fraction(self._n, self._d))

    def __repr__(self) -> str:
        return f"_Ratio({self._n}, {self._d})"

    __trunc__, __floor__, __ceil__, __round__ = map(
        _via_fraction, ("__trunc__", "__floor__", "__ceil__", "__round__")
    )
    __floordiv__, __rfloordiv__, __mod__, __rmod__ = map(
        _via_fraction, ("__floordiv__", "__rfloordiv__", "__mod__", "__rmod__")
    )


def _exact(x) -> _Ratio:
    """The float or int x as the exact rational it is."""
    return _Ratio(*x.as_integer_ratio())


def _powers(q: _Ratio, ks: range, c: _Ratio | None = None) -> list[_Ratio]:
    """c q^j for each j of the nonempty run ks, c = 1 where None: the first a
    power, each other from the one before by one product of each integer."""
    n, d = (q ** ks.start).as_integer_ratio()
    if c is not None:
        n, d = n * c._n, d * c._d
    sn, sd = (q ** ks.step).as_integer_ratio()
    out = [_Ratio(n, d)]
    for _ in range(len(ks) - 1):
        n, d = n * sn, d * sd
        out.append(_Ratio(n, d))
    return out


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
    return hyper_sum((-float(n), -X, al + be + n + 1.0), (be + 1.0, 1.0 - N), 1.0, n)


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
    return hyper_sum((-float(n), -X), (), -1.0 / p["alpha"], n)


_POSITIVE_WINDOW = _central(0.0, 4.0)  # representative finite window for (0, inf)


def _krawtchouk_series(p, n, X):
    return hyper_sum((-float(n), -X), (1.0 - p["N"],), 1.0 / p["alpha"], n)


def _meixner_series(p, n, X):
    return hyper_sum((-float(n), -X), (p["beta"],), 1.0 - 1.0 / p["alpha"], n)


# ---------------------------------------------------------------------------
# lattice X = s(s+1)
# ---------------------------------------------------------------------------


def _racah_series(p, n, x):
    a, al, be, N = p["a"], p["alpha"], p["beta"], p["N"]
    w, u = x  # a - s, s + a + 1
    # + 1 keeps rational parameters exact; -float(n), 1.0 - N and 1.0 are exact floats
    return hyper_sum(
        (-float(n), al + be + n + 1, w, u), (2 * a + al + N + 1, be + 1, 1.0 - N), 1.0, n
    )


def _racah_ab(p, s):
    a, al, be, N = p["a"], p["alpha"], p["beta"], p["N"]
    # a pole divides by zero; an array s is divided through, so its poles and
    # the removable 0/0 at s = a = 0 come out non-finite
    if not isinstance(s, np.ndarray) and s == 0.0 and a == 0.0:
        # removable 0/0: the (s-a)/(2s) pair cancels at the support start
        A = (s + N) * (s - al - N) * (s - be) / (2.0 * (2.0 * s + 1.0))
    else:
        A = (s - a) * (s + a + N) * (s - a - al - N) * (s + a - be) / (2.0 * s * (2.0 * s + 1.0))
    B = (s + a + 1.0) * (s - a - N + 1.0) * (s + a + al + N + 1.0) * (s - a + be + 1.0) / (
        2.0 * (s + 1.0) * (2.0 * s + 1.0)
    )
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
    return hyper_sum((-float(n), w, u), (al + 1, 1.0 - N), 1.0, n)


def _dual_hahn_ab(p, s):
    a, al, N = p["a"], p["alpha"], p["N"]
    # poles and the removable 0/0 as in racah
    if not isinstance(s, np.ndarray) and s == 0.0 and a == 0.0:
        A = (s + N) * (s - al) / (2.0 * (2.0 * s + 1.0))
    else:
        A = (s - a) * (s + a + N) * (s + a - al) / (2.0 * s * (2.0 * s + 1.0))
    B = (s + a + 1.0) * (-s + a + N - 1.0) * (s - a + al + 1.0) / (
        2.0 * (s + 1.0) * (2.0 * s + 1.0)
    )
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
# lattice X = q^s; each series takes its argument z = qX as the atom
# ---------------------------------------------------------------------------


def _q_bessel_series(p, n, z):
    al, q = p["alpha"], p["q"]
    return qhyper_sum((q ** (-n), -al * q**n), (0.0,), q, z, n)


def _q_bessel_ab(p, s):
    al, q = p["alpha"], p["q"]
    return q**s - 1.0, al


def _little_qj_series(p, n, z):
    al, be, q = p["alpha"], p["beta"], p["q"]
    return qhyper_sum((q ** (-n), al * be * q ** (n + 1)), (al * q,), q, z, n)


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


def _little_ql_series(p, n, z):
    al, q = p["alpha"], p["q"]
    return qhyper_sum((q ** (-n), 0.0), (al * q,), q, z, n)


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
    p = dict(params or {})
    p.update(kw)
    return _bind(normalize_kind(kind), p)


def _bind(key: str, p: dict, alias_kind: str | None = None) -> FamilySpec:
    """Check the parameters p of the catalog kind key and bind them to the
    lattice: make_family and with_param both run this, and no other place
    checks.  alias_kind is the field of an alias's base: the alias's kind."""
    entry = _CATALOG[key]
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
        # an alias takes its base's grid, support and degree cap
        base = _bind(*entry.alias_map(p), key)
        return FamilySpec(
            key, p, base.grid, base.support_start, base.support_end, base.degree_max,
            base, entry.zero_scale(p),
        )
    grid = Grid(entry.lattice, p.get("q"))
    a = p.get("a", 0.0)
    if "N" not in p:
        return FamilySpec(key, p, grid, a, math.inf, INFINITE_DEGREE_CAP, alias_kind=alias_kind)
    p["N"] = int(p["N"])
    return FamilySpec(key, p, grid, a, a + p["N"], p["N"] - 1, alias_kind=alias_kind)


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

    n may be a sequence of degrees, in any order and with repeats, and k a
    range of support indices: the result then holds the values per degree,
    and within one per point.  Each value is the one-point call's bit for
    bit, and the error raised is the first one a loop over the degrees, then
    the points, would meet.  A degree or index that is not an integer (by
    operator.index), and an index outside the support, k < 0 or k >= N,
    raise DomainError before any sum.

    Each value is the exact rational's correctly rounded float.  Degree 0,
    whose series is the constant 1, takes no sum: each of its values is its
    prefactors times 1.0.  A sum whose integers are wider than 128 bits is
    first taken at 128 bits with an error radius, each end of its interval
    rounded once, and returned where both ends round to one float; elsewhere
    the exact rational sum decides (qseries._sum_points).  Every degree is
    planned once, and the points are then taken one at a
    time: each converts its atoms once and builds once, up to the highest
    degree, the products of its atom factors, as a table of 128-bit balls
    and as exact integers, which the sums of all degrees share.  A degree's
    sum is then a dot product of that table with the degree's ratio
    products, or a Horner pass over the exact factors.
    """
    many = isinstance(k, range)
    if not many:
        k = _integer(family, "support index k", k)
    ks = k if many else range(k, k + 1)
    size = round(family.support_end - family.support_start) if family.is_finite else math.inf
    outside = next((j for j in ks if not 0 <= j < size), None)
    if outside is not None:
        support = (
            f"the {size} support points 0..{size - 1}"
            if family.is_finite
            else "the infinite support 0, 1, 2, ..."
        )
        raise DomainError(f"{family._label}: support index k={outside} outside {support}")
    one_degree = not np.iterable(n)
    degrees = [_integer(family, "degree n", d) for d in ((n,) if one_degree else n)]
    if ks:
        p, atoms = _support_atoms(family.resolve_base())
        ss = [family.support_start + j for j in ks]
        rows = family._exact_rows(degrees, p, atoms(ks), ss)
    else:  # no point to evaluate, so none to fail
        rows = [[] for _ in degrees]
    if not many:
        rows = [value for (value,) in rows]
    return rows[0] if one_degree else rows


def _integer(family: FamilySpec, name: str, value) -> int:
    """value as an int (operator.index), or DomainError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{family._label}: {name}={value!r} is not an integer") from None


def _count(family: FamilySpec, name: str, value) -> int:
    """value as an int (operator.index), or DomainError naming it where it
    is not one or is negative."""
    value = _integer(family, name, value)
    if value < 0:
        raise DomainError(f"{family._label}: {name}={value} is negative")
    return value


def _lattice_atoms(base: FamilySpec, exact: bool):
    """The series' parameters, and its lattice atoms as a function of s and
    as one of a float array of s, picked once per lattice: s, (a - s,
    s + a + 1) on the quadratic lattice, q^-s on the q^-s lattice, q q^s on
    the q^s one (its series' argument z = qX), (q^a q^-s, q^a q^s) on the
    q-quadratic one.  Exact, the quadratic atoms and parameters are
    rationals (_Ratio), the atoms from the exact s; other lattices keep
    their float atoms, summed exactly.

    The array atoms are the float atoms elementwise, bit for bit.  numpy's
    power is not Python's to the last bit, so each q-power of an array is
    Python's float power, mapped over its floats: an overflow raises
    OverflowError, as at one s."""
    tag, p, q = base.grid.tag, base.params, base.grid.q
    if tag == QUADRATIC:
        p, num = (_rational_params(base), _exact) if exact else (p, float)
        a = p["a"]

        def atoms(s):
            s = num(s)
            return a - s, s + a + 1

        return p, atoms, lambda ss: (a - ss, ss + a + 1)

    def powers(es):
        return np.fromiter(map(q.__pow__, es.tolist()), float, len(es))

    if tag == Q_SYMMETRIC:
        qa = q ** p["a"]
        return p, lambda s: (qa * q**-s, qa * q**s), lambda ss: (qa * powers(-ss), qa * powers(ss))
    if tag == LINEAR:
        return p, lambda s: s, lambda ss: ss
    if tag == Q_EXP_NEG:
        return p, lambda s: q**-s, lambda ss: powers(-ss)
    return p, lambda s: q * q**s, lambda ss: q * powers(ss)


# the slots of the series' atoms on each lattice, in the shape _lattice_atoms
# gives the atoms: one atom, or a pair
_SLOTS = {
    LINEAR: _Slot(),
    QUADRATIC: (_Slot(0), _Slot(1)),
    Q_EXP_NEG: _Slot(),
    Q_EXP: _Slot(),
    Q_SYMMETRIC: (_Slot(0), _Slot(1)),
}


def _zeros_end(base: FamilySpec, n: int) -> float:
    """The s past which no zero of the degree-n polynomial lies, on an
    infinite support: the Laguerre-Samuelson bound mu + sigma sqrt(n - 1) on
    n reals of mean mu and variance sigma^2 (Samuelson, JASA 1968), mapped
    to s.  It bounds the zeros in X, or on the q^s lattice the reciprocals
    1/z of the argument z = qX.  Their e_1 and e_2 come from the term ratios
    r_k = p_k/d_k and steps (u_k, v_k) of the series' exact plan, built
    without the prefactors, which may overflow where the series does not:
    - on the q^s lattice P = 1 + r_0 z + r_0 r_1 z^2 + ..., so e_1 = -r_0
      and e_2 = r_0 r_1;
    - elsewhere term factor k is c_k (x - t_k), c_k = sigma r_k u_k and t_k
      = -sigma v_k / u_k, sigma = -1 on a negated slot, so e_1 = sum t_k -
      1/c_(n-1), and the zeros' sum of squares is sum t_k^2 + 1/c_(n-1)
      (1/c_(n-1) - 2 t_(n-1) - 2/c_(n-2)).
    The bound is homogeneous of degree 1, so each input is the float of its
    integer ratio times 2^-m, m the largest binary exponent among them, and
    none leaves the float range at any q.  On the linear lattice the end
    itself may (OverflowError).
    """
    tag = base.grid.tag
    with exact_summation():
        plan = _CATALOG[base.kind].series(base.params, n, _SLOTS[tag])

    def scaled(num, den, m):
        return num / (den << m) if m >= 0 else (num << -m) / den

    sign = -1 if plan.reads[-1].neg else 1  # the slot of z on the q^s lattice, else of X
    (p0, d0), *rest = plan.ratios
    if tag == Q_EXP:
        m = p0.bit_length() - d0.bit_length()
        e1 = -sign * scaled(p0, d0, m)
        squares = e1 * e1 - (2.0 * scaled(p0 * rest[0][0], d0 * rest[0][1], 2 * m) if rest else 0.0)
    else:
        ts = [(-sign * v, u) for u, v in plan.steps]
        rs = [(d, sign * p * u) for (p, d), (u, _) in zip(plan.ratios[-2:], plan.steps[-2:])]
        m = max(num.bit_length() - den.bit_length() for num, den in ts + rs)
        ts = [scaled(*t, m) for t in ts]
        *r2, r1 = [scaled(*r, m) for r in rs]
        e1 = math.fsum(ts) - r1
        squares = math.fsum(t * t for t in ts) + r1 * (r1 - 2.0 * (ts[-1] + sum(r2)))
    mu = e1 / n
    bound = mu + math.sqrt((n - 1) * max(squares / n - mu * mu, 0.0))
    if tag == LINEAR:
        return math.ldexp(bound, m)
    end = (math.log(bound) + m * math.log(2.0)) / -math.log(base.grid.q)
    return end - 1.0 if tag == Q_EXP else end


def _support_atoms(base: FamilySpec):
    """The series' parameters, and its lattice atoms at the support points
    s = a + j as exact rationals, as a function of a nonempty run of j (a
    range): j on the linear lattice and q^-j or q^(j+1) (the argument qX) on
    the q-linear ones (where a = 0), (-j, 2a + 1 + j) on the quadratic one
    and (q^-j, (q^a)^2 q^j) on the q-quadratic one.  Near the top of the
    support the series cancels far below its terms, which any rounding of
    the atoms would swamp; off the linear lattice the parameters are
    rationals too (_Ratio), so each family is an exact polynomial model.
    The integers j and -j stand as they are, 2a + 1 and (q^a)^2 are formed
    once, and the q-powers of a run are _Ratio pairs, each from the one
    before by one product of each integer (_powers)."""
    tag = base.grid.tag
    p = base.params if tag == LINEAR else _rational_params(base)
    q, a = p.get("q"), p.get("a")
    if tag == LINEAR:
        return p, list
    if tag == QUADRATIC:
        c = 2 * a + 1
        return p, lambda ks: [(-j, c + j) for j in ks]
    if tag == Q_EXP_NEG:
        return p, lambda ks: _powers(q**-1, ks)
    if tag == Q_EXP:
        return p, lambda ks: _powers(q, ks, q)
    aa = a * a
    return p, lambda ks: list(zip(_powers(q**-1, ks), _powers(q, ks, aa)))


def _rational_params(base: FamilySpec) -> dict:
    """The parameters as exact rationals (_Ratio), N as its int; on the
    q-quadratic lattice a, alpha and beta as their rounded powers q^a,
    q^alpha, q^beta.  The series form their derived parameters from these
    by the usual operators, with no gcd."""
    q, power = base.grid.q, base.grid.tag == Q_SYMMETRIC
    return {
        name: v if name == "N" else _exact(q**v if power and name != "q" else v)
        for name, v in base.params.items()
    }


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
    """A family instance and a degree, kept as an int in 1..degree_max: any
    other degree raises DomainError."""

    family: FamilySpec
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "degree", _integer(self.family, "degree", self.degree))
        if not 1 <= self.degree <= self.family.degree_max:
            raise DomainError(
                f"degree {self.degree} outside 1..{self.family.degree_max} for {self.family.kind}"
            )
