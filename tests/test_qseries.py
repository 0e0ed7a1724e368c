import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import copz.qseries
from oracles import (
    chu_vandermonde,
    pochhammer,
    q_chu_vandermonde,
    q_pfaff_saalschutz,
    reference_compensated_sum,
    reference_hyper_sum,
    reference_qhyper_sum,
    sheppard,
)
from copz import DomainError, UndefinedSeriesError, q_pochhammer
from copz.families import _CATALOG, catalog_kinds, eval_exact_at_support, make_family, sample_params
from copz.weights import weight_table
from copz.qseries import exact_summation, hyper_sum, qhyper_sum


def test_pochhammer_values():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(2.0, 3) == 24.0
    assert pochhammer(-2.0, 3) == 0.0


@given(st.floats(-10, 10), st.integers(0, 20))
def test_pochhammer_recurrence_exact(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_q_pochhammer_values():
    a, q = 0.7, 0.5
    assert q_pochhammer(a, q, 1) == 1.0 - a
    assert q_pochhammer(0.0, q, 5) == 1.0
    assert q_pochhammer(q**-2, q, 3) == pytest.approx(0.0, abs=1e-15)


def test_two_term_expansion():
    b, c, z = 1.5, 2.5, 0.7
    assert hyper_sum((-1.0, b), (c,), z, 1) == pytest.approx(1 - b * z / c, rel=1e-15)
    assert hyper_sum((-4.0, b), (c,), 0.0, 4) == 1.0
    assert hyper_sum((-3.0, 0.0, b), (c, 1 - 9.0), 1.0, 3) == 1.0


def test_vanishing_denominator_raises():
    with pytest.raises(UndefinedSeriesError):
        hyper_sum((-3.0, 1.0), (-2.0,), 1.0, 3)
    q = 0.5
    with pytest.raises(UndefinedSeriesError):
        qhyper_sum((q**-3, 0.3), (q**-2,), q, 0.5, 3)
    # a call given an atom's slot raises as the call on floats does, as it
    # builds the plan: the vanishing factor and the base q are constants
    atom = copz.qseries._Slot()
    for call in (
        lambda x: hyper_sum((-3.0, x), (-2.0,), 1.0, 3),
        lambda x: hyper_sum((-3.0, x), (-2.0,), x, 3),
        lambda x: qhyper_sum((q**-3, x), (q**-2,), q, 0.5, 3),
        lambda x: qhyper_sum((q**-3, 0.3), (q**-2,), q, x, 3),
        lambda x: qhyper_sum((q**-3, x), (), 1.5, 0.5, 3),
    ):
        with pytest.raises((UndefinedSeriesError, DomainError)) as want:
            call(1.0)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            call(atom)
    assert str(want.value) == "base q must lie in (0, 1), got 1.5"


def test_chu_vandermonde_degree_one():
    b, c = 1.3, 2.1
    assert chu_vandermonde(1, b, c) == pytest.approx((c - b) / c, rel=1e-14)


def _series_chu_vandermonde(n, b, c):
    return hyper_sum((-n, b), (c,), 1.0, n)


def _series_sheppard(n, a, b, c):
    return hyper_sum((-n, a, b), (c, 1.0 + a + b - c - n), 1.0, n)


def _series_q_saalschutz(n, a, b, c, q):
    return qhyper_sum((q**-n, a, b), (c, a * b * q ** (1 - n) / c), q, q, n)


def _series_q_chu_vandermonde(n, b, c, q):
    return qhyper_sum((q**-n, b), (c,), q, q, n)


def test_identity_oracles_randomized():
    # parameters drawn with the shapes the catalog actually produces; outside
    # these, direct summation can lose digits to cancellation (see the
    # wide-range spot checks below)
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 6)
        N = rng.randint(n + 1, 14)
        a = rng.uniform(-0.45, 1.8)
        alpha = rng.uniform(max(-1.0, a) + 0.05, 2 * a + 0.95)
        b, c = 2 * a - alpha, 1.0 - N
        assert chu_vandermonde(n, b, c) == pytest.approx(
            _series_chu_vandermonde(n, b, c), rel=1e-11
        )
    for _ in range(120):
        n = rng.randint(1, 6)
        N = rng.randint(n + 1, 14)
        a = rng.uniform(0.0, 1.8)
        alpha = rng.uniform(-0.8, 2.0)
        beta = rng.uniform(max(-1.0, 2 * a) + 0.02, 2 * a + 0.98)
        A, B, C = alpha + beta + n + 1, 2 * a - beta, 2 * a + alpha + N + 1
        assert sheppard(n, A, B, C) == pytest.approx(
            _series_sheppard(n, A, B, C), rel=1e-11
        )
    for _ in range(120):
        n = rng.randint(1, 6)
        q = rng.uniform(0.35, 0.9)
        N = rng.randint(n + 1, 12)
        a = rng.uniform(0.15, 1.8)
        alpha = rng.uniform(-0.8, 1.5)
        beta = rng.uniform(max(-1.0, 2 * a - 1.0) + 0.05, 2 * a - 0.05)
        A = q ** (alpha + beta + n + 1)
        B = q ** (2 * a - beta - 1)
        C = q ** (2 * a + alpha + N)
        assert q_pfaff_saalschutz(n, A, B, C, q) == pytest.approx(
            _series_q_saalschutz(n, A, B, C, q), rel=1e-11
        )
    for _ in range(120):
        n = rng.randint(1, 6)
        q = rng.uniform(0.35, 0.9)
        N = rng.randint(n + 1, 12)
        a = rng.uniform(0.3, 1.8)
        alpha = rng.uniform(max(-1.0, 2 * a - 1.0) + 0.05, 2 * a - 0.05)
        b, c = q ** (2 * a - alpha - 1), q ** (1 - N)
        assert q_chu_vandermonde(n, b, c, q) == pytest.approx(
            _series_q_chu_vandermonde(n, b, c, q), rel=1e-11
        )


def test_identity_oracles_wide_ranges_loose():
    # far corners of the validity domains: direct summation is limited by the
    # term-to-sum cancellation ratio, so only a loose agreement is checked
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 7)
        q = rng.uniform(0.3, 0.9)
        a = q ** rng.uniform(-2.0, 2.5)
        b = q ** rng.uniform(-2.0, 2.5)
        c = q ** rng.uniform(0.3, 4.0)
        assert q_pfaff_saalschutz(n, a, b, c, q) == pytest.approx(
            _series_q_saalschutz(n, a, b, c, q), rel=1e-6, abs=1e-9
        )
    for _ in range(60):
        n = rng.randint(1, 7)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.5, 6.0)
        assert chu_vandermonde(n, b, c) == pytest.approx(
            _series_chu_vandermonde(n, b, c), rel=1e-8, abs=1e-10
        )


def test_balanced_3f2_proof_instance():
    # sample instance (a, alpha, beta, N) = (1, 0.5, 0.5, 6), degree 2:
    # parameters map to A = alpha+beta+n+1, B = 2a-beta, C = 2a+alpha+N+1
    n, a, alpha, beta, N = 2, 1.0, 0.5, 0.5, 6
    A = alpha + beta + n + 1
    B = 2 * a - beta
    C = 2 * a + alpha + N + 1
    closed = sheppard(n, A, B, C)
    assert closed == pytest.approx(_series_sheppard(n, A, B, C), rel=1e-12)
    # the same value written out through shifted factorials
    explicit = (
        pochhammer(2 * a - beta + N - n, n)
        * pochhammer(alpha + beta + N + 1, n)
        / (pochhammer(2 * a + alpha + N + 1, n) * pochhammer(N - n, n))
    )
    assert closed == pytest.approx(explicit, rel=1e-13)


def test_quadratic_gap_instance_chu_vandermonde():
    # the three-parameter quadratic-lattice family evaluates, at the gap edge,
    # to 2F1(-n, 2a-alpha; 1-N; 1) = (1-N-2a+alpha)_n / (1-N)_n
    n, a, alpha, N = 3, 0.8, 1.1, 7
    val = _series_chu_vandermonde(n, 2 * a - alpha, 1.0 - N)
    explicit = pochhammer(1 - N + alpha - 2 * a, n) / pochhammer(1.0 - N, n)
    assert val == pytest.approx(explicit, rel=1e-12)
    assert val > 0.0


def test_q_quadratic_gap_instances():
    # balanced 3phi2 with parameters q^(alpha+beta+n+1), q^(2a-beta-1),
    # q^(2a+alpha+N); second denominator entry collapses to q^(1-N)
    n, a, alpha, beta, q, N = 2, 0.9, 0.4, 1.2, 0.55, 6
    A = q ** (alpha + beta + n + 1)
    B = q ** (2 * a - beta - 1)
    C = q ** (2 * a + alpha + N)
    assert A * B * q ** (1 - n) / C == pytest.approx(q ** (1 - N), rel=1e-12)
    closed = q_pfaff_saalschutz(n, A, B, C, q)
    assert closed == pytest.approx(_series_q_saalschutz(n, A, B, C, q), rel=1e-12)
    explicit = (
        q_pochhammer(q ** (2 * a - beta + N - n - 1), q, n)
        * q_pochhammer(q ** (alpha + beta + N + 1), q, n)
        / (
            q_pochhammer(q ** (2 * a + alpha + N), q, n)
            * q_pochhammer(q ** (N - n), q, n)
        )
    )
    assert closed == pytest.approx(explicit, rel=1e-12)
    assert closed > 0.0

    # 2phi1(q^-n, q^(2a-alpha-1); q^(1-N); q, q) in closed form
    n, a, alpha, N = 3, 0.7, 0.9, 7
    b = q ** (2 * a - alpha - 1)
    c = q ** (1 - N)
    val = _series_q_chu_vandermonde(n, b, c, q)
    explicit = (
        q ** (n * (2 * a - alpha - 1))
        * q_pochhammer(q ** (alpha - 2 * a - N + 2), q, n)
        / q_pochhammer(q ** (1 - N), q, n)
    )
    assert val == pytest.approx(explicit, rel=1e-12)
    assert val > 0.0


def test_q_to_one_consistency():
    # loose qualitative check: the basic series at q near 1 approaches the
    # ordinary one with the same argument
    q = 0.9999
    n, b, c, z = 3, 1.4, 2.2, 0.7
    qval = qhyper_sum((q**-n, q**b), (q**c,), q, z, n)
    oval = hyper_sum((-n, b), (c,), z, n)
    assert qval == pytest.approx(oval, rel=1e-3)


def test_compensated_alternating_sum():
    # large alternating terms cancel by ~10 orders here; the compensated sum
    # keeps the loss close to the conditioning floor
    n, b, c = 12, 9.5, 0.75
    assert hyper_sum((-n, b), (c,), 1.0, n) == pytest.approx(
        chu_vandermonde(n, b, c), rel=1e-5
    )


# ---------------------------------------------------------------------------
# exact summation against the reduced-Fraction loops it replaced
# ---------------------------------------------------------------------------


def _fraction(x):
    """The exact number x, a float, an int, a Fraction or the library's exact
    rational, as a Fraction."""
    return Fraction(*x.as_integer_ratio())


def _reference_hyper_sum_exact(num, den, z, n):
    numf = [_fraction(a) for a in num]
    denf = [_fraction(b) for b in den]
    term = Fraction(1)
    total = Fraction(1)
    zf = _fraction(z)
    for k in range(n):
        ratio = zf / (k + 1)
        for a in numf:
            ratio *= a + k
        for b in denf:
            d = b + k
            if d == 0:
                raise UndefinedSeriesError(
                    f"denominator parameter {b!r} vanishes at k={k + 1}"
                )
            ratio /= d
        term *= ratio
        total += term
    return float(total)


def _reference_qhyper_sum_exact(num, den, q, z, n):
    if not 0 < q < 1:
        raise DomainError(f"base q must lie in (0, 1), got {q!r}")
    numf = [_fraction(a) for a in num]
    denf = [_fraction(b) for b in den]
    qf = _fraction(q)
    excess = 1 + len(den) - len(num)
    zf = _fraction(z)
    qk = Fraction(1)
    ratios = []
    for k in range(n):
        ratio = zf
        for a in numf:
            ratio *= 1 - a * qk
        for b in denf:
            d = 1 - b * qk
            if d == 0:
                raise UndefinedSeriesError(
                    f"denominator parameter {b!r} vanishes at k={k + 1}"
                )
            ratio /= d
        ratio /= 1 - qf * qk
        if excess:
            ratio *= (-qk) ** excess
        ratios.append(ratio)
        qk *= qf
    # Summed inside out, 1 + r_0 (1 + r_1 (...)): the same rational as the
    # term-by-term sum, but no step adds two large-denominator fractions, so
    # a tiny float q (q**k has a denominator near 2**(1000 k)) stays fast.
    total = Fraction(1)
    for ratio in reversed(ratios):
        total = 1 + ratio * total
    return float(total)


def _outcome(fn, *args):
    """The value's bits (the sign of zero included), or the exception raised."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _exact(fn, *args):
    with exact_summation():
        return fn(*args)


_atoms = st.one_of(
    st.integers(-6, 6),
    st.floats(-40.0, 40.0),
    st.fractions(-40, 40, max_denominator=10**6),
)
_bases = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.fractions(0, 1, max_denominator=10**6).filter(lambda q: 0 < q < 1),
)


@given(
    st.lists(_atoms, max_size=3),
    st.lists(_atoms, max_size=2),
    _atoms,
    st.integers(0, 9),
)
@example((-3, 1.5), (-2.0,), -1.0, 3)  # vanishing denominator
@example((1e300, 1e300), (), 1e300, 2)  # overflowing sum
@example((-2, 0.0), (1.5,), 0.25, 4)  # terms vanish before n
@example((-1, 1), (-0.5,), -0.5, 1)  # exact zero over a negative denominator
def test_exact_sum_matches_fraction_reference(num, den, z, n):
    assert _outcome(_exact, hyper_sum, num, den, z, n) == _outcome(
        _reference_hyper_sum_exact, num, den, z, n
    )


@given(
    st.lists(_atoms, max_size=3),
    st.lists(_atoms, max_size=2),
    _bases,
    _atoms,
    st.integers(0, 9),
)
@example((0.25, 3.0, -1.0), (), 0.5, -2.0, 5)  # excess -2
@example((0.25, 3.0), (), Fraction(1, 3), Fraction(-7, 2), 5)  # excess -1
@example((8.0, 0.5), (1.5,), 0.5, -1.0, 4)  # excess 0
@example((8.0,), (0.0, 2.5), 0.5, -3.0, 4)  # excess 2
@example((8.0, 0.3), (4.0,), 0.5, 1.0, 3)  # 1 - 4 q^2 vanishes at k=3
@example((-1e300,), (), 0.5, 1e300, 3)  # overflowing sum
def test_exact_qsum_matches_fraction_reference(num, den, q, z, n):
    assert _outcome(_exact, qhyper_sum, num, den, q, z, n) == _outcome(
        _reference_qhyper_sum_exact, num, den, q, z, n
    )


def _column(points):
    """An array of per-point atoms, one per point."""
    return st.lists(_atoms, min_size=points, max_size=points).map(
        lambda v: np.array(v, dtype=object)
    )


def _per_point(atom) -> bool:
    return isinstance(atom, np.ndarray)


# (point count, numerator atoms, argument), with at least one per-point atom
_point_atoms = st.integers(1, 3).flatmap(
    lambda points: st.tuples(
        st.just(points),
        st.lists(st.one_of(_atoms, _column(points)), max_size=3),
        st.one_of(_atoms, _column(points)),
    )
).filter(lambda c: any(map(_per_point, c[1] + [c[2]])))


def _point_sums(series, num, *rest):
    """The exact sums of a series call at each point of its per-point atoms,
    the arrays among num and the argument rest[-2]: the call given a slot for
    each array returns its plan, which _sum_points runs over the points."""
    columns = []

    def slotted(a):
        if not _per_point(a):
            return a
        columns.append(a)
        return copz.qseries._Slot(len(columns) - 1)

    num = [slotted(a) for a in num]
    *head, z, n = rest
    plan = _exact(series, num, *head, slotted(z), n)
    return copz.qseries._sum_points((plan,), list(zip(*columns)))[0]


def _pointwise_outcome(batched, reference, points, num, z):
    """The batched call against the reference at each point's scalar atoms.

    Every value must match bit for bit; where a point's reference raises, the
    batched call raises the first such error, and a sum overflowing the float
    range names its point.
    """
    at = [[a[j] if _per_point(a) else a for a in num + [z]] for j in range(points)]
    want = [_outcome(reference, atoms[:-1], atoms[-1]) for atoms in at]
    failed = next((j for j, w in enumerate(want) if isinstance(w, tuple)), None)
    try:
        got = batched(num, z)
    except (ArithmeticError, ValueError) as exc:
        assert failed is not None, exc
        if want[failed][0] is OverflowError:
            assert isinstance(exc, OverflowError) and exc.index == failed
        else:
            assert (type(exc), str(exc)) == want[failed]
    else:
        assert failed is None and [v.hex() for v in got] == want


_OVERFLOW_AT_POINT_1 = np.array([1.0, 1e300], dtype=object)


@given(_point_atoms, st.lists(_atoms, max_size=2), st.integers(0, 9))
@example((2, [_OVERFLOW_AT_POINT_1] * 2, _OVERFLOW_AT_POINT_1), (), 2)
@example((2, [np.array([-1, 1], dtype=object)], 3.0), (1.5,), 4)  # point 0 stops at k=1
@example((2, [np.array([1.0, 2.0], dtype=object)], 1.0), (-2.0,), 3)  # vanishing denominator
def test_exact_sum_over_point_arrays_matches_fraction_reference(case, den, n):
    points, num, z = case
    _pointwise_outcome(
        lambda num, z: _point_sums(hyper_sum, num, den, z, n),
        lambda num, z: _reference_hyper_sum_exact(num, den, z, n),
        points, num, z,
    )


@given(_point_atoms, st.lists(_atoms, max_size=2), _bases, st.integers(0, 9))
@example((2, [np.array([0.5, -1e300], dtype=object)], _OVERFLOW_AT_POINT_1), (), 0.5, 3)
@example((3, [np.array([1, 4, Fraction(1, 3)], dtype=object)], 0.5), (0.0,), 0.5, 4)
@example((1, [8.0, np.array([0.3], dtype=object)], 1.0), (4.0,), 0.5, 3)  # 1 - 4 q^2 = 0
def test_exact_qsum_over_point_arrays_matches_fraction_reference(case, den, q, n):
    points, num, z = case
    _pointwise_outcome(
        lambda num, z: _point_sums(qhyper_sum, num, den, q, z, n),
        lambda num, z: _reference_qhyper_sum_exact(num, den, q, z, n),
        points, num, z,
    )


def test_exact_sums_raise_as_the_reference():
    cases = [
        (hyper_sum, _reference_hyper_sum_exact, ((-3, 1.0), (-2.0,), 1.0, 3)),
        (qhyper_sum, _reference_qhyper_sum_exact, ((8.0, 0.3), (4.0,), 0.5, 1.0, 3)),
        (
            qhyper_sum,
            _reference_qhyper_sum_exact,
            ((Fraction(1, 8), 0.3), (Fraction(9, 1),), Fraction(1, 3), 1.0, 3),
        ),
    ]
    for new, ref, args in cases:
        with pytest.raises(UndefinedSeriesError) as got:
            _exact(new, *args)
        with pytest.raises(UndefinedSeriesError) as want:
            ref(*args)
        assert str(got.value) == str(want.value)
        assert "Fraction(" in str(got.value)
    for new, ref, args in [
        (hyper_sum, _reference_hyper_sum_exact, ((1e300, 1e300), (), 1e300, 2)),
        (qhyper_sum, _reference_qhyper_sum_exact, ((-1e300,), (), 0.5, 1e300, 3)),
    ]:
        with pytest.raises(OverflowError):
            _exact(new, *args)
        with pytest.raises(OverflowError):
            ref(*args)
    with pytest.raises(DomainError, match="base q must lie in"):
        _exact(qhyper_sum, (0.5,), (), Fraction(1), 1.0, 2)


def _catalog_instance(kind):
    """A drawn instance and its point count: the support, or 16 points of an
    infinite one; on q-lattices, whose sums the 128-bit pass takes, up to 40."""
    spec = make_family(kind, sample_params(kind, random.Random(kind)))
    size = round(spec.support_end - spec.support_start) if spec.is_finite else None
    return spec, size or 16 if spec.grid.q is None else min(size or 40, 40)


def _reference_plan(num, den, q, z, n):
    """The Fraction reference sums as the exact plan of a series call given
    slots: the function of one point's atoms x that sums the call with each
    slot's atom read from x."""

    def at(x):
        def atom(a):
            if a.__class__ is not copz.qseries._Slot:
                return a
            return x if a.index is None else x[a.index]

        atoms = [atom(a) for a in num]
        if q is None:
            return _reference_hyper_sum_exact(atoms, den, atom(z), n)
        return _reference_qhyper_sum_exact(atoms, den, q, atom(z), n)

    return at


@pytest.mark.parametrize("kind", catalog_kinds())
def test_catalog_exact_values_match_fraction_reference(kind, monkeypatch):
    # degrees up to 8, the Gram checks' widest
    spec, npts = _catalog_instance(kind)
    points = [(n, k) for n in range(min(8, spec.degree_max) + 1) for k in range(npts)]

    def values():
        return [_outcome(eval_exact_at_support, spec, n, k) for n, k in points]

    got = values()
    # the same calls, each plan summed at each point by the Fraction reference
    monkeypatch.setattr(copz.qseries, "_exact_plan", _reference_plan)
    monkeypatch.setattr(
        copz.qseries, "_sum_points", lambda plans, xs: [[plan(x) for x in xs] for plan in plans]
    )
    want = values()
    assert got == want


# ---------------------------------------------------------------------------
# the 128-bit pass, on sums with an integer wider than 128 bits
# ---------------------------------------------------------------------------

# 53-bit rational parameters: floats, and fractions of 53-bit integers
_rational53 = st.one_of(
    st.floats(-4.0, 4.0),
    st.builds(Fraction, st.integers(-(2**53), 2**53), st.integers(1, 2**53)),
)
# a base whose powers q^j, j >= 4, have a numerator or denominator wider than 128 bits
_wide_base = st.floats(0.05, 0.95).filter(lambda q: q.as_integer_ratio()[1] > 2**40)


def _q_powers(q, points):
    """A column of wide q-power atoms c q^(±j), 4 <= j <= 60, at consecutive j."""
    def powers(j, sign, c):
        return _column_of(*(Fraction(q) ** (sign * (j + i)) * Fraction(c) for i in range(points)))

    factor = st.one_of(st.just(1), _rational53.filter(bool))
    return st.builds(powers, st.integers(4, 61 - points), st.sampled_from((1, -1)), factor)


def _column_of(*values):
    return np.array(values, dtype=object)


@st.composite
def _wide_sums(draw, hyper):
    """(base, point count, numerator atoms, argument) with a wide q-power
    column as the argument or a numerator atom, so every point is certified
    first.  Beside it a basic sum takes at most one more such column and a
    hypergeometric one per-point atoms -j, whose factors vanish at k = j."""
    q = draw(_wide_base)
    points = draw(st.integers(1, 3))
    column = _q_powers(q, points)
    negative = st.integers(0, 12).map(lambda j: _column_of(*range(-j, -j - points, -1)))
    other = st.one_of(_rational53, negative if hyper else column)
    num = draw(st.lists(other, max_size=2 if hyper else 1))
    z = draw(st.one_of(_rational53, column))
    if not _per_point(z):
        num.append(draw(column))
    return q, points, num, z


# (point count, numerator atoms, argument), denominators and degree whose
# certified pass is in doubt at one point, so that its exact sum decides
_A = Fraction(3**90 + 1, 3**89)
_B = 1 / (Fraction(2**56, 9) / (1 + 1 / _A) - 1)
_FALLBACKS = {
    # 1 + z a cancels to an exact 0, which is +0.0
    "exact zero": ((1, [_column_of(_A)], _column_of(-1 / _A)), (), 1),
    # 1 + z a = -2^-1100 underflows to -0.0
    "negative underflow": (
        (1, [_column_of(_A)], _column_of(-(1 + Fraction(1, 2**1100)) / _A)), (), 1
    ),
    # the sum at point 1 overflows, and the error names that point
    "overflow at point 1": (
        (2, [_column_of(_A, _A)], _column_of(1 / _A, Fraction(3**700, 7))), (), 1
    ),
    # r_0 = 3 2^-55 and r_1 = 1/3 from non-dyadic atoms: the sum 1 + 2^-53 is
    # the midpoint of 1 and its successor, and ties to even give 1
    "rounding midpoint": (
        (1, [_column_of(_A), _column_of(_B)], _column_of(Fraction(3, 2**55) / (_A * _B))), (), 2
    ),
    # 1 + z a = 3 2^-1074, a subnormal: the 128-bit pass resolves no finer
    # than 2^-127 about its 1, so a sum this small is always in doubt
    "subnormal": ((1, [_column_of(_A)], _column_of((Fraction(3, 2**1074) - 1) / _A)), (), 1),
    # 1 + z a = 2^1024 - 2^969, past the midpoint of the largest float and 2^1024:
    # it rounds up to 2^1024, an overflow, though below 2^1024 itself
    "rounds past the largest float": (
        (1, [_column_of(_A)], _column_of((2**1024 - 2**969 - 1) / _A)), (), 1
    ),
}


def _with_fallback_examples(test):
    for case in _FALLBACKS.values():
        test = example(*case)(test)
    return test


# 50 draws each keep these two within half a second; their Fraction
# references take most of it
@settings(max_examples=50)
@given(
    _wide_sums(hyper=True).map(lambda c: c[1:]),
    st.lists(_rational53, max_size=2),
    st.integers(0, 12),
)
@_with_fallback_examples
def test_certified_sum_matches_fraction_reference(case, den, n):
    points, num, z = case
    _pointwise_outcome(
        lambda num, z: _point_sums(hyper_sum, num, den, z, n),
        lambda num, z: _reference_hyper_sum_exact(num, den, z, n),
        points, num, z,
    )


@settings(max_examples=50)
@given(_wide_sums(hyper=False), st.lists(_rational53, max_size=2), st.integers(0, 12))
def test_certified_qsum_matches_fraction_reference(case, den, n):
    q, points, num, z = case
    _pointwise_outcome(
        lambda num, z: _point_sums(qhyper_sum, num, den, q, z, n),
        lambda num, z: _reference_qhyper_sum_exact(num, den, q, z, n),
        points, num, z,
    )


def _count_passes(monkeypatch):
    """Counters of the points certified, the points whose pass was in doubt,
    and the exact sums run."""
    counts = {"certified": 0, "in doubt": 0, "exact": 0}
    dot_sum, point_sum = copz.qseries._dot_sum, copz.qseries._point_sum

    def certify(*args):
        value = dot_sum(*args)
        counts["certified" if value is not None else "in doubt"] += 1
        return value

    def exact(*args):
        counts["exact"] += 1
        return point_sum(*args)

    monkeypatch.setattr(copz.qseries, "_dot_sum", certify)
    monkeypatch.setattr(copz.qseries, "_point_sum", exact)
    return counts


@pytest.mark.parametrize("name", _FALLBACKS)
def test_fallback_examples_are_in_doubt(name, monkeypatch):
    (_, num, z), den, n = _FALLBACKS[name]
    counts = _count_passes(monkeypatch)
    try:
        _point_sums(hyper_sum, num, den, z, n)
    except OverflowError:
        pass
    assert counts["in doubt"] == counts["exact"] == 1


# the orthogonality benchmark's little q-Jacobi case at seed 1: a table of
# 179 points, at kmax 3
_LITTLE_QJ_179 = (
    "little_q_jacobi",
    {"alpha": 1.0154906041886784, "beta": 0.4392306287333191, "q": 0.8005117047406922},
    3,
)
_WIDE_TABLES = [
    _LITTLE_QJ_179,
    # atoms q^-j, whose factors (q^-j; q)_k vanish exactly at k = j
    ("q_hahn", {"alpha": 0.5, "beta": 0.5, "q": 0.7, "N": 40}, 6),
]


@pytest.mark.parametrize("kind, params, kmax", _WIDE_TABLES)
def test_wide_tables_are_certified(kind, params, kmax, monkeypatch):
    counts = _count_passes(monkeypatch)
    spec = make_family(kind, params)
    points = range(len(weight_table(spec, degree_hint=kmax)))
    eval_exact_at_support(spec, range(kmax + 1), points)
    # one sum per degree 1..kmax and point, degree 0 taking none; the exact
    # sums: the points in doubt and the first points, whose integers are narrow
    assert counts["in doubt"] <= 1
    assert counts["certified"] + counts["exact"] - counts["in doubt"] == kmax * len(points)
    assert counts["certified"] >= kmax * (len(points) - 3)


def test_vanishing_factor_ends_the_certified_sum(monkeypatch):
    # (q^-4; q)_k vanishes at k = 4, where the sum stops; the ball of that
    # factor holds 0, and the terms past it, near z^k = 2^(100 k), would
    # swamp its radius were the factor not formed exactly
    counts = _count_passes(monkeypatch)
    atom = Fraction(0.7) ** -4
    (value,) = _point_sums(qhyper_sum, [_column_of(atom)], [], 0.7, 2.0**100, 12)
    assert value.hex() == _reference_qhyper_sum_exact([atom], [], 0.7, 2.0**100, 12).hex()
    assert counts == {"certified": 1, "in doubt": 0, "exact": 0}


def test_cancelling_sum_is_decided_exactly(monkeypatch):
    # at the top of a q-Racah support of 60 points the degree-59 sum cancels
    # far below 2^-128 of its terms: the pass is in doubt and the exact sum decides
    counts = _count_passes(monkeypatch)
    spec = make_family("q_racah", a=1.5, alpha=0.5, beta=0.5, q=0.5, N=60)
    eval_exact_at_support(spec, 59, 59)
    assert counts == {"certified": 0, "in doubt": 1, "exact": 1}


def _one_plus_a(value):
    """(numerator atoms, argument) of 1 + z a = value, a = _A at one point."""
    return [_column_of(_A)], _column_of((value - 1) / _A)


# (numerator atoms, argument) of sums 1 + z a that the 128-bit pass
# certifies: just below and above 2^1023, and the largest float, whose ends
# ldexp scales with no overflow; and an exact 0 from balls that drop no bit,
# a = 2^200 and z = -2^-200, whose ends are +0.0
_CERTIFIED = {
    "below 2^1023": _one_plus_a(2**1023 - 2**970 - Fraction(2**968, 3)),
    "above 2^1023": _one_plus_a(2**1023 + Fraction(2**971, 3)),
    "largest float": _one_plus_a(2**1024 - 2**971 - 2**960),
    "exact zero": ([_column_of(Fraction(2**200))], Fraction(-1, 2**200)),
}


@pytest.mark.parametrize("name", _CERTIFIED)
def test_certified_top_binade_and_zero_sums(name, monkeypatch):
    num, z = _CERTIFIED[name]
    counts = _count_passes(monkeypatch)
    (value,) = _point_sums(hyper_sum, num, [], z, 1)
    (atom,) = num[0]
    zs = z[0] if _per_point(z) else z
    assert value.hex() == _reference_hyper_sum_exact([atom], [], zs, 1).hex()
    assert counts == {"certified": 1, "in doubt": 0, "exact": 0}


@pytest.mark.parametrize("kind", ["hahn", "q_racah", "q_charlier", "big_q_jacobi_special"])
def test_degree_zero_rows_take_no_sum(kind, monkeypatch):
    # the degree-0 series is the constant 1: its row is its prefactors times 1.0
    spec, points = _at_60_points(kind)
    names = [spec.kind] + ([spec.base.kind] if spec.base is not None else [])
    for scale, name in zip((0.75, 3.0), names):
        entry = _CATALOG[name]

        def prefactor(p, n, entry=entry, scale=scale):
            return scale if n == 0 else entry.prefactor(p, n)

        monkeypatch.setitem(_CATALOG, name, dataclasses.replace(entry, prefactor=prefactor))
    counts = _count_passes(monkeypatch)
    want = 0.75 * (3.0 * 1.0) if spec.base is not None else 0.75 * 1.0
    assert eval_exact_at_support(spec, (0,), points) == [[want] * len(points)]
    assert counts == {"certified": 0, "in doubt": 0, "exact": 0}
    # beside other degrees, the same row
    rows = eval_exact_at_support(spec, (2, 0, 1), points)
    assert rows[1] == [want] * len(points)
    assert counts["certified"] + counts["exact"] - counts["in doubt"] == 2 * len(points)


@pytest.mark.parametrize("kind, params, kmax", _WIDE_TABLES)
def test_multi_degree_call_builds_each_table_once(kind, params, kmax, monkeypatch):
    built = []

    class Point(copz.qseries._Point):
        __slots__ = ()

        def __init__(self, key):
            super().__init__(key)
            built.append(self)

    monkeypatch.setattr(copz.qseries, "_Point", Point)
    spec = make_family(kind, params)
    points = range(len(weight_table(spec, degree_hint=kmax)))
    eval_exact_at_support(spec, range(kmax + 1), points)
    # one entry per point for all degrees; the first points' sums are narrow
    # and build no table, the others grow theirs once, to kmax factors or to
    # the first that vanishes
    assert len(built) == len(points)
    tables = [p.table for p in built if p.table is not None]
    assert len(tables) >= len(points) - 3
    assert all(len(t) == kmax + 1 or len(t) < kmax + 1 and t[-1][::2] == (0, 0) for t in tables)
    # the top degree alone builds the same tables
    del built[:]
    eval_exact_at_support(spec, kmax, points)
    assert [p.table for p in built if p.table is not None] == tables


def _support_values(spec, degrees, points):
    try:
        rows = eval_exact_at_support(spec, degrees, points)
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)
    return [[v.hex() for v in row] for row in rows]


def _at_60_points(kind):
    """A drawn instance of kind at N = 60, and its first 60 points."""
    params = sample_params(kind, random.Random(kind))
    if "N" in params:
        params["N"] = 60
    if kind == "quantum_q_krawtchouk":  # alpha > q^(1-N)
        params["alpha"] = 2.0 * params["q"] ** -59
    return make_family(kind, params), range(60)


@pytest.mark.parametrize("kind", [*catalog_kinds(), "little_q_jacobi/179"])
def test_shared_tables_match_point_sums_and_one_degree_calls(kind, monkeypatch):
    if kind == "little_q_jacobi/179":
        name, params, _ = _LITTLE_QJ_179
        spec = make_family(name, params)
        points = range(len(weight_table(spec, degree_hint=3)))
        assert len(points) == 179
    else:
        spec, points = _at_60_points(kind)
    degrees = range(9)
    got = _support_values(spec, degrees, points)
    one_degree = [_support_values(spec, (n,), points) for n in degrees]
    assert got == [row for (row,) in one_degree]
    monkeypatch.setattr(copz.qseries, "_dot_sum", lambda *args: None)
    assert got == _support_values(spec, degrees, points)


def test_changed_atoms_or_steps_never_read_a_stale_table():
    # at one point index, call after call: wide atoms, then other atoms, then
    # the same atoms under other steps (a hypergeometric sum, another q); a
    # point's tables live for one run of the plans, so none is read again
    q, other_q = 0.3, 0.7
    wide = [Fraction(q) ** -j for j in range(20, 23)]
    atoms = _column_of(*wide)
    others = _column_of(*(3 * a for a in wide))
    calls = [
        (qhyper_sum, _reference_qhyper_sum_exact, ([atoms], [0.25], q, 0.5, 6)),
        (qhyper_sum, _reference_qhyper_sum_exact, ([others], [0.25], q, 0.5, 6)),
        (hyper_sum, _reference_hyper_sum_exact, ([others], [0.25], 0.5, 6)),
        (qhyper_sum, _reference_qhyper_sum_exact, ([others], [0.25], other_q, 0.5, 6)),
        (qhyper_sum, _reference_qhyper_sum_exact, ([atoms], [0.25], q, 0.5, 8)),
    ]
    for fn, ref, (num, *rest) in calls:
        got = [v.hex() for v in _point_sums(fn, num, *rest)]
        want = [ref([a], *rest).hex() for a in num[0]]
        assert got == want


# balls (m, e, r) of the 128-bit pass: the interval [(m - r) 2^e, (m + r) 2^e]
_balls = st.tuples(st.integers(-(2**140), 2**140), st.integers(-200, 200), st.integers(0, 4))


def _ends(ball):
    m, e, r = ball
    return Fraction(m - r) * Fraction(2) ** e, Fraction(m + r) * Fraction(2) ** e


def _holds(ball, value) -> bool:
    lo, hi = _ends(ball)
    return lo <= value <= hi


@given(_balls, _balls)
@example((1, 0, 0), (-(2**129) + 1, 0, 0))  # floored onto -2^128, one bit too wide
def test_ball_products_and_sums_hold_every_corner(x, y):
    # products and sums of two intervals take their extremes at the corners
    product, total = copz.qseries._times(x, y), copz.qseries._plus(x, y)
    assert product[0].bit_length() <= 128
    for a in _ends(x):
        for b in _ends(y):
            assert _holds(product, a * b) and _holds(total, a + b)


@given(st.integers(-(2**300), 2**300), st.integers(-(2**300), 2**300).filter(bool))
@example(3**90, 3**89)
@example(-(2**200), 2**5)  # exact, so of radius 0
def test_ball_of_a_quotient_holds_it(n, d):
    m, e, r = ball = copz.qseries._ball(n, d)
    assert _holds(ball, Fraction(n, d))
    assert (r == 0) == (Fraction(m) * Fraction(2) ** e == Fraction(n, d))


# ---------------------------------------------------------------------------
# float summation against the Neumaier loops the plans replaced (tests/oracles.py),
# scalar and array
# ---------------------------------------------------------------------------


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            math.inf, -math.inf, math.nan)
_floats = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-40.0, 40.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_float_bases = st.one_of(
    st.sampled_from((5e-324, 1e-300, 0.5, 0.9999999999999999)),
    st.floats(0.0, 1.0),  # the ends check the q-range error
)


def _samples(natoms):
    """1 to 4 samples, each a row of natoms numerator atoms and an argument."""
    return st.lists(st.tuples(st.lists(_floats, min_size=natoms, max_size=natoms), _floats),
                    min_size=1, max_size=4)


def _columns(rows):
    """The samples as one array per numerator atom and one for the argument."""
    num = tuple(np.array(col) for col in zip(*(r[0] for r in rows)))
    return num, np.array([r[1] for r in rows])


def _check_against_reference(new, ref, rows):
    """new(num, z) per sample and on all samples as arrays, against ref per sample."""
    want = [_outcome(ref, tuple(num), z) for num, z in rows]
    assert [_outcome(new, tuple(num), z) for num, z in rows] == want
    num, zs = _columns(rows)
    try:
        with np.errstate(all="ignore"):
            got = new(num, zs)
    except (ArithmeticError, ValueError) as exc:
        assert want == [(type(exc), str(exc))] * len(rows)
    else:
        assert [v.hex() for v in np.broadcast_to(got, zs.shape).tolist()] == want


# the place of each numerator parameter (the first three) and of the
# argument z (the last) in a planned call: 0 a constant, 1 an atom
_places = st.lists(st.sampled_from((0, 1)), min_size=4, max_size=4)


def _check_plan_against_reference(series, ref, rows, places):
    """series(num, z) called with slots where places puts atoms returns the
    plan; run on each sample's atoms, and on all samples' as arrays, it gives
    ref's value per sample.  The constants are the first sample's, and one
    atom is passed bare."""
    values = [[*num, z] for num, z in rows]
    kinds = [*places[: len(values[0]) - 1], places[-1]]
    atoms = [i for i, kind in enumerate(kinds) if kind]
    if not atoms:
        return
    bare = len(atoms) == 1
    call = list(values[0])
    for j, i in enumerate(atoms):
        call[i] = copz.qseries._Slot(None if bare else j)
    want = []
    for row in values:
        seen = [row[i] if kind else values[0][i] for i, kind in enumerate(kinds)]
        want.append(_outcome(ref, tuple(seen[:-1]), seen[-1]))
    try:
        plan = series(tuple(call[:-1]), call[-1])
    except (ArithmeticError, ValueError) as exc:
        assert want == [(type(exc), str(exc))] * len(values)
        return

    def run(xs):
        return plan(xs[0] if bare else tuple(xs))

    assert [_outcome(run, [row[i] for i in atoms]) for row in values] == want
    with np.errstate(all="ignore"):
        got = run([np.array([row[i] for row in values]) for i in atoms])
    assert [v.hex() for v in np.broadcast_to(got, (len(values),)).tolist()] == want


@given(
    st.integers(0, 3).flatmap(_samples),
    st.lists(_floats, max_size=2),
    st.integers(0, 9),
    _places,
)
@example([([-3.0, -1.5], -1.0)], [-2.0], 3, [0, 1, 0, 0])  # vanishing denominator
# overflow beside a finite sum
@example([([-1e300, 1e300], 1e300), ([0.0, 2.0], 0.5)], [], 2, [1, 0, 0, 1])
@example([([-5e-324], -5e-324), ([math.nan], -1.0), ([math.inf], 0.0)], [0.5], 3, [1, 0, 0, 1])
# an atom, a constant and an atom, and the argument z, as arrays summed as one block
@example([([-9.0, 0.5, 1.5], 2.0), ([-9.0, -0.0, 2.5], -0.5)], [1.5], 9, [0, 1, 0, 0])
@example([([1.5, 0.5, 2.0], 0.25), ([0.3, 4.0, -7.0], -3.0)], [-12.5, 0.75], 9, [1, 0, 1, 1])
def test_float_sum_matches_neumaier_reference(rows, den, n, places):
    # direct calls on floats and on arrays, and plans with atoms in places
    def series(num, z):
        return hyper_sum(num, den, z, n)

    def ref(num, z):
        return reference_hyper_sum(num, den, z, n)

    _check_against_reference(series, ref, rows)
    _check_plan_against_reference(series, ref, rows, places)


@given(
    st.integers(0, 3).flatmap(_samples),
    st.lists(_floats, max_size=2),
    _float_bases,
    st.integers(0, 9),
    _places,
)
@example([([8.0, 0.3], 1.0)], [4.0], 0.5, 3, [0, 1, 0, 0])  # 1 - 4 q^2 vanishes at k=3
@example([([0.25, 3.0], 0.5)], [], 5e-324, 3, [0, 0, 0, 1])  # q^k underflows under excess -1
# overflow beside a finite sum
@example([([1e300], 1e300), ([-0.5], -0.0)], [], 0.5, 3, [1, 0, 0, 0])
@example([([2.0], math.nan), ([math.inf], -0.5)], [0.0, 2.5], 0.5, 4, [0, 0, 0, 1])  # excess 2
# an atom, a constant and an atom, and the argument z, as arrays summed as one block
@example([([0.7**-9, 0.5, 1.5], 0.7), ([0.7**-9, -0.0, 2.5], 0.3)], [0.2], 0.7, 9, [0, 1, 0, 0])
@example([([1.5, 0.5, 2.0], 0.25), ([0.3, 4.0, -7.0], -3.0)], [0.9], 0.6, 9, [1, 0, 1, 1])
def test_float_qsum_matches_neumaier_reference(rows, den, q, n, places):
    def series(num, z):
        return qhyper_sum(num, den, q, z, n)

    def ref(num, z):
        return reference_qhyper_sum(num, den, q, z, n)

    _check_against_reference(series, ref, rows)
    _check_plan_against_reference(series, ref, rows, places)


def _block(columns):
    """A (terms x points) block whose columns are the given term ratios."""
    return np.array(columns, dtype=float).T.reshape(len(columns[0]), len(columns))


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param([[0.5, -3.0, 1e-300, _INF, -0.0, _NAN, 1e308]], id="one row"),
        pytest.param([[0.25, -2.0, 1.5, -1e-3, 7.0, 0.125, -0.5, 3.0, 1e-8]], id="one column"),
        # the first term cancels the leading 1: a total of 0.0, then -0.0 and
        # 0.0 terms on it, and a sum that cancels to 0.0 after two terms
        pytest.param([[-1.0, 0.0, 5.0], [-1.0, -0.0, 5.0], [-2.0, -0.5, 3.0],
                      [-0.0, 4.0, -1.0], [-1.0, -1.0, -1.0], [1.0, -1.0, 0.5]],
                     id="cancelling columns"),
        # terms that carry an error only the compensated sum keeps
        pytest.param([[1e-17, 1.0, -1e16], [-1e16, -1e-16, 1e-17], [3.0, 1.0 / 3.0, 3.0]],
                     id="tiny and huge terms"),
        pytest.param([[_INF, 0.5, 2.0], [-_INF, 0.5, -2.0], [_NAN, 1.0, 1.0],
                      [0.5, _INF, 0.0], [1e200, 1e200, -1.0], [-1e300, 1e300, 1e-300],
                      [2.0, -_INF, _NAN], [0.0, _INF, 1.0]],
                     id="infinite and NaN terms"),
    ],
)
def test_block_sum_is_the_per_term_loop(columns):
    # every value of the block, by .hex(), the sign of zero included, is the
    # per-term TwoSum loop's over that point's column of term ratios
    with np.errstate(all="ignore"):
        got = copz.qseries._block_sum(_block(columns)).tolist()
    assert [v.hex() for v in got] == [reference_compensated_sum(c).hex() for c in columns]


def test_block_sum_is_the_per_term_loop_on_seeded_blocks():
    rng = random.Random(11)
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, _INF, -_INF, _NAN, 1e300, 5e-324)
    for _ in range(200):
        n, width = rng.randint(1, 12), rng.randint(1, 6)
        # ratios of all sizes, so the terms' errors differ by many orders
        columns = [[rng.choice(pool) if rng.random() < 0.2 else
                    rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, 12.0)
                    for _ in range(n)] for _ in range(width)]
        with np.errstate(all="ignore"):
            got = copz.qseries._block_sum(_block(columns)).tolist()
        assert [v.hex() for v in got] == [reference_compensated_sum(c).hex() for c in columns]
