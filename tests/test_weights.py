import math
import random

import pytest

from copz import (
    DomainError,
    EvaluationOverflowError,
    SingularityError,
    TruncationError,
    WeightPositivityError,
    catalog_kinds,
    gram_offdiag_max,
    make_family,
    orthogonality_residual,
    pearson_residual_max,
    sample_params,
    weight_table,
)
from oracles import boundary_check
from copz.families import eval_exact_at_support
import copz
from copz import weights
from copz.weights import weight_ratio

CONSISTENT_KINDS = (
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
    "little_q_jacobi",
    "q_racah",
    "dual_q_hahn",
)


def test_charlier_ratio_and_closed_form():
    alpha = 2.3
    spec = make_family("charlier", alpha=alpha)
    for s in range(6):
        assert weight_ratio(spec, float(s)) == pytest.approx(alpha / (s + 1), rel=1e-14)
    table = weight_table(spec)
    for k in range(min(10, len(table))):
        expected = alpha**k / math.factorial(k)
        assert table.weight(k) == pytest.approx(expected, rel=1e-12)


def test_krawtchouk_ratio_formula():
    alpha, N = 0.35, 9
    spec = make_family("krawtchouk", alpha=alpha, N=N)
    for s in range(N - 1):
        expected = alpha * (N - 1 - s) / ((1 - alpha) * (s + 1))
        assert weight_ratio(spec, float(s)) == pytest.approx(expected, rel=1e-14)


def test_hahn_uniform_weight():
    spec = make_family("hahn", alpha=0.0, beta=0.0, N=7)
    table = weight_table(spec)
    assert len(table) == 7
    for k in range(7):
        assert table.weight(k) == pytest.approx(1.0, rel=1e-14)


def test_weight_table_positive_everywhere():
    rng = random.Random(17)
    for kind in CONSISTENT_KINDS:
        spec = make_family(kind, sample_params(kind, rng))
        table = weight_table(spec)
        assert all(math.isfinite(lv) for lv in table.log_values)
        if not spec.resolve_base().is_finite:
            assert table.truncation_bound <= 1e-14


def test_pearson_residual_pointwise():
    rng = random.Random(23)
    for kind in CONSISTENT_KINDS:
        spec = make_family(kind, sample_params(kind, rng))
        assert pearson_residual_max(spec, weight_table(spec)) < 1e-12


def test_pearson_rejects_a_table_walked_for_another_family():
    # the residual reads the table's own ratio terms: an alpha=0.5 table
    # against alpha=0.7 terms read 0.1176, a mix of two families
    table = weight_table(make_family("hahn", alpha=0.5, beta=1.0, N=10))
    other = make_family("hahn", alpha=0.7, beta=1.0, N=10)
    with pytest.raises(DomainError, match="walked for hahn"):
        pearson_residual_max(other, table)
    assert pearson_residual_max(make_family("hahn", alpha=0.5, beta=1.0, N=10), table) < 1e-12


def test_pairing_sums_reject_a_table_walked_for_another_family():
    # another family's table paired the values under the wrong weights: the
    # Gram matrix read 0.848 and the pairing 0.830 with no error, and a table
    # of another size raised "support index k=10 outside"
    spec = make_family("hahn", alpha=0.5, beta=1.0, N=10)
    for other in ({"alpha": 3.0, "beta": 0.2, "N": 10}, {"alpha": 0.5, "beta": 1.0, "N": 12}):
        table = weight_table(make_family("hahn", other), degree_hint=3)
        with pytest.raises(DomainError, match=r"^hahn .*: the weight table was walked for hahn"):
            gram_offdiag_max(spec, 3, table)
        for m, n in ((1, 2), (2, 2)):
            with pytest.raises(DomainError, match="walked for hahn"):
                orthogonality_residual(spec, m, n, table)
    assert gram_offdiag_max(spec, 3, weight_table(spec, degree_hint=3)) < 1e-12


#: a racah draw whose support points a + k are not always the float
#: (a + (k - 1)) + 1.0 the step before reads its A, B and dx at: at k = 4
_RACAH_MISSTEP = {"a": 0.15306868060822457, "alpha": -0.46138361286703544,
                  "beta": -0.4028142519502368, "N": 8}


#: every kind but little_q_laguerre and q_laguerre: their tables flag their
#: signs, and the flipped weights overflow at every draw
_TABLED_KINDS = [k for k in catalog_kinds() if k not in ("little_q_laguerre", "q_laguerre")]


def _walked_draw(kind):
    """The first of kind's draws whose table builds, its signs flipped where
    the coefficient table is inconsistent, as verify's fallback does."""
    rng = random.Random(kind)
    for _ in range(5):
        spec = make_family(kind, sample_params(kind, rng))
        try:
            weight_table(spec, allow_sign_flip=True)
        except TruncationError:
            continue
        return spec
    raise AssertionError(f"no {kind} table builds")


@pytest.mark.parametrize("kind", [*_TABLED_KINDS, "racah-misstep"])
def test_walk_reads_each_points_coefficients_once(monkeypatch, kind):
    # the table's terms are _ratio_terms at each s but the last, bit for
    # bit, from one A, B read per point, and a second read at each s the
    # step before reached as another float
    if kind == "racah-misstep":
        spec = make_family("racah", _RACAH_MISSTEP)
    else:
        spec = _walked_draw(kind)
    reads, coeffs = [], copz.FamilySpec.coeffs_AB
    monkeypatch.setattr(copz.FamilySpec, "coeffs_AB", lambda self, s: reads.append(s) or coeffs(self, s))
    table = weight_table(spec, allow_sign_flip=True)
    monkeypatch.undo()
    ref = [weights._ratio_terms(spec, table.s_at(k)) for k in range(len(table) - 1)]
    assert [(u.hex(), v.hex()) for u, v in table.terms] == [(u.hex(), v.hex()) for u, v in ref]
    # the step from s reads A, B at s + 1.0, and at s too where the step
    # before read another float
    a, walked = spec.support_start, []
    for k in range(len(table) - 1):
        s = table.s_at(k)
        if not k or s != (a + (k - 1)) + 1.0:
            walked.append(s)
        walked.append(s + 1.0)
    assert reads == walked
    assert len(walked) > len(table) or kind != "racah-misstep"


def test_gram_matrix_diagonal():
    rng = random.Random(29)
    for kind in ("hahn", "meixner", "q_hahn", "q_racah", "little_q_jacobi"):
        spec = make_family(kind, sample_params(kind, rng))
        kmax = min(8, spec.degree_max)
        table = weight_table(spec, degree_hint=kmax)
        assert gram_offdiag_max(spec, kmax, table) < 1e-8


def test_orthogonality_examples():
    spec = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    table = weight_table(spec, degree_hint=1)
    assert orthogonality_residual(spec, 0, 1, table) < 1e-12
    assert orthogonality_residual(spec, 1, 1, table) > 0.0
    charlier = make_family("charlier", alpha=1.1)
    assert orthogonality_residual(charlier, 2, 5, weight_table(charlier, degree_hint=5)) < 1e-10


def test_orthogonality_residual_evaluates_each_degree_once(monkeypatch):
    # one batched call per sum, each degree once over every table index; the
    # one-point values in its place give the same residuals
    spec = make_family("hahn", alpha=0.5, beta=1.5, N=9)
    table = weight_table(spec)
    points = range(len(table))
    expected = {
        (m, n): orthogonality_residual(spec, m, n, table) for m, n in ((2, 4), (3, 3))
    }
    expected_gram = gram_offdiag_max(spec, 5, table)
    calls = []

    def one_point_values(family, degrees, ks):
        calls.append((tuple(degrees), ks))
        return [[eval_exact_at_support(family, n, k) for k in ks] for n in degrees]

    monkeypatch.setattr(weights, "eval_exact_at_support", one_point_values)
    assert orthogonality_residual(spec, 2, 4, table) == expected[2, 4]
    assert calls == [((2, 4), points)]
    calls.clear()
    assert orthogonality_residual(spec, 3, 3, table) == expected[3, 3]
    assert calls == [((3,), points)]
    calls.clear()
    assert gram_offdiag_max(spec, 5, table) == expected_gram
    assert calls == [(tuple(range(6)), points)]


def test_alias_norm_is_its_own():
    alias = make_family("big_q_jacobi_special", alpha=0.5, beta=0.7, q=0.6)
    table = weight_table(alias, degree_hint=1)
    own = [eval_exact_at_support(alias, 1, k) for k in range(len(table))]
    summed = math.fsum(v * v * math.exp(lm) for v, lm in zip(own, table.log_measures))
    norm = orthogonality_residual(alias, 1, 1, table)
    assert norm == pytest.approx(summed, rel=1e-13)
    assert norm == pytest.approx(0.017287, rel=1e-4)
    # the base's norm, which the alias reported before, is another number
    assert orthogonality_residual(alias.base, 1, 1, table) == pytest.approx(0.27978, rel=1e-4)
    # off the diagonal the alias still pairs its base's values
    for m, n in ((0, 1), (1, 2)):
        t = weight_table(alias, degree_hint=n)
        assert orthogonality_residual(alias, m, n, t) == orthogonality_residual(alias.base, m, n, t)


def test_alias_weight_table_is_its_bases():
    alias = make_family("q_charlier", alpha=1.5, q=0.5)
    table = weight_table(alias)
    assert table.family is alias
    assert table.log_values == weight_table(alias.base).log_values
    assert table.log_measures == weight_table(alias.base).log_measures
    base_table = weight_table(alias.base, degree_hint=4)
    assert gram_offdiag_max(alias, 4, table) == gram_offdiag_max(alias.base, 4, base_table)


def test_alias_pairing_errors_name_the_alias():
    # the Gram matrix and the m != n pairing sum the base's values exactly
    alias = make_family("q_charlier", alpha=1e-300, q=0.5)
    table = weight_table(alias, degree_hint=2)
    message = r"^q_charlier: the degree-2 value at s=2\.0 overflows the float range$"
    with pytest.raises(EvaluationOverflowError, match=message):
        gram_offdiag_max(alias, 2, table)
    with pytest.raises(EvaluationOverflowError, match=message):
        orthogonality_residual(alias, 1, 2, table)
    alias = make_family("q_charlier", alpha=1.0, q=0.5)
    with pytest.raises(DomainError, match=r"^q_charlier: degree n=31 outside 0\.\.30$"):
        gram_offdiag_max(alias, 31, weight_table(alias))


@pytest.mark.parametrize(
    "kmax, message",
    [(-1, "kmax=-1 is negative"), (-5, "kmax=-5 is negative"), (2.0, "kmax=2.0 is not an integer")],
)
def test_gram_rejects_a_bad_kmax(kmax, message):
    # a negative kmax pairs no degrees, so it would pass vacuously with 0.0
    spec = make_family("hahn", alpha=0.5, beta=0.5, N=8)
    with pytest.raises(DomainError, match=rf"^hahn: {message}$"):
        gram_offdiag_max(spec, kmax, weight_table(spec))



@pytest.mark.parametrize(
    "hint, message",
    [
        (1.25, "degree_hint=1.25 is not an integer"),
        (math.nan, "degree_hint=nan is not an integer"),
        (2.0, "degree_hint=2.0 is not an integer"),
        (-1, "degree_hint=-1 is negative"),
    ],
)
def test_weight_table_rejects_a_bad_degree_hint(hint, message):
    # a fractional hint made the tail margin a float that no point index
    # equals, so the table walked 10,000 points to a TruncationError after
    # meeting its tail bound; nan and -1 were taken as a hint of 1
    spec = make_family("charlier", alpha=1.0)
    with pytest.raises(DomainError, match=rf"^charlier: {message}$"):
        weight_table(spec, degree_hint=hint)

def _norm_sq(spec, n):
    return orthogonality_residual(spec, n, n, weight_table(spec, degree_hint=max(n, 1)))


def test_norm_examples():
    alpha = 1.3
    charlier = make_family("charlier", alpha=alpha)
    assert _norm_sq(charlier, 0) == pytest.approx(math.exp(alpha), rel=1e-12)
    N = 9
    hahn = make_family("hahn", alpha=0.0, beta=0.0, N=N)
    assert _norm_sq(hahn, 0) == pytest.approx(float(N), rel=1e-14)
    rng = random.Random(31)
    for kind in ("racah", "q_meixner", "dual_q_hahn"):
        spec = make_family(kind, sample_params(kind, rng))
        for n in (0, 1, 3):
            assert _norm_sq(spec, n) > 0.0


def test_boundary_conditions():
    assert boundary_check(make_family("hahn", alpha=0.4, beta=0.8, N=8)).passed
    assert boundary_check(make_family("krawtchouk", alpha=0.3, N=7)).passed
    assert boundary_check(make_family("charlier", alpha=2.0)).passed
    assert boundary_check(make_family("racah", a=0.0, alpha=0.5, beta=0.4, N=6)).passed
    assert boundary_check(make_family("q_racah", a=0.9, alpha=0.2, beta=1.0, q=0.6, N=6)).passed


def test_inconsistent_tables_flag():
    qb = make_family("q_bessel", alpha=1.5, q=0.5)
    with pytest.raises(WeightPositivityError) as err:
        weight_table(qb)
    assert err.value.ratio < 0.0
    # with sign flipping allowed, the |ratio| table diverges for this family
    with pytest.raises(TruncationError):
        weight_table(qb, allow_sign_flip=True)
    lql = make_family("little_q_laguerre", alpha=1.2, q=0.5)
    with pytest.raises(WeightPositivityError):
        weight_table(lql)
    # the neighboring two-parameter family on the same lattice is consistent
    lqj = make_family("little_q_jacobi", alpha=1.2, beta=0.8, q=0.5)
    table = weight_table(lqj)
    assert gram_offdiag_max(lqj, 5, table) < 1e-8


def test_little_q_jacobi_weight_matches_product_form():
    alpha, beta, q = 1.1, 0.6, 0.5
    spec = make_family("little_q_jacobi", alpha=alpha, beta=beta, q=q)
    table = weight_table(spec)
    # w(k) = alpha^k (beta*q; q)_k / (q; q)_k
    w = 1.0
    for k in range(1, min(12, len(table))):
        w *= alpha * (1 - beta * q**k) / (1 - q**k)
        assert table.weight(k) == pytest.approx(w, rel=1e-12)


def test_infinite_truncation_error_cap():
    # a diverging |ratio| table must stop with a diagnostic, not loop forever
    lql = make_family("little_q_laguerre", alpha=1.9, q=0.52)
    with pytest.raises((TruncationError, WeightPositivityError)):
        weight_table(lql, allow_sign_flip=True)


def test_weight_ratio_at_a_zero_denominator_is_infinite():
    # A(s+1) dx(s+1/2) = 0 at s = -1, where Hahn's A(0) = 0
    with pytest.raises(WeightPositivityError) as err:
        weight_ratio(make_family("hahn", alpha=0.5, beta=1.0, N=10), -1.0)
    assert err.value.s == -1.0 and err.value.ratio == math.inf


def test_weight_table_at_a_zero_denominator_is_infinite():
    # A(1) = alpha (q - 1) rounds to -0.0 at the least subnormal alpha
    with pytest.raises(WeightPositivityError) as err:
        weight_table(make_family("q_krawtchouk", alpha=5e-324, q=0.9, N=10))
    assert err.value.s == 0.0 and err.value.ratio == math.inf


def test_a_diverging_measure_is_a_truncation_error():
    # dx(1/2) near q^-1 = 1e200 carries the measure past e^600 at the first
    # step, while the weight itself stays in range
    spec = make_family("q_meixner", alpha=1e200, beta=0.5, q=1e-200)
    with pytest.raises(
        TruncationError,
        match=r"^q_meixner: weight measure diverges \(log mass 690\.4 at s=1\.0\)$",
    ):
        weight_table(spec)


def test_a_tail_slower_than_the_point_cap_is_a_truncation_error():
    # w(s) = alpha^s: the tail bound needs far more than 10,000 points
    spec = make_family("meixner", alpha=0.9999, beta=1.0)
    with pytest.raises(
        TruncationError,
        match=r"^meixner: weight table exceeded 10000 points without meeting its tail bound$",
    ):
        weight_table(spec)


def test_log_measures_are_weight_times_step():
    rng = random.Random(37)
    for kind in ("hahn", "racah", "meixner", "q_hahn", "little_q_jacobi", "q_racah", "q_charlier"):
        spec = make_family(kind, sample_params(kind, rng))
        table = weight_table(spec, degree_hint=3)
        assert len(table.log_measures) == len(table)
        for k, lm in enumerate(table.log_measures):
            step = abs(spec.grid.delta_x_half(table.s_at(k)))
            assert lm == table.log_values[k] + math.log(step), (kind, k)


def test_zero_first_step_is_reported_as_the_coefficient_pole():
    # a tiny positive a rounds s = a -+ 1/2 to -+1/2, where the even q-symmetric
    # lattice has dx(a - 1/2) = 0: the first ratio meets the pole of A, B there
    spec = make_family("q_racah", a=1e-300, alpha=0.2, beta=1e-301, q=0.6, N=6)
    assert spec.grid.delta_x_half(spec.support_start) == 0.0
    with pytest.raises(SingularityError, match="coefficient pole at s=1e-300"):
        weight_table(spec)
