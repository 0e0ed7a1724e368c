import dataclasses
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import copz.qseries
from copz import (
    ALIAS_FAMILIES,
    CopzError,
    DomainError,
    EvaluationOverflowError,
    SingularityError,
    UndefinedSeriesError,
    ZeroProblem,
    catalog_kinds,
    family_info,
    find_zeros,
    hypothesis_report,
    make_family,
    sample_params,
    weight_table,
)
from copz.families import _CATALOG, MAX_FINITE_SUPPORT, eval_exact_at_support
from copz.qseries import exact_summation, hyper_sum, qhyper_sum
from oracles import reference_hyper_sum, reference_qhyper_sum, x_inverse


def test_make_family_valid_and_support():
    spec = make_family("hahn", alpha=0.5, beta=1.0, N=10)
    assert spec.grid.tag == "linear"
    assert spec.support_start == 0.0 and spec.support_end == 10.0
    assert spec.degree_max == 9


def test_make_family_domain_violation_names_parameter():
    with pytest.raises(DomainError, match="alpha"):
        make_family("krawtchouk", alpha=1.2, N=5)
    with pytest.raises(DomainError, match="beta"):
        make_family("racah", a=0.0, alpha=0.0, beta=1.5, N=6)
    with pytest.raises(DomainError, match="q"):
        make_family("q_bessel", alpha=1.0, q=1.2)
    with pytest.raises(DomainError, match="N"):
        make_family("hahn", alpha=0.0, beta=0.0, N=2.5)


def test_make_family_negative_branch_ok():
    spec = make_family("racah", a=-0.25, alpha=0.0, beta=0.2, N=6)
    assert spec.params["beta"] < 2 * spec.params["a"] + 1


def test_make_family_param_mismatch():
    with pytest.raises(DomainError, match="missing"):
        make_family("hahn", alpha=0.5, beta=1.0)
    with pytest.raises(DomainError, match="unexpected"):
        make_family("charlier", alpha=1.0, gamma=2.0)
    with pytest.raises(DomainError, match="unknown family"):
        make_family("no_such_family", alpha=1.0)


def test_kind_normalization():
    assert make_family("Dual-Q-Hahn", a=1.0, alpha=0.5, q=0.5, N=6).kind == "dual_q_hahn"


def _at_X(spec, n, X):
    """The degree-n value at the point X of the family's own variable."""
    return spec.eval_at_s(n, x_inverse(spec.grid, X / spec.zero_scale))


def test_eval_normalization_points():
    hahn = make_family("hahn", alpha=0.3, beta=0.7, N=8)
    for n in range(5):
        assert _at_X(hahn, n, 0.0) == 1.0
    racah = make_family("racah", a=0.6, alpha=0.4, beta=0.9, N=7)
    a = racah.params["a"]
    for n in (1, 3, 5):
        assert _at_X(racah, n, a * (a + 1.0)) == pytest.approx(1.0, abs=1e-12)
    qr = make_family("q_racah", a=0.8, alpha=0.3, beta=0.9, q=0.6, N=7)
    x_start = qr.grid.x(qr.params["a"])
    for n in (1, 2, 4):
        assert _at_X(qr, n, x_start) == pytest.approx(1.0, abs=1e-12)


def test_eval_degree_one_closed_forms():
    charlier = make_family("charlier", alpha=2.0)
    for X in (0.3, 1.7, 4.0):
        assert _at_X(charlier, 1, X) == pytest.approx(1 - X / 2.0, rel=1e-14)
    asc2 = make_family("al_salam_carlitz_2", alpha=0.8, q=0.5)
    for X in (1.1, 2.0, 3.5):
        assert _at_X(asc2, 1, X) == pytest.approx(X - 1.8, rel=1e-13)


def test_eval_degree_cap():
    spec = make_family("krawtchouk", alpha=0.4, N=5)
    with pytest.raises(DomainError):
        spec.eval_at_s(5, 1.0)
    inf = make_family("charlier", alpha=1.0)
    with pytest.raises(DomainError):
        inf.eval_at_s(31, 1.0)
    # an alias has its base's cap, and both paths name the alias
    alias = make_family("q_charlier", alpha=1.0, q=0.5)
    for evaluate in (alias.eval_at_s, lambda n, k: eval_exact_at_support(alias, n, k)):
        with pytest.raises(DomainError, match=r"^q_charlier: degree n=31 outside 0\.\.30$"):
            evaluate(31, 0)


def test_coefficients_spot_values():
    hahn = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    assert hahn.coeffs_AB(1.0) == (4.0, 6.0)
    charlier = make_family("charlier", alpha=2.0)
    assert charlier.coeffs_AB(3.0) == (3.0, 2.0)
    qk = make_family("q_krawtchouk", alpha=1.0, q=0.5, N=4)
    A, B = qk.coeffs_AB(1.0)
    assert A == pytest.approx(-0.5, rel=1e-15)
    assert B == pytest.approx(1.0 - 0.5**-2, rel=1e-15)  # = -3


def test_ratio_spot_values():
    hahn = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    assert hahn.monotonicity_f(1.0) == pytest.approx(1.5, rel=1e-15)
    charlier = make_family("charlier", alpha=2.5)
    for s in (0.5, 1.5, 4.0):
        assert charlier.monotonicity_f(s) == pytest.approx(2.5 / s, rel=1e-15)
    qm = make_family("q_meixner", alpha=1.2, beta=0.4, q=0.5)
    s = 1.3
    u = 0.5**s
    expected = 1.2 * u * (1 - 0.4 * 0.5 * u) / ((1 - u) * (1 + 1.2 * 0.4 * u))
    assert qm.monotonicity_f(s) == pytest.approx(expected, rel=1e-14)


def test_ratio_singularity():
    racah = make_family("racah", a=0.5, alpha=0.2, beta=0.3, N=6)
    with pytest.raises(SingularityError):
        racah.coeffs_AB(0.0)
    charlier = make_family("charlier", alpha=1.0)
    with pytest.raises(SingularityError):
        charlier.monotonicity_f(0.0)


_RACAH = {"a": 0.5, "alpha": 0.2, "beta": 0.3, "N": 6}
_DUAL_HAHN = {"a": 0.5, "alpha": 0.7, "N": 6}


@pytest.mark.parametrize(
    "kind, params, s",
    [
        ("racah", _RACAH, 0.0),
        ("racah", _RACAH, -0.5),
        ("racah", _RACAH, -1.0),
        ("racah", {**_RACAH, "a": 0.0}, -0.5),
        ("dual_hahn", _DUAL_HAHN, 0.0),
        ("dual_hahn", _DUAL_HAHN, -0.5),
        ("dual_hahn", _DUAL_HAHN, -1.0),
        ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 7}, 0.0),
        ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 7}, -0.0),
        ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 7}, 0.0),
    ],
)
def test_coefficient_poles_name_their_table_and_point(kind, params, s):
    # a division by zero in the table, at a scalar s, whichever call reads it
    spec = make_family(kind, params)
    for read in (spec.coeffs_AB, spec.monotonicity_f, lambda s: spec.f_partials(s, "alpha")):
        with pytest.raises(SingularityError, match=f"^{kind}: coefficient pole at s={s!r}$"):
            read(s)


@pytest.mark.parametrize("kind, params", [("racah", _RACAH), ("dual_hahn", _DUAL_HAHN)])
def test_removable_zero_over_zero_at_the_support_start(kind, params):
    # at s = a = 0 the (s - a)/(2s) pair of A cancels: a scalar value, but not
    # in an array pass
    spec = make_family(kind, {**params, "a": 0.0})
    A, B = spec.coeffs_AB(0.0)
    assert math.isfinite(A) and A != 0.0 and math.isfinite(B)
    assert all(map(math.isfinite, spec.f_partials(0.0, "alpha")))
    with np.errstate(invalid="ignore"):
        assert math.isnan(spec.coeffs_AB(np.array([0.0, 1.0]))[0][0])


def test_partials_spot_values():
    hahn = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    _, f2a = hahn.f_partials(1.0, "alpha")
    _, f2b = hahn.f_partials(1.0, "beta")
    assert f2a == pytest.approx(-0.375, rel=1e-12)
    assert f2b == pytest.approx(0.75, rel=1e-12)
    charlier = make_family("charlier", alpha=1.7)
    for s in (0.8, 2.3):
        f1, f2 = charlier.f_partials(s, "alpha")
        assert f1 == pytest.approx(-1.7 / s**2, rel=1e-14)
        assert f2 == pytest.approx(1.0 / s, rel=1e-9)
    al, be, q = 1.2, 0.4, 0.5
    qm = make_family("q_meixner", alpha=al, beta=be, q=q)
    for s in (0.7, 3.1):
        u = q**s
        den = (1.0 - u) * (1.0 + al * be * u) ** 2
        _, f2a = qm.f_partials(s, "alpha")
        _, f2b = qm.f_partials(s, "beta")
        assert f2a == pytest.approx(u * (1.0 - be * q * u) / den, rel=1e-14)
        assert f2b == pytest.approx(-al * u * u * (al + q) / den, rel=1e-14)


def _claimed_params():
    """Every (kind, parameter) pair with a catalogued claim, aliases included."""
    return [
        (kind, claim.param)
        for kind in catalog_kinds()
        for claim in make_family(kind, sample_params(kind, random.Random(0))).claims()
    ]


@pytest.mark.parametrize("kind,param", _claimed_params())
def test_closed_partials_match_numeric(kind, param):
    """The complex-step partials against central differences of f.

    The complex step needs every A, B table to stay analytic: a math.* call
    or a < comparison on a complex value raises TypeError here, and abs()
    drops the imaginary part, which the differences then expose.
    """
    rng = random.Random(f"{kind}/{param}")
    for _ in range(8):
        spec = make_family(kind, sample_params(kind, rng))
        lo, hi = spec.k_interval()
        hi = hi if math.isfinite(hi) else lo + 6.0
        s = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
        f1, f2 = spec.f_partials(s, param)
        h1 = 1e-6 * max(1.0, abs(s))
        fd1 = (spec.monotonicity_f(s + h1) - spec.monotonicity_f(s - h1)) / (2.0 * h1)
        t = float(spec.params[param])
        h = 1e-6 * max(1.0, abs(t))
        up = spec.with_param(param, t + h).monotonicity_f(s)
        dn = spec.with_param(param, t - h).monotonicity_f(s)
        fd2 = (up - dn) / (2.0 * h)
        assert f1 == pytest.approx(fd1, rel=1e-5, abs=1e-9)
        assert f2 == pytest.approx(fd2, rel=1e-5, abs=1e-9)


def test_partials_raise_at_poles():
    with pytest.raises(SingularityError):
        make_family("charlier", alpha=1.0).f_partials(0.0, "alpha")
    racah = make_family("racah", a=0.5, alpha=0.2, beta=0.3, N=6)
    for param in ("alpha", "beta"):
        with pytest.raises(SingularityError):
            racah.f_partials(0.0, param)


@pytest.mark.parametrize("kind,param", _claimed_params())
def test_partials_on_an_array_give_each_scalar_calls_signs(kind, param):
    """f, f1 and f2 over an array, one table pass each, against one scalar
    call per point: a finite array value has the scalar value's sign on K
    and one unit past its ends, and f is NaN at each point where the scalar
    call raises (a pole, A = 0, an overflow of q**s far below the support).
    Far below the support f1 on the q-lattices is rounding noise, whose sign
    neither call decides, so signs are not compared there.
    """
    rng = random.Random(f"array/{kind}/{param}")
    for _ in range(3):
        spec = make_family(kind, sample_params(kind, rng))
        lo, hi = spec.k_interval()
        hi = hi if math.isfinite(hi) else lo + 8.0
        ss = [*np.linspace(lo - 1.0, hi + 1.0, 57).tolist(), -1.0, -0.5, 0.0, 0.5, -2000.0]
        with np.errstate(all="ignore"):
            f = spec.monotonicity_f(np.array(ss))
            f1, f2 = spec.f_partials(np.array(ss), param)
        decided = 0
        for s, got in zip(ss, zip(f, f1, f2)):
            try:
                want = (spec.monotonicity_f(s), *spec.f_partials(s, param))
            except CopzError:
                assert math.isnan(got[0]), (s, got)
                continue
            if s > -2000.0 and all(map(math.isfinite, got)):
                assert np.array_equal(np.sign(got), np.sign(want)), (s, got, want)
                decided += 1
        assert decided >= 40


def test_partials_reject_integer_and_unknown_parameters():
    hahn = make_family("hahn", alpha=0.5, beta=1.0, N=10)
    with pytest.raises(DomainError, match="'N'"):
        hahn.f_partials(2.5, "N")
    with pytest.raises(DomainError, match="'gamma'"):
        hahn.f_partials(2.5, "gamma")


def test_partials_far_out_on_an_infinite_support():
    # f and f1 shrink like q^s, to about 1e-287 here; h*f1 must stay a
    # normal float, or the imaginary part loses its digits or flushes to 0
    qm = make_family("q_meixner", alpha=0.5, beta=0.5, q=0.05)
    s = 220.3
    f1, _ = qm.f_partials(s, "alpha")
    h = 1e-5
    fd1 = (qm.monotonicity_f(s + h) - qm.monotonicity_f(s - h)) / (2.0 * h)
    assert f1 < 0.0
    assert f1 == pytest.approx(fd1, rel=1e-6, abs=0.0)
    # f = alpha u (1 + O(u)) with u = q^s, so f1 = alpha u log(q) to rounding
    assert f1 == pytest.approx(0.5 * 0.05**s * math.log(0.05), rel=1e-12, abs=0.0)


def test_sign_claims_on_certified_interval():
    # ratio positive and strictly decreasing in s on K, dense sampling
    cases = [
        make_family("hahn", alpha=0.5, beta=1.5, N=9),
        make_family("racah", a=1.0, alpha=0.0, beta=0.5, N=6),
        make_family("q_meixner", alpha=1.5, beta=0.7, q=0.55),
        make_family("quantum_q_krawtchouk", alpha=2.0 * 0.6 ** (1 - 7), q=0.6, N=7),
    ]
    for spec in cases:
        lo, hi = spec.k_interval()
        hi = hi if math.isfinite(hi) else lo + 8.0
        prev = None
        for i in range(220):
            s = lo + (hi - lo) * (i + 1) / 222.0
            fv = spec.monotonicity_f(s)
            assert fv > 0.0
            f1, _ = spec.f_partials(s, "alpha")
            assert f1 < 0.0
            if prev is not None:
                assert fv < prev
            prev = fv


def test_racah_k_interval_example():
    spec = make_family("racah", a=1.0, alpha=0.0, beta=0.5, N=6)
    assert spec.k_interval() == (1.0, 6.0)
    spec2 = make_family("dual_hahn", a=1.0, alpha=1.7, N=6)
    assert spec2.k_interval() == (max(1.0, 0.7), 6.0)


def test_quadratic_series_against_direct_sum():
    # generic evaluation path against an explicit shifted-factorial sum over
    # the atoms a - s, s + a + 1, taken from s itself
    spec = make_family("racah", a=0.7, alpha=0.4, beta=0.8, N=7)
    a, al, be, N = 0.7, 0.4, 0.8, 7
    n = 2
    for s in (1.1, 2.4, 4.9):
        direct = hyper_sum(
            (-n, al + be + n + 1, a - s, s + a + 1),
            (2 * a + al + N + 1, be + 1, 1 - N),
            1.0,
            n,
        )
        assert spec.eval_at_s(n, s) == direct
        assert _at_X(spec, n, s * (s + 1)) == pytest.approx(direct, rel=1e-13)


def test_alias_q_charlier_matches_base():
    q = 0.6
    qc = make_family("q_charlier", alpha=1.4, q=q)
    qm = make_family("q_meixner", alpha=1.4, beta=0.0, q=q)
    for n in (1, 2, 3):
        for X in (1.2, 2.5, 6.0):
            assert _at_X(qc, n, X) == _at_X(qm, n, X)
    z1 = find_zeros(ZeroProblem(qc, 3)).zeros_X
    z2 = find_zeros(ZeroProblem(qm, 3)).zeros_X
    assert z1 == pytest.approx(z2, rel=1e-12)


def test_alias_al_salam_carlitz_1():
    a1 = make_family("al_salam_carlitz_1", alpha=0.9, q=0.55)
    a2 = make_family("al_salam_carlitz_2", alpha=0.9, q=0.55)
    for X in (1.3, 2.9):
        assert _at_X(a1, 2, X) == _at_X(a2, 2, X)


def test_alias_big_q_jacobi_zero_map():
    alpha, beta, q = 0.9, 1.1, 0.5
    big = make_family("big_q_jacobi_special", alpha=alpha, beta=beta, q=q)
    little = make_family("little_q_jacobi", alpha=beta, beta=alpha, q=q)
    zb = find_zeros(ZeroProblem(big, 3)).zeros_X_sorted
    zl = find_zeros(ZeroProblem(little, 3)).zeros_X_sorted
    assert zb == pytest.approx(tuple(alpha * q * z for z in zl), rel=1e-10)
    # transformed evaluation agrees with the scaled base polynomial
    X = 0.21
    pref = _at_X(big, 2, X) / _at_X(little, 2, X / (alpha * q))
    assert math.isfinite(pref) and pref != 0.0


def test_alias_q_laguerre_zero_map():
    alpha, q = 0.4, 0.6
    ql = make_family("q_laguerre", alpha=alpha, q=q)
    base = make_family("little_q_laguerre", alpha=q**alpha, q=q)
    z1 = find_zeros(ZeroProblem(ql, 2)).zeros_X_sorted
    z2 = find_zeros(ZeroProblem(base, 2)).zeros_X_sorted
    assert z1 == pytest.approx(z2, rel=1e-12)
    assert _at_X(ql, 1, 1.0 - q ** (alpha + 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_catalog_serializes_to_json():
    for kind in catalog_kinds():
        info = family_info(kind)
        text = json.dumps(info, sort_keys=True)
        assert kind in text
    assert set(ALIAS_FAMILIES) <= set(catalog_kinds())


def test_zero_problem_validation():
    spec = make_family("krawtchouk", alpha=0.4, N=5)
    with pytest.raises(DomainError):
        ZeroProblem(spec, 5)
    assert ZeroProblem(spec, 4).degree == 4


@pytest.mark.parametrize("kind", catalog_kinds())
def test_exact_and_float_series_agree_at_support_points(kind):
    # one series feeds both paths: float atoms from s, exact atoms from k;
    # an alias applies its own prefactor on both
    rng = random.Random(sum(map(ord, kind)))
    for _ in range(5):
        spec = make_family(kind, sample_params(kind, rng))
        points = 6 if not spec.is_finite else min(6, int(spec.support_end - spec.support_start))
        for fam in (spec,) if spec.base is None else (spec, spec.base):
            for n in range(min(3, fam.degree_max) + 1):
                for k in range(points):
                    exact = eval_exact_at_support(fam, n, k)
                    value = fam.eval_at_s(n, fam.support_start + k)
                    assert abs(value - exact) <= 1e-11 * max(1.0, abs(exact)), (fam.kind, n, k)


def _fraction_hyper(num, den, z, n):
    """Terminating iFj(num; den; z) over k = 0..n, term by term in Fractions."""
    total = term = Fraction(1)
    for k in range(n):
        term *= Fraction(z) / (k + 1)
        for a in num:
            term *= a + k
        for b in den:
            term /= b + k
        total += term
    return total


def _fraction_qhyper(num, den, q, n):
    """Terminating iφj(num; den; q, q) with i = j + 1, term by term in Fractions."""
    total = term = Fraction(1)
    for k in range(n):
        term *= q / (1 - q ** (k + 1))
        for a in num:
            term *= 1 - a * q**k
        for b in den:
            term /= 1 - b * q**k
        total += term
    return total


def _fraction_value(spec, n, t):
    """The degree-n value at s = a + t, for a rational t, summed in Fractions
    from the float parameters taken exactly; on the q-quadratic lattice t is
    an integer, and a, alpha, beta enter as the rounded powers q^a, q^alpha,
    q^beta, as the exact path takes them."""
    p = {k: Fraction(v) for k, v in spec.params.items()}
    N = spec.params["N"]
    if spec.kind in ("racah", "dual_hahn"):
        a = p["a"]
        lattice = (-t, 2 * a + 1 + t)  # a - s, s + a + 1
        if spec.kind == "racah":
            al, be = p["alpha"], p["beta"]
            num, den = (-n, al + be + n + 1, *lattice), (2 * a + al + N + 1, be + 1, 1 - N)
            return _fraction_hyper(num, den, 1, n)
        return _fraction_hyper((-n, *lattice), (p["alpha"] + 1, 1 - N), 1, n)
    q = p["q"]
    qf = spec.params["q"]
    power = {k: Fraction(qf ** spec.params[k]) for k in ("a", "alpha", "beta") if k in p}
    qa, qal = power["a"], power["alpha"]
    lattice = (q**-t, qa * qa * q**t)  # q^(a-s), q^(a+s)
    if spec.kind == "q_racah":
        qbe = power["beta"]
        num = (q**-n, qal * qbe * q ** (n + 1), *lattice)
        return _fraction_qhyper(num, (qa * qa * qal * q**N, qbe * q, q ** (1 - N)), q, n)
    return _fraction_qhyper((q**-n, *lattice), (qal * q, q ** (1 - N)), q, n)


@pytest.mark.parametrize("kind", ["racah", "dual_hahn", "q_racah", "dual_q_hahn"])
def test_quadratic_lattice_values_match_a_fraction_reference(kind):
    # the exact path sums atoms built from s, never recovered from X; on the
    # quadratic lattice s need not be a support point
    rng = random.Random(f"fraction/{kind}")
    for _ in range(3):
        spec = make_family(kind, sample_params(kind, rng))
        N = spec.params["N"]
        for n in sorted({1, N // 2, N - 1}):
            got = eval_exact_at_support(spec, n, range(N))
            assert got == [float(_fraction_value(spec, n, j)) for j in range(N)], n
            assert eval_exact_at_support(spec, n, N - 1) == got[-1]
            if spec.grid.tag != "quadratic":
                continue
            a = spec.params["a"]
            with exact_summation():
                for s in (a - 0.375, a + 1.3, a + N - 1.6, a + N + 0.7):
                    want = _fraction_value(spec, n, Fraction(s) - Fraction(a))
                    assert spec.eval_at_s(n, s) == float(want), (n, s)


@pytest.mark.parametrize(
    "params, n",
    [
        ({"a": "0x1.32771ee44a518p-1", "alpha": "-0x1.095e7aa6dd7b8p-1",
          "beta": "0x1.68157314b359dp+0", "N": 60}, 45),
        ({"a": "0x1.ec511cebc5215p-1", "alpha": "-0x1.7353d569b31ecp-1",
          "beta": "0x1.8740de31f06ffp+0", "N": 50}, 49),
        ({"a": "0x1.c3d27359e25ebp+0", "alpha": "-0x1.7a94f75d211a1p-1",
          "beta": "-0x1.24e259bffebc2p-2", "N": 40}, 39),
    ],
    ids=["N60-n45", "N50-n49", "N40-n39"],
)
def test_exact_support_values_change_sign_n_times(params, n):
    # racah cases of the high-degree zero benchmark (seed 1): near the top of
    # the support |P| falls to 1e-19 of P(a), where atoms recovered from a
    # float X by a square root gave 44, 46 and 36 sign changes
    p = {k: float.fromhex(v) if isinstance(v, str) else v for k, v in params.items()}
    spec = make_family("racah", p)
    values = eval_exact_at_support(spec, n, range(params["N"]))
    assert 0.0 not in values
    assert sum((u < 0.0) != (v < 0.0) for u, v in zip(values, values[1:])) == n


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("racah", {"a": math.inf, "alpha": 0.5, "beta": 0.5, "N": 9}, "a"),
        ("dual_hahn", {"a": math.inf, "alpha": 0.5, "N": 9}, "a"),
        ("q_racah", {"a": math.inf, "alpha": 0.5, "beta": 0.5, "q": 0.6, "N": 7}, "a"),
        ("q_racah", {"a": 0.9, "alpha": math.inf, "beta": 0.5, "q": 0.6, "N": 7}, "alpha"),
        ("dual_q_hahn", {"a": math.inf, "alpha": 0.5, "q": 0.6, "N": 7}, "a"),
    ],
)
def test_infinite_parameters_are_out_of_domain(kind, params, name):
    with pytest.raises(DomainError, match=f"^{kind}: {name} must be finite \\(got inf\\)$"):
        make_family(kind, params)


def test_coefficient_overflow_is_typed():
    spec = make_family("q_racah", a=0.9, alpha=1e16, beta=0.5, q=0.6, N=7)
    with pytest.raises(EvaluationOverflowError, match="^q_racah: the coefficients A, B at s=2.0 "):
        spec.coeffs_AB(2.0)
    with pytest.raises(EvaluationOverflowError, match="^q_racah: the coefficients A, B at s=2.0 "):
        spec.f_partials(2.0, "alpha")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("little_q_jacobi", {"alpha": 0.5, "beta": 0.5, "q": 1e-300}),
        ("little_q_laguerre", {"alpha": 0.5, "q": 1e-300}),
        ("big_q_jacobi_special", {"alpha": 0.5, "beta": 0.5, "q": 1e-300}),
    ],
)
def test_q_power_underflow_in_the_coefficients_is_typed(kind, params):
    # these tables divide by u = q**s, which is 0 at s=2 for q=1e-300
    spec = make_family(kind, params)
    q = params["q"]
    with pytest.raises(
        EvaluationOverflowError,
        match=rf"^{kind}: the coefficients A, B at s=2.0 .*q\*\*s, which underflows to 0$",
    ):
        spec.coeffs_AB(2.0)
    with pytest.raises(EvaluationOverflowError, match="underflows to 0$"):
        spec.f_partials(2.0, "alpha")
    # where u > 0 the table is the closed form, bit for bit
    A, B = spec.coeffs_AB(1.0)
    base = spec.resolve_base().params
    if "beta" in base:
        assert (A, B) == ((q - 1.0) / q, base["alpha"] * (base["beta"] * q * q - 1.0) / q)
    else:
        assert (A, B) == (q - 1.0, base["alpha"] / q)
    # an array pass gives a non-finite value there, and the sign report
    # counts the samples that raise as counterexamples
    with np.errstate(all="ignore"):
        A, B = spec.coeffs_AB(np.array([1.0, 2.0]))
    assert not np.isfinite(A[1]) or not np.isfinite(B[1])
    zs = find_zeros(ZeroProblem(spec, 1))
    rep = hypothesis_report(zs, "alpha", samples=20)
    assert not rep.f_positive
    assert rep.counterexamples


@pytest.mark.parametrize(
    "kind, params, n, k, s",
    [
        ("quantum_q_krawtchouk", {"alpha": 1e300, "q": 0.5, "N": 10}, 2, 3, 3.0),
        ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30, 0, 0.0),
    ],
    ids=["alpha-power", "q-power"],
)
def test_exact_path_prefactor_overflow_is_typed(kind, params, n, k, s):
    with pytest.raises(EvaluationOverflowError) as err:
        eval_exact_at_support(make_family(kind, params), n, k)
    assert str(err.value) == f"{kind}: the degree-{n} value at s={s!r} overflows the float range"


def _exact_table_points(spec, degree):
    """The full weight table's points, or 40 where no table can be built."""
    try:
        return range(len(weight_table(spec, degree_hint=degree, allow_sign_flip=True)))
    except CopzError:
        return range(40)


@pytest.mark.parametrize("kind", catalog_kinds())
def test_batched_exact_values_are_the_one_point_values(kind):
    spec = make_family(kind, sample_params(kind, random.Random(f"batched {kind}")))
    degrees = range(min(6, spec.degree_max) + 1)
    points = _exact_table_points(spec, degrees[-1])
    rows = eval_exact_at_support(spec, degrees, points)
    one_point = [[eval_exact_at_support(spec, n, k).hex() for k in points] for n in degrees]
    assert [[v.hex() for v in row] for row in rows] == one_point
    for n in degrees:
        assert eval_exact_at_support(spec, n, points) == rows[n]
    # degrees in any order, repeats included
    shuffled = [n for n in (5, 0, 5, 2) if n in degrees]
    rows = eval_exact_at_support(spec, shuffled, points)
    assert [[v.hex() for v in row] for row in rows] == [one_point[n] for n in shuffled]


def _first_error_of_the_point_loop(spec, degrees, points):
    for n in degrees:
        for k in points:
            try:
                eval_exact_at_support(spec, n, k)
            except CopzError as exc:
                return exc
    raise AssertionError("no point raises")


@pytest.mark.parametrize(
    "kind, params, degrees, points, message",
    [
        # z = -1/alpha: the sum first leaves the float range at the third point
        ("charlier", {"alpha": 1e-300}, (0, 30), range(5), "degree-30 value at s=2.0"),
        ("q_meixner", {"alpha": 1.0, "beta": 0.5, "q": 0.1}, (29, 30), range(30, 40),
         "degree-29 value at s=36.0"),
        # degrees in any order, with a repeat: degree 12 fails first at s=38,
        # a point before degree 9's first failure, but degree 9 comes first
        ("q_meixner", {"alpha": 1.0, "beta": 0.5, "q": 0.1}, (9, 0, 9, 12), range(30, 45),
         "degree-9 value at s=44.0"),
        # the prefactor overflows at every point, so at the first one
        ("quantum_q_krawtchouk", {"alpha": 1e300, "q": 0.5, "N": 10}, range(3), range(3, 8),
         "degree-2 value at s=3.0"),
    ],
)
def test_batched_exact_overflow_names_the_first_failing_point(kind, params, degrees, points, message):
    spec = make_family(kind, params)
    with pytest.raises(EvaluationOverflowError) as err:
        eval_exact_at_support(spec, degrees, points)
    assert str(err.value) == f"{kind}: the {message} overflows the float range"
    assert str(err.value) == str(_first_error_of_the_point_loop(spec, degrees, points))
    # over no points the loop evaluates nothing, so nothing fails
    assert eval_exact_at_support(spec, degrees, range(0)) == [[] for _ in degrees]


def test_batched_exact_degree_is_checked_in_order():
    alias = make_family("q_charlier", alpha=1.0, q=0.5)
    with pytest.raises(DomainError, match=r"^q_charlier: degree n=31 outside 0\.\.30$"):
        eval_exact_at_support(alias, (0, 31), range(5))
    # a lower degree's overflow comes before a later degree's domain error
    spec = make_family("charlier", alpha=1e-300)
    with pytest.raises(EvaluationOverflowError, match="degree-30 value at s=2.0"):
        eval_exact_at_support(spec, (30, 31), range(5))


@pytest.mark.parametrize(
    "kind, params, k, message",
    [
        ("hahn", {"alpha": 0.5, "beta": 0.5, "N": 5}, 10, "k=10 outside the 5 support points 0..4"),
        ("hahn", {"alpha": 0.5, "beta": 0.5, "N": 5}, -3, "k=-3 outside the 5 support points 0..4"),
        ("q_krawtchouk", {"alpha": 0.5, "q": 0.5, "N": 5}, 7, "k=7 outside the 5 support points 0..4"),
        # a range names its first index outside
        ("q_krawtchouk", {"alpha": 0.5, "q": 0.5, "N": 5}, range(3, 9),
         "k=5 outside the 5 support points 0..4"),
        ("q_charlier", {"alpha": 1.0, "q": 0.5}, range(-1, 3),
         "k=-1 outside the infinite support 0, 1, 2, ..."),
    ],
)
def test_exact_values_reject_indices_outside_the_support(kind, params, k, message, monkeypatch):
    spec = make_family(kind, params)

    def no_sum(*args):
        raise AssertionError("summed before the index check")

    monkeypatch.setattr(copz.qseries, "_sum_points", no_sum)
    # before any sum, and before the degree check
    for degrees in (2, range(3), 99):
        with pytest.raises(DomainError) as err:
            eval_exact_at_support(spec, degrees, k)
        assert str(err.value) == f"{kind}: support index {message}"


def test_exact_values_take_integer_degrees_and_indices(monkeypatch):
    # numpy integers are integers, as eval_at_s and find_zeros take them
    spec = make_family("hahn", alpha=0.5, beta=0.5, N=10)
    want = eval_exact_at_support(spec, 3, 2)
    assert eval_exact_at_support(spec, np.int64(3), 2) == want
    assert eval_exact_at_support(spec, 3, np.int64(2)) == want
    assert eval_exact_at_support(spec, (np.int64(3),), range(2, 3)) == [[want]]

    def no_sum(*args):
        raise AssertionError("summed before the integer check")

    monkeypatch.setattr(copz.qseries, "_sum_points", no_sum)
    # any other degree or index is named before any sum: 1.5 is no support
    # point, and eval_at_s(2, 1.5) is a value off the support
    for n, k, message in [
        (2, 1.5, "support index k=1.5"),
        (2.0, 3, "degree n=2.0"),
        ((1, 2.5), range(4), "degree n=2.5"),
        ((1, 2), "3", "support index k='3'"),
    ]:
        with pytest.raises(DomainError) as err:
            eval_exact_at_support(spec, n, k)
        assert str(err.value) == f"hahn: {message} is not an integer"


def test_degrees_that_are_not_integers_raise_a_domain_error():
    # 1.5 and 2.0 raised a raw TypeError from the series, and a numpy
    # integer degree gave numpy float zeros
    spec = make_family("hahn", alpha=0.5, beta=1.0, N=10)
    for n in (1.5, 2.0):
        with pytest.raises(DomainError, match=rf"^hahn: degree={n} is not an integer$"):
            find_zeros(ZeroProblem(spec, n))
        with pytest.raises(DomainError, match=rf"^hahn: degree n={n} is not an integer$"):
            spec.eval_at_s(n, 0.5)
    problem = ZeroProblem(spec, np.int64(3))
    assert type(problem.degree) is int and problem == ZeroProblem(spec, 3)
    assert all(type(z) is float for z in find_zeros(problem).zeros_s)
    assert spec.eval_at_s(np.int64(3), 0.5) == spec.eval_at_s(3, 0.5)


_Q_AT_BOUND = 2.0 ** -5  # q^(1-N) at q=1/2, N=6

#: a valid parameter set per kind, then one out-of-domain value per stated constraint
DOMAIN_CASES = {
    "hahn": ({"alpha": 0.5, "beta": 0.5, "N": 8}, {"alpha": -1.0, "beta": -1.5, "N": 1}),
    "charlier": ({"alpha": 1.0}, {"alpha": 0.0}),
    "krawtchouk": ({"alpha": 0.4, "N": 6}, {"alpha": 1.0, "N": 61}),
    "meixner": ({"alpha": 0.5, "beta": 1.0}, {"alpha": 1.0, "beta": 0.0}),
    "racah": (
        {"a": 0.5, "alpha": 0.5, "beta": 0.5, "N": 6},
        {"a": -0.5, "alpha": -1.0, "beta": 2.0, "N": 2.5},
    ),
    "dual_hahn": ({"a": 0.5, "alpha": 0.5, "N": 6}, {"a": -0.6, "alpha": 2.0, "N": 0}),
    "q_meixner": ({"alpha": 1.0, "beta": 0.5, "q": 0.5}, {"alpha": 0.0, "beta": 2.0, "q": 1.0}),
    "al_salam_carlitz_2": ({"alpha": 0.5, "q": 0.5}, {"alpha": 2.0, "q": 0.0}),
    "q_hahn": (
        {"alpha": 0.5, "beta": 0.5, "q": 0.5, "N": 6},
        {"alpha": 0.0, "beta": 2.5, "q": 1.5, "N": 60.5},
    ),
    "q_krawtchouk": ({"alpha": 1.0, "q": 0.5, "N": 6}, {"alpha": -1.0, "q": -0.5, "N": 100}),
    "affine_q_krawtchouk": ({"alpha": 0.5, "q": 0.5, "N": 6}, {"alpha": 2.0, "q": 1.0, "N": 1}),
    "quantum_q_krawtchouk": (
        {"alpha": 2.0 / _Q_AT_BOUND, "q": 0.5, "N": 6},
        # N=10**6 must fail on N before the alpha bound q^(1-N) overflows
        {"alpha": 1.0 / _Q_AT_BOUND, "q": 1.0, "N": 10**6},
    ),
    "q_bessel": ({"alpha": 1.0, "q": 0.5}, {"alpha": 0.0, "q": 1.0}),
    "little_q_jacobi": ({"alpha": 0.5, "beta": 0.5, "q": 0.5}, {"alpha": 2.0, "beta": 2.0, "q": 0.0}),
    "little_q_laguerre": ({"alpha": 0.5, "q": 0.5}, {"alpha": 0.0, "q": 2.0}),
    "q_racah": (
        {"a": 1.0, "alpha": 0.5, "beta": 0.5, "q": 0.5, "N": 6},
        {"a": 0.0, "alpha": -1.0, "beta": 2.0, "q": 1.0, "N": 7.5},
    ),
    "dual_q_hahn": (
        {"a": 1.0, "alpha": 0.5, "q": 0.5, "N": 6},
        {"a": -1.0, "alpha": 2.0, "q": 0.0, "N": 61},
    ),
    "q_charlier": ({"alpha": 1.0, "q": 0.5}, {"alpha": -1.0, "q": 1.0}),
    "al_salam_carlitz_1": ({"alpha": 0.5, "q": 0.5}, {"alpha": 0.0, "q": 1.0}),
    "big_q_jacobi_special": (
        {"alpha": 0.5, "beta": 0.5, "q": 0.5},
        {"alpha": 2.0, "beta": 0.0, "q": 1.0},
    ),
    "q_laguerre": ({"alpha": 0.5, "q": 0.5}, {"alpha": -1.0, "q": 1.0}),
}


def test_domain_cases_cover_every_stated_constraint():
    assert set(DOMAIN_CASES) == set(catalog_kinds())
    for kind, (valid, bad) in DOMAIN_CASES.items():
        assert set(bad) == set(family_info(kind)["domains"]), kind
        make_family(kind, valid)


@pytest.mark.parametrize(
    "kind,param,params",
    [
        pytest.param(kind, param, {**valid, param: bad[param]}, id=f"{kind}-{param}")
        for kind, (valid, bad) in DOMAIN_CASES.items()
        for param in bad
    ]
    + [
        # the bound q^(1-N) is beyond the float range: no alpha satisfies it
        pytest.param(
            "quantum_q_krawtchouk",
            "alpha",
            {"alpha": 1.0, "q": 1e-10, "N": 60},
            id="quantum_q_krawtchouk-alpha-overflow",
        ),
    ],
)
def test_out_of_domain_value_names_its_parameter(kind, param, params):
    with pytest.raises(DomainError, match=rf"^{kind}: {param} ") as err:
        make_family(kind, params)
    assert family_info(kind)["domains"][param] in str(err.value)



def _outcomes(fn, *args):
    """The values' bits, or the type and text of the exception raised."""
    try:
        return [v.hex() for v in fn(*args)]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _per_sample(spec, n, ss):
    return [spec.eval_at_s(n, s) for s in ss]


#: each lattice's series atoms at s, written out apart from the library
_ATOMS_AT_S = {
    "linear": lambda p, q, s: s,
    "quadratic": lambda p, q, s: (p["a"] - s, s + p["a"] + 1.0),
    "q_exp_neg": lambda p, q, s: q ** (-s),
    "q_exp": lambda p, q, s: q * q**s,
    "q_symmetric": lambda p, q, s: (q ** p["a"] * q ** (-s), q ** p["a"] * q**s),
}


def _reference_at_s(spec, n, ss):
    """The value at each s from the atoms above and the catalog's series and
    prefactors (an alias's over its base's), an OverflowError named as
    EvaluationOverflowError: the value at s, written apart from FamilySpec's map."""
    base = spec.resolve_base()
    chain = [(spec.kind, spec.params)] + ([(base.kind, base.params)] if base is not spec else [])
    out = []
    for s in ss:
        try:
            x = _ATOMS_AT_S[base.grid.tag](base.params, base.grid.q, s)
            if not 0 <= n <= spec.degree_max:
                raise DomainError(f"{spec.kind}: degree n={n} outside 0..{spec.degree_max}")
            prefs = [_CATALOG[kind].prefactor(p, n) for kind, p in chain]
            value = _CATALOG[base.kind].series(base.params, n, x)
            for pref in reversed(prefs):
                value = pref * value
            out.append(value)
        except OverflowError as exc:
            raise EvaluationOverflowError(
                f"{spec.kind}: the degree-{n} value at s={s!r} overflows the float range"
            ) from exc
    return out


# the array pass _at_s(n).many, against one eval_at_s call per sample


@pytest.mark.parametrize("kind", catalog_kinds())
def test_eval_at_s_many_matches_eval_at_s_bit_for_bit(kind):
    # aliases evaluate through their base, q_racah and dual_q_hahn through the
    # q-symmetric atoms; 700 samples, past the ends of the support too
    spec = make_family(kind, sample_params(kind, random.Random(f"many/{kind}")))
    lo = spec.support_start
    hi = spec.support_end - 1.0 if spec.is_finite else lo + 60.0
    ss = [lo + (hi - lo) * i / 699 for i in range(700)] + [lo - 0.75, lo - 0.5, hi + 0.25]
    for n in sorted({1, 2, 3, 7, min(spec.degree_max, 30)}):
        if n <= spec.degree_max:
            got = _outcomes(lambda: spec._at_s(n).many(ss))
            assert got == _outcomes(_per_sample, spec, n, ss)
            # one sample takes no array pass
            g = spec._at_s(n)
            for s in ss[-3:]:
                assert _outcomes(g.many, [s]) == _outcomes(_per_sample, spec, n, [s])


def test_eval_at_s_many_sums_exactly_in_one_series_call():
    spec = make_family("q_hahn", alpha=0.5, beta=0.6, q=0.7, N=8)
    ss = [0.5 * i for i in range(15)]
    with exact_summation():
        exact = _outcomes(lambda: spec._at_s(5).many(ss))
        assert exact == _outcomes(_per_sample, spec, 5, ss)
    assert exact != _outcomes(lambda: spec._at_s(5).many(ss))  # the float sums round apart


@pytest.mark.parametrize("kind", catalog_kinds())
def test_exact_many_is_one_series_call_of_the_one_point_values(monkeypatch, kind):
    # every lattice, aliases with their prefactors: the samples' exact atoms
    # go to one exact series call, each value the one-point call's by its bits
    spec = make_family(kind, sample_params(kind, random.Random(f"exact/{kind}")))
    lo = spec.support_start
    hi = spec.support_end - 1.0 if spec.is_finite else lo + 12.0
    ss = [lo + (hi - lo) * i / 16 for i in range(17)] + [lo - 0.75, hi + 0.25]
    n = min(3, spec.degree_max)
    calls, sums = [], copz.qseries._sum_points
    monkeypatch.setattr(copz.qseries, "_sum_points", lambda *args: calls.append(1) or sums(*args))
    with exact_summation():
        want = _outcomes(_per_sample, spec, n, ss)
        del calls[:]
        got = _outcomes(lambda: spec._at_s(n).many(ss))
    assert got == want
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kind, params, n, ss",
    [
        # a later sample's q^-s atom overflows
        ("q_hahn", {"alpha": 0.5, "beta": 0.6, "q": 0.5, "N": 8}, 2, [0.0, 1.5, 2000.0, 3000.0]),
        # a later sample's q-quadratic atom q^a q^-s
        ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 7}, 2, [0.0, 1.0, 2000.0, 1.5]),
        # a later sample's sum passes the float range; its rational atoms do not
        ("racah", {"a": 0.5, "alpha": 0.4, "beta": 1.1, "N": 8}, 3, [0.0, 1.0, 1e80, 1e90]),
    ],
    ids=["later-q-atom", "later-q-quadratic-atom", "later-sum"],
)
def test_exact_many_raises_the_first_per_sample_error(kind, params, n, ss):
    spec = make_family(kind, params)
    with exact_summation():
        got = _outcomes(lambda: spec._at_s(n).many(ss))
        assert got == _outcomes(_per_sample, spec, n, ss)
    assert got[0] is EvaluationOverflowError
    assert f"s={ss[2]!r}" in got[1]


@pytest.mark.parametrize("kind", catalog_kinds())
def test_plans_give_the_reference_loops_values(monkeypatch, kind):
    # each degree up to 12, on both sides of the block's degree floor, at
    # support points and random s off them and past the support's ends, as
    # one-point calls and as array passes of 2 to 300 points, on both sides
    # of the block's point cap; and on the q^s lattice at complex atoms ih,
    # as the tail start's complex step takes them, h = 1e-20 among them
    base = _wide_support_family(kind, random.Random(f"plan/{kind}")).resolve_base()
    if base.degree_max < 12:  # alpha > q^(1 - N) takes no wide support at this draw
        base = make_family(kind, alpha=30.0, q=0.8, N=13)
    entry, p, tag, q = _CATALOG[base.kind], base.params, base.grid.tag, base.grid.q
    rng = random.Random(f"plan-s/{kind}")
    lo = base.support_start
    hi = base.support_end - 1.0 if base.is_finite else lo + 60.0
    ss = [lo + j for j in range(min(20, int(hi - lo) + 1))]
    ss += [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(300 - len(ss))]
    hs = (1e-20, 1e-8, 0.3) if tag == "q_exp" else ()
    degrees = range(1, 13)
    plans = {n: base._at_s(n) for n in degrees}
    with monkeypatch.context() as m:
        m.setattr(copz.families, "hyper_sum", reference_hyper_sum)
        m.setattr(copz.families, "qhyper_sum", reference_qhyper_sum)
        want = {
            n: [entry.prefactor(p, n) * entry.series(p, n, _ATOMS_AT_S[tag](p, q, s)) for s in ss]
            + [entry.prefactor(p, n) * entry.series(p, n, h * 1j) for h in hs]
            for n in degrees
        }
    cap = copz.qseries._BLOCK_POINTS
    for n, g in plans.items():
        values = [v.hex() for v in want[n][: len(ss)]]
        assert [g(s).hex() for s in ss] == values, n
        for points in (2, cap, cap + 1, len(ss)):
            assert [v.hex() for v in g.many(ss[:points]).tolist()] == values[:points], (n, points)
        for h, v in zip(hs, want[n][len(ss):]):
            got = g.at_atoms(h * 1j)
            assert (got.real.hex(), got.imag.hex()) == (v.real.hex(), v.imag.hex()), (n, h)


def _block_widths(monkeypatch):
    """The number of points of each pass the float series sums as one block."""
    widths, block_sum = [], copz.qseries._block_sum
    monkeypatch.setattr(
        copz.qseries, "_block_sum", lambda ratio: widths.append(ratio.shape[1]) or block_sum(ratio)
    )
    return widths


def _wide_support_family(kind, rng):
    """A seeded draw of the kind, on N = 60 points where it has N and takes 60."""
    params = sample_params(kind, rng)
    if "N" in params:
        try:
            return make_family(kind, {**params, "N": 60.0})
        except DomainError:
            pass
    return make_family(kind, params)


@pytest.mark.parametrize("kind", catalog_kinds())
def test_block_passes_match_eval_at_s_bit_for_bit(monkeypatch, kind):
    # degrees on both sides of the block's degree floor and up to the cap,
    # passes below, at and above its point cap, and samples past the ends of
    # the support and far off it, where the float series is NaN or huge
    spec = _wide_support_family(kind, random.Random(f"block/{kind}"))
    floor, cap = copz.qseries._BLOCK_DEGREE, copz.qseries._BLOCK_POINTS
    degrees = sorted({0, floor - 1, floor, spec.degree_max})
    lo = spec.support_start
    hi = spec.support_end - 1.0 if spec.is_finite else lo + 60.0
    far = [
        s
        for s in (lo - 300.5, lo - 30.5, hi + 30.5, hi + 300.5, -1e30, 1e30)
        if not isinstance(_outcomes(_per_sample, spec, spec.degree_max, [s]), tuple)
    ]
    widths = _block_widths(monkeypatch)
    for n in degrees:
        for points in (16, cap, cap + 1):
            m = points - len(far)
            ss = [lo - 0.75 + (hi - lo + 1.0) * i / (m - 1) for i in range(m)] + far
            got = _outcomes(lambda: spec._at_s(n).many(ss))
            assert got == _outcomes(_per_sample, spec, n, ss)
            # one sample takes no array pass
            g = spec._at_s(n)
            for s in ss[-3:]:
                assert _outcomes(g.many, [s]) == _outcomes(_per_sample, spec, n, [s])
            # an array of s gives the same values, its atoms built from the array
            assert _outcomes(lambda: spec._at_s(n).many(np.array(ss))) == got
    assert widths == [p for n in degrees if n >= floor for p in (16, 16, cap, cap)]
    # a later sample whose atom leaves the float range (a q-power on the
    # q-lattices, whichever of the two comes first on the q-quadratic one)
    # is named as one call at a time names it
    over = ss[:5] + [1e30, -1e30] + ss[5:]
    got = _outcomes(lambda: spec._at_s(n).many(np.array(over)))
    assert got == _outcomes(lambda: spec._at_s(n).many(over))
    assert got == _outcomes(_per_sample, spec, n, over)
    if spec.grid.q is not None:
        assert got[0] is EvaluationOverflowError


def test_block_passes_keep_nan_and_infinite_values(monkeypatch):
    # the prefactor of the second Al-Salam-Carlitz family carries huge values
    # past the float range with either sign; far out the series is NaN
    spec = make_family("al_salam_carlitz_2", alpha=0.5, q=0.3)
    n = 30
    ss = [0.0, 17.5, 18.5, 34.0, 360.0] + [0.25 * i for i in range(20)]
    widths = _block_widths(monkeypatch)
    got = _outcomes(lambda: spec._at_s(n).many(ss))
    assert got == _outcomes(_per_sample, spec, n, ss)
    assert widths == [len(ss)]
    assert {"inf", "-inf", "nan"} <= set(got)
    # a pass whose first value is not finite takes that one as a one-point
    # call, and the rest from the same block
    for first in (17.5, 18.5, 360.0):
        widths.clear()
        got = _outcomes(lambda: spec._at_s(n).many([first, *ss]))
        assert got == _outcomes(_per_sample, spec, n, [first, *ss])
        assert widths == [len(ss) + 1]


@pytest.mark.parametrize(
    "series, num, den, base",
    [
        (copz.qseries.hyper_sum, (2.5, 0.3), (1.5, -59.0), ()),
        (copz.qseries.qhyper_sum, (0.45, 0.3), (0.5, 0.7**-60), (0.7,)),
    ],
    ids=["hyper", "q"],
)
def test_a_call_on_arrays_takes_the_block_from_its_own_arguments(
    monkeypatch, series, num, den, base
):
    # the block opens exactly for ndarray atoms, the argument z or a numerator
    # parameter, of 1 to _BLOCK_POINTS points at degree _BLOCK_DEGREE or more,
    # and gives the values of one scalar call per point
    floor, cap = copz.qseries._BLOCK_DEGREE, copz.qseries._BLOCK_POINTS
    widths = _block_widths(monkeypatch)
    for n in (floor - 1, floor, 30):
        marker = base[0] ** -n if base else -float(n)
        for points in (1, 2, cap, cap + 1):
            xs = np.linspace(-0.9, 0.9, points)
            for call in (
                lambda x: series((marker, x, num[1]), den, *base, 0.5, n),
                lambda x: series((marker, *num), den, *base, x, n),
            ):
                block = [points] if n >= floor and points <= cap else []
                widths.clear()
                got = call(xs)
                assert widths == block, (n, points)
                want = [call(x) for x in xs.tolist()]  # scalar calls open no block
                assert widths == block
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        # nor does a complex scalar, the atom of the tail start's complex step
        widths.clear()
        assert isinstance(series((marker, *num), den, *base, 1e-20j, n), complex)
        assert widths == []


@pytest.mark.parametrize(
    "series, args",
    [
        # b + k = 0 at k = 3, after three finite terms
        (copz.qseries.hyper_sum, ((-9.0, "X"), (-3.0,), 1.0, 9)),
        # 1 - b q^k = 0 at k = 3: b = 2^3, q = 1/2
        (copz.qseries.qhyper_sum, ((0.5**-9, "X"), (8.0,), 0.5, 1.0, 9)),
        # (-q^k)^-1 divides by zero once q^k underflows, at k = 7
        (copz.qseries.qhyper_sum, ((2.0, "X"), (), 1e-50, 1.0, 9)),
    ],
    ids=["hyper-denominator", "q-denominator", "q-power"],
)
def test_block_pass_raises_the_loops_error(monkeypatch, series, args):
    # a call of degree 9 over 17 points opens the block, which gives way to
    # the loop, which raises as it does where no block opens
    xs = np.linspace(-2.0, 2.0, 17)
    num, *rest = args
    args = (tuple(xs if a == "X" else a for a in num), *rest)
    widths = _block_widths(monkeypatch)
    with np.errstate(all="ignore"):
        with pytest.raises(ArithmeticError) as block:
            series(*args)
        monkeypatch.setattr(copz.qseries, "_BLOCK_POINTS", 0)
        with pytest.raises(ArithmeticError) as loop:
            series(*args)
    assert (type(block.value), str(block.value)) == (type(loop.value), str(loop.value))
    assert widths == []


# series whose sum cannot be taken, in place of a family's: on the q^-s
# lattice 1 - 8 q^3 vanishes at k = 4 where q = 1/2, or the base 1.5 lies
# outside (0, 1); on the linear lattice -1 + k vanishes at k = 2


def _vanishing_q(p, n, X):
    return qhyper_sum((0.5**-n, X), (8.0,), 0.5, 1.0, n)


def _base_outside(p, n, X):
    return qhyper_sum((p["q"] ** -n, X), (), 1.5, 1.0, n)


def _vanishing(p, n, X):
    return hyper_sum((-float(n), -X), (-1.0,), 1.0, n)


@pytest.mark.parametrize(
    "kind, params, n, ss, error, series",
    [
        # the atom q^-s0 overflows before the degree is checked
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 31, [300.0, 0.0],
         "EvaluationOverflowError", None),
        # the degree, then a later sample's overflow
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 31, [0.0, 300.0], "DomainError",
         None),
        # the prefactor, then a later sample's overflow
        ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30, [0.0, 400.0],
         "EvaluationOverflowError", None),
        # a later sample's overflow, after a thousand finite samples
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 3,
         [0.2 * i for i in range(1000)] + [300.0, 400.0], "EvaluationOverflowError", None),
        # an alias with a prefactor of its own over its base's lattice
        ("big_q_jacobi_special", {"alpha": 0.5, "beta": 0.5, "q": 0.5}, 2,
         [-1500.0, 0.0], "EvaluationOverflowError", None),
        # a later sample's q-quadratic atom q^a q^-s
        ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 7}, 2, [0.0, 2000.0],
         "EvaluationOverflowError", None),
        # the series' vanishing denominator factor and base outside (0, 1),
        # after the first sample's atoms and before a later sample's overflow
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 4, [300.0, 0.0],
         "EvaluationOverflowError", _vanishing_q),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 4, [0.0, 300.0],
         "UndefinedSeriesError", _vanishing_q),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 4, [0.0, 300.0], "DomainError",
         _base_outside),
        ("charlier", {"alpha": 0.5}, 3, [0.0, 1.5, 1e300], "UndefinedSeriesError", _vanishing),
    ],
    ids=["x-first", "degree-before-later-x", "prefactor-before-later-x", "later-x",
         "alias-x-first", "later-q-quadratic-atom", "x-before-vanishing",
         "vanishing-before-later-x", "base-before-later-x", "vanishing-on-the-linear-lattice"],
)
def test_eval_at_s_many_raises_the_first_per_sample_error(
    monkeypatch, kind, params, n, ss, error, series
):
    if series is not None:
        monkeypatch.setitem(_CATALOG, kind, dataclasses.replace(_CATALOG[kind], series=series))
    spec = make_family(kind, params)
    got = _outcomes(lambda: spec._at_s(n).many(ss))
    assert got == _outcomes(_per_sample, spec, n, ss)
    assert got[0].__name__ == error
    # one sample takes no array pass
    assert _outcomes(lambda: spec._at_s(n).many(ss[:1])) == _outcomes(_per_sample, spec, n, ss[:1])


@pytest.mark.parametrize(
    "kind, params, series, error, text",
    [
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, _vanishing_q,
         UndefinedSeriesError, "denominator parameter 8.0 vanishes at k=4"),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, _base_outside, DomainError,
         "base q must lie in (0, 1), got 1.5"),
        ("charlier", {"alpha": 0.5}, _vanishing, UndefinedSeriesError,
         "denominator parameter -1.0 vanishes at k=2"),
    ],
    ids=["vanishing", "base-outside", "vanishing-on-the-linear-lattice"],
)
def test_series_errors_are_raised_at_each_call_after_the_atoms(
    monkeypatch, kind, params, series, error, text
):
    # the plan of a series whose sum cannot be taken is never built: each
    # call of the search's function tries anew, and raises the series' error
    # after the atoms, whose overflow raises first and names its s
    monkeypatch.setitem(_CATALOG, kind, dataclasses.replace(_CATALOG[kind], series=series))
    spec = make_family(kind, params)
    tries, plan = [], copz.qseries._plan
    monkeypatch.setattr(copz.qseries, "_plan", lambda *args: tries.append(args) or plan(*args))
    g = spec._at_s(4)
    for calls, s in enumerate((0.0, 1.5, 0.0, 2.5), start=2):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            g(s)
        assert len(tries) == calls
    if spec.grid.q is not None:
        overflow = r"^q_meixner: the degree-4 value at s=300\.0 overflows"
        with pytest.raises(EvaluationOverflowError, match=overflow):
            g(300.0)
        assert len(tries) == 5


@pytest.mark.parametrize("kind", catalog_kinds())
def test_per_degree_evaluator_matches_eval_at_s_bit_for_bit(kind):
    # the function of s a zero search calls: aliases keep their prefactor,
    # and the samples run past the ends of the support
    spec = make_family(kind, sample_params(kind, random.Random(f"at_s/{kind}")))
    lo = spec.support_start
    hi = spec.support_end - 1.0 if spec.is_finite else lo + 60.0
    ss = [lo + (hi - lo) * i / 99 for i in range(100)] + [lo - 0.75, lo - 0.5, hi + 0.25]
    for n in sorted({0, 1, 2, 3, 7, min(spec.degree_max, 30)}):
        at_s = spec._at_s(n)
        assert _outcomes(lambda: [at_s(s) for s in ss]) == _outcomes(_reference_at_s, spec, n, ss)


@pytest.mark.parametrize(
    "kind, params, n, s, error",
    [
        # the prefactor overflows: every s is named
        ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30, 0.0, "EvaluationOverflowError"),
        ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30, 7.5, "EvaluationOverflowError"),
        ("quantum_q_krawtchouk", {"alpha": 1e300, "q": 0.5, "N": 10}, 5, 0.0,
         "EvaluationOverflowError"),
        # a degree out of range, and before it an overflow of the atom q^-s
        ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 10}, 10, 0.0, "DomainError"),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 31, 0.0, "DomainError"),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 31, 300.0,
         "EvaluationOverflowError"),
        # an overflow of an alias's atom q^s
        ("big_q_jacobi_special", {"alpha": 0.5, "beta": 0.5, "q": 0.5}, 2, -1500.0,
         "EvaluationOverflowError"),
        # an overflow of the q-quadratic atom q^a q^-s
        ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 7}, 2, 2000.0,
         "EvaluationOverflowError"),
    ],
    ids=["prefactor-s0", "prefactor-s7.5", "quantum-prefactor", "degree", "degree-infinite",
         "x-before-degree", "alias-x", "q-quadratic-atom"],
)
def test_per_degree_evaluator_raises_as_eval_at_s(kind, params, n, s, error):
    spec = make_family(kind, params)
    at_s = spec._at_s(n)  # building it raises nothing
    got = _outcomes(lambda: [at_s(s)])
    assert got == _outcomes(_reference_at_s, spec, n, [s])
    assert got[0].__name__ == error
    assert f"s={s!r}" in got[1] or error == "DomainError"


def _bound(build):
    """A spec's fields, its base's and alias_kind, floats as hex, or the type
    and text of the exception raised building it."""
    try:
        spec = build()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    fields = []
    for f in (spec, spec.base):
        if f is not None:
            fields.append((
                f.kind, f.alias_kind, repr(f.params), f.grid,
                _hex(f.support_start), _hex(f.support_end), f.degree_max, _hex(f.zero_scale),
            ))
    return spec, fields


def _moved_values(spec, param):
    """The ends and midpoint of each claim window on param; the value nudged
    both ways (N by one, past its bounds too), and a value no domain allows."""
    values = []
    for claim in spec.claims():
        if claim.param == param:
            lo, hi = claim.window
            values += [lo, 0.5 * (lo + hi), hi]
    v = spec.params[param]
    if param == "N":
        values += [v - 1, v + 1, 1, MAX_FINITE_SUPPORT + 1, v + 0.5]
    else:
        values += [v * 0.97, v * 1.03 + 0.01, -2.0, 2.0]
    return values + [math.inf, math.nan]


@pytest.mark.parametrize("kind", catalog_kinds())
def test_with_param_is_make_family_with_the_moved_parameter(kind):
    # a sweep point moves one parameter: the spec, its base and its errors
    # are make_family's, whether or not the grid and support move with it
    rng = random.Random(f"with_param/{kind}")
    for _ in range(3):
        spec = make_family(kind, sample_params(kind, rng))
        for param in (*spec.params, "zz"):
            for v in _moved_values(spec, param) if param != "zz" else [1.0]:
                got = _bound(lambda: spec.with_param(param, v))
                assert got == _bound(lambda: make_family(kind, {**spec.params, param: v}))
                if not isinstance(got[0], type):
                    assert got[0].base is None or got[0].base.alias_kind == kind
                    # a moved spec moves again as a fresh one does
                    other = next(iter(spec.params))
                    w = spec.params[other]
                    assert _bound(lambda: got[0].with_param(other, w)) == _bound(
                        lambda: make_family(kind, {**got[0].params, other: w})
                    )


FACTS = Path(__file__).parent / "data" / "family_facts.json"


def _hex(v):
    return v.hex() if isinstance(v, float) else v


def family_facts(kind):
    """Lattice, support, degree cap, K, zero scale, base and claims of three
    seeded draws of one kind, floats as hex."""
    rng = random.Random(f"facts/{kind}")
    out = []
    for _ in range(3):
        spec = make_family(kind, sample_params(kind, rng))
        out.append({
            "params": {k: _hex(v) for k, v in spec.params.items()},
            "grid": [spec.grid.tag, _hex(spec.grid.q)],
            "support": [_hex(spec.support_start), _hex(spec.support_end)],
            "degree_max": spec.degree_max,
            "k_interval": [_hex(v) for v in spec.k_interval()],
            "zero_scale": _hex(spec.zero_scale),
            "base": spec.base.kind if spec.base is not None else None,
            "claims": [
                [c.param, c.direction, [_hex(v) for v in c.interval], [_hex(v) for v in c.window]]
                for c in spec.claims()
            ],
        })
    return out


@pytest.mark.parametrize("kind", catalog_kinds())
def test_derived_facts_match_reference(kind):
    assert family_facts(kind) == json.loads(FACTS.read_text())[kind]
    rng = random.Random(f"facts/{kind}")
    for _ in range(3):
        for claim in make_family(kind, sample_params(kind, rng)).claims():
            (lo, hi), (wlo, whi) = claim.interval, claim.window
            assert math.isfinite(wlo) and math.isfinite(whi), claim
            assert lo <= wlo < whi <= hi, claim
