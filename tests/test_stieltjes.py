import dataclasses
import math
import random
import re
import warnings

import numpy as np
import pytest

import copz
from copz import (
    DomainError,
    Grid,
    ZeroProblem,
    build_stieltjes_system,
    catalog_kinds,
    find_zeros,
    hypothesis_report,
    make_family,
    monotonicity_verdict,
    sample_params,
    zero_derivatives_fd,
)
from copz.grid import LINEAR, QUADRATIC, Q_ANTISYMMETRIC, Q_EXP, Q_EXP_NEG, Q_SYMMETRIC
from copz.stieltjes import HypothesisReport, b_entry, direction_from_signs
from oracles import b_antisymmetric_closed, b_quadratic_closed, b_symmetric_closed, theta
from copz.zeros import track_zeros

SPANNING = [
    ("hahn", None),
    ("charlier", None),
    ("krawtchouk", None),
    ("meixner", None),
    ("racah", None),
    ("dual_hahn", None),
    ("q_meixner", None),
    ("al_salam_carlitz_2", None),
    ("q_hahn", None),
    ("q_krawtchouk", None),
    ("quantum_q_krawtchouk", None),
    ("q_racah", None),
    ("dual_q_hahn", None),
]


def test_hypothesis_report_hahn():
    spec = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    zs = find_zeros(ZeroProblem(spec, 2))
    rep = hypothesis_report(zs, "alpha")
    assert rep.k_interval == (0.0, 4.0)
    assert rep.f_positive and rep.f1_negative
    assert rep.f2_sign == "-"
    assert rep.grid4_condition == "not-applicable"
    assert rep.zero_set_inside_k
    assert rep.hypotheses_hold
    assert rep.predicted_direction == "decreasing"
    rep_b = hypothesis_report(zs, "beta")
    assert rep_b.f2_sign == "+" and rep_b.predicted_direction == "increasing"


def test_hypothesis_report_racah_beta():
    spec = make_family("racah", a=1.0, alpha=0.0, beta=0.5, N=6)
    rep = hypothesis_report(find_zeros(ZeroProblem(spec, 3)), "beta")
    assert rep.k_interval == (1.0, 6.0)
    assert rep.f2_sign == "+"
    assert rep.hypotheses_hold


def test_direction_sign_law():
    assert direction_from_signs("+", True) == "increasing"
    assert direction_from_signs("+", False) == "decreasing"
    assert direction_from_signs("-", True) == "decreasing"
    assert direction_from_signs("-", False) == "increasing"


def test_single_zero_system_charlier():
    spec = make_family("charlier", alpha=2.0)
    system = build_stieltjes_system(find_zeros(ZeroProblem(spec, 1)), "alpha")
    # 1x1 system: a_11 = -f1 + f b_11 with empty off-diagonal sums
    y = system.zeros.zeros_s[0]
    f = spec.monotonicity_f(y)
    f1, _ = spec.f_partials(y, "alpha")
    assert system.matrix[0, 0] == pytest.approx(-f1 + f * system.b_matrix[0, 0], rel=1e-12)
    # zero sits at s = alpha, so its derivative in alpha is exactly 1
    assert system.solution[0] == pytest.approx(1.0, abs=1e-8)
    assert system.offdiag_negative and system.diag_dominant and system.inverse_positive


def test_b_entries_quadratic_closed_form():
    g = Grid(QUADRATIC)
    rng = random.Random(3)
    for _ in range(60):
        yj = rng.uniform(0.2, 9.0)
        yk = rng.uniform(0.2, 9.0)
        assert b_entry(g, yj, yk) == pytest.approx(
            b_quadratic_closed(yj, yk), rel=1e-10
        )


def test_b_entries_symmetric_closed_form():
    rng = random.Random(4)
    for _ in range(60):
        q = rng.uniform(0.3, 0.95)
        g = Grid(Q_SYMMETRIC, q)
        yj = rng.uniform(0.7, 9.0)
        yk = rng.uniform(0.7, 9.0)
        assert b_entry(g, yj, yk) == pytest.approx(
            b_symmetric_closed(theta(g), yj, yk), rel=1e-10
        )


def test_b_entries_antisymmetric_in_unit_interval():
    # |b| <= 4*theta*tanh(theta) < 1 needs theta < 0.52, i.e. q above ~0.35
    rng = random.Random(6)
    for _ in range(60):
        q = rng.uniform(0.45, 0.95)
        g = Grid(Q_ANTISYMMETRIC, q)
        yj = rng.uniform(-6.0, 6.0)
        yk = rng.uniform(-6.0, 6.0)
        val = b_entry(g, yj, yk)
        closed = b_antisymmetric_closed(theta(g), yj, yk)
        assert val == pytest.approx(closed, rel=1e-10, abs=1e-12)
        assert -1.0 < val < 0.0


def test_b_entries_vanish_on_exponential_lattices():
    for g in (Grid(LINEAR), Grid(Q_EXP_NEG, 0.5), Grid(Q_EXP, 0.5)):
        assert b_entry(g, 2.3, 4.9) == pytest.approx(0.0, abs=1e-12)


def test_fd_direction_examples():
    d = zero_derivatives_fd(ZeroProblem(make_family("charlier", alpha=2.0), 1), "alpha")
    assert d[0] == pytest.approx(1.0, rel=1e-6)
    d = zero_derivatives_fd(ZeroProblem(make_family("hahn", alpha=0.0, beta=0.0, N=5), 2), "alpha")
    assert all(v < 0.0 for v in d)
    d = zero_derivatives_fd(ZeroProblem(make_family("meixner", alpha=0.5, beta=1.0), 2), "beta")
    assert all(v > 0.0 for v in d)


def test_system_matches_fd_across_grids():
    rng = random.Random(12)
    for kind, _ in SPANNING:
        spec = make_family(kind, sample_params(kind, rng))
        n = min(3, spec.degree_max)
        pr = ZeroProblem(spec, n)
        zs = find_zeros(pr)
        param = spec.claims()[0].param
        rep = hypothesis_report(zs, param, samples=80)
        assert rep.hypotheses_hold, (kind, rep)
        system = build_stieltjes_system(zs, param)
        fd = zero_derivatives_fd(pr, param)
        for a, b in zip(system.solution, fd):
            assert a == pytest.approx(b, rel=1e-4, abs=1e-10)
        assert system.offdiag_negative
        assert system.diag_dominant
        assert system.inverse_positive
        # sign law in the polynomial variable
        want = rep.predicted_direction
        for v in system.solution_X:
            assert (v > 0) == (want == "increasing")


def test_structural_parameter_guard():
    spec = make_family("q_hahn", alpha=0.8, beta=0.9, q=0.6, N=6)
    with pytest.raises(DomainError):
        build_stieltjes_system(find_zeros(ZeroProblem(spec, 2)), "q")
    racah = make_family("racah", a=0.5, alpha=0.2, beta=0.4, N=6)
    with pytest.raises(DomainError):
        build_stieltjes_system(find_zeros(ZeroProblem(racah, 2)), "a")


def test_monotonicity_verdict_examples():
    spec = make_family("hahn", alpha=0.5, beta=1.0, N=8)
    v = monotonicity_verdict(ZeroProblem(spec, 3), "alpha", (-0.9, 3.0), samples=25)
    assert v.directions == ("decreasing",) * 3
    assert v.reversals == 0
    assert v.claimed == "decreasing" and v.agrees

    spec = make_family("krawtchouk", alpha=0.5, N=7)
    v = monotonicity_verdict(ZeroProblem(spec, 2), "alpha", (0.05, 0.95), samples=15)
    assert v.directions == ("increasing",) * 2 and v.agrees

    q = 0.5
    spec = make_family("al_salam_carlitz_2", alpha=0.5 / q, q=q)
    v = monotonicity_verdict(ZeroProblem(spec, 2), "alpha", (0.1, 0.9 / q), samples=15)
    assert v.directions == ("increasing",) * 2 and v.agrees


def test_claimed_sweeps_agree_across_catalog():
    rng = random.Random(21)
    from copz import catalog_kinds

    for kind in catalog_kinds():
        spec = make_family(kind, sample_params(kind, rng))
        pr = ZeroProblem(spec, min(2, spec.degree_max))
        for claim in spec.claims():
            v = monotonicity_verdict(pr, claim.param, claim.window, samples=9)
            assert v.agrees, (kind, claim.param, v.directions)
            assert v.reversals == 0


def test_trajectory_matrix_shape():
    spec = make_family("charlier", alpha=2.0)
    v = monotonicity_verdict(ZeroProblem(spec, 2), "alpha", (1.0, 3.0), samples=7)
    assert len(v.trajectories) == 2
    assert all(len(row) == len(v.ts) for row in v.trajectories)
    assert math.isfinite(v.trajectories[0][0])


def test_sweep_past_a_turning_zero_is_non_monotone():
    # over q in (0.4, 0.95) the lower q-Charlier zero falls, then rises
    problem = ZeroProblem(make_family("q_charlier", alpha=0.5, q=0.7), 2)
    v = monotonicity_verdict(problem, "q", (0.4, 0.95), samples=9)
    assert v.directions == ("non-monotone", "decreasing")
    assert len(v.ts) == 15 and v.claimed is None and v.agrees is None
    lower = v.trajectories[0]
    rises = [b > a for a, b in zip(lower, lower[1:])]
    turn = rises.index(True)
    assert turn > 0 and not any(rises[:turn]) and all(rises[turn:])  # it turns once
    # each step against the first direction is a reversal
    assert v.reversals == len(rises) - turn == 6


def test_hypothesis_report_lets_programming_errors_through(monkeypatch):
    from copz.families import FamilySpec

    def broken(self, s, param):
        raise TypeError("broken coefficient ratio")

    zs = find_zeros(ZeroProblem(make_family("charlier", alpha=1.5), 2))
    monkeypatch.setattr(FamilySpec, "f_partials", broken)
    with pytest.raises(TypeError, match="broken coefficient ratio"):
        hypothesis_report(zs, "alpha")


def _reference_report(zs, param, samples):
    """hypothesis_report as one scalar monotonicity_f and f_partials call per sample."""
    fam = zs.problem.family
    lo, hi = fam.k_interval()
    hi_eff = hi if math.isfinite(hi) else max(zs.zeros_s) + 2.0
    pts = np.linspace(lo, hi_eff, samples + 2)[1:-1].tolist() + list(zs.zeros_s)
    f_pos = f1_neg = grid4_ok = True
    f2_signs, counterexamples = set(), []
    is_grid4 = fam.grid.tag == Q_ANTISYMMETRIC
    for s in pts:
        try:
            fv = fam.monotonicity_f(s)
            f1, f2 = fam.f_partials(s, param)
        except copz.CopzError:
            fv = f1 = f2 = math.nan
        if not all(map(math.isfinite, (fv, f1, f2))):
            # raising, or non-finite at a scalar call: a counterexample
            counterexamples.append(s)
            f_pos = False
            continue
        ok = not (fv <= 0.0 or f1 >= 0.0)
        f_pos = f_pos and not fv <= 0.0
        f1_neg = f1_neg and not f1 >= 0.0
        f2_signs.add("+" if f2 > 0.0 else "-" if f2 < 0.0 else "0")
        if is_grid4 and zs.problem.degree * fv + f1 > 0.0:
            grid4_ok = False
        if not ok and len(counterexamples) < 8:
            counterexamples.append(s)
    f2_sign = "+" if f2_signs <= {"+"} else "-" if f2_signs <= {"-"} else "mixed"
    return HypothesisReport(
        kind=fam.kind,
        degree=zs.problem.degree,
        param=param,
        t=float(fam.params[param]),
        k_interval=(lo, hi),
        f_positive=f_pos,
        f1_negative=f1_neg,
        f2_sign=f2_sign,
        grid4_condition="not-applicable" if not is_grid4 else "pass" if grid4_ok else "fail",
        zero_set_inside_k=all(lo < y < hi for y in zs.zeros_s),
        sample_count=len(pts),
        counterexamples=tuple(counterexamples),
        fgrid_increasing=fam.grid.increasing,
    )


def _assert_same_report(zs, param, samples):
    got, want = hypothesis_report(zs, param, samples), _reference_report(zs, param, samples)
    assert got == want
    assert [type(s) for s in got.counterexamples] == [type(s) for s in want.counterexamples]
    return got


@pytest.mark.parametrize("kind", catalog_kinds())
def test_array_report_matches_the_per_sample_reference(kind):
    rng = random.Random(f"report/{kind}")
    reports = 0
    for _ in range(3):
        spec = make_family(kind, sample_params(kind, rng))
        zs = find_zeros(ZeroProblem(spec, rng.randint(1, 3)))
        for claim in spec.claims():
            for samples in (200, 60):
                _assert_same_report(zs, claim.param, samples)
                reports += 1
    assert reports >= 6


@pytest.mark.parametrize(
    "kind, params, zeros_s",
    [
        # A(0) = 0, a zero of f's denominator at the zero set
        ("al_salam_carlitz_2", {"alpha": 1e-300, "q": 0.5}, None),
        ("quantum_q_krawtchouk", {"alpha": 1e300, "q": 0.5, "N": 10}, None),
        # A(0) = 0 after more than eight failing samples: the flagged q-Bessel
        # table has f < 0 on K, and a raising sample is kept past that cap
        ("q_bessel", {"alpha": 1.0, "q": 0.5}, (0.0,)),
        # coefficient poles of the tables at s = 0 and s = -1/2, as zero sets
        ("racah", {"a": 0.3, "alpha": 0.5, "beta": 0.4, "N": 6}, (-0.5, 0.0, 2.0)),
        ("dual_hahn", {"a": 0.3, "alpha": 0.5, "N": 6}, (-0.5, 0.0, 2.0)),
        ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 7}, (0.0, 2.0)),
        ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 7}, (0.0, 2.0)),
    ],
    ids=[
        "asc2-A-zero",
        "quantum-qk-A-zero",
        "q-bessel-A-zero",
        "racah-poles",
        "dual-hahn-poles",
        "q-racah-pole",
        "dual-q-hahn-pole",
    ],
)
def test_array_report_keeps_the_samples_a_scalar_call_raises_at(kind, params, zeros_s):
    spec = make_family(kind, params)
    zs = find_zeros(ZeroProblem(spec, 1 if zeros_s is None else len(zeros_s)))
    if zeros_s is not None:
        zs = dataclasses.replace(zs, zeros_s=zeros_s)
    for s in zs.zeros_s[:1]:
        with pytest.raises(copz.SingularityError):
            spec.monotonicity_f(s)
    for samples in (200, 60):
        rep = _assert_same_report(zs, spec.claims()[0].param, samples)
        assert not rep.f_positive and zs.zeros_s[0] in rep.counterexamples


def test_array_report_counts_the_racah_support_start_as_a_counterexample():
    # at s = a = 0 the racah A is 0/0 in one array pass, which the scalar call
    # cancels; the report reads the array passes alone, so s = 0 is a
    # counterexample whose signs count for nothing.  The zero set is made up:
    # no real zero lies at the support start.
    spec = make_family("racah", a=0.0, alpha=0.5, beta=0.4, N=6)
    zs = find_zeros(ZeroProblem(spec, 2))
    zs = dataclasses.replace(zs, zeros_s=(0.0, *zs.zeros_s[1:]))
    with np.errstate(invalid="ignore"):
        assert math.isnan(spec.monotonicity_f(np.array([0.0, 1.0]))[0])
    assert math.isfinite(spec.monotonicity_f(0.0))
    assert spec.f_partials(0.0, "alpha")[1] > 0.0  # the one sample with f2 > 0
    for samples in (200, 60):
        rep = hypothesis_report(zs, "alpha", samples)
        want = _reference_report(zs, "alpha", samples)
        assert want.f2_sign == "mixed" and 0.0 in want.counterexamples
        assert rep == dataclasses.replace(want, f2_sign="-")


@pytest.mark.parametrize("param", ["N", "gamma"])
def test_report_rejects_a_parameter_the_family_cannot_take(param):
    # N is discrete and gamma is no hahn parameter: a DomainError, not a
    # report of counterexamples or a KeyError
    zs = find_zeros(ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=8), 3))
    with pytest.raises(DomainError, match=f"^hahn has no continuous parameter '{param}'$"):
        hypothesis_report(zs, param)


@pytest.mark.parametrize("param", ["N", "gamma"])
def test_sweep_rejects_a_parameter_the_family_cannot_take(monkeypatch, param):
    # N's refinement midpoints leave the integers; the DomainError comes
    # before any solve, not from make_family at the first midpoint
    solved = []
    monkeypatch.setattr(copz.stieltjes, "find_zeros", solved.append)
    monkeypatch.setattr(copz.stieltjes, "track_zeros", solved.append)
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=10), 3)
    with pytest.raises(DomainError, match=f"^hahn has no continuous parameter '{param}'$"):
        monotonicity_verdict(problem, param, (4.0, 60.0), samples=57)
    assert solved == []


@pytest.mark.parametrize(
    "samples, message",
    [
        (-3, "samples=-3 is negative"),
        (2.5, "samples=2.5 is not an integer"),
        (math.nan, "samples=nan is not an integer"),
        (math.inf, "samples=inf is not an integer"),
    ],
)
def test_sample_counts_that_are_not_counts_are_domain_errors(monkeypatch, samples, message):
    # checked before any solve: linspace would raise a raw ValueError or
    # TypeError, and max(3, samples) would run a negative or NaN count as 3
    zs = find_zeros(ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=10), 3))
    with pytest.raises(DomainError, match=f"^hahn: {re.escape(message)}$"):
        hypothesis_report(zs, "alpha", samples=samples)
    solved = []
    monkeypatch.setattr(copz.stieltjes, "find_zeros", solved.append)
    monkeypatch.setattr(copz.stieltjes, "track_zeros", solved.append)
    with pytest.raises(DomainError, match=f"^hahn: {re.escape(message)}$"):
        monotonicity_verdict(zs.problem, "alpha", (0.1, 1.0), samples=samples)
    assert solved == []


@pytest.mark.parametrize(
    "t_range",
    [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)],
)
def test_sweep_rejects_a_range_with_a_non_finite_end(monkeypatch, t_range):
    # (0, inf) passed lo < hi, warned from linspace and failed on the
    # NaN sample "alpha must satisfy alpha > -1 (got nan)"; the range is
    # named before any solve, with no warning
    solved = []
    monkeypatch.setattr(copz.stieltjes, "find_zeros", solved.append)
    monkeypatch.setattr(copz.stieltjes, "track_zeros", solved.append)
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=10), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            monotonicity_verdict(problem, "alpha", t_range)
    assert str(info.value) == f"sweep range {t_range!r} is not finite"
    assert solved == []


@pytest.mark.parametrize(
    "kind, params, param",
    [
        ("meixner", {"alpha": 0.5, "beta": 1.5}, "zz"),
        ("meixner", {"alpha": 0.5, "beta": 1.5}, "N"),
        ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 8}, "N"),
    ],
)
def test_finite_differences_reject_a_parameter_the_family_cannot_take(
    monkeypatch, kind, params, param
):
    # a name the family lacks raised a bare KeyError, and hahn's N the
    # domain error of its first moved instance, "N must satisfy integer
    # 2..60 (got 8.00008)"; the typed error comes before any solve
    solved = []
    monkeypatch.setattr(copz.stieltjes, "find_zeros", solved.append)
    problem = ZeroProblem(make_family(kind, params), 2)
    with pytest.raises(DomainError, match=f"^{kind} has no continuous parameter '{param}'$"):
        zero_derivatives_fd(problem, param)
    assert solved == []


def test_report_where_the_table_overflows_at_every_sample():
    # q**(-N) in the q-Hahn A, B overflows at q = 1e-40 whatever s is, so the
    # array passes raise as a whole: every sample is a counterexample, and with
    # no finite sample f2 shows no sign
    tiny = make_family("q_hahn", alpha=0.5, beta=0.5, q=1e-40, N=10)
    zs = find_zeros(ZeroProblem(tiny.with_param("q", 0.5), 3))
    zs = dataclasses.replace(zs, problem=ZeroProblem(tiny, 3))
    with pytest.raises(copz.EvaluationOverflowError):
        tiny.monotonicity_f(zs.zeros_s[0])
    for samples in (200, 60):
        rep = hypothesis_report(zs, "alpha", samples)
        assert len(rep.counterexamples) == rep.sample_count == samples + 3
        assert rep.f2_sign == "mixed" and not rep.hypotheses_hold
        # the scalar reference takes f2's sign over no sample as "+"
        assert rep == dataclasses.replace(_reference_report(zs, "alpha", samples), f2_sign="mixed")


def test_zero_set_analyses_solve_nothing(monkeypatch):
    import copz.stieltjes

    zs = find_zeros(ZeroProblem(make_family("meixner", alpha=0.5, beta=1.5), 2))

    def no_solve(problem):
        raise AssertionError("the zero set is given; nothing to solve")

    monkeypatch.setattr(copz.stieltjes, "find_zeros", no_solve)
    rep = hypothesis_report(zs, "beta", samples=40)
    system = build_stieltjes_system(zs, "beta")
    assert rep.hypotheses_hold
    assert system.zeros is zs
    assert system.diag_dominant and system.inverse_positive


def _verdict_fields(problem, param, rows):
    """(directions, reversals, claimed, agrees) of trajectory rows."""
    directions, reversals = [], 0
    for row in rows:
        diffs = [b - a for a, b in zip(row, row[1:])]
        if all(d > 0.0 for d in diffs):
            directions.append("increasing")
        elif all(d < 0.0 for d in diffs):
            directions.append("decreasing")
        else:
            directions.append("non-monotone")
            lead = 1.0 if diffs[0] > 0 else -1.0
            reversals += sum(1 for d in diffs if d * lead <= 0.0)
    claimed = next((c.direction for c in problem.family.claims() if c.param == param), None)
    agrees = None if claimed is None else all(d == claimed for d in directions)
    return tuple(directions), reversals, claimed, agrees


def _search(problem, param, t):
    return find_zeros(ZeroProblem(problem.family.with_param(param, float(t)), problem.degree))


def _jumps_past_half_gap(sets):
    """Per interval: do its zero sets move by more than half the sweep's
    smallest zero gap?"""
    half_gap = 0.5 * min(zs.min_gap_s for zs in sets)
    return [
        max(abs(u - v) for u, v in zip(s1.zeros_s, s2.zeros_s)) > half_gap
        for s1, s2 in zip(sets, sets[1:])
    ]


def _full_search_sweep(problem, param, window, samples=15):
    """The sweep with find_zeros at every point, on the same grid: the same
    first points, and up to three rounds of midpoints in the intervals that
    fail the jump test: (ts, trajectories, directions, reversals, claimed,
    agrees)."""
    ts = list(np.linspace(*window, max(3, samples)))
    sets = [_search(problem, param, t) for t in ts]
    for _ in range(3):
        failing = [] if problem.degree == 1 else _jumps_past_half_gap(sets)
        if not any(failing):
            break
        new_ts, new_sets = ts[:1], sets[:1]
        for k, fails in enumerate(failing):
            if fails:
                mid = 0.5 * (ts[k] + ts[k + 1])
                new_ts.append(mid)
                new_sets.append(_search(problem, param, mid))
            new_ts.append(ts[k + 1])
            new_sets.append(sets[k + 1])
        ts, sets = new_ts, new_sets
    rows = [[zs.zeros_X[j] for zs in sets] for j in range(problem.degree)]
    return (tuple(ts), rows, *_verdict_fields(problem, param, rows))


def _doubling_search_sweep(problem, param, window, samples=15):
    """The verdict of a sweep searched in full on evenly spaced grids, the
    point count doubled (at most three times) while any interval fails the
    jump test: (directions, reversals, claimed, agrees)."""
    count = max(3, samples)
    for _ in range(4):
        sets = [_search(problem, param, t) for t in np.linspace(*window, count)]
        if problem.degree == 1 or not any(_jumps_past_half_gap(sets)):
            break
        count *= 2
    rows = [[zs.zeros_X[j] for zs in sets] for j in range(problem.degree)]
    return _verdict_fields(problem, param, rows)


def _assert_matches_full_search(problem, param, window, samples=15):
    v = monotonicity_verdict(problem, param, window, samples=samples)
    ts, rows, directions, reversals, claimed, agrees = _full_search_sweep(
        problem, param, window, samples
    )
    label = (problem.family.kind, problem.degree, param)
    assert v.ts == ts, label
    assert (v.directions, v.reversals, v.claimed, v.agrees) == (
        directions, reversals, claimed, agrees
    ), label
    for got, want in zip(v.trajectories, rows):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), label
    return v


def test_tracked_sweeps_match_full_search_across_catalog():
    # continuation solves every point after the second from its neighbours;
    # each verdict must be the one that searching every point in full gives
    rng = random.Random(34)
    for kind in catalog_kinds():
        spec = make_family(kind, sample_params(kind, rng))
        for n in sorted({min(d, spec.degree_max) for d in (1, 2, 3)}):
            for claim in spec.claims():
                problem = ZeroProblem(spec, n)
                v = _assert_matches_full_search(problem, claim.param, claim.window)
                # subdividing only where zeros jump gives the verdict that
                # refining every interval gives
                assert (v.directions, v.reversals, v.claimed, v.agrees) == _doubling_search_sweep(
                    problem, claim.param, claim.window
                ), (kind, n, claim.param)


#: meixner's zeros move fast near alpha = 0.9: three rounds of midpoints
_REFINING = ZeroProblem(make_family("meixner", alpha=0.5, beta=0.41307764947001563), 2)


def test_sweep_searches_only_its_first_two_points(monkeypatch):
    import copz.stieltjes
    import copz.zeros

    calls = []

    def counted(problem):
        calls.append(problem)
        return copz.zeros.find_zeros(problem)

    monkeypatch.setattr(copz.stieltjes, "find_zeros", counted)
    spec = make_family("hahn", alpha=0.5, beta=1.0, N=8)
    v = monotonicity_verdict(ZeroProblem(spec, 3), "alpha", (-0.9, 3.0), samples=15)
    assert len(v.ts) == 15  # no jump refinement
    assert [c.family.params["alpha"] for c in calls] == list(v.ts[:2])
    # the midpoints of a refining sweep are tracked from their neighbours too
    calls.clear()
    v = monotonicity_verdict(_REFINING, "alpha", (0.1, 0.9), samples=15)
    assert len(v.ts) > 15
    assert [c.family.params["alpha"] for c in calls] == list(v.ts[:2])


def _recorded_sweep(monkeypatch):
    """The refining sweep, and each zero set it solved as (alpha, set), in
    the order solved."""
    import copz.stieltjes

    solved = []

    def spy(solve):
        def recorded(problem, *args):
            zs = solve(problem, *args)
            if zs is not None:
                solved.append((problem.family.params["alpha"], zs))
            return zs

        return recorded

    monkeypatch.setattr(copz.stieltjes, "track_zeros", spy(track_zeros))
    monkeypatch.setattr(copz.stieltjes, "find_zeros", spy(find_zeros))
    return monotonicity_verdict(_REFINING, "alpha", (0.1, 0.9), samples=15), solved


def test_refining_sweep_keeps_every_solved_point(monkeypatch):
    v, solved = _recorded_sweep(monkeypatch)
    coarse = list(np.linspace(0.1, 0.9, 15))
    assert len(v.ts) > len(coarse)
    assert all(t0 < t1 for t0, t1 in zip(v.ts, v.ts[1:]))
    # each point is solved once, the first grid first, and none is dropped
    assert sorted(t for t, _ in solved) == list(v.ts)
    assert [t for t, _ in solved[: len(coarse)]] == coarse
    # so the first grid is a subsequence, with the zero sets solved for it
    column = {t: i for i, t in enumerate(v.ts)}
    for t, zs in solved[: len(coarse)]:
        assert tuple(row[column[t]] for row in v.trajectories) == zs.zeros_X


def test_refining_sweep_adds_midpoints_only_where_zeros_jump(monkeypatch):
    v, solved = _recorded_sweep(monkeypatch)
    zero_sets = dict(solved)
    ts = list(np.linspace(0.1, 0.9, 15))
    rounds = 0
    while len(ts) < len(v.ts):
        failing = _jumps_past_half_gap([zero_sets[t] for t in ts])
        assert any(failing) and not all(failing), rounds
        ts = sorted(ts + [0.5 * (t0 + t1) for t0, t1, f in zip(ts, ts[1:], failing) if f])
        rounds += 1
        assert rounds <= 3
    assert ts == list(v.ts)
    assert rounds == 3


def test_track_zeros_certifies_or_returns_nothing():
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.5, N=12), 4)
    zs = find_zeros(problem).zeros_s
    gap = min(b - a for a, b in zip(zs, zs[1:]))
    # each zero inside its guess's cell: the bracket grows to its sign change
    tracked = track_zeros(problem, [z + 0.4 * gap for z in zs], [0.0] * 4)
    assert tracked.zeros_s == pytest.approx(zs, rel=1e-12)
    # every guess moved up by more than half the top gap leaves no zero in
    # the top cell, so the set is not certified
    shift = 0.6 * (zs[-1] - zs[-2])
    assert track_zeros(problem, [z + shift for z in zs], [0.0] * 4) is None
    # guesses out of order, or two alike, have no cells
    assert track_zeros(problem, [zs[1], zs[0], zs[2], zs[3]], [0.1] * 4) is None
    assert track_zeros(problem, [zs[0], zs[0], zs[2], zs[3]], [0.1] * 4) is None
    # one radius per guess: zip stopped at the shorter list, so 3 radii gave
    # a set of 3 zeros for this degree-4 problem
    assert track_zeros(problem, zs, [0.1] * 3) is None
    assert track_zeros(problem, zs, [0.1] * 5) is None
    # on an infinite q lattice an empty top cell grows its bracket until the
    # atom q^-s overflows: that is no result either, not an error
    problem = ZeroProblem(make_family("q_meixner", alpha=0.5, beta=0.5, q=0.5), 2)
    zs = find_zeros(problem).zeros_s
    assert track_zeros(problem, [zs[0], 4.0 * zs[1] - 3.0 * zs[0]], [0.0, 0.0]) is None
    # charlier alpha=2 has exact zeros at s=1 and s=4; a cell that ends on a
    # zero has no strict sign change, and must not lend that zero to both cells
    problem = ZeroProblem(make_family("charlier", alpha=2.0), 2)
    assert find_zeros(problem).zeros_s == (1.0, 4.0)
    assert track_zeros(problem, [0.5, 1.5], [0.0, 0.0]) is None
    # a guess below the support starts at its start: on x(s) = s(s+1) the
    # point s = -1 - y mirrors zero y, and a bracket from the guess itself
    # would pair signs across that mirror image
    problem = ZeroProblem(make_family("dual_hahn", a=0.3, alpha=0.5, N=12), 2)
    zs = find_zeros(problem).zeros_s
    tracked = track_zeros(problem, [-1.3 - zs[0], 10.0], [0.0, 0.0])
    assert tracked.zeros_s == pytest.approx(zs, rel=1e-12)
    # with both guesses below the support the first cell is empty
    assert track_zeros(problem, [-5.0, -4.5], [0.0, 0.0]) is None


def _capped_calls(monkeypatch, cap):
    """Make each one-point series call past the first cap raise, so a search
    that does not end fails instead of running on."""
    calls, lattice_atoms = [], copz.families._lattice_atoms

    def capped(base, exact):
        p, atoms, array_atoms = lattice_atoms(base, exact)

        def counted(s):
            calls.append(s)
            assert len(calls) <= cap, f"{len(calls)} one-point calls"
            return atoms(s)

        return p, counted, array_atoms

    monkeypatch.setattr(copz.families, "_lattice_atoms", capped)
    return calls


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_track_zeros_returns_nothing_on_a_guess_that_is_not_finite(monkeypatch, bad):
    # max(nan, lo) is nan: the bracket never reached its cell's ends and
    # grew forever; now the caller falls back to find_zeros at once
    calls = _capped_calls(monkeypatch, 200)
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=8), 1)
    assert track_zeros(problem, [bad], [0.5]) is None
    problem = ZeroProblem(problem.family, 2)
    assert track_zeros(problem, [2.0, bad], [0.5, 0.5]) is None
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_track_zeros_returns_nothing_on_a_radius_that_is_not_finite(monkeypatch, bad):
    calls = _capped_calls(monkeypatch, 200)
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=8), 1)
    assert track_zeros(problem, [2.0], [bad]) is None
    problem = ZeroProblem(problem.family, 2)
    assert track_zeros(problem, [2.0, 5.0], [0.5, bad]) is None
    assert calls == []


def test_sweep_falls_back_where_zeros_jump_past_their_cells(monkeypatch):
    # at samples=3 the secant guesses at alpha=0.9 miss: meixner's zero 2
    # (s=16.7) lies past its cell, which ends at s=8.5, and krawtchouk's top
    # guess (s=9.4) leaves the support, so each point is searched in full
    import copz.stieltjes

    results = []

    def spied(problem, guesses, radii):
        results.append(track_zeros(problem, guesses, radii))
        return results[-1]

    monkeypatch.setattr(copz.stieltjes, "track_zeros", spied)
    for kind, params in (
        ("meixner", {"alpha": 0.5, "beta": 0.5}),
        ("krawtchouk", {"alpha": 0.5, "N": 9}),
    ):
        results.clear()
        problem = ZeroProblem(make_family(kind, params), 3)
        _assert_matches_full_search(problem, "alpha", (0.1, 0.9), samples=3)
        assert results[0] is None, kind
