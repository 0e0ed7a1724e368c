import contextlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import copz.cli
import copz.qseries
import copz.zeros
from copz import (
    ZeroProblem,
    catalog_kinds,
    eq1_consistency,
    find_zeros,
    make_family,
    monotonicity_verdict,
    sample_params,
    separation_check,
    zero_derivatives_fd,
)
from copz.qseries import exact_summation
from oracles import reference_itp, samuelson_end

FLAGGED = {"q_bessel", "little_q_laguerre", "q_laguerre"}


def test_degree_one_zeros():
    zs = find_zeros(ZeroProblem(make_family("charlier", alpha=2.0), 1))
    assert zs.zeros_X == pytest.approx((2.0,), rel=1e-12)
    zs = find_zeros(ZeroProblem(make_family("krawtchouk", alpha=0.25, N=5), 1))
    assert zs.zeros_X == pytest.approx((1.0,), rel=1e-12)


def test_degree_one_closed_forms_more_families():
    # two-term expansions of the defining series
    alpha, beta = 0.4, 1.7
    z = find_zeros(ZeroProblem(make_family("meixner", alpha=alpha, beta=beta), 1))
    assert z.zeros_X[0] == pytest.approx(alpha * beta / (1 - alpha), rel=1e-10)
    q = 0.55
    z = find_zeros(ZeroProblem(make_family("al_salam_carlitz_2", alpha=0.9, q=q), 1))
    assert z.zeros_X[0] == pytest.approx(1.9, rel=1e-10)
    alpha, beta = 1.3, 0.8
    z = find_zeros(ZeroProblem(make_family("q_meixner", alpha=alpha, beta=beta, q=q), 1))
    assert z.zeros_X[0] == pytest.approx(1 + alpha * (1 - beta * q) / q, rel=1e-10)
    z = find_zeros(ZeroProblem(make_family("q_bessel", alpha=1.2, q=q), 1))
    assert z.zeros_X[0] == pytest.approx(1 / (1 + 1.2 * q), rel=1e-10)
    alpha, beta = 1.1, 0.7
    z = find_zeros(ZeroProblem(make_family("little_q_jacobi", alpha=alpha, beta=beta, q=q), 1))
    assert z.zeros_X[0] == pytest.approx((1 - alpha * q) / (1 - alpha * beta * q * q), rel=1e-10)
    a, alpha, beta, N = 0.8, 0.5, 1.2, 7
    z = find_zeros(ZeroProblem(make_family("racah", a=a, alpha=alpha, beta=beta, N=N), 1))
    expected = a * (a + 1) + (2 * a + alpha + N + 1) * (beta + 1) * (N - 1) / (alpha + beta + 2)
    assert z.zeros_X[0] == pytest.approx(expected, rel=1e-10)
    a, alpha, N = 0.6, 1.0, 8
    z = find_zeros(ZeroProblem(make_family("dual_hahn", a=a, alpha=alpha, N=N), 1))
    assert z.zeros_X[0] == pytest.approx(a * (a + 1) + (alpha + 1) * (N - 1), rel=1e-10)


def test_hahn_degree_four_zero_locations():
    spec = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    zs = find_zeros(ZeroProblem(spec, 4))
    assert len(zs) == 4
    assert all(0.0 < x < 4.0 for x in zs.zeros_X)
    assert zs.zeros_s == tuple(sorted(zs.zeros_s))
    # symmetric weight: zeros symmetric about the support midpoint
    mid = 2.0
    assert zs.zeros_X[0] + zs.zeros_X[3] == pytest.approx(2 * mid, abs=1e-9)


def test_residuals_are_small():
    rng = random.Random(5)
    for kind in ("hahn", "racah", "q_hahn", "q_racah", "meixner"):
        spec = make_family(kind, sample_params(kind, rng))
        zs = find_zeros(ZeroProblem(spec, min(4, spec.degree_max)))
        assert all(r < 1e-10 for r in zs.residuals)
        assert all(w <= 1e-11 * max(1.0, abs(s)) for w, s in zip(zs.bracket_widths, zs.zeros_s))


def test_zeros_x_direction_matches_grid():
    inc = find_zeros(ZeroProblem(make_family("q_hahn", alpha=0.8, beta=0.9, q=0.6, N=8), 3))
    assert list(inc.zeros_X) == sorted(inc.zeros_X)
    dec = find_zeros(ZeroProblem(make_family("little_q_jacobi", alpha=1.0, beta=0.5, q=0.5), 3))
    assert list(dec.zeros_X) == sorted(dec.zeros_X, reverse=True)
    assert list(dec.zeros_s) == sorted(dec.zeros_s)


def test_zeros_inside_support_image():
    rng = random.Random(7)
    for kind in catalog_kinds():
        spec = make_family(kind, sample_params(kind, rng))
        base = spec.resolve_base()
        n = min(3, spec.degree_max)
        zs = find_zeros(ZeroProblem(spec, n))
        g = base.grid
        lo_s, hi_s = base.support_start, base.support_end - 1.0
        if math.isfinite(hi_s):
            lo = min(g.x(lo_s), g.x(hi_s))
            hi = max(g.x(lo_s), g.x(hi_s))
            for y in zs.zeros_s:
                assert lo_s < y < hi_s
                assert lo < g.x(y) < hi


def test_separation_examples():
    zs = find_zeros(ZeroProblem(make_family("hahn", alpha=0.0, beta=0.0, N=6), 3))
    rep = separation_check(zs)
    assert rep.passed and rep.min_gap > 1.0
    zs = find_zeros(ZeroProblem(make_family("meixner", alpha=0.5, beta=1.0), 4))
    assert separation_check(zs).passed
    zs = find_zeros(ZeroProblem(make_family("charlier", alpha=1.0), 1))
    rep = separation_check(zs)
    assert rep.vacuous and rep.passed


def test_eq1_degree_one_charlier():
    spec = make_family("charlier", alpha=1.7)
    pr = ZeroProblem(spec, 1)
    zs = find_zeros(pr)
    rep = eq1_consistency(zs)
    assert rep.f_values[0] == pytest.approx(1.0, rel=1e-10)
    assert rep.residuals[0] < 1e-10
    assert not rep.flagged


def test_eq1_hahn_degree_two():
    spec = make_family("hahn", alpha=0.0, beta=0.0, N=5)
    pr = ZeroProblem(spec, 2)
    zs = find_zeros(pr)
    rep = eq1_consistency(zs)
    assert max(rep.residuals) < 1e-10


def test_eq1_flags_inconsistent_tables():
    q, alpha = 0.5, 1.1
    spec = make_family("little_q_laguerre", alpha=alpha, q=q)
    pr = ZeroProblem(spec, 1)
    zs = find_zeros(pr)
    # degree-1 zero at 1 - alpha q
    assert zs.zeros_X[0] == pytest.approx(1.0 - alpha * q, rel=1e-10)
    rep = eq1_consistency(zs)
    assert rep.flagged
    # tabulated ratio evaluates to -1/(q(1-alpha q)); the three-point value is 1/q
    assert rep.f_values[0] == pytest.approx(-1.0 / (q * (1 - alpha * q)), rel=1e-9)
    assert rep.rhs_values[0] == pytest.approx(1.0 / q, rel=1e-9)

    qb = make_family("q_bessel", alpha=1.3, q=0.5)
    pr = ZeroProblem(qb, 1)
    zs = find_zeros(pr)
    assert zs.zeros_X[0] == pytest.approx(1.0 / (1 + 1.3 * 0.5), rel=1e-10)
    rep = eq1_consistency(zs)
    assert rep.flagged
    assert rep.rhs_values[0] == pytest.approx(1.0 / 0.5, rel=1e-9)


def test_eq1_consistent_across_catalog():
    rng = random.Random(13)
    for kind in catalog_kinds():
        if kind in FLAGGED:
            continue
        spec = make_family(kind, sample_params(kind, rng))
        pr = ZeroProblem(spec, min(3, spec.degree_max))
        rep = eq1_consistency(find_zeros(pr))
        assert not rep.flagged, (kind, rep.residuals)


def test_zero_count_randomized():
    rng = random.Random(99)
    for kind in catalog_kinds():
        for _ in range(50):
            spec = make_family(kind, sample_params(kind, rng))
            n = rng.randint(1, min(5, spec.degree_max))
            zs = find_zeros(ZeroProblem(spec, n))
            assert len(zs) == n
            assert zs.zeros_s == tuple(sorted(zs.zeros_s))
            gaps = [b - a for a, b in zip(zs.zeros_s, zs.zeros_s[1:])]
            assert all(g > 0.0 for g in gaps)


def test_node_zero_residual_is_relative_to_neighbours():
    # s=3 is a sample of the scan and an exact zero: a width-zero bracket
    zs = find_zeros(ZeroProblem(make_family("krawtchouk", alpha=0.5, N=7), 3))
    assert zs.zeros_s == pytest.approx((1.0, 3.0, 5.0), abs=1e-12)
    assert zs.bracket_widths[1] == 0.0
    assert max(zs.residuals) < 1e-12


@pytest.mark.parametrize(
    "params, n",
    [
        ({"alpha": 0.5, "q": 0.3}, 24),
        ({"alpha": 0.5, "q": 0.3}, 25),
        ({"alpha": 0.5, "q": 0.3}, 26),
        ({"alpha": 6.305279308934954, "q": 0.10994905506345153}, 20),
    ],
    ids=["q0.3-n24", "q0.3-n25", "q0.3-n26", "q0.11-n20"],
)
def test_no_node_zero_beside_a_non_finite_sample(params, n):
    # near the top of the window the float values overflow to inf (from
    # s = 24 at q = 0.3, n = 25); an inf neighbour made the finite sample
    # before it a width-zero node zero, wrong at n = 25 and one too many at
    # n = 24.  Each zero must bracket a sign change of the exact series
    # within 1e-10 relative in X
    problem = ZeroProblem(make_family("al_salam_carlitz_2", params), n)
    zs = find_zeros(problem)
    base = problem.family.resolve_base()
    g = base.grid
    assert len(zs) == n
    # where the float value at a zero is inf, the float series does not
    # confirm it: its residual is inf, not the NaN of inf / inf
    unconfirmed = [not math.isfinite(base.eval_at_s(n, z)) for z in zs.zeros_s]
    assert [r == math.inf for r in zs.residuals] == unconfirmed
    for z in zs.zeros_s:
        half = 1e-10 * abs(g.x_raw(z)) / abs(g.dx_ds(z))
        with exact_summation():
            lo, hi = base.eval_at_s(n, z - half), base.eval_at_s(n, z + half)
        assert lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0), z


# ---------------------------------------------------------------------------
# find_zeros against the per-sample scan the array passes replaced
# ---------------------------------------------------------------------------


def _per_sample_scan(g, lo, hi, step, held=None):
    """zeros._scan with one call of g per sample, not its array pass g.many;
    it takes no value from held, the previous scan's samples."""
    count = max(2, int(round((hi - lo) / step)) + 1)
    ss = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    vs = [g(s) for s in ss]
    brackets = []
    prev_i = None
    for i, v in enumerate(vs):
        nbr = max(
            abs(vs[i - 1]) if i > 0 and math.isfinite(vs[i - 1]) else 0.0,
            abs(vs[i + 1]) if i + 1 < count and math.isfinite(vs[i + 1]) else 0.0,
        )
        if v == 0.0 or abs(v) < copz.zeros._NODE_TOL * nbr:
            brackets.append((ss[i], ss[i], nbr, nbr))
            continue
        if prev_i is not None:
            if vs[prev_i] * v < 0.0 and not any(
                b[0] == b[1] and ss[prev_i] < b[0] < ss[i] for b in brackets
            ):
                brackets.append((ss[prev_i], ss[i], vs[prev_i], v))
        prev_i = i
    return brackets, (np.array(ss), np.array(vs))


def _zero_outcome(problem):
    """Every field of the ZeroSet by its bits, or the exception and its diagnostics."""
    try:
        zs = find_zeros(problem)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "diagnostics", None)
    fields = (zs.zeros_s, zs.zeros_X, zs.residuals, zs.bracket_widths)
    return zs.problem, [[v.hex() for v in f] for f in fields]


#: the high-degree cases of the ROADMAP Baseline, the window-growth golden
#: case, and the overflow cases of the CLI tests
_ORACLE_CASES = [
    ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 60}, 30),
    ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 60}, 59),
    ("krawtchouk", {"alpha": 0.4, "N": 60}, 30),
    ("krawtchouk", {"alpha": 0.4, "N": 60}, 59),
    ("racah", {"a": 0.5, "alpha": 0.4, "beta": 1.1, "N": 60}, 30),
    ("racah", {"a": 0.5, "alpha": 0.4, "beta": 1.1, "N": 60}, 59),
    ("dual_hahn", {"a": 0.5, "alpha": 0.7, "N": 60}, 30),
    ("dual_hahn", {"a": 0.5, "alpha": 0.7, "N": 60}, 59),
    ("meixner", {"alpha": 0.5, "beta": 1.5}, 30),
    ("q_hahn", {"alpha": 0.5, "beta": 0.6, "q": 0.99, "N": 60}, 30),
    ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 60}, 59),
    ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 60}, 59),
    ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30),
    ("little_q_jacobi", {"alpha": 1.0, "beta": 0.5, "q": 0.8}, 10),
    ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.05}, 30),
    ("quantum_q_krawtchouk", {"alpha": 1e300, "q": 0.5, "N": 10}, 5),
]


def _oracle_problems():
    rng = random.Random(2024)
    fixed = [ZeroProblem(make_family(k, p), n) for k, p, n in _ORACLE_CASES]
    drawn = []
    for kind in catalog_kinds():
        spec = make_family(kind, sample_params(kind, rng))
        drawn.append(ZeroProblem(spec, rng.randint(1, min(7, spec.degree_max))))
    return fixed + drawn


def _table_g(values, step):
    """g at the samples i * step of a scan from 0: values[i], by one call or
    by an array pass."""

    def g(s):
        return values[round(s / step)]

    g.many = lambda ss: np.array([g(s) for s in np.asarray(ss).tolist()])
    return g


def _scan_tables(rng):
    """(values, step): float series values a scan may meet, on scans below,
    at and above _ARRAY_SCAN samples.  Each table draws sign changes, zeros
    of either sign, values within the node tolerance of their neighbours or
    exactly at it, and products that underflow or overflow; node zeros sit
    on both ends of the window.  Three tables of each size also draw NaN and
    +-inf and set node zeros beside an inf; a fourth holds finite values."""
    gate = copz.zeros._ARRAY_SCAN
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 1e-200, -1e-200,
               1e200, -1e200, 3e-14, -3e-14, 5e-324]
    finite = [v for v in special if math.isfinite(v)]
    counts = (11, gate - 1, gate, gate + 1, 3 * gate + 7)
    tables = []
    for count, step, drawn in [
        *((c, s, special) for c in counts for s in (0.5, 0.125, 0.125)),
        *((c, 0.125, finite) for c in counts),
    ]:
        values = [
            rng.choice(drawn) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
            for _ in range(count)
        ]
        values[:3] = [0.0, 1.0, -1.0]  # a node zero on the window's first sample
        values[-3:] = [-1.0, 1e-20, 1.0]  # and within the tolerance on its last
        if drawn is special:
            # node zeros beside an inf: exactly zero, and small beside a finite neighbour
            values[4:8] = [-1.0, 0.0, math.inf, 2.0]
            values[8:12] = [1.0, 1e-20, -math.inf, math.nan]
        # exactly at the node tolerance, so not a node zero
        values[12:15] = [1.0, copz.zeros._NODE_TOL, -0.5]
        # tiny neighbours whose product underflows to -0.0, so no pair
        values[15:19] = [1e-200, -1e-200, 1e-200, -1e-200]
        tables.append((values, step))
    return tables


def test_find_zeros_matches_the_per_sample_scan(monkeypatch):
    # the scan itself, on both sides of _ARRAY_SCAN, bracket by bracket
    # through the bits of each value
    gate, hexed = copz.zeros._ARRAY_SCAN, lambda bs: [tuple(map(float.hex, b)) for b in bs]
    sizes = set()
    for values, step in _scan_tables(random.Random(21)):
        g, hi = _table_g(values, step), (len(values) - 1) * step
        brackets, (ss, vs) = copz.zeros._scan(g, 0.0, hi, step)
        want, (want_ss, want_vs) = _per_sample_scan(g, 0.0, hi, step)
        assert hexed(brackets) == hexed(want), (len(values), step)
        lost = ss[~np.isfinite(vs)].tolist()
        assert lost == want_ss[~np.isfinite(want_vs)].tolist()
        sizes.add((len(values) >= gate, bool(lost)))
    assert sizes == {(False, False), (False, True), (True, False), (True, True)}
    # then whole searches, whose scans take both paths
    paths = set()
    for name in ("_array_brackets", "_looped_brackets"):
        finder = getattr(copz.zeros, name)
        monkeypatch.setattr(copz.zeros, name, lambda *a, n=name, f=finder: paths.add(n) or f(*a))
    problems = _oracle_problems()
    got = [_zero_outcome(p) for p in problems]
    assert paths == {"_array_brackets", "_looped_brackets"}
    monkeypatch.setattr(copz.zeros, "_scan", _per_sample_scan)
    want = [_zero_outcome(p) for p in problems]
    for problem, g, w in zip(problems, got, want):
        assert g == w, (problem.family.kind, problem.degree)
    # the cases cover zero sets, count failures and each overflow source
    raised = {g[0] for g in got if isinstance(g[0], type)}
    assert {copz.ZeroCountError, copz.EvaluationOverflowError} <= raised
    assert sum(isinstance(g[0], ZeroProblem) for g in got) >= 25


def test_a_short_count_reports_the_last_scans_non_finite_samples():
    # 25 of 30 sign changes at every step: the error
    # names the samples of the step-1/8 scan where the float series is NaN
    # or inf, as the per-sample scan over the whole window finds them
    problem = ZeroProblem(make_family("big_q_jacobi_special", alpha=5.0, beta=5.0, q=0.1), 30)
    with pytest.raises(copz.ZeroCountError) as err:
        find_zeros(problem)
    got = err.value.diagnostics
    step, a = copz.zeros._STEPS[-1], problem.family.support_start
    g = problem.family.resolve_base()._at_s(30)
    brackets, (ss, vs) = _per_sample_scan(g, a, a + got["window"], step)
    lost = ss[~np.isfinite(vs)].tolist()
    assert got[f"count_at_step_{step}"] == len(brackets) < 30
    assert (got["nonfinite_samples"], got["first_nonfinite_s"]) == (len(lost), lost[0])
    assert type(got["first_nonfinite_s"]) is float and len(lost) == 38


# ---------------------------------------------------------------------------
# find_zeros against outcomes recorded before the two support branches merged
# ---------------------------------------------------------------------------

#: the oracle problems above, the zeros_high_degree seed-1 benchmark cases that
#: reached the largest doubled window or steps 1/4 and 1/8, and the meixner
#: draw of `verify-all --seed 20`, which needed three doubled windows
ZERO_OUTCOMES = json.loads((Path(__file__).parent / "data" / "zero_outcomes.json").read_text())


def _recorded_problem(case):
    params = {k: float.fromhex(v) if isinstance(v, str) else v for k, v in case["params"].items()}
    return ZeroProblem(make_family(case["kind"], params), case["n"])


@pytest.mark.parametrize(
    "case", ZERO_OUTCOMES, ids=[f"{c['kind']}-{c['n']}-{i}" for i, c in enumerate(ZERO_OUTCOMES)]
)
def test_find_zeros_matches_recorded_outcomes(case):
    problem = _recorded_problem(case)
    fields = ("zeros_s", "zeros_X", "residuals", "bracket_widths")
    try:
        zs = find_zeros(problem)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        assert type(exc).__name__ == case.get("raises"), exc
        return
    assert "raises" not in case
    assert {f: [v.hex() for v in getattr(zs, f)] for f in fields} == {f: case[f] for f in fields}


#: every q^s-lattice case of the zeros_high_degree benchmark: slots 13 and
#: 90-99, which keep their centres, so the same cases at seeds 1-5.  Recorded
#: while the windows still doubled, each scan summing every sample to its
#: end; slot 13's count failure now quotes its one window
Q_EXP_OUTCOMES = json.loads((Path(__file__).parent / "data" / "q_exp_outcomes.json").read_text())


@pytest.mark.parametrize("case", Q_EXP_OUTCOMES, ids=[f"slot-{c['slot']}" for c in Q_EXP_OUTCOMES])
def test_q_exp_searches_match_recorded_outcomes(case):
    # the zeros by their bits, or the error's type, text and diagnostics
    recorded = {k: v for k, v in case.items() if k not in ("slot", "kind", "params", "n")}
    try:
        zs = find_zeros(_recorded_problem(case))
    except copz.CopzError as exc:
        got = {"raises": type(exc).__name__, "message": str(exc),
               "diagnostics": getattr(exc, "diagnostics", None)}
    else:
        got = {f: [v.hex() for v in getattr(zs, f)] for f in recorded}
    assert got == recorded


def test_q_exp_searches_stop_summing_at_the_tail(monkeypatch):
    # seed-1 slots 13, 93, 95 and 96 grew their doubled windows to the
    # largest and rescanned them: summed to the window's end, their scans took
    # 54,788 distinct samples.  One window past the bound on the zeros takes
    # a few hundred
    scan, samples = copz.zeros._scan, set()

    def recorded(*args):
        out = scan(*args)
        samples.update(out[1][0].tolist())
        return out

    monkeypatch.setattr(copz.zeros, "_scan", recorded)
    total = 0
    for case in Q_EXP_OUTCOMES:
        if case["slot"] in (13, 93, 95, 96):
            samples.clear()
            try:
                find_zeros(_recorded_problem(case))
            except copz.ZeroCountError:
                pass
            total += len(samples)
    assert total <= 1000


def test_verify_scans_take_the_loop(monkeypatch, capsys):
    # copz verify scans 11-51 samples at a time, below _ARRAY_SCAN, where one
    # loop over the samples costs less than the array passes' numpy calls
    counts = []
    looped = copz.zeros._looped_brackets
    monkeypatch.setattr(copz.zeros, "_array_brackets", None)
    monkeypatch.setattr(
        copz.zeros, "_looped_brackets", lambda ss, vs: counts.append(len(ss)) or looped(ss, vs)
    )
    argv = ["verify", "--family", "meixner", "--n", "3",
            "--set", "alpha=0.7168482900438996", "--set", "beta=2.404502717505038"]
    assert copz.cli.main(argv) == 0
    assert "verify meixner: PASS" in capsys.readouterr().out
    assert max(counts) == 51 < copz.zeros._ARRAY_SCAN


def test_failed_window_growth_reports_the_scans_it_ran():
    # the flagged q-Bessel table finds 27 sign changes in its one window, 50
    # units; the count failure quotes the step-1/4 scan of that window
    with pytest.raises(copz.ZeroCountError, match="^q_bessel: found 39 sign changes, expected 30$") as err:
        find_zeros(ZeroProblem(make_family("q_bessel", alpha=1.0, q=0.95), 30))
    diag = err.value.diagnostics
    assert diag["window"] == 50.0
    assert diag["count_at_step_0.5"] == 27
    assert diag["count_at_step_0.25"] == 39
    assert "count_at_step_0.125" not in diag


def _scans_run(monkeypatch):
    """Record each scan's samples, as a list, and its bracket count, as the
    bracket finders see them."""
    scans = []
    for name in ("_array_brackets", "_looped_brackets"):
        finder = getattr(copz.zeros, name)

        def recorded(ss, vs, finder=finder):
            brackets = finder(ss, vs)
            scans.append((np.asarray(ss).tolist(), len(brackets)))
            return brackets

        monkeypatch.setattr(copz.zeros, name, recorded)
    return scans


@pytest.mark.parametrize(
    "kind, params, n, scans",
    [
        # the flagged q-Bessel table: a count failure from its one window
        ("q_bessel", {"alpha": 1.0, "q": 0.95}, 30, [(50.0, 0.5, 101, 27), (50.0, 0.25, 201, 39)]),
        # zeros_high_degree seed-1 slot 93, with a zero on the window's first
        # sample: the step-1/2 scan finds 14 of 15 sign changes
        ("little_q_jacobi",
         {"alpha": 0.5322822863482816, "beta": 0.5195442457881403, "q": 0.5807318495734701}, 15,
         [(16.0, 0.5, 33, 14), (16.0, 0.25, 65, 14), (16.0, 0.125, 129, 15)]),
    ],
    ids=["q-bessel-count-error", "slot-93"],
)
def test_window_growth_keeps_its_scans_and_outcome(monkeypatch, kind, params, n, scans):
    # two searches that rescan their window, and once grew it to the
    # largest: every scan's window end, step, samples and bracket count, and
    # the whole outcome, error text and diagnostics included
    problem = ZeroProblem(make_family(kind, params), n)
    scan, run = copz.zeros._scan, []

    def recorded(g, lo, hi, step, held):
        out = scan(g, lo, hi, step, held)
        run.append((hi, step, len(out[1][0]), len(out[0])))
        return out

    monkeypatch.setattr(copz.zeros, "_scan", recorded)
    got = _zero_outcome(problem)
    assert run == scans
    if kind == "q_bessel":
        assert got == (
            copz.ZeroCountError,
            "q_bessel: found 39 sign changes, expected 30",
            {"kind": "q_bessel", "degree": 30, "window": 50.0,
             "count_at_step_0.5": 27, "count_at_step_0.25": 39},
        )
    else:
        (case,) = [c for c in ZERO_OUTCOMES if _recorded_problem(c) == problem]
        fields = ("zeros_s", "zeros_X", "residuals", "bracket_widths")
        assert got == (problem, [case[f] for f in fields])


@pytest.mark.parametrize("kind", catalog_kinds())
def test_a_search_plans_its_series_once(monkeypatch, kind):
    # find_zeros and track_zeros each plan the float series once, for all
    # their samples, one-point calls and array passes alike
    plans, runs, plan = [], [], copz.qseries._plan

    def counted(*args):
        run = plan(*args)
        plans.append(args[-1])
        return lambda x: runs.append(x) or run(x)

    monkeypatch.setattr(copz.qseries, "_plan", counted)
    spec = make_family(kind, sample_params(kind, random.Random(f"one-plan/{kind}")))
    problem = ZeroProblem(spec, min(3, spec.degree_max))
    zs = find_zeros(problem)
    assert plans == [problem.degree] and len(runs) > 10
    plans.clear()
    runs.clear()
    radii = [1e-3 * max(1.0, abs(z)) for z in zs.zeros_s]
    assert len(copz.zeros.track_zeros(problem, zs.zeros_s, radii)) == problem.degree
    assert plans == [problem.degree] and len(runs) > 2


def test_searches_sum_each_scan_sample_once(monkeypatch):
    # over the recorded outcomes: the array passes of a search's scans take
    # each of its distinct samples once, whatever the rescans repeat, and a
    # pass whose first value is finite sums every point in it, with no
    # one-point call
    passes, singles, refining = [], [], []
    lattice_atoms, at_s, refine = (
        copz.families._lattice_atoms, copz.families.FamilySpec._at_s, copz.zeros._refined
    )

    def counted_atoms(base, exact):
        p, atoms, array_atoms = lattice_atoms(base, exact)
        return p, lambda s: singles.append(s) or atoms(s), array_atoms

    def counted_passes(self, n):
        g = at_s(self, n)
        many = g.many

        def recorded(ss):
            before = len(singles)
            out = many(ss)
            summed = len(out) > 1 and math.isfinite(out[0])
            passes.append((np.asarray(ss).tolist(), summed, len(singles) - before, bool(refining)))
            return out

        g.many = recorded
        return g

    def refined(*args):
        refining.append(True)
        return refine(*args)

    monkeypatch.setattr(copz.families, "_lattice_atoms", counted_atoms)
    monkeypatch.setattr(copz.families.FamilySpec, "_at_s", counted_passes)
    monkeypatch.setattr(copz.zeros, "_refined", refined)
    scans = _scans_run(monkeypatch)
    rescanned = summed_passes = 0
    for case in ZERO_OUTCOMES:
        for record in (passes, scans, refining):
            record.clear()
        try:
            find_zeros(_recorded_problem(case))
        except copz.CopzError:
            pass
        # the passes made before the refinement starts are the scans'
        scanned = [s for ss, _, _, late in passes if not late for s in ss]
        samples = {s for ss, _ in scans for s in ss}
        assert len(scanned) == len(set(scanned)) and set(scanned) == samples, case["kind"]
        rescanned += len(scans) > 1
        for _, summed, calls, _ in passes:
            if summed:
                summed_passes += 1
                assert calls == 0, case["kind"]
    # rescans, and many passes, are covered
    assert rescanned >= 10 and summed_passes >= 100


def test_short_count_names_the_non_finite_samples():
    # the base's (little q-Jacobi) float series is NaN at s <= 4.5 here, and
    # no sign change pairs across a NaN sample
    problem = ZeroProblem(make_family("big_q_jacobi_special", alpha=5.0, beta=5.0, q=0.1), 30)
    with pytest.raises(copz.ZeroCountError) as err:
        find_zeros(problem)
    diag = err.value.diagnostics
    assert diag["count_at_step_0.125"] == 25
    assert diag["first_nonfinite_s"] == 0.0
    assert diag["nonfinite_samples"] == 38
    assert str(err.value) == (
        "big_q_jacobi_special: found 25 sign changes, expected 30; the float series is not"
        " finite at 38 samples of the step-0.125 scan, the first at s=0.0"
    )


@pytest.mark.parametrize(
    "kind, params",
    [
        ("racah", {"a": 1e18, "alpha": 0.5, "beta": 0.5, "N": 9}),
        ("dual_hahn", {"a": 1e18, "alpha": 0.5, "N": 9}),
    ],
)
def test_collapsed_finite_window_is_scanned_once(monkeypatch, kind, params):
    # a + N - 1 == a in float: the window (a, b-1) has width 0 and cannot grow
    spec = make_family(kind, params)
    assert spec.support_end - 1.0 == spec.support_start
    scan, calls = copz.zeros._scan, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 50:
            raise RuntimeError("the window search does not stop")
        return scan(*args)

    monkeypatch.setattr(copz.zeros, "_scan", counted)
    with pytest.raises(copz.ZeroCountError, match=f"^{kind}: found 0 sign changes, expected 2$"):
        find_zeros(ZeroProblem(spec, 2))
    assert len(calls) == len(copz.zeros._STEPS)


# ---------------------------------------------------------------------------
# the one window of an infinite-support search
# ---------------------------------------------------------------------------

#: every kind on an infinite support, aliases included
_INFINITE_KINDS = (
    "charlier", "meixner", "q_meixner", "q_charlier", "al_salam_carlitz_1",
    "al_salam_carlitz_2", "q_bessel", "little_q_jacobi", "little_q_laguerre",
    "big_q_jacobi_special", "q_laguerre",
)


def test_the_infinite_kinds_are_the_catalogs():
    rng = random.Random(0)
    infinite = {k for k in catalog_kinds() if not make_family(k, sample_params(k, rng)).is_finite}
    assert infinite == set(_INFINITE_KINDS)


@pytest.mark.parametrize("kind", _INFINITE_KINDS)
def test_the_window_ends_past_the_samuelson_bound(kind):
    # the window's end against the bound from the polynomial expanded over
    # Fraction: never short of it, and within the one unit W rounds up by
    rng = random.Random(f"window/{kind}")
    for n in (1, 2, 3, 10, 20, 30):
        for _ in range(3):
            spec = make_family(kind, sample_params(kind, rng))
            want, end = samuelson_end(spec, n), copz.zeros._window_end(spec, n)
            assert want <= end <= max(want, spec.support_start) + 1.0, (n, spec.params)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("q_meixner", {"alpha": 1.0, "beta": 0.5}),
        ("q_charlier", {"alpha": 1.0}),
        ("al_salam_carlitz_2", {"alpha": 0.5}),
    ],
)
def test_a_window_whose_bound_cannot_be_formed_is_the_widest(kind, params):
    # at q = 1e-300 the series' parameter q**-2 overflows, so the bound is not
    # formed; the window is the widest, and the scan's first sample raises
    # the overflow, named for the family asked for, not its base
    spec = make_family(kind, {**params, "q": 1e-300})
    problem = ZeroProblem(spec, 2)
    assert copz.zeros._window_end(spec, 2) == spec.support_start + 4096.0
    with pytest.raises(copz.EvaluationOverflowError) as err:
        find_zeros(problem)
    assert str(err.value) == f"{kind}: the degree-2 value at s=0.0 overflows the float range"
    assert copz.zeros.track_zeros(problem, [1.0, 3.0], [0.5, 0.5]) is None


def test_an_infinite_search_scans_one_window(monkeypatch):
    # over the recorded outcomes on infinite supports, zero sets and count
    # failures alike: every scan of a search shares one end, the window's
    scan, ends = copz.zeros._scan, []

    def recorded(g, lo, hi, step, held=None):
        ends.append(hi)
        return scan(g, lo, hi, step, held)

    monkeypatch.setattr(copz.zeros, "_scan", recorded)
    rescanned = failed = 0
    for case in ZERO_OUTCOMES + Q_EXP_OUTCOMES:
        problem = _recorded_problem(case)
        if problem.family.is_finite:
            continue
        ends.clear()
        try:
            find_zeros(problem)
        except copz.ZeroCountError as exc:
            failed += 1
            assert exc.diagnostics["window"] == ends[0] - problem.family.support_start
        except copz.CopzError:
            pass
        assert set(ends) == {copz.zeros._window_end(problem.family, problem.degree)}, case["kind"]
        rescanned += len(ends) > 1
    assert rescanned >= 3 and failed >= 3


def test_a_tracked_set_forms_the_window_end_only_where_its_last_bracket_grows(monkeypatch):
    # track_zeros clips its last cell at find_zeros' window end, which it
    # forms only where that cell's bracket has no sign change at its first try
    problem = ZeroProblem(make_family("meixner", alpha=0.5, beta=1.5), 3)
    zs = find_zeros(problem).zeros_s
    window_end, ends = copz.zeros._window_end, []
    monkeypatch.setattr(copz.zeros, "_window_end", lambda *a: ends.append(a) or window_end(*a))
    tracked = copz.zeros.track_zeros(problem, zs, [0.25] * 3)
    assert tracked.zeros_s == pytest.approx(zs, rel=1e-12) and ends == []
    # the last guess past its zero by a third of the gap, radius 0: the
    # bracket grows, and the end is formed once
    guesses = [*zs[:2], zs[2] + (zs[2] - zs[1]) / 3.0]
    tracked = copz.zeros.track_zeros(problem, guesses, [0.0] * 3)
    assert tracked.zeros_s == pytest.approx(zs, rel=1e-12)
    assert ends == [(problem.family, 3)]
    # a last guess past the window's end starts from it, and a bracket that
    # reaches both ends of its empty cell is no result
    end = window_end(problem.family, 3)
    ends.clear()
    assert copz.zeros.track_zeros(problem, [*zs[1:], 2.0 * end], [0.0] * 3) is None
    assert len(ends) == 1


# ---------------------------------------------------------------------------
# bracket refinement by Chandrupatla's method
# ---------------------------------------------------------------------------


def _counted(g):
    calls = []

    def wrapped(s):
        calls.append(s)
        return g(s)

    return wrapped, calls


def _bisection_calls(lo, hi):
    """Series calls of plain bisection from width hi - lo down to the stopping width."""
    tol = copz.zeros._WIDTH_REL * max(1.0, abs(0.5 * (lo + hi)))
    return math.ceil(math.log2((hi - lo) / tol)), tol


@pytest.mark.parametrize("upper", [1.0, 1e9, 1e-9])
def test_refinement_keeps_the_bisection_bound_on_a_sign_only_function(upper):
    # a step at an irrational point: the values carry no slope, and when the
    # two sides differ in size regula falsi creeps along one end
    root = math.sqrt(2.0)
    lo, hi = 1.0, 1.5
    bisection, tol = _bisection_calls(lo, hi)
    g, calls = _counted(lambda s: -1.0 if s < root else upper)
    z, width = copz.zeros._drive(copz.zeros._chandrupatla(lo, hi, -1.0, upper), g)
    assert len(calls) <= bisection + 1
    assert 0.0 < width <= tol
    assert abs(z - root) <= tol


def test_refinement_returns_an_exact_hit_with_width_zero():
    g, calls = _counted(lambda s: s - 0.25)
    assert copz.zeros._drive(copz.zeros._chandrupatla(0.0, 0.5, -0.25, 0.25), g) == (0.25, 0.0)
    assert calls == [0.25]


@pytest.mark.parametrize("shape", [3, 5, 9, 15, "atan"])
def test_tracked_refinement_keeps_its_bound_on_flat_and_steep_zeros(shape):
    # an odd power (s - r)^p is flat at its zero, where inverse quadratic
    # steps creep (p = 3 took 1.23 times bisection's count plus one without
    # the bisection guard), and atan(k (s - r)) is a step of any steepness:
    # the stepper's docstring bounds both by bisection's count plus 2
    rng = random.Random(f"flat-and-steep/{shape}")
    for _ in range(200):
        r = rng.uniform(-100.0, 100.0)
        lo, hi = r - 10.0 ** rng.uniform(-8.0, 1.0), r + 10.0 ** rng.uniform(-8.0, 1.0)
        if shape == "atan":
            k = 10.0 ** rng.uniform(0.0, 12.0)
            f = lambda s, r=r, k=k: math.atan(k * (s - r))
        else:
            f = lambda s, r=r, p=shape: (s - r) ** p
        g, calls = _counted(f)
        z, width = copz.zeros._drive(copz.zeros._chandrupatla(lo, hi, f(lo), f(hi)), g)
        bisection, tol = _bisection_calls(lo, hi)
        assert len(calls) <= bisection + 2, (lo, hi)
        assert width <= tol and abs(z - r) <= tol, (lo, hi)


def test_tracked_refinement_of_a_sweep_takes_a_third_fewer_calls_than_itp(monkeypatch):
    # the brackets track_zeros hands on over one fixed sweep: Chandrupatla's
    # method takes half of the calls of ITP (tests/oracles.reference_itp)
    # there (156 against 316)
    tracked, tracking = [], []
    refine, track = copz.zeros._refined, copz.stieltjes.track_zeros

    def recorded(problem, g, brackets):
        if tracking:
            tracked.extend((g, b) for b in brackets)
        return refine(problem, g, brackets)

    def tracked_solve(*args):
        tracking.append(True)
        try:
            return track(*args)
        finally:
            tracking.clear()

    monkeypatch.setattr(copz.zeros, "_refined", recorded)
    monkeypatch.setattr(copz.stieltjes, "track_zeros", tracked_solve)
    problem = ZeroProblem(make_family("hahn", alpha=0.5, beta=1.0, N=15), 3)
    copz.monotonicity_verdict(problem, "alpha", (0.1, 0.9))
    assert len(tracked) > 30
    steppers = (copz.zeros._chandrupatla, reference_itp)
    totals = dict.fromkeys(steppers, 0)
    for g, (sl, sr, gl, gr) in tracked:
        for stepper in steppers:
            counted, calls = _counted(g)
            copz.zeros._drive(stepper(sl, sr, gl, gr), counted)
            assert len(calls) <= _bisection_calls(sl, sr)[0] + 2
            totals[stepper] += len(calls)
    assert totals[copz.zeros._chandrupatla] <= 2 / 3 * totals[reference_itp]


def _inside_trace(steps, lo, hi, glo, g):
    """Drive a stepper by g, checking that each trial point lies strictly
    inside the bracket the values so far leave; its (zero, width)."""
    gx = None
    try:
        while True:
            x = steps.send(gx)
            assert lo < x < hi, (x, lo, hi)
            gx = g(x)
            if (glo < 0.0) == (gx < 0.0):
                lo, glo = x, gx
            else:
                hi = x
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tracked_steps_stay_inside_the_bracket(seed):
    # smooth, sign-only, NaN and inf end values, exact hits, brackets just
    # above the stopping width and rounding noise: every trial point inside
    # the bracket, at most bisection's count plus 2 of them, and the zero
    # inside the final one
    for lo, hi, glo, ghi, f in _bracket_cases(seed):
        g, calls = _counted(f)
        z, width = _inside_trace(copz.zeros._chandrupatla(lo, hi, glo, ghi), lo, hi, glo, g)
        assert len(calls) <= _bisection_calls(lo, hi)[0] + 2, (lo, hi, glo, ghi)
        assert lo <= z <= hi and 0.0 <= width <= hi - lo, (lo, hi, glo, ghi)
        assert width > 0.0 or f(z) == 0.0
        if f(0.5 * (lo + hi)) == 0.0:  # the first trial point, an exact hit
            assert (z, width) == (0.5 * (lo + hi), 0.0)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("krawtchouk", {"alpha": 0.3, "N": 20}),
        ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 15}),
        ("q_hahn", {"alpha": 0.5, "beta": 0.6, "q": 0.9, "N": 20}),
    ],
)
def test_refinement_of_smooth_brackets_takes_half_of_bisections_calls(kind, params):
    base = make_family(kind, params).resolve_base()
    n = 10
    brackets, _ = copz.zeros._scan(base._at_s(n), base.support_start, base.support_end - 1.0, 0.5)
    assert len(brackets) == n
    for sl, sr, gl, gr in brackets:
        if sl == sr:
            continue
        g, calls = _counted(lambda s: base.eval_at_s(n, s))
        copz.zeros._drive(copz.zeros._chandrupatla(sl, sr, gl, gr), g)
        assert len(calls) <= _bisection_calls(sl, sr)[0] / 2, (sl, sr)


def _bracket_cases(seed):
    """(lo, hi, glo, ghi, g) brackets of each kind the stepper meets, drawn from seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        # smooth: a cubic or quartic with one root in the bracket, either sign
        roots = sorted(rng.uniform(-50.0, 50.0) for _ in range(rng.choice((3, 4))))
        j = rng.randrange(len(roots))
        lo = max(roots[j - 1] if j else -60.0, roots[j] - rng.uniform(1e-6, 2.0))
        hi = min(roots[j + 1] if j + 1 < len(roots) else 60.0, roots[j] + rng.uniform(1e-6, 2.0))
        lo, hi = 0.5 * (lo + roots[j]), 0.5 * (hi + roots[j])
        scale = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-30.0, 30.0)
        g = lambda s, rs=roots, c=scale: c * math.prod(s - r for r in rs)
        out.append((lo, hi, g(lo), g(hi), g))
        # sign only, from ends of any size, and from equal ones, where the
        # regula falsi point is the midpoint (mid - xf = 0.0) or an ulp off
        root = rng.uniform(lo, hi)
        upper = rng.choice((1.0, 1e9, 1e-9, rng.uniform(0.1, 10.0)))
        step = lambda s, r=root, u=upper: -1.0 if s < r else u
        out.append((lo, hi, -1.0, upper, step))
        out.append((lo, hi, -1.0, 1.0, lambda s, r=root: -1.0 if s < r else 1.0))
        # an exact hit: a line through a dyadic midpoint
        a, w = rng.randint(-1000, 1000) / 8.0, rng.randint(1, 64) / 16.0
        out.append((a - w, a + w, -w, w, lambda s, a=a: s - a))
        # an infinite end value, the regula falsi point then NaN or an end
        ends = rng.choice(((-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf),
                           (math.inf, -1.0)))
        out.append((lo, hi, *ends, lambda s, r=root, e=ends: e[0] if s < r else e[1]))
        # a width just above the stopping width 2 eps
        s0 = rng.uniform(-5000.0, 5000.0)
        two_eps = copz.zeros._WIDTH_REL * max(1.0, abs(s0))
        top = s0 + two_eps * (1.0 + rng.choice((1e-15, 1e-9, 1e-3, 0.5)))
        line = lambda s, r=rng.uniform(s0, top): s - r
        out.append((s0, top, line(s0), line(top), line))
        # rounding noise, as the float series is at high degree on N=60
        # supports: a sign with no pattern and |g| from 1e8 to 1e11, a
        # function of s drawn from the seed, on a half-step scan bracket
        def noise(s, salt=rng.random()):
            r = random.Random(f"{salt}/{s.hex()}")
            return r.choice((-1.0, 1.0)) * 10.0 ** r.uniform(8.0, 11.0)

        s0 = rng.randint(0, 118) / 2.0
        out.append((s0, s0 + 0.5, -abs(noise(s0)), abs(noise(s0 + 0.5)), noise))
    return out


def _refinement_points(monkeypatch):
    """Record what _refined and a read of a set's residuals evaluate: the
    points of each run of the float series' plan, one for a scalar call and
    one per sample of an array pass, and the size of each array pass.  Scan
    samples are not recorded."""
    points, passes, refining = [], [], []

    def series_points(series):
        def counted(*args):
            out = series(*args)
            if refining:
                points.append(np.size(out))
            return out

        return counted

    def counted_passes(self, n):
        g = at_s(self, n)
        many = g.many

        def pass_size(ss):
            if refining:
                passes.append(len(ss))
            return many(ss)

        g.many = pass_size
        return g

    def recording(fn):
        def recorded(*args):
            refining.append(True)
            try:
                return fn(*args)
            finally:
                refining.clear()

        return recorded

    at_s = copz.families.FamilySpec._at_s
    plan = copz.qseries._plan
    monkeypatch.setattr(copz.qseries, "_plan", lambda *args: series_points(plan(*args)))
    monkeypatch.setattr(copz.families.FamilySpec, "_at_s", counted_passes)
    monkeypatch.setattr(copz.zeros, "_refined", recording(copz.zeros._refined))
    residuals = recording(copz.zeros.ZeroSet.residuals.func)
    monkeypatch.setattr(copz.zeros.ZeroSet, "residuals", property(residuals))
    return points, passes


#: points the refinement evaluates per zero over the recorded outcomes, its
#: residual included: 31.5 when each bracket was bisected, 12.9 by ITP and
#: 14.2 by Chandrupatla's method.  On the 7 sets where the float series is
#: rounding noise in some brackets (hahn, krawtchouk, racah and dual_hahn at
#: N=60, meixner at degrees 20 and 30) that is 19.4 against ITP's 16.9, and
#: on the rest 6.5 against 7.0
SERIES_CALLS_PER_ZERO = 16.0


def test_series_calls_per_zero_over_the_recorded_outcomes(monkeypatch):
    # each refinement step and each residual, one at a time or in lockstep
    points, _ = _refinement_points(monkeypatch)
    zeros = 0
    for case in ZERO_OUTCOMES:
        try:
            zs = find_zeros(_recorded_problem(case))
        except copz.CopzError:
            continue
        zeros += len(zs.residuals)
    assert zeros == sum(len(case.get("zeros_s", ())) for case in ZERO_OUTCOMES)
    assert sum(points) / zeros <= SERIES_CALLS_PER_ZERO


HAHN_30 = {"alpha": 0.5, "beta": 1.0, "N": 30}


@pytest.mark.parametrize(
    "kind, params, n, lockstep",
    [
        ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 60}, 59, True),
        ("hahn", HAHN_30, copz.zeros._LOCKSTEP - 1, False),
        ("hahn", HAHN_30, copz.zeros._LOCKSTEP, True),
        # the quadratic and the q-quadratic lattice, their passes summed as blocks
        ("dual_hahn", {"a": 0.0, "alpha": 0.5, "N": 50}, 49, True),
        ("q_racah", {"a": 0.8, "alpha": 0.5, "beta": 0.9, "q": 0.9, "N": 30}, 29, True),
    ],
    ids=["59-brackets", "below-lockstep", "at-lockstep", "dual-hahn-49-brackets",
         "q-racah-29-brackets"],
)
def test_wide_sets_refine_in_lockstep(monkeypatch, kind, params, n, lockstep):
    problem = ZeroProblem(make_family(kind, params), n)
    base = problem.family.resolve_base()
    for step in copz.zeros._STEPS:  # as find_zeros scans a finite support
        brackets, _ = copz.zeros._scan(
            base._at_s(n), base.support_start, base.support_end - 1.0, step
        )
        if len(brackets) >= n:
            break
    assert len(brackets) == n
    # the reference refines one bracket at a time through eval_at_s
    ref = {"zeros_s": [], "bracket_widths": [], "residuals": []}
    for sl, sr, gl, gr in brackets:
        z, w = copz.zeros._drive(
            copz.zeros._chandrupatla(sl, sr, gl, gr), lambda s: base.eval_at_s(n, s)
        )
        ref["zeros_s"].append(z.hex())
        ref["bracket_widths"].append(w.hex())
        ref["residuals"].append((abs(base.eval_at_s(n, z)) / max(abs(gl), abs(gr), 1e-300)).hex())
    _, passes = _refinement_points(monkeypatch)
    blocks, block_sum = [], copz.qseries._block_sum
    monkeypatch.setattr(
        copz.qseries, "_block_sum", lambda ratio: blocks.append(ratio.shape[1]) or block_sum(ratio)
    )
    zs = find_zeros(problem)
    assert {f: [v.hex() for v in getattr(zs, f)] for f in ref} == ref
    # one array pass per round of steps, and one for the residuals
    steps = max(_bisection_calls(sl, sr)[0] + 1 for sl, sr, _, _ in brackets if sl < sr)
    assert len(passes) <= steps + 2
    assert bool(passes) == lockstep
    if lockstep:
        # the first round holds every bracket of positive width, the last
        # pass the n residuals
        assert passes[0] == sum(sl < sr for sl, sr, _, _ in brackets) >= copz.zeros._LOCKSTEP
        assert passes[-1] == n
        # a round runs only while enough brackets are open to fill a pass
        assert min(passes) >= copz.zeros._LOCKSTEP
        # and each pass is summed as one block, all its points
        assert blocks[-len(passes):] == passes


# ---------------------------------------------------------------------------
# residuals, computed when read
# ---------------------------------------------------------------------------


def _started_brackets(monkeypatch):
    """The brackets each _refined call starts from, in call order."""
    started, refine = [], copz.zeros._refined

    def recorded(problem, g, brackets):
        started.append(list(brackets))
        return refine(problem, g, brackets)

    monkeypatch.setattr(copz.zeros, "_refined", recorded)
    return started


def _one_point_residuals(zs, brackets):
    """The residuals as the search itself computed them before they were
    read lazily: |P| at each zero by one eval_at_s call, under the
    summation in force, over the larger end value of its starting bracket."""
    base, n = zs.problem.family.resolve_base(), zs.problem.degree
    out = []
    for z, (_, _, gl, gr) in zip(zs.zeros_s, brackets):
        v = base.eval_at_s(n, z)
        out.append(abs(v) / max(abs(gl), abs(gr), 1e-300) if math.isfinite(v) else math.inf)
    return [r.hex() for r in out]


def _check_read_residuals(monkeypatch, problem, exact=False):
    """find_zeros and track_zeros around its zeros, run under exact summation
    where exact is set, and their residuals read outside it: each value the
    one-point value of the search's summation, by its bits."""
    started = _started_brackets(monkeypatch)
    with exact_summation() if exact else contextlib.nullcontext():
        found = find_zeros(problem)
        tracked = copz.zeros.track_zeros(problem, found.zeros_s, [0.25] * problem.degree)
        sets = [found] if tracked is None else [found, tracked]
    for zs, brackets in zip(sets, started):
        assert "residuals" not in vars(zs)  # nothing evaluated before the read
        got = [r.hex() for r in zs.residuals]
        with exact_summation() if exact else contextlib.nullcontext():
            assert got == _one_point_residuals(zs, brackets)
    monkeypatch.undo()
    return len(sets)


@pytest.mark.parametrize("kind", catalog_kinds())
def test_residuals_read_later_are_the_searchs_own(monkeypatch, kind):
    spec = make_family(kind, sample_params(kind, random.Random(kind)))
    tracked = 0
    for n in range(1, min(3, spec.degree_max) + 1):
        tracked += _check_read_residuals(monkeypatch, ZeroProblem(spec, n)) - 1
        # a set built under exact summation reads its g under it too
        tracked += _check_read_residuals(monkeypatch, ZeroProblem(spec, n), exact=True) - 1
    assert tracked


@pytest.mark.parametrize("kind, params, n", _ORACLE_CASES, ids=[f"{k}-{n}" for k, _, n in _ORACLE_CASES])
def test_high_degree_residuals_read_later_are_the_searchs_own(monkeypatch, kind, params, n):
    # the lockstep refinement's sets, and one pass for their residuals
    problem = ZeroProblem(make_family(kind, params), n)
    try:
        find_zeros(problem)
    except copz.CopzError:
        return  # the recorded outcomes check the error
    _check_read_residuals(monkeypatch, problem)


def test_sweeps_and_finite_differences_evaluate_no_residual(monkeypatch):
    reads, residuals = [], copz.zeros.ZeroSet.residuals.func
    monkeypatch.setattr(
        copz.zeros.ZeroSet, "residuals", property(lambda zs: reads.append(zs) or residuals(zs))
    )
    for kind, params, n in [
        ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 12}, 3),
        ("q_meixner", {"alpha": 0.5, "beta": 0.5, "q": 0.5}, 2),
    ]:
        problem = ZeroProblem(make_family(kind, params), n)
        claim = problem.family.claims()[0]
        monotonicity_verdict(problem, claim.param, claim.window, samples=7)
        zero_derivatives_fd(problem, claim.param)
        assert reads == []
    find_zeros(problem).residuals  # the spy sees a read
    assert len(reads) == 1
