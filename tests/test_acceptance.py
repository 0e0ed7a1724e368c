"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria cover degree-one closed-form zeros, the catalogued monotonicity
statements for all eighteen families, the zero-derivative system against
finite differences with its matrix structure, lattice curvature closed forms,
zero separation, orthogonality, the four identity oracles, support-extension
interlacing with the connection formula, the three-point consistency check
with its documented inconsistent-table reports, and byte-identical
deterministic verification output.
"""

import io
import random
from contextlib import redirect_stdout

import pytest

from copz import (
    CORE_FAMILIES,
    WeightPositivityError,
    ZeroProblem,
    build_stieltjes_system,
    catalog_kinds,
    eq1_consistency,
    find_zeros,
    gram_offdiag_max,
    hypothesis_report,
    interlace_check,
    make_family,
    monotonicity_verdict,
    pearson_residual_max,
    sample_params,
    weight_table,
    zero_derivatives_fd,
)
from copz.cli import main as cli_main
from copz.grid import QUADRATIC, Q_ANTISYMMETRIC, Q_SYMMETRIC, Grid
from copz.qseries import (
    chu_vandermonde,
    hyper_sum,
    q_chu_vandermonde,
    q_pfaff_saalschutz,
    q_pochhammer,
    qhyper_sum,
    sheppard,
)
from copz.stieltjes import b_entry
from oracles import b_antisymmetric_closed, b_quadratic_closed, b_symmetric_closed

FLAGGED = ("q_bessel", "little_q_laguerre", "q_laguerre")


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_degree_one_closed_forms():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.2, 4.0)
        z = find_zeros(ZeroProblem(make_family("charlier", alpha=alpha), 1)).zeros_X[0]
        worst = max(worst, abs(z - alpha) / alpha)
    for _ in range(20):
        alpha, N = rng.uniform(0.05, 0.95), rng.randint(3, 20)
        z = find_zeros(ZeroProblem(make_family("krawtchouk", alpha=alpha, N=N), 1)).zeros_X[0]
        expected = alpha * (N - 1)
        worst = max(worst, abs(z - expected) / expected)
    for _ in range(20):
        alpha, beta, N = rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0), rng.randint(3, 20)
        z = find_zeros(
            ZeroProblem(make_family("hahn", alpha=alpha, beta=beta, N=N), 1)
        ).zeros_X[0]
        expected = (beta + 1) * (N - 1) / (alpha + beta + 2)
        worst = max(worst, abs(z - expected) / expected)
    for _ in range(20):
        q = rng.uniform(0.3, 0.9)
        alpha = rng.uniform(0.1, 0.95) / q
        z = find_zeros(
            ZeroProblem(make_family("little_q_laguerre", alpha=alpha, q=q), 1)
        ).zeros_X[0]
        expected = 1.0 - alpha * q
        worst = max(worst, abs(z - expected) / abs(expected))
    _report(1, worst < 1e-10, f"degree-1 closed-form zeros, worst relative {worst:.2e}")


def test_criterion_02_all_family_monotonicity_statements():
    rng = random.Random(202)
    checked = 0
    failures = []
    for kind in CORE_FAMILIES:
        for ctx in range(3):
            params = sample_params(kind, rng)
            spec = make_family(kind, params)
            for n in (1, 2, 3):
                if n > spec.degree_max:
                    continue
                problem = ZeroProblem(spec, n)
                for claim in spec.claims():
                    v = monotonicity_verdict(problem, claim.param, claim.window, samples=15)
                    checked += 1
                    if not v.agrees or v.reversals != 0:
                        failures.append((kind, claim.param, n, ctx, v.directions))
    ok = not failures and checked >= 18 * 3 * 3
    _report(
        2,
        ok,
        f"{checked} sweeps across {len(CORE_FAMILIES)} families, "
        f"strictly monotone in the catalogued direction; failures: {failures[:4]}",
    )


def test_criterion_03_zero_derivative_system():
    instances = [
        ("hahn", dict(alpha=0.4, beta=1.1, N=9)),
        ("charlier", dict(alpha=2.2)),
        ("krawtchouk", dict(alpha=0.35, N=10)),
        ("meixner", dict(alpha=0.55, beta=1.4)),
        ("racah", dict(a=0.8, alpha=0.3, beta=1.2, N=7)),
        ("dual_hahn", dict(a=0.6, alpha=1.0, N=8)),
        ("q_meixner", dict(alpha=1.4, beta=0.5, q=0.55)),
        ("al_salam_carlitz_2", dict(alpha=1.1, q=0.6)),
        ("q_hahn", dict(alpha=0.7, beta=0.8, q=0.55, N=8)),
        ("quantum_q_krawtchouk", dict(alpha=1.8 * 0.6 ** (1 - 8), q=0.6, N=8)),
        ("q_racah", dict(a=0.9, alpha=0.4, beta=1.1, q=0.6, N=7)),
        ("dual_q_hahn", dict(a=0.8, alpha=1.0, q=0.6, N=8)),
    ]
    grids = set()
    worst = 0.0
    flags_ok = True
    hyp_ok = True
    for kind, params in instances:
        spec = make_family(kind, params)
        grids.add(spec.grid.tag)
        problem = ZeroProblem(spec, min(3, spec.degree_max))
        zs = find_zeros(problem)
        for claim in spec.claims():
            rep = hypothesis_report(zs, claim.param)
            if not rep.hypotheses_hold:
                hyp_ok = False
                continue
            system = build_stieltjes_system(zs, claim.param)
            fd = zero_derivatives_fd(problem, claim.param)
            mism = max(
                abs(a - b) / max(abs(a), abs(b), 1e-10)
                for a, b in zip(system.solution, fd)
            )
            worst = max(worst, mism)
            flags_ok &= (
                system.offdiag_negative
                and system.diag_dominant
                and system.inverse_positive
            )
    ok = (
        hyp_ok
        and flags_ok
        and worst < 1e-4
        and {"linear", "quadratic", "q_exp_neg", "q_symmetric"} <= grids
    )
    _report(
        3,
        ok,
        f"{len(instances)} instances over lattices {sorted(grids)}; "
        f"worst derivative mismatch {worst:.2e}; matrix flags all hold: {flags_ok}",
    )


def test_criterion_04_lattice_curvature_closed_forms():
    rng = random.Random(404)
    worst_q = 0.0
    worst_s = 0.0
    in_interval = True
    for _ in range(50):
        yj, yk = rng.uniform(0.2, 9.0), rng.uniform(0.2, 9.0)
        gq = Grid(QUADRATIC)
        worst_q = max(
            worst_q,
            abs(b_entry(gq, yj, yk) - b_quadratic_closed(yj, yk))
            / abs(b_quadratic_closed(yj, yk)),
        )
        q = rng.uniform(0.35, 0.95)
        gs = Grid(Q_SYMMETRIC, q)
        yj2, yk2 = rng.uniform(0.7, 8.0), rng.uniform(0.7, 8.0)
        closed = b_symmetric_closed(gs.theta, yj2, yk2)
        worst_s = max(worst_s, abs(b_entry(gs, yj2, yk2) - closed) / abs(closed))
        # the containment needs a moderate rate: |b| <= 4*theta*tanh(theta)
        qa = rng.uniform(0.45, 0.95)
        ga = Grid(Q_ANTISYMMETRIC, qa)
        yj3, yk3 = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
        val = b_entry(ga, yj3, yk3)
        closed_a = b_antisymmetric_closed(ga.theta, yj3, yk3)
        in_interval &= -1.0 < val < 0.0 and abs(val - closed_a) <= 1e-10 * abs(closed_a) + 1e-12
    ok = worst_q < 1e-10 and worst_s < 1e-10 and in_interval
    _report(
        4,
        ok,
        f"50 sampled pairs per lattice: quadratic {worst_q:.2e}, "
        f"symmetric {worst_s:.2e}, antisymmetric entries inside (-1, 0): {in_interval}",
    )


def test_criterion_05_zero_separation_where_ratio_positive():
    rng = random.Random(505)
    asserted = 0
    violations = []
    for kind in catalog_kinds():
        if kind in FLAGGED:
            continue
        for _ in range(4):
            spec = make_family(kind, sample_params(kind, rng))
            for n in (2, 3):
                if n > spec.degree_max:
                    continue
                zs = find_zeros(ZeroProblem(spec, n))
                base = spec.resolve_base()
                try:
                    f_pos = all(base.monotonicity_f(y) > 0.0 for y in zs.zeros_s)
                except Exception:
                    f_pos = False
                if not f_pos:
                    continue
                asserted += 1
                if zs.min_gap_s <= 1.0:
                    violations.append((kind, dict(spec.params), n, zs.min_gap_s))
    ok = asserted >= 100 and not violations
    _report(
        5,
        ok,
        f"{asserted} instances with positive coefficient ratio on the zero set; "
        f"gap violations: {violations[:3]}",
    )


def test_criterion_06_orthogonality_and_pearson():
    rng = random.Random(606)
    worst_gram = 0.0
    worst_pearson = 0.0
    checked = []
    fixed = [
        ("hahn", dict(alpha=0.4, beta=1.2, N=40)),
        ("krawtchouk", dict(alpha=0.3, N=35)),
        ("racah", dict(a=0.5, alpha=0.4, beta=1.1, N=30)),
        ("q_hahn", dict(alpha=0.5, beta=0.6, q=0.6, N=20)),
        ("q_racah", dict(a=0.8, alpha=0.3, beta=0.9, q=0.6, N=14)),
    ]
    for kind in catalog_kinds():
        if kind in FLAGGED:
            continue
        specs = [make_family(kind, sample_params(kind, rng))]
        specs += [make_family(k, p) for k, p in fixed if k == kind]
        for spec in specs:
            kmax = min(8, spec.degree_max)
            table = weight_table(spec, degree_hint=kmax)
            worst_gram = max(worst_gram, gram_offdiag_max(spec, kmax, table))
            worst_pearson = max(worst_pearson, pearson_residual_max(spec, table))
            checked.append(kind)
    flags = 0
    for kind in FLAGGED:
        spec = make_family(kind, sample_params(kind, rng))
        with pytest.raises(WeightPositivityError):
            weight_table(spec)
        flags += 1
    ok = worst_gram < 1e-8 and worst_pearson < 1e-12 and flags == len(FLAGGED)
    _report(
        6,
        ok,
        f"{len(checked)} weight-consistent instances: gram {worst_gram:.2e}, "
        f"pearson {worst_pearson:.2e}; {flags} inconsistent tables flagged",
    )


def test_criterion_07_identity_oracles():
    rng = random.Random(707)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 6)
        N = rng.randint(n + 1, 14)
        a = rng.uniform(-0.45, 1.8)
        alpha = rng.uniform(max(-1.0, a) + 0.05, 2 * a + 0.95)
        b, c = 2 * a - alpha, 1.0 - N
        worst = max(
            worst,
            abs(chu_vandermonde(n, b, c) - hyper_sum((-n, b), (c,), 1.0, n))
            / max(abs(chu_vandermonde(n, b, c)), 1e-30),
        )
    for _ in range(100):
        n = rng.randint(1, 6)
        N = rng.randint(n + 1, 14)
        a = rng.uniform(0.0, 1.8)
        alpha = rng.uniform(-0.8, 2.0)
        beta = rng.uniform(max(-1.0, 2 * a) + 0.02, 2 * a + 0.98)
        A, B, C = alpha + beta + n + 1, 2 * a - beta, 2 * a + alpha + N + 1
        closed = sheppard(n, A, B, C)
        series = hyper_sum((-n, A, B), (C, 1 + A + B - C - n), 1.0, n)
        worst = max(worst, abs(closed - series) / max(abs(closed), 1e-30))
    for _ in range(100):
        n = rng.randint(1, 6)
        q = rng.uniform(0.35, 0.9)
        N = rng.randint(n + 1, 12)
        a = rng.uniform(0.15, 1.8)
        alpha = rng.uniform(-0.8, 1.5)
        beta = rng.uniform(max(-1.0, 2 * a - 1.0) + 0.05, 2 * a - 0.05)
        A = q ** (alpha + beta + n + 1)
        B = q ** (2 * a - beta - 1)
        C = q ** (2 * a + alpha + N)
        closed = q_pfaff_saalschutz(n, A, B, C, q)
        series = qhyper_sum((q**-n, A, B), (C, A * B * q ** (1 - n) / C), q, q, n)
        worst = max(worst, abs(closed - series) / max(abs(closed), 1e-30))
    for _ in range(100):
        n = rng.randint(1, 6)
        q = rng.uniform(0.35, 0.9)
        N = rng.randint(n + 1, 12)
        a = rng.uniform(0.3, 1.8)
        alpha = rng.uniform(max(-1.0, 2 * a - 1.0) + 0.05, 2 * a - 0.05)
        b, c = q ** (2 * a - alpha - 1), q ** (1 - N)
        closed = q_chu_vandermonde(n, b, c, q)
        series = qhyper_sum((q**-n, b), (c,), q, q, n)
        worst = max(worst, abs(closed - series) / max(abs(closed), 1e-30))

    # the exact instantiations used at the zero-free-gap edges
    n, a, alpha, beta, N = 2, 1.0, 0.5, 0.5, 6
    v1 = sheppard(n, alpha + beta + n + 1, 2 * a - beta, 2 * a + alpha + N + 1)
    exact1 = abs(
        v1
        - hyper_sum(
            (-n, alpha + beta + n + 1, 2 * a - beta),
            (2 * a + alpha + N + 1, 1 - N),
            1.0,
            n,
        )
    ) / abs(v1)
    q, n, a, alpha, N = 0.55, 2, 0.9, 0.7, 6
    beta = 1.2
    A, B, C = q ** (alpha + beta + n + 1), q ** (2 * a - beta - 1), q ** (2 * a + alpha + N)
    v2 = q_pfaff_saalschutz(n, A, B, C, q)
    expl2 = (
        q_pochhammer(q ** (2 * a - beta + N - n - 1), q, n)
        * q_pochhammer(q ** (alpha + beta + N + 1), q, n)
        / (q_pochhammer(q ** (2 * a + alpha + N), q, n) * q_pochhammer(q ** (N - n), q, n))
    )
    exact2 = abs(v2 - expl2) / abs(expl2)
    worst = max(worst, exact1, exact2)
    _report(7, worst < 1e-11, f"four identity oracles, 100 draws each, worst {worst:.2e}")


def test_criterion_08_interlacing_and_connection():
    rng = random.Random(808)
    count = 0
    worst_conn = 0.0
    cases = set()
    ok = True
    while count < 50:
        beta = rng.uniform(-0.9, 4.0)
        N = rng.randint(5, 20)
        n = rng.randint(1, min(5, N - 1))
        params = {"alpha": 0.0, "beta": beta}
        rep = interlace_check("hahn", params, n, N)
        ok &= rep.weight_shared and rep.zones_ok
        cases.add(rep.case)
        worst_conn = max(worst_conn, rep.connection)
        count += 1
    ok &= worst_conn < 1e-7
    _report(
        8,
        ok,
        f"{count} shared-weight instances, cases seen {sorted(cases)}, "
        f"worst connection residual {worst_conn:.2e}",
    )


def test_criterion_09_three_point_consistency():
    rng = random.Random(909)
    worst = 0.0
    for kind in catalog_kinds():
        if kind in FLAGGED:
            continue
        for _ in range(2):
            spec = make_family(kind, sample_params(kind, rng))
            for n in (1, 2, 3):
                if n > spec.degree_max:
                    continue
                pr = ZeroProblem(spec, n)
                rep = eq1_consistency(find_zeros(pr))
                worst = max(worst, max(rep.residuals))
    consistent_ok = worst < 1e-6

    # reproducible degree-1 discrepancy reports for the flagged tables
    q, alpha = 0.5, 1.1
    lql = make_family("little_q_laguerre", alpha=alpha, q=q)
    pr = ZeroProblem(lql, 1)
    rep = eq1_consistency(find_zeros(pr))
    flag_ok = (
        rep.flagged
        and rep.f_values[0] == pytest.approx(-1.0 / (q * (1 - alpha * q)), rel=1e-8)
        and rep.rhs_values[0] == pytest.approx(1.0 / q, rel=1e-8)
    )
    qb = make_family("q_bessel", alpha=1.4, q=0.6)
    pr = ZeroProblem(qb, 1)
    repb = eq1_consistency(find_zeros(pr))
    flag_ok &= repb.flagged and repb.rhs_values[0] == pytest.approx(1.0 / 0.6, rel=1e-8)
    ok = consistent_ok and flag_ok
    _report(
        9,
        ok,
        f"consistent tables worst residual {worst:.2e}; "
        f"flagged tables reproduce the degree-1 discrepancy: {flag_ok}",
    )


def test_criterion_10_deterministic_verification():
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["verify-all", "--seed", "42"])
        return code, buf.getvalue()

    code1, out1 = run()
    code2, out2 = run()
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    _report(
        10,
        ok,
        f"verify-all --seed 42 twice: exit codes ({code1}, {code2}), "
        f"byte-identical: {out1 == out2} ({len(out1)} bytes)",
    )
