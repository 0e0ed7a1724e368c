import csv
import gc
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import copz
from copz import make_family
from copz.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_zeros_json():
    code, out, _ = run_cli(
        [
            "zeros",
            "--family",
            "hahn",
            "--n",
            "3",
            "--set",
            "alpha=0.5",
            "--set",
            "beta=1",
            "--set",
            "N=10",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["zeros_x"]) == 3
    assert all(0.0 < z < 9.0 for z in payload["zeros_x"])


def test_sweep_csv_degree_one_charlier():
    code, out, _ = run_cli(
        [
            "sweep",
            "--family",
            "charlier",
            "--n",
            "1",
            "--param",
            "alpha",
            "--from",
            "0.5",
            "--to",
            "4",
            "--steps",
            "8",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "z1"]
    assert len(rows) == 9
    for t, z1 in rows[1:]:
        assert float(z1) == pytest.approx(float(t), rel=1e-10)


def test_invalid_input_exit_code_and_message():
    code, _, err = run_cli(
        ["zeros", "--family", "krawtchouk", "--n", "1", "--set", "alpha=1.2", "--set", "N=5"]
    )
    assert code == 2
    assert "alpha" in err and "0 < alpha < 1" in err


def test_verify_racah_example():
    code, out, _ = run_cli(
        [
            "verify",
            "--family",
            "racah",
            "--set",
            "a=1",
            "--set",
            "alpha=0",
            "--set",
            "beta=0.5",
            "--set",
            "N=6",
            "--n",
            "3",
        ]
    )
    assert code == 0
    assert "eq1: PASS" in out
    assert "orthogonality: PASS" in out
    assert "verify racah: PASS" in out


def test_verify_reports_an_eq1_check_without_finite_residual_as_not_checked():
    # q = 1e-160: the values beside the one zero and the scalar A, B tables
    # leave the float range; no residual is finite, and nothing may go to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["verify", "--family", "little_q_laguerre", "--set", "alpha=0.5",
             "--set", "q=1e-160", "--n", "1"]
        )
    assert (caught, err) == ([], "")
    line = "[little_q_laguerre] eq1: NOT CHECKED (no finite residual; 1 of 1 zeros anomalous)"
    assert line in out.splitlines()
    assert "eq1: PASS" not in out
    # the report of the sign hypotheses counts the non-finite samples against f > 0
    assert "hypotheses[alpha]: f>0 False" in out
    assert (code, out.splitlines()[-1]) == (0, "verify little_q_laguerre: PASS")


def test_families_listing_json():
    code, out, _ = run_cli(["families", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    kinds = {f["kind"] for f in payload["families"]}
    assert {"hahn", "q_racah", "al_salam_carlitz_1"} <= kinds


def test_stieltjes_json_flags():
    code, out, _ = run_cli(
        [
            "stieltjes",
            "--family",
            "meixner",
            "--n",
            "2",
            "--param",
            "beta",
            "--set",
            "alpha=0.5",
            "--set",
            "beta=1.5",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    flags = payload["flags"]
    assert flags["offdiag_negative"] and flags["diag_dominant"] and flags["inverse_positive"]
    assert len(payload["solution"]) == 2
    for a, b in zip(payload["solution"], payload["fd_solution"]):
        assert a == pytest.approx(b, rel=1e-4)


def test_interlace_text_and_not_applicable():
    code, out, _ = run_cli(
        [
            "interlace",
            "--family",
            "hahn",
            "--n",
            "2",
            "--set",
            "alpha=0",
            "--set",
            "beta=0.5",
            "--set",
            "N=6",
        ]
    )
    assert code == 0
    assert "interior-interlace" in out
    code, out, _ = run_cli(
        [
            "interlace",
            "--family",
            "krawtchouk",
            "--n",
            "2",
            "--set",
            "alpha=0.5",
            "--set",
            "N=6",
        ]
    )
    assert code == 0
    assert "not-applicable" in out


def test_sweep_over_the_support_size_is_invalid_input():
    # N takes integers only, so a sweep over it has no continuous direction
    code, out, err = run_cli(
        ["sweep", "--family", "hahn", "--set", "N=10", "--set", "alpha=0.5", "--set", "beta=1",
         "--n", "3", "--param", "N", "--from", "4", "--to", "60", "--steps", "57"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: hahn has no continuous parameter 'N'\n"


@pytest.mark.parametrize(
    "ends, named",
    [(("0", "nan"), "(0.0, nan)"), (("0", "inf"), "(0.0, inf)"), (("-inf", "1"), "(-inf, 1.0)")],
)
def test_sweep_over_a_non_finite_range_is_invalid_input(ends, named):
    # the unset alpha is seeded from the range only once both ends are
    # finite, so make_family never rejects a NaN or inf as if it were given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["sweep", "--family", "hahn", "--set", "N=10", "--set", "beta=1", "--n", "3",
             "--param", "alpha", f"--from={ends[0]}", f"--to={ends[1]}"]
        )
    assert code == 2
    assert out == ""
    assert err == f"error: sweep range {named} is not finite\n"


def test_sweep_names_the_range_end_it_seeds_an_unset_parameter_with():
    # the unset alpha is seeded from the range's lower end, the sweep's
    # first point, so the error names a value the caller gave, not -2.0
    code, out, err = run_cli(
        ["sweep", "--family", "hahn", "--set", "beta=1", "--set", "N=10", "--n", "2",
         "--param", "alpha", "--from", "-5", "--to", "1"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: hahn: alpha must satisfy alpha > -1 (got -5.0)\n"


def test_unknown_family_is_invalid_input():
    code, _, err = run_cli(["zeros", "--family", "nope", "--n", "1"])
    assert code == 2
    assert "unknown family" in err


def test_out_file(tmp_path):
    target = tmp_path / "zeros.json"
    code, out, _ = run_cli(
        [
            "zeros",
            "--family",
            "charlier",
            "--n",
            "2",
            "--set",
            "alpha=2",
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == 1


@pytest.mark.parametrize("N", ["6.7", "inf", "nan"])
def test_interlace_rejects_non_integer_support_size(N):
    code, out, err = run_cli(
        ["interlace", "--family", "hahn", "--n", "2",
         "--set", "alpha=0", "--set", "beta=0.5", "--set", f"N={N}"]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: hahn: N must satisfy integer 2..60 (got {N})\n"


def test_interlace_rejects_support_size_without_room_for_n_plus_one():
    code, out, err = run_cli(
        ["interlace", "--family", "hahn", "--n", "2",
         "--set", "alpha=0", "--set", "beta=0.5", "--set", "N=60"]
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: hahn: interlacing compares N with N+1, so N must satisfy "
        "N+1 <= 60 (got 60)\n"
    )


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "5"], ["--n", "6", "--force"]])
def test_interlace_degree_outside_the_cap_is_invalid_input(flags):
    # krawtchouk's weight shape depends on N; a degree outside 1..N-1 is
    # invalid input, not a not-applicable report with exit 0
    code, out, err = run_cli(
        ["interlace", "--family", "krawtchouk", "--set", "alpha=0.5", "--set", "N=5", *flags]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: degree {flags[1]} outside 1..4 for krawtchouk\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(copz.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    done = subprocess.run(
        [sys.executable, "-m", "copz", "families", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(["families", "--format", "json"])[1]
    bad = subprocess.run(
        [sys.executable, "-m", "copz", "zeros", "--family", "nope", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "kind, sets",
    [
        ("hahn", ["alpha=0.5", "beta=1", "N=10"]),  # a finite support
        ("little_q_jacobi", ["alpha=0.5", "beta=0.5", "q=0.5"]),  # the q^s lattice
        ("q_charlier", ["alpha=1", "q=0.5"]),  # an alias
        ("q_bessel", ["alpha=1", "q=0.5"]),  # a flagged, sign-inconsistent table
    ],
)
def test_verify_frees_what_it_builds_without_the_cycle_collector(kind, sets):
    # a pass whose objects die by reference counting leaves the collector no
    # work: the search functions of its sweeps and solves hold no cycle
    argv = ["verify", "--family", kind, "--n", "2"]
    for item in sets:
        argv += ["--set", item]
    run_cli(argv)  # imports and module-level caches are built once
    gc.collect()
    gc.disable()
    try:
        code, _, err = run_cli(argv)
        assert gc.collect() == 0
        g = make_family(kind, dict(item.split("=") for item in sets))._at_s(2)
        g(0.5), g.many([0.5]), g.many([0.5, 1.5, 2.5])
        dropped = weakref.ref(g)
        del g
        assert dropped() is None
    finally:
        gc.enable()
    assert code == 0, err


def _count_zero_solves(monkeypatch, *modules):
    import copz.zeros

    calls = []

    def counted(problem):
        calls.append(problem)
        return copz.zeros.find_zeros(problem)

    for mod in modules:
        monkeypatch.setattr(mod, "find_zeros", counted)
    return calls


def test_stieltjes_solves_each_instance_once(monkeypatch):
    import copz.cli
    import copz.stieltjes

    calls = _count_zero_solves(monkeypatch, copz.cli, copz.stieltjes)
    code, _, _ = run_cli(
        ["stieltjes", "--family", "meixner", "--n", "2", "--param", "beta",
         "--set", "alpha=0.5", "--set", "beta=1.5"]
    )
    assert code == 0
    # the instance itself, then t-h and t+h for the finite-difference check
    assert len(calls) == 3
    assert len({c.family.params["beta"] for c in calls}) == 3


def test_interlace_solves_each_instance_once(monkeypatch):
    import copz.interlacing

    calls = _count_zero_solves(monkeypatch, copz.interlacing)
    code, _, _ = run_cli(
        ["interlace", "--family", "hahn", "--n", "2",
         "--set", "alpha=0", "--set", "beta=0.5", "--set", "N=6"]
    )
    assert code == 0
    # degree n at N and N+1, degree n-1 at N for the connection formula
    assert sorted((c.family.params["N"], c.degree) for c in calls) == [(6, 1), (6, 2), (7, 2)]


@pytest.mark.parametrize(
    "sets, n, message",
    [
        # the prefactor q^(-C(n,2)) overflows before the first sample's series
        (["alpha=0.5", "q=0.1"], 30,
         "al_salam_carlitz_2: the degree-30 value at s=0.0 overflows the float range"),
        # the float series is NaN or inf from s = 30.625 to the end of the
        # search's one window, 59 units, short of the lattice power q^(-s)'s
        # overflow at s = 237: 15 of the 30 zeros are lost there
        (["alpha=0.5", "beta=0.5", "q=0.05"], 30,
         "q_meixner: found 15 sign changes, expected 30; the float series is not finite at"
         " 228 samples of the step-0.125 scan, the first at s=30.625"),
        # alpha^n in the prefactor
        (["alpha=1e300", "q=0.5", "N=10"], 5,
         "quantum_q_krawtchouk: the degree-5 value at s=0.0 overflows the float range"),
    ],
    ids=["al_salam_carlitz_2-prefactor", "q_meixner-lattice", "quantum_q_krawtchouk-prefactor"],
)
def test_zeros_overflow_is_invalid_input(sets, n, message):
    kind = message.partition(":")[0]
    argv = ["zeros", "--family", kind, "--n", str(n)]
    for item in sets:
        argv += ["--set", item]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_exact_path_overflow_is_invalid_input():
    # the Gram check sums alpha^n of the prefactor on the exact path
    code, out, err = run_cli(
        ["verify", "--family", "quantum_q_krawtchouk", "--n", "1",
         "--set", "alpha=1e300", "--set", "q=0.5", "--set", "N=10"]
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: quantum_q_krawtchouk: the degree-2 value at s=0.0 overflows the float range\n"
    )


@pytest.mark.parametrize("command", ["zeros", "verify"])
def test_alias_overflow_names_the_alias(command):
    # q_charlier is searched through its base, q_meixner, whose float series
    # is not finite from s = 0.125, by its zeros at s <= 1; the error names the
    # family asked for
    code, out, err = run_cli(
        [command, "--family", "q_charlier", "--n", "2",
         "--set", "alpha=1e-300", "--set", "q=0.5"]
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: q_charlier: found 0 sign changes, expected 2; the float series is not finite"
        " at 15 samples of the step-0.125 scan, the first at s=0.125\n"
    )


def test_verify_coefficient_overflow_is_invalid_input():
    # q ** (-a - alpha - N) in the q-Racah A, B table leaves the float range
    code, out, err = run_cli(
        ["verify", "--family", "q_racah", "--n", "2", "--set", "a=0.9",
         "--set", "alpha=1e16", "--set", "beta=0.5", "--set", "q=0.6", "--set", "N=7"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: q_racah: the coefficients A, B at s=")
    assert err.endswith(" overflow the float range\n")
    assert err.count("\n") == 1


def test_verify_q_power_underflow_is_invalid_input():
    # little q-Jacobi's A, B divide by q**s, which underflows to 0 at s=2
    code, out, err = run_cli(
        ["verify", "--family", "little_q_jacobi", "--n", "1", "--set", "alpha=0.5",
         "--set", "beta=0.5", "--set", "q=1e-300"]
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: little_q_jacobi: the coefficients A, B at s=2.0 overflow the float range: "
        "they divide by q**s, which underflows to 0\n"
    )


def test_verify_sizes_the_weight_table_for_its_gram_degrees(monkeypatch):
    import copz.cli

    hints, degrees = [], []

    def table(spec, degree_hint, **kw):
        hints.append(degree_hint)
        return copz.weight_table(spec, degree_hint=degree_hint, **kw)

    def gram(spec, kmax, t):
        degrees.append(kmax)
        return copz.gram_offdiag_max(spec, kmax, t)

    monkeypatch.setattr(copz.cli, "weight_table", table)
    monkeypatch.setattr(copz.cli, "gram_offdiag_max", gram)
    code, _, _ = run_cli(
        ["verify", "--family", "meixner", "--n", "2", "--set", "alpha=0.5", "--set", "beta=1.5"]
    )
    assert code == 0
    assert degrees == [5]
    assert hints == [5]


@pytest.mark.parametrize(
    "argv, message",
    [
        # the zeros sit on s = 0, 1, 2, ..., so x(y_j + 1) == x(y_k) in b_jk and c_jk
        (["stieltjes", "--family", "affine_q_krawtchouk", "--n", "6",
          "--set", "alpha=1.1942934361487703e-12", "--set", "N=8",
          "--set", "q=0.6768888891935936", "--param", "alpha"],
         "affine_q_krawtchouk: the zeros y_j=3.0 and y_k=4.0 sit one lattice step apart, "
         "so x(y_j +/- 1) = x(y_k) and the system divides by zero"),
        # x(b) ~ 1.8e85, so max|x(b) - y_j|^6 leaves the float range
        (["interlace", "--family", "affine_q_krawtchouk", "--n", "6",
          "--set", "alpha=0.658656734955852", "--set", "N=7",
          "--set", "q=6.630651803359479e-13"],
         "affine_q_krawtchouk: max|x(b) - y_j|^6 over the degree-6 zeros overflows the "
         "float range (x(b)=1.7746243804690033e+85)"),
    ],
    ids=["stieltjes-zeros-one-step-apart", "interlace-scale-overflow"],
)
def test_degenerate_zero_sets_are_invalid_input(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "target, reason",
    [("missing/x.txt", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_out_to_an_unwritable_path_is_invalid_input(tmp_path, target, reason):
    path = str(tmp_path / target)
    code, out, err = run_cli(
        ["zeros", "--family", "charlier", "--set", "alpha=1", "--n", "2", "--out", path]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --out {path!r}: {reason}\n"
