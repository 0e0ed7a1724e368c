"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on its first few cases, traced and untraced, and checks
that the last line of stdout is the result object with every metric of
BENCHMARK.json under its unit; that the checkers reject planted wrong answers
(a moved zero, an inflated Gram value, a FAIL line) and the known wrong zeros
of the Baseline; and that the benchmark exits non-zero, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, cases: int = 3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--cases", str(cases)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_result_lines() -> None:
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and result["correct"] is True, result
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
            print(f"ok  {w['name']} trace={trace}: {len(want)} metrics with units")


def check_planted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cases as C
    import workloads as W

    for name, (run, check, plant) in W.WORKLOADS.items():
        passing = next(
            (c, out) for c in C.build_cases(name, 1)
            if "flagged" not in c.tags
            for out in [_try(run, c)]
            if out is not None and check(c, out) is None
        )
        case, out = passing
        assert check(case, plant(case, out)) is not None, f"{name}: planted answer accepted"
        print(f"ok  {name}: planted wrong answer rejected ({case.label()})")
    known_wrong = [c for c in C.build_cases("zeros_high_degree", 1)
                   if c.kind == "racah" and c.n == 59 and "fixed" in c.tags][0]
    assert W.check_zeros(known_wrong, W.run_zeros(known_wrong)) is not None
    print("ok  zeros_high_degree: Baseline racah N=60 n=59 float zeros rejected")


def _try(run, case):
    try:
        return run(case)
    except Exception:  # noqa: BLE001 - a raising case is simply not a candidate
        return None


def check_without_library() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  without the library: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_result_lines()
    check_planted()
    check_without_library()
    print("smoke test passed")
