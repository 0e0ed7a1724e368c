"""The benchmark's seeded inputs against a recorded reference, and its hooks.

perfbench/cases.py draws its cases through the library (``make_family``, its
domain checks and ``FINITE_FAMILIES``), so a library change can move a case
and with it every metric of a workload.  This pins kind, parameters and
degree of every case at two seeds.  perfbench/spans.py and workloads.py read
library names of their own, which a rename would break without this check.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import copz

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).parent / "data" / "bench_inputs.json"
COUNTS = {"zeros_high_degree": 100, "catalog_verify": 105, "orthogonality": 110}
SEEDS = (1, 2)


def _load(name):
    """perfbench/<name>.py as module perfbench_<name>, loaded by path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cases():
    module = _load("cases")
    yield module
    del sys.modules[module.__name__]


def bench_inputs(cases, workload, seed):
    """(kind, params, n) of every case, floats as hex."""
    return [
        [c.kind, {k: v.hex() if isinstance(v, float) else v for k, v in c.params.items()}, c.n]
        for c in cases.build_cases(workload, seed)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_bench_inputs_match_reference(cases, workload, seed):
    got = bench_inputs(cases, workload, seed)
    assert len(got) == COUNTS[workload]
    assert got == json.loads(REFERENCE.read_text())[f"{workload}/{seed}"]


def test_bench_hooks_are_in_the_library(cases):
    # the tracer wraps the SPANNED entry points, qseries._EXACT, hyper_sum and
    # qhyper_sum, and raises TraceError for a name that is gone; check_zeros
    # reads resolve_base, eval_at_s under exact_summation and zero_scale
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    try:
        tracer.install()
        case = cases.build_cases("zeros_high_degree", 1)[96]
        assert case.kind in copz.ALIAS_FAMILIES and case.exact_check
        zeros_s = workloads.run_zeros(case)
        assert workloads.check_zeros(case, zeros_s) is None
        planted = workloads.plant_zeros(case, zeros_s)
        X = case.spec.zero_scale * case.spec.grid.x_raw(planted[-1])
        assert workloads.check_zeros(case, planted).startswith(f"zero {case.n} at X={X:.12g} ")
        metrics = tracer.layer_metrics(1)
        assert metrics["zeros.find_zeros.calls"] == 1
        assert metrics["qseries.float.calls"] > 0 and metrics["qseries.exact.calls"] > 0
    finally:
        tracer.uninstall()
        for name in ("spans", "workloads"):
            sys.modules.pop(f"perfbench_{name}", None)
