"""The benchmark's seeded inputs against a recorded reference.

perfbench/cases.py draws its cases through the library (``make_family``, its
domain checks and ``FINITE_FAMILIES``), so a library change can move a case
and with it every metric of a workload.  This pins kind, parameters and
degree of every case at two seeds.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).parent / "data" / "bench_inputs.json"
COUNTS = {"zeros_high_degree": 100, "catalog_verify": 105, "orthogonality": 110}
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", ROOT / "perfbench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


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
