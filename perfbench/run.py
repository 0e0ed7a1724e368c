"""copz benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  The client sends each case only after
the previous one returned, in one thread.  A pass runs every case once, in
order; passes repeat, at least three times, while the next one would end
less than half a pass past ``--seconds``.  Every output is checked after
the timed region; a case that raises or gives a wrong answer in any repeat
is a failed case, and ``attempted`` and ``failed`` count cases, not repeats,
so they do not depend on how many passes fit in the run.

Case times are given in units of a reference loop.  On a shared virtual
machine the processor's speed can switch between states far apart (1.8x on
a 2-vCPU Xeon guest), each lasting from seconds to minutes, so a case's
wall time says as much about the host's state as about the library.
Before every case the client times ``reference()``, a fixed pure-Python
loop that does not touch the library; a case's cost is its wall time
divided by the mean of the twelve reference times around it (six before,
six after), and its cost in the run is the median over its repeats.  A
cost of 30 ref means the case took as long as 30 runs of the reference
loop on the same host at the same moment; a change to the library moves
it in proportion to its wall time.  The wall times are printed beside the
costs; ``setup_s`` and ``peak_rss_mb`` are plain seconds and megabytes.

The last line of stdout is one JSON object.  With ``--trace 0`` it carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics, from passes taken with spans around the library's entry points,
alternating with untraced passes that give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
MIN_REPEATS = 3


def _import_copz():
    """Import the library from the checkout's ``src``; exit with an error if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import copz
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import copz from {SRC}: {exc}")
    where = Path(copz.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: copz was imported from {where}, not from {SRC}")
    return copz


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> None:
    """Time the import of copz plus building every case of the workload."""
    t0 = perf_counter()
    _import_copz()
    import cases
    import workloads  # noqa: F401 - its imports are part of set-up

    cases.build_cases(workload, seed)
    print(perf_counter() - t0)


def _setup_once(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the reference loop
# ---------------------------------------------------------------------------


def reference():
    """A fixed ~1 ms of pure-Python work, rational and float, outside the library.

    It is the unit of the case costs: change it and every cost changes.
    """
    acc, x, d = Fraction(0), 0.0, {}
    for _ in range(4):
        for i in range(1, 60):
            acc += Fraction(i, i + 7)
            x = x * 0.5 + i**0.5
        for i in range(300):
            d[i % 17] = d.get(i % 17, 0.0) + x / (i + 1)
    return acc, d


def _costs(samples) -> list[float]:
    """Each sample's wall time over the mean of the twelve reference times around it.

    A sample's reference loop runs just before its case, so the window is
    the references of samples j-5 to j+6.
    """
    refs = [s[2] for s in samples]
    return [ms / statistics.fmean(refs[max(0, j - 5): j + 7])
            for j, (_, ms, _, _, _) in enumerate(samples)]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def _one_pass(cases, run, seen, tracer=None):
    """Run every case once, in order, each after one reference loop.

    Returns (wall seconds, [(index, ms, reference ms, output, exception)]).

    Equal outputs of one case are kept once, in ``seen``, and exceptions
    without their tracebacks, so memory does not grow with the pass count.
    """
    samples = []
    t_pass = perf_counter()
    for i in range(len(cases)):
        if tracer is not None:
            tracer.case = i
        t_ref = perf_counter()
        reference()
        t0 = perf_counter()
        try:
            out, exc = run(cases[i]), None
        except Exception as e:  # noqa: BLE001 - every exception is a failed case
            out, exc = None, e
        ms = (perf_counter() - t0) * 1e3
        if exc is None:
            out = seen.setdefault((i, out), out)
        else:
            exc = seen.setdefault((i, repr(exc)), exc.with_traceback(None))
        samples.append((i, ms, (t0 - t_ref) * 1e3, out, exc))
    return perf_counter() - t_pass, samples


def _keep_going(elapsed: float, last: float, seconds: float) -> bool:
    """Another pass, unless it would end more than half a pass past the deadline."""
    return elapsed + 0.5 * last < seconds


def _timed_loop(cases, run, seconds, setup):
    """Whole passes, at least ``MIN_REPEATS`` of them, to fill ``seconds``.

    ``SETUP_REPEATS`` set-up probes run between passes, spread over the run
    in proportion to the time gone, so their median sees the host as the
    cases do.
    """
    samples, walls, seen, setups = [], [], {}, []
    start = perf_counter()
    while True:
        wall, s = _one_pass(cases, run, seen)
        walls.append(wall)
        samples += s
        elapsed = perf_counter() - start
        done = len(walls) >= MIN_REPEATS and not _keep_going(elapsed, wall, seconds)
        due = SETUP_REPEATS if done else min(SETUP_REPEATS, int(SETUP_REPEATS * elapsed / seconds))
        while len(setups) < due:
            setups.append(setup())
        if done:
            return samples, walls, setups


def _per_case_median(samples, values) -> dict[int, float]:
    """Each case's median over its repeats of a per-sample value."""
    per = {}
    for (i, *_), v in zip(samples, values):
        per.setdefault(i, []).append(v)
    return {i: statistics.median(v) for i, v in per.items()}


def _traced_loop(cases, run, tracer, seconds):
    """Whole passes, untraced and traced in turn; walls are keyed by traced."""
    samples, walls, seen = [], {False: [], True: []}, {}
    elapsed = 0.0
    while True:
        t_round = perf_counter()
        wall, s = _one_pass(cases, run, seen)
        walls[False].append(wall)
        samples += s
        try:
            tracer.install()
            wall, s = _one_pass(cases, run, seen, tracer)
        finally:
            tracer.uninstall()
        walls[True].append(wall)
        samples += s
        last = perf_counter() - t_round
        elapsed += last
        if not _keep_going(elapsed, last, seconds):
            return samples, walls


def _check_all(workload, cases, samples, check, check_raised):
    """Verdict per sample; each distinct (case, output) is checked once.

    Verdicts on returned outputs are kept in a file under ``OUT_DIR``, named
    after the library and checker sources, so a later run of the same code on
    the same inputs does not repeat the exact-series checks.
    """
    store = OUT_DIR / f"checks-{workload}-{_source_digest()}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    memo = {}
    verdicts = []
    for i, _, _, out, exc in samples:
        if exc is not None:
            verdicts.append(check_raised(cases[i], exc))
            continue
        key = (i, out)
        if key not in memo:
            case = cases[i]
            digest = hashlib.sha1(repr((case.kind, sorted(case.params.items()), case.n,
                                        case.tags, out)).encode()).hexdigest()
            if digest not in known:
                known[digest] = check(case, out)
            memo[key] = known[digest]
        verdicts.append(memo[key])
    OUT_DIR.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known))
    tmp.replace(store)
    return verdicts


def _source_digest() -> str:
    h = hashlib.sha1()
    for path in sorted(SRC.glob("copz/*.py")) + [HERE / "workloads.py", HERE / "cases.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _planted_rejected(cases, samples, verdicts, check, plant) -> bool | None:
    """Whether the checker rejects a wrong answer planted in a passing output."""
    for (i, _, _, out, exc), verdict in zip(samples, verdicts):
        if exc is None and verdict is None and "flagged" not in cases[i].tags:
            return check(cases[i], plant(cases[i], out)) is not None
    return None


def _percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", type=int, help="run only the first CASES cases (smoke test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {names}")
    _import_copz()
    import cases as case_mod
    import workloads
    from spans import TraceError, Tracer

    run, check, plant = workloads.WORKLOADS[args.workload]
    cases = case_mod.build_cases(args.workload, args.seed)[: args.cases]

    if args.trace:
        tracer = Tracer()
        try:
            samples, walls = _traced_loop(cases, run, tracer, args.seconds)
        except TraceError as exc:
            sys.exit(f"perfbench: {exc}")
    else:
        tracer = None
        samples, walls, setups = _timed_loop(
            cases, run, args.seconds, lambda: _setup_once(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = _check_all(args.workload, cases, samples, check, workloads.check_raised)
    planted = _planted_rejected(cases, samples, verdicts, check, plant)
    failing = {}
    for (i, *_), v in zip(samples, verdicts):
        if v is not None:
            failing.setdefault(i, v)
    failed = len(failing)
    attempted = len(cases)
    passes = len(walls) if tracer is None else len(walls[False]) + len(walls[True])

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases, {passes} passes, "
          f"{len(samples)} samples")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} cases)")
    for i, reason in sorted(failing.items()):
        print(f"  FAILED {cases[i].label()}: {reason}")
    print(f"planted wrong answer rejected: {planted}")

    if tracer is None:
        costs = list(_per_case_median(samples, _costs(samples)).values())
        times = list(_per_case_median(samples, [s[1] for s in samples]).values())
        refs = [s[2] for s in samples]
        print(f"timings: each of {len(costs)} cases at its median repeat, over {len(walls)} passes")
        rq = statistics.quantiles(refs, n=4)
        print(f"wall time, not host-normalised: case_ms.p50 {_percentile(times, 50):.6g} ms,"
              f" case_ms.p90 {_percentile(times, 90):.6g} ms,"
              f" cases_per_s {len(times) / (sum(times) / 1e3):.6g} 1/s;"
              f" reference loop {rq[1]:.4g} ms, quartiles {rq[0]:.4g}-{rq[2]:.4g} ms")
        values = {
            "setup_s": statistics.median(setups),
            "case_cost.p50": _percentile(costs, 50),
            "case_cost.p90": _percentile(costs, 90),
            "cases_per_kref": len(costs) / (sum(costs) / 1e3),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        values = tracer.layer_metrics(len(walls[True]))
        values["trace.overhead"] = statistics.fmean(walls[True]) / statistics.fmean(walls[False])
        print("bases: counts and ms are per traced pass; series_per_zero = float series calls"
              " inside find_zeros, raising calls included, per zero returned; gram.exact_share ="
              " exact-series ms inside gram_offdiag_max per gram_offdiag_max ms;"
              " find_zeros_per_sweep = find_zeros calls inside monotonicity_verdict per verdict;"
              " trace.overhead = traced pass wall / untraced pass wall")
        try:
            _check_trace(args.workload, values, workloads)
        except TraceError as exc:
            sys.exit(f"perfbench: {exc}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": planted is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _check_trace(workload, values, workloads) -> None:
    """Fail on a required layer that recorded nothing; report the bypass predictions."""
    from spans import TraceError

    for name in workloads.REQUIRED_SPANS[workload]:
        if not values[f"{name}.calls"]:
            raise TraceError(f"{name} recorded no calls on {workload}")
    for path in workloads.REQUIRED_SERIES[workload]:
        if not values[f"qseries.{path}.calls"]:
            raise TraceError(f"no {path} series calls on {workload}")
    for name in workloads.BYPASS.get(workload, ()):
        state = "holds" if values[name] == 0 else f"BROKEN ({values[name]:g})"
        print(f"bypass prediction {name} == 0 on {workload}: {state}")


if __name__ == "__main__":
    sys.exit(main())
