"""Command-line front end: catalog browsing, zeros, sweeps, verification suites.

Exit codes: 0 success / all checks passed, 1 a verified invariant failed,
2 invalid input (the diagnostic names the violated constraint).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys

from .errors import (
    CopzError,
    DomainError,
    TruncationError,
    WeightMismatchError,
    WeightPositivityError,
)
from .families import (
    ZeroProblem,
    catalog_kinds,
    family_info,
    make_family,
    sample_params,
)
from .interlacing import interlace_check
from .stieltjes import (
    STRUCTURAL_PARAMS,
    _finite_range,
    build_stieltjes_system,
    hypothesis_report,
    monotonicity_verdict,
    zero_derivatives_fd,
)
from .weights import gram_offdiag_max, pearson_residual_max, weight_table
from .zeros import eq1_consistency, find_zeros, separation_check

SCHEMA = 1


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"--out {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _params_from_sets(sets) -> dict:
    params = {}
    for item in sets:
        if "=" not in item:
            raise DomainError(f"--set expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise DomainError(f"--set {name}: {value!r} is not a number") from None
    return params


def _add_family_args(sp) -> None:
    sp.add_argument("--family", required=True, help="family name (see `families`)")
    sp.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="family parameter, repeatable",
    )


def _json_dump(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_families(args) -> int:
    infos = [family_info(kind) for kind in catalog_kinds()]
    if args.format == "json":
        _emit(_json_dump({"families": infos}), args.out)
        return 0
    lines = []
    for info in infos:
        claims = ", ".join(f"{c['param']} {c['direction']}" for c in info["claims"])
        alias = f" (alias of {info['alias_of']})" if info["alias_of"] else ""
        lines.append(f"{info['kind']}{alias}")
        lines.append(f"  lattice: {info['grid']}  finite: {info['finite_support']}")
        doms = "; ".join(f"{k}: {v}" for k, v in info["domains"].items())
        lines.append(f"  parameters: {doms}")
        lines.append(f"  zero monotonicity: {claims}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_zeros(args) -> int:
    spec = make_family(args.family, _params_from_sets(args.sets))
    zs = find_zeros(ZeroProblem(spec, args.n))
    if args.format == "json":
        payload = {
            "command": "zeros",
            "family": spec.kind,
            "params": dict(spec.params),
            "n": args.n,
            "zeros_s": list(zs.zeros_s),
            "zeros_x": list(zs.zeros_X),
            "residuals": list(zs.residuals),
        }
        _emit(_json_dump(payload), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["j", "s", "x", "residual"])
        for j, (s, x, r) in enumerate(zip(zs.zeros_s, zs.zeros_X, zs.residuals), 1):
            w.writerow([j, _fmt(s), _fmt(x), _fmt(r)])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"zeros of {spec.kind} degree {args.n}"]
        for j, (s, x) in enumerate(zip(zs.zeros_s, zs.zeros_X), 1):
            lines.append(f"  z{j}: s={_fmt(s)}  X={_fmt(x)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from_sets(args.sets)
    # the swept parameter needs no --set; seed it from the range midpoint,
    # once the ends are finite, so that make_family meets no NaN or inf
    # the caller did not give
    _finite_range((args.lo, args.hi))
    params.setdefault(args.param, 0.5 * (args.lo + args.hi))
    spec = make_family(args.family, params)
    problem = ZeroProblem(spec, args.n)
    verdict = monotonicity_verdict(
        problem, args.param, (args.lo, args.hi), samples=args.steps
    )
    if args.format == "json":
        payload = {
            "command": "sweep",
            "family": spec.kind,
            "param": args.param,
            "t": list(verdict.ts),
            "zeros": [list(row) for row in verdict.trajectories],
            "directions": list(verdict.directions),
            "claimed": verdict.claimed,
            "agrees": verdict.agrees,
        }
        _emit(_json_dump(payload), args.out)
        return 0
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t"] + [f"z{j + 1}" for j in range(args.n)])
    for i, t in enumerate(verdict.ts):
        w.writerow([_fmt(t)] + [_fmt(row[i]) for row in verdict.trajectories])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_stieltjes(args) -> int:
    spec = make_family(args.family, _params_from_sets(args.sets))
    problem = ZeroProblem(spec, args.n)
    zs = find_zeros(problem)
    system = build_stieltjes_system(zs, args.param)
    fd = zero_derivatives_fd(problem, args.param)
    rep = hypothesis_report(zs, args.param)
    if args.format == "json":
        payload = {
            "command": "stieltjes",
            "family": spec.kind,
            "param": args.param,
            "matrix": [[float(v) for v in row] for row in system.matrix],
            "rhs": [float(v) for v in system.rhs],
            "solution": [float(v) for v in system.solution],
            "fd_solution": list(fd),
            "flags": {
                "offdiag_negative": system.offdiag_negative,
                "diag_dominant": system.diag_dominant,
                "inverse_positive": system.inverse_positive,
            },
            "hypotheses": {
                "k_interval": list(rep.k_interval),
                "f_positive": rep.f_positive,
                "f1_negative": rep.f1_negative,
                "f2_sign": rep.f2_sign,
                "grid4_condition": rep.grid4_condition,
                "zero_set_inside_k": rep.zero_set_inside_k,
                "predicted_direction": rep.predicted_direction,
            },
        }
        _emit(_json_dump(payload), args.out)
        return 0
    lines = [f"zero-derivative system for {spec.kind}, param {args.param}"]
    lines.append(
        f"  hypotheses: f>0 {rep.f_positive}, f1<0 {rep.f1_negative}, f2 {rep.f2_sign}, "
        f"K=({_fmt(rep.k_interval[0])}, {_fmt(rep.k_interval[1])}), "
        f"predicted {rep.predicted_direction}"
    )
    for row in system.matrix:
        lines.append("  [" + ", ".join(_fmt(v) for v in row) + "]")
    lines.append("  rhs:      [" + ", ".join(_fmt(v) for v in system.rhs) + "]")
    lines.append("  solution: [" + ", ".join(_fmt(v) for v in system.solution) + "]")
    lines.append("  fd check: [" + ", ".join(_fmt(v) for v in fd) + "]")
    lines.append(
        f"  flags: offdiag_negative={system.offdiag_negative} "
        f"diag_dominant={system.diag_dominant} inverse_positive={system.inverse_positive}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_interlace(args) -> int:
    params = _params_from_sets(args.sets)
    if "N" not in params:
        raise DomainError("interlace needs --set N=<support size>")
    make_family(args.family, params)  # rejects a non-integer N before int() truncates it
    N = int(params["N"])
    try:
        report = interlace_check(args.family, params, args.n, N, check_weight=not args.force)
    except WeightMismatchError as exc:
        _emit(f"not-applicable: {exc}\n", args.out)
        return 0
    if args.format == "json":
        payload = {
            "command": "interlace",
            "family": report.kind,
            "n": report.n,
            "N": report.N,
            "case": report.case,
            "zeros_n": list(report.zeros_n),
            "zeros_n1": list(report.zeros_n1),
            "zone_counts": list(report.zone_counts),
            "ok": report.zones_ok,
            "weight_shared": report.weight_shared,
            "connection_residual": report.connection,
        }
        _emit(_json_dump(payload), args.out)
        return 0 if report.zones_ok else 1
    conn = "n/a" if report.connection is None else _fmt(report.connection)
    lines = [
        f"interlacing {report.kind} n={report.n} N={report.N} -> N+1",
        f"  case: {report.case}  weight_shared: {report.weight_shared}",
        f"  zeros(N):   {', '.join(_fmt(v) for v in report.zeros_n)}",
        f"  zeros(N+1): {', '.join(_fmt(v) for v in report.zeros_n1)}",
        f"  zone occupancy: {list(report.zone_counts)}  ok: {report.zones_ok}",
        f"  connection residual: {conn}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.zones_ok else 1


def _verify_one(spec, n: int, quick: bool, lines: list[str]) -> bool:
    """Run the per-family verification stack; append report lines; return pass/fail."""
    ok = True
    label = spec.kind

    problem = ZeroProblem(spec, n)
    zs = find_zeros(problem)
    sep = separation_check(zs)
    eq1 = eq1_consistency(zs)
    if eq1.flagged:
        worst = max(eq1.residuals)
        lines.append(
            f"[{label}] eq1: INCONSISTENT coefficient table (max residual {_fmt(worst)}); "
            "sign-based checks skipped"
        )
    elif not any(map(math.isfinite, eq1.residuals)):
        anomalous = f"{len(eq1.anomalies)} of {n} zeros anomalous"
        lines.append(f"[{label}] eq1: NOT CHECKED (no finite residual; {anomalous})")
    else:
        lines.append(f"[{label}] eq1: PASS (max residual {_fmt(max(eq1.residuals))})")

    # the table covers every Gram degree checked; verify-all (kmax 3) keeps its degree-4 margin
    kmax = min(3 if quick else 5, spec.degree_max)
    hint = max(kmax, 4)
    try:
        table = weight_table(spec, degree_hint=hint)
        weights_ok = True
    except WeightPositivityError as exc:
        weights_ok = False
        try:
            weight_table(spec, degree_hint=hint, allow_sign_flip=True)
            note = "flagged; |ratio| fallback table built"
        except (TruncationError, WeightPositivityError):
            note = "flagged; |ratio| fallback diverges"
        lines.append(
            f"[{label}] weights: INCONSISTENT sign at s={_fmt(exc.s)} ({note})"
        )
    if weights_ok:
        gram = gram_offdiag_max(spec, kmax, table)
        pearson = pearson_residual_max(spec, table)
        good = gram < 1e-8 and pearson < 1e-12
        ok &= good
        lines.append(
            f"[{label}] orthogonality: {'PASS' if good else 'FAIL'} "
            f"(gram {_fmt(gram)}, pearson {_fmt(pearson)})"
        )

    hypotheses_held = False
    for claim in spec.claims():
        param = claim.param
        rep = hypothesis_report(zs, param, samples=60 if quick else 200)
        lines.append(
            f"[{label}] hypotheses[{param}]: f>0 {rep.f_positive}, f1<0 {rep.f1_negative}, "
            f"f2 {rep.f2_sign}, zeros_in_K {rep.zero_set_inside_k}, grid4 {rep.grid4_condition}"
        )
        if rep.hypotheses_hold and not eq1.flagged:
            hypotheses_held = True
            if param not in STRUCTURAL_PARAMS:
                system = build_stieltjes_system(zs, param)
                fd = zero_derivatives_fd(problem, param)
                mism = max(
                    abs(a - b) / max(abs(a), abs(b), 1e-10)
                    for a, b in zip(system.solution, fd)
                )
                flags = (
                    system.offdiag_negative
                    and system.diag_dominant
                    and system.inverse_positive
                )
                good = mism < 1e-4 and flags
                ok &= good
                lines.append(
                    f"[{label}] zero-derivatives[{param}]: {'PASS' if good else 'FAIL'} "
                    f"(vs fd {_fmt(mism)}, matrix flags {flags})"
                )
        verdict = monotonicity_verdict(
            problem, param, claim.window, samples=7 if quick else 15
        )
        good = bool(verdict.agrees) and verdict.reversals == 0
        ok &= good
        lines.append(
            f"[{label}] sweep[{param}] over ({_fmt(claim.window[0])}, {_fmt(claim.window[1])}): "
            f"{'PASS' if good else 'FAIL'} (claimed {verdict.claimed}, observed "
            f"{'/'.join(verdict.directions)})"
        )

    if hypotheses_held:
        good = sep.passed or sep.vacuous
        ok &= good
        lines.append(
            f"[{label}] separation: {'PASS' if good else 'FAIL'} (min gap {_fmt(sep.min_gap)})"
        )
    else:
        lines.append(f"[{label}] separation: min gap {_fmt(sep.min_gap)} (informational)")
    return ok


def _cmd_verify(args) -> int:
    spec = make_family(args.family, _params_from_sets(args.sets))
    lines: list[str] = []
    ok = _verify_one(spec, args.n, quick=False, lines=lines)
    lines.append(f"verify {spec.kind}: {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    rng = random.Random(args.seed)
    lines: list[str] = [f"verify-all seed={args.seed}"]
    passed = 0
    kinds = catalog_kinds()
    for kind in kinds:
        params = sample_params(kind, rng)
        spec = make_family(kind, params)
        n = min(2, spec.degree_max)
        pset = ", ".join(f"{k}={_fmt(float(v))}" for k, v in sorted(spec.params.items()))
        lines.append(f"[{kind}] params: {pset}; n={n}")
        ok = _verify_one(spec, n, quick=True, lines=lines)
        passed += ok
        lines.append(f"[{kind}] result: {'PASS' if ok else 'FAIL'}")
    lines.append(f"verify-all: {passed}/{len(kinds)} families passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(kinds) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="copz",
        description="Discrete orthogonal polynomials on nonuniform lattices: "
        "zeros, weights, and zero-monotonicity verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("families", help="list the family catalog")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_families)

    sp = sub.add_parser("zeros", help="compute the zeros of one polynomial")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_zeros)

    sp = sub.add_parser("sweep", help="sweep a parameter and emit zero trajectories")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--param", required=True)
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument(
        "--steps",
        type=int,
        default=15,
        help="initial point count; where zeros jump, midpoints are added, so t may be non-uniform",
    )
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("stieltjes", help="inspect the zero-derivative linear system")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--param", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_stieltjes)

    sp = sub.add_parser("interlace", help="support-size interlacing check")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--force", action="store_true", help="skip the shared-weight precondition")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_interlace)

    sp = sub.add_parser("verify", help="run the verification stack on one family")
    _add_family_args(sp)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("verify-all", help="randomized whole-catalog verification")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_verify_all)

    return ap


# built on the first main() call and reused: in-process callers run main()
# many times, and the tree takes thousands of add_argument calls to build
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CopzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
