"""What each workload does with one case, and how its output is checked.

A runner calls the library only through its public entry points and returns
a hashable output.  A checker takes that output, or the exception the runner
raised, and returns ``None`` when the case passed or a one-line reason when it
failed.  Any exception is a failed case, ``OverflowError`` included.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

import copz
import copz.cli
from copz.qseries import exact_summation

GRAM_TOL = 1e-8
PEARSON_TOL = 1e-12
ZERO_REL_TOL = 1e-10

_FAIL_LINE = re.compile(r"\bFAIL\b")


# ---------------------------------------------------------------------------
# catalog_verify: `copz verify` in-process
# ---------------------------------------------------------------------------


def verify_argv(case) -> list[str]:
    argv = ["verify", "--family", case.kind, "--n", str(case.n)]
    for name, value in sorted(case.params.items()):
        argv += ["--set", f"{name}={value!r}"]
    return argv


def run_verify(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = copz.cli.main(verify_argv(case))
    return rc, out.getvalue(), err.getvalue()


def check_verify(case, output) -> str | None:
    rc, text, err = output
    if rc != 0:
        return f"exit code {rc}: {err.strip() or _first_fail(text)}"
    line = _first_fail(text)
    return f"FAIL line: {line}" if line else None


def _first_fail(text: str) -> str:
    return next((ln for ln in text.splitlines() if _FAIL_LINE.search(ln)), "")


# ---------------------------------------------------------------------------
# zeros_high_degree: float-path zeros against the exact series
# ---------------------------------------------------------------------------


def run_zeros(case):
    return copz.find_zeros(case.problem).zeros_s


def check_zeros(case, zeros_s) -> str | None:
    """Count, strict order and support bounds; then the exact series.

    Each zero must bracket a sign change of the exactly summed polynomial
    within ``ZERO_REL_TOL`` relative in X: n disjoint brackets of a degree-n
    polynomial hold one zero each, so every zero is within the tolerance of
    the exact-path zero.  Where exact evaluation itself raises, the structural
    checks stand alone.
    """
    n = case.n
    base = case.spec.resolve_base()
    if len(zeros_s) != n:
        return f"{len(zeros_s)} zeros, expected {n}"
    if not all(math.isfinite(z) for z in zeros_s):
        return "non-finite zero"
    if any(b <= a for a, b in zip(zeros_s, zeros_s[1:])):
        return "zeros not strictly increasing"
    hi = base.support_end - 1.0 if math.isfinite(base.support_end) else math.inf
    if zeros_s[0] < base.support_start or zeros_s[-1] > hi:
        return f"zero outside the support [{base.support_start}, {hi}]"
    if not case.exact_check:
        return None
    g = base.grid
    for j, z in enumerate(zeros_s):
        X = g.x_raw(z)
        slope = abs(g.dx_ds(z))
        half = ZERO_REL_TOL * abs(X) / slope if X != 0.0 else ZERO_REL_TOL
        try:
            with exact_summation():
                lo = base.eval_at_s(n, z - half)
                hi_v = base.eval_at_s(n, z + half)
        except Exception:  # noqa: BLE001 - the exact path raising means "unchecked"
            return None
        if lo != 0.0 and hi_v != 0.0 and (lo < 0.0) == (hi_v < 0.0):
            return f"zero {j + 1} at X={case.spec.zero_scale * X:.12g} has no exact sign change within {ZERO_REL_TOL:g} relative"
    return None


# ---------------------------------------------------------------------------
# orthogonality: weight table, Gram matrix, Pearson residual
# ---------------------------------------------------------------------------


def run_orthogonality(case):
    if "flagged" in case.tags:
        copz.weight_table(case.spec)
        return ("table built",)
    table = copz.weight_table(case.spec, degree_hint=case.n)
    gram = copz.gram_offdiag_max(case.spec, case.n, table)
    pearson = copz.pearson_residual_max(case.spec, table)
    return gram, pearson


def check_orthogonality(case, output) -> str | None:
    if "flagged" in case.tags:
        return "sign-inconsistent table built without WeightPositivityError"
    gram, pearson = output
    if not gram < GRAM_TOL:
        return f"gram {gram:.3g} >= {GRAM_TOL:g}"
    if not pearson < PEARSON_TOL:
        return f"pearson {pearson:.3g} >= {PEARSON_TOL:g}"
    return None


def check_raised(case, exc: BaseException) -> str | None:
    """Exceptions fail a case, except the one a flagged weight table must raise."""
    if "flagged" in case.tags and isinstance(exc, copz.WeightPositivityError):
        return None
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# planted wrong answers: the checkers must reject these
# ---------------------------------------------------------------------------


def plant_verify(case, output):
    rc, text, err = output
    return rc, text + f"[{case.kind}] orthogonality: FAIL (planted)\n", err


def plant_zeros(case, zeros_s):
    z = list(zeros_s)
    z[-1] += 1e-6 * max(1.0, abs(z[-1]))
    return tuple(z)


def plant_orthogonality(case, output):
    gram, pearson = output
    return max(gram, 1e-8) * 10.0, pearson


WORKLOADS = {
    "catalog_verify": (run_verify, check_verify, plant_verify),
    "zeros_high_degree": (run_zeros, check_zeros, plant_zeros),
    "orthogonality": (run_orthogonality, check_orthogonality, plant_orthogonality),
}

#: wrapped entry points that must record calls in the timed region of each
#: workload (a traced run fails if one records none)
REQUIRED_SPANS = {
    "catalog_verify": (
        "cli.main",
        "families.make_family",
        "families.eval_exact_at_support",
        "zeros.find_zeros",
        "weights.weight_table",
        "weights.gram_offdiag_max",
        "weights.pearson_residual_max",
        "stieltjes.monotonicity_verdict",
        "stieltjes.hypothesis_report",
        "stieltjes.build_stieltjes_system",
        "stieltjes.zero_derivatives_fd",
    ),
    "zeros_high_degree": ("zeros.find_zeros",),
    "orthogonality": (
        "families.eval_exact_at_support",
        "weights.weight_table",
        "weights.gram_offdiag_max",
        "weights.pearson_residual_max",
    ),
}

#: series paths each workload must use, and the layers it predicts to bypass
REQUIRED_SERIES = {
    "catalog_verify": ("float", "exact"),
    "zeros_high_degree": ("float",),
    "orthogonality": ("exact",),
}
BYPASS = {
    "zeros_high_degree": ("qseries.exact.calls",),
    "orthogonality": ("zeros.find_zeros.calls",),
}
