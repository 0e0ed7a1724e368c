"""Spans around the library's public entry points, applied from outside.

Each entry point is replaced by a wrapper in every ``copz`` namespace that
holds it (``copz.cli.find_zeros`` and ``copz.stieltjes.find_zeros`` as well as
``copz.zeros.find_zeros``), so calls made inside the library are seen too.
A span records its name, start, end, parent and the case it belongs to; spans
stay in memory until the run ends.  Series calls are many and short, so they
are counted and timed into the innermost open span instead of getting spans
of their own, split by the ``exact_summation`` context active at the call.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (span name, defining module, function)
SPANNED = (
    ("cli.main", "copz.cli", "main"),
    ("families.make_family", "copz.families", "make_family"),
    ("families.eval_exact_at_support", "copz.families", "eval_exact_at_support"),
    ("zeros.find_zeros", "copz.zeros", "find_zeros"),
    ("weights.weight_table", "copz.weights", "weight_table"),
    ("weights.gram_offdiag_max", "copz.weights", "gram_offdiag_max"),
    ("weights.pearson_residual_max", "copz.weights", "pearson_residual_max"),
    ("stieltjes.monotonicity_verdict", "copz.stieltjes", "monotonicity_verdict"),
    ("stieltjes.hypothesis_report", "copz.stieltjes", "hypothesis_report"),
    ("stieltjes.build_stieltjes_system", "copz.stieltjes", "build_stieltjes_system"),
    ("stieltjes.zero_derivatives_fd", "copz.stieltjes", "zero_derivatives_fd"),
)
COUNTED = (("copz.qseries", "hyper_sum"), ("copz.qseries", "qhyper_sum"))

#: spans whose result length is recorded: zeros returned, table points
_SIZED = ("zeros.find_zeros", "weights.weight_table")

# span record fields
CASE, NAME, START, END, PARENT, RAISED, SIZE, CHILD, FC, FMS, EC, EMS = range(12)


class TraceError(RuntimeError):
    """A wrapped name is missing, or the trace cannot be taken."""


class Tracer:
    """Installs and removes the wrappers, and holds the recorded spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = -1
        # totals: series calls outside every span, plus what top-level spans add
        self.root = [None, "", 0.0, 0.0, -1, False, 0, 0.0, 0, 0.0, 0, 0.0]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items() if k == "copz" or k.startswith("copz.")}
        for name, modname, attr in SPANNED:
            self._replace(mods, modname, attr, lambda fn, name=name: self._span(name, fn))
        qseries = mods.get("copz.qseries")
        exact_flag = getattr(qseries, "_EXACT", None)
        if exact_flag is None:
            raise TraceError("copz.qseries._EXACT (the exact_summation context) is missing")
        for modname, attr in COUNTED:
            self._replace(mods, modname, attr, lambda fn: self._count(fn, exact_flag))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, mods, modname, attr, make) -> None:
        module = mods.get(modname)
        original = getattr(module, attr, None)
        if original is None:
            raise TraceError(f"cannot wrap {modname}.{attr}: no such name")
        wrapper = make(original)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        sized = name in _SIZED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [self.case, name, 0.0, 0.0, parent, False, 0, 0.0, 0, 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                up = spans[parent] if parent >= 0 else self.root
                up[CHILD] += rec[END] - rec[START]
                for f in (FC, FMS, EC, EMS):
                    up[f] += rec[f]
            if sized:
                rec[SIZE] = len(out)
            return out

        return wrapper

    def _count(self, fn, exact_flag):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = (perf_counter() - t) * 1e3
                rec = spans[stack[-1]] if stack else self.root
                if exact_flag.get():
                    rec[EC] += 1
                    rec[EMS] += dt
                else:
                    rec[FC] += 1
                    rec[FMS] += dt

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer totals over the traced passes, divided by their number.

        ``ms`` counts a span only when no span of the same name encloses it,
        so recursion is not counted twice; ``self_ms`` is a span's time less
        the time of the spans directly inside it.
        """
        stats = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "raised": 0, "size": 0,
                        "fc": 0, "ems": 0.0}
                 for name, _, _ in SPANNED}
        spans = self.spans
        per_sweep = 0
        for rec in spans:
            st = stats[rec[NAME]]
            dur = (rec[END] - rec[START]) * 1e3
            st["calls"] += 1
            st["raised"] += rec[RAISED]
            st["size"] += rec[SIZE]
            st["self_ms"] += dur - rec[CHILD] * 1e3
            outer = True
            p = rec[PARENT]
            while p >= 0:
                pname = spans[p][NAME]
                if pname == rec[NAME]:
                    outer = False
                if rec[NAME] == "zeros.find_zeros" and pname == "stieltjes.monotonicity_verdict":
                    per_sweep += 1
                    break
                p = spans[p][PARENT]
            if outer:
                st["ms"] += dur
                st["fc"] += rec[FC]
                st["ems"] += rec[EMS]
        root = self.root
        fz = stats["zeros.find_zeros"]
        gram = stats["weights.gram_offdiag_max"]
        sweeps = stats["stieltjes.monotonicity_verdict"]["calls"]
        out = {}
        for name, st in stats.items():
            out[f"{name}.calls"] = st["calls"] / passes
            out[f"{name}.ms"] = st["ms"] / passes
            out[f"{name}.self_ms"] = st["self_ms"] / passes
        out["zeros.find_zeros.raised"] = fz["raised"] / passes
        out["zeros.series_per_zero"] = fz["fc"] / fz["size"] if fz["size"] else 0.0
        out["weights.weight_table.points"] = stats["weights.weight_table"]["size"] / passes
        out["weights.gram.exact_share"] = gram["ems"] / gram["ms"] if gram["ms"] else 0.0
        out["stieltjes.find_zeros_per_sweep"] = per_sweep / sweeps if sweeps else 0.0
        out["qseries.float.calls"] = root[FC] / passes
        out["qseries.float.ms"] = root[FMS] / passes
        out["qseries.exact.calls"] = root[EC] / passes
        out["qseries.exact.ms"] = root[EMS] / passes
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: case, name, start, end, parent."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tcase\tname\tstart_ms\tend_ms\tparent\traised\n")
            for i, rec in enumerate(self.spans):
                fh.write(
                    f"{i}\t{rec[CASE]}\t{rec[NAME]}\t{(rec[START] - t0) * 1e3:.4f}\t"
                    f"{(rec[END] - t0) * 1e3:.4f}\t{rec[PARENT]}\t{int(rec[RAISED])}\n"
                )
