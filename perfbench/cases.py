"""Seeded inputs of the three workloads.

The parameter boxes below belong to the benchmark: ``copz.sample_params`` is
deliberately not used, so that a change to the library's own sampler cannot
change a workload.  The boxes fix the shape parameters of each family; the
size of a case (support size N, range of the base q, degree) is fixed by the
workload's slots.

Each slot's centre is drawn once from the boxes with ``CENTRE_SEED``; the
run's ``--seed`` then moves every continuous parameter of a slot by up to
``JITTER_REL`` (q by up to ``JITTER_Q``), except in slots tagged "fixed",
where even that flips a case between outcomes of very different cost.
Different seeds so give different inputs of the same difficulty: the cost of
a case depends steeply on its parameters (whether a zero count fails early,
how far a search window or a weight table must grow), and full redraws per
seed made the time of a pass vary by a quarter between seeds.  A draw that
``make_family`` rejects is drawn again, before anything is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from copz import FINITE_FAMILIES, DomainError, ZeroProblem, catalog_kinds, make_family


def _u(rng, lo, hi):
    return rng.uniform(lo, hi)


def _inner(rng, lo, hi):
    """A draw from the central 80% of (lo, hi)."""
    pad = 0.1 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def _racah_like(rng, top):
    """a, and the upper-bounded parameter of the racah/dual_hahn domains."""
    a = _u(rng, -0.45, -0.05) if rng.random() < 0.3 else _u(rng, 0.0, 1.8)
    return a, _inner(rng, a if a < 0.0 else -1.0, top(a))


def _q_racah_like(rng):
    a = _u(rng, 0.12, 0.45) if rng.random() < 0.3 else _u(rng, 0.5, 1.6)
    return a, _inner(rng, a - 0.5 if a < 0.5 else -1.0, 2.0 * a)


def _racah(rng, q, N):
    a, beta = _racah_like(rng, lambda a: 2.0 * a + 1.0)
    return {"a": a, "alpha": _u(rng, -0.8, 2.0), "beta": beta}


def _dual_hahn(rng, q, N):
    a, alpha = _racah_like(rng, lambda a: 2.0 * a + 1.0)
    return {"a": a, "alpha": alpha}


def _q_racah(rng, q, N):
    a, beta = _q_racah_like(rng)
    return {"a": a, "alpha": _u(rng, -0.8, 1.5), "beta": beta}


def _dual_q_hahn(rng, q, N):
    a, alpha = _q_racah_like(rng)
    return {"a": a, "alpha": alpha}


#: shape-parameter boxes, one per catalog kind: f(rng, q, N) -> params
#: without q and N.  Bounds written "/q" keep a parameter below its 1/q limit.
BOXES = {
    "hahn": lambda r, q, N: {"alpha": _u(r, -0.8, 2.5), "beta": _u(r, -0.8, 2.5)},
    "charlier": lambda r, q, N: {"alpha": _u(r, 0.3, 3.5)},
    "krawtchouk": lambda r, q, N: {"alpha": _u(r, 0.08, 0.92)},
    "meixner": lambda r, q, N: {"alpha": _u(r, 0.1, 0.85), "beta": _u(r, 0.2, 3.5)},
    "racah": _racah,
    "dual_hahn": _dual_hahn,
    "q_meixner": lambda r, q, N: {"alpha": _u(r, 0.3, 3.0), "beta": _u(r, 0.05, 0.9) / q},
    "al_salam_carlitz_2": lambda r, q, N: {"alpha": _u(r, 0.1, 0.9) / q},
    "q_hahn": lambda r, q, N: {"alpha": _u(r, 0.08, 0.9) / q, "beta": _u(r, 0.08, 0.9) / q},
    "q_krawtchouk": lambda r, q, N: {"alpha": _u(r, 0.2, 3.0)},
    "affine_q_krawtchouk": lambda r, q, N: {"alpha": _u(r, 0.1, 0.9) / q},
    "quantum_q_krawtchouk": lambda r, q, N: {"alpha": q ** (1 - N) * _u(r, 1.1, 2.5)},
    "q_bessel": lambda r, q, N: {"alpha": _u(r, 0.2, 3.0)},
    # alpha*q sets the decay of the little q-Jacobi weight; at 0.9 the table
    # runs to ~300 points and one Gram matrix to ~40 s, so draws stop at 0.6
    "little_q_jacobi": lambda r, q, N: {"alpha": _u(r, 0.1, 0.6) / q, "beta": _u(r, -1.5, 0.9 / q)},
    "little_q_laguerre": lambda r, q, N: {"alpha": _u(r, 0.1, 0.9) / q},
    "q_racah": _q_racah,
    "dual_q_hahn": _dual_q_hahn,
    "q_charlier": lambda r, q, N: {"alpha": _u(r, 0.3, 3.0)},
    "al_salam_carlitz_1": lambda r, q, N: {"alpha": _u(r, 0.1, 0.9) / q},
    # beta becomes the little q-Jacobi alpha of the base family
    "big_q_jacobi_special": lambda r, q, N: {
        "alpha": _u(r, 0.1, 0.9) / q,
        "beta": _u(r, 0.1, 0.6) / q,
    },
    "q_laguerre": lambda r, q, N: {"alpha": _u(r, -0.8, 1.5)},
}

#: families whose coefficient tables give sign-inconsistent weights; their
#: weight table must raise WeightPositivityError
FLAGGED = ("q_bessel", "little_q_laguerre", "q_laguerre")

_MAX_REDRAWS = 200
CENTRE_SEED = 0
JITTER_REL = 0.02
JITTER_Q = 0.005


@dataclass
class Case:
    """One input: a family instance plus what the workload does with it."""

    kind: str
    params: dict
    n: int = 0  # degree (zeros, verify) or kmax (orthogonality)
    spec: object = None
    problem: object = None
    #: check the zeros against the exact series; False where the exact path
    #: itself raises, so only count, order and support bounds are checked
    exact_check: bool = True
    tags: tuple = field(default_factory=tuple)

    def label(self) -> str:
        ps = ",".join(f"{k}={_short(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({ps}) n={self.n}"


def _short(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


#: the families on the linear and quadratic lattices, the only ones without q
_NO_Q = ("hahn", "charlier", "krawtchouk", "meixner", "racah", "dual_hahn")


def draw(rng, kind: str, q: float | None = None, N: int | None = None, box=None):
    """Draw an in-domain instance of ``kind``; rejected draws are redrawn.

    ``q`` and ``N`` are either fixed values or (lo, hi) ranges drawn per try.
    """
    box = box or BOXES[kind]
    last = None
    for _ in range(_MAX_REDRAWS):
        qv = None if kind in _NO_Q else _pick(rng, q)
        Nv = _pick_int(rng, N) if kind in FINITE_FAMILIES else None
        params = box(rng, qv, Nv)
        if qv is not None:
            params["q"] = qv
        if Nv is not None:
            params["N"] = Nv
        try:
            return params, make_family(kind, params)
        except DomainError as exc:
            last = exc
    raise RuntimeError(f"no in-domain draw for {kind} after {_MAX_REDRAWS} tries: {last}")


def _pick(rng, v):
    return float(v) if isinstance(v, (int, float)) else rng.uniform(*v)


def _pick_int(rng, v):
    return v if v is None or isinstance(v, int) else rng.randint(*v)


# ---------------------------------------------------------------------------
# catalog_verify: every catalog kind, aliases included, at degrees 1..3
# ---------------------------------------------------------------------------


def catalog_cases(rng) -> list[Case]:
    cases = []
    for kind in catalog_kinds():
        for n in (1, 2, 3, 2, 3):
            params, spec = draw(rng, kind, q=(0.35, 0.8), N=(6, 10))
            cases.append(Case(kind, params, n, spec=spec))
    return cases


# ---------------------------------------------------------------------------
# zeros_high_degree: domain edges, float series only
# ---------------------------------------------------------------------------

#: the high-degree cases of the ROADMAP Baseline, always included with these
#: parameters.  The exact path raises on the last four (q_hahn: ZeroCountError
#: after 88 s; q_racah, dual_q_hahn, al_salam_carlitz_2: OverflowError), so
#: those are checked for count, order and support bounds only.
BASELINE_ZEROS = (
    ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 60}, 30, True),
    ("hahn", {"alpha": 0.5, "beta": 1.0, "N": 60}, 59, True),
    ("krawtchouk", {"alpha": 0.4, "N": 60}, 30, True),
    ("krawtchouk", {"alpha": 0.4, "N": 60}, 59, True),
    ("racah", {"a": 0.5, "alpha": 0.4, "beta": 1.1, "N": 60}, 30, True),
    ("racah", {"a": 0.5, "alpha": 0.4, "beta": 1.1, "N": 60}, 59, True),
    ("dual_hahn", {"a": 0.5, "alpha": 0.7, "N": 60}, 30, True),
    ("dual_hahn", {"a": 0.5, "alpha": 0.7, "N": 60}, 59, True),
    ("meixner", {"alpha": 0.5, "beta": 1.5}, 30, True),
    ("q_hahn", {"alpha": 0.5, "beta": 0.6, "q": 0.99, "N": 60}, 30, False),
    ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6, "N": 60}, 59, False),
    ("dual_q_hahn", {"a": 0.8, "alpha": 0.5, "q": 0.6, "N": 60}, 59, False),
    ("al_salam_carlitz_2", {"alpha": 0.5, "q": 0.1}, 30, False),
)

#: one case whose search window grows to 8192 units and still misses a zero
#: (ZeroCountError after ~1.9 s); more of them would outweigh the pass
WINDOW_GROWTH_ZEROS = (("q_bessel", {"alpha": 1.0, "q": 0.95}, 30),)

_LINEAR_FINITE = ("hahn", "krawtchouk", "racah", "dual_hahn")
_Q_FINITE = (
    "q_hahn",
    "q_krawtchouk",
    "affine_q_krawtchouk",
    "quantum_q_krawtchouk",
    "q_racah",
    "dual_q_hahn",
)
_Q_INCREASING_INFINITE = ("q_meixner", "q_charlier", "al_salam_carlitz_1", "al_salam_carlitz_2")
_Q_DECREASING_INFINITE = (
    "q_bessel",
    "little_q_jacobi",
    "little_q_laguerre",
    "big_q_jacobi_special",
    "q_laguerre",
)


def _zero_case(kind, params, n, exact=True, tags=("fixed",)):
    spec = make_family(kind, params)
    return Case(kind, dict(params), n, spec, ZeroProblem(spec, n), exact, tags)


def zeros_cases(rng) -> list[Case]:
    cases = [_zero_case(k, p, n, exact) for k, p, n, exact in BASELINE_ZEROS]
    cases += [_zero_case(k, p, n) for k, p, n in WINDOW_GROWTH_ZEROS]
    # one exact evaluation costs a few ms on the linear and quadratic
    # lattices, but ~1 s on a q-lattice support of 60 points and ~0.05 s on
    # one of 30; the drawn q-lattice supports stop at 40 to keep the exact
    # check affordable, and N=60 is covered by the Baseline cases
    # the kinds named last keep their centres: over seeds 1-20, a 2% move
    # flipped each of them between passing and failing the 1e-10 check, and
    # so the failure count of a run between seeds
    slots = []
    for q, N, n, still in (
        ((0.3, 0.8), 30, 15, ("q_hahn", "affine_q_krawtchouk", "q_racah", "dual_q_hahn")),
        ((0.3, 0.8), 20, 19, ("q_hahn", "dual_q_hahn")),
        ((0.3, 0.8), 40, 10, ("q_hahn", "q_krawtchouk", "dual_q_hahn")),
        ((0.9, 0.99), 20, 10, ()),
    ):
        slots += [(k, q, N, n, k in still) for k in _Q_FINITE]
    slots += [(k, None, None, n, False) for k in ("charlier", "meixner") for n in (10, 20, 25, 30)]
    for kind, q, N, n, still in slots:
        params, spec = draw(rng, kind, q=q, N=N)
        cases.append(Case(kind, params, n, spec, ZeroProblem(spec, n),
                          tags=("fixed",) if still else ()))
    # these slots keep their centres instead of moving with the seed: at
    # degree 20 and up on the linear and quadratic lattices, a 2% change of a
    # shape parameter flips a case between a ZeroCountError after the scan
    # (5 ms) and a full solve (100 ms); on q-lattices with infinite support,
    # a change of q in the third digit can grow the search window from 64 to
    # 8192 units and the case 50-fold
    fixed = [(k, None, N, n) for k in _LINEAR_FINITE
             for N, n in ((60, 30), (60, 45), (60, 59), (50, 49), (40, 20), (40, 39))]
    fixed += [(k, (0.1, 0.9), None, n) for k in _Q_INCREASING_INFINITE for n in (10, 15, 20)]
    fixed += [(k, (0.9, 0.99), None, n) for k in _Q_INCREASING_INFINITE for n in (20, 30)]
    fixed += [(k, (0.3, 0.7), None, n) for k in _Q_DECREASING_INFINITE for n in (10, 15)]
    for kind, q, N, n in fixed:
        params, _ = draw(rng, kind, q=q, N=N)
        cases.append(_zero_case(kind, params, n))
    return cases



# ---------------------------------------------------------------------------
# orthogonality: weight table, Gram matrix and Pearson residual
# ---------------------------------------------------------------------------

#: a little q-Jacobi instance with q = alpha*q = 0.8, whose table has about
#: 180 points; its Gram matrix stops at degree 3, since at degree 6 the exact
#: path takes ~5 s there, as long as the rest of the pass
_BIG_TABLE_BOX = lambda r, q, N: {"alpha": 0.8 / q, "beta": _u(r, 0.3, 0.5)}


def orthogonality_cases(rng) -> list[Case]:
    cases = []
    kinds = [k for k in catalog_kinds() if k not in FLAGGED]
    for kind in kinds:
        # five modest instances per family at kmax 2..6
        for kmax in (2, 3, 4, 5, 6):
            params, spec = draw(rng, kind, q=(0.3, 0.5), N=(8, 14))
            cases.append(Case(kind, params, min(kmax, spec.degree_max), spec))
    # the large end: supports of 40-60 points, kmax up to 8, q up to 0.8
    for kind in _LINEAR_FINITE:
        params, spec = draw(rng, kind, N=60)
        cases.append(Case(kind, params, 8, spec))
    for kind in ("q_hahn", "q_krawtchouk", "affine_q_krawtchouk"):
        params, spec = draw(rng, kind, q=(0.6, 0.8), N=40)
        cases.append(Case(kind, params, 6, spec))
    for kind in ("q_meixner", "al_salam_carlitz_2", "big_q_jacobi_special"):
        params, spec = draw(rng, kind, q=(0.75, 0.8))
        cases.append(Case(kind, params, 6, spec))
    params, spec = draw(rng, "little_q_jacobi", q=0.8, box=_BIG_TABLE_BOX)
    cases.append(Case("little_q_jacobi", params, 3, spec))
    for kind in FLAGGED:
        for _ in range(3):
            params, spec = draw(rng, kind, q=(0.3, 0.8))
            cases.append(Case(kind, params, 0, spec, tags=("flagged",)))
    return cases


WORKLOAD_CASES = {
    "catalog_verify": catalog_cases,
    "zeros_high_degree": zeros_cases,
    "orthogonality": orthogonality_cases,
}


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's slots at their centres, each moved by the seed."""
    rng = random.Random(seed)
    centres = WORKLOAD_CASES[workload](random.Random(CENTRE_SEED))
    return [c if "fixed" in c.tags else _jitter(rng, c) for c in centres]


def _nudge(rng, name: str, value: float) -> float:
    if name == "q":
        return min(value + rng.uniform(-JITTER_Q, JITTER_Q), 0.995)
    return value * (1.0 + rng.uniform(-JITTER_REL, JITTER_REL))


def _jitter(rng, case: Case) -> Case:
    for _ in range(_MAX_REDRAWS):
        params = {k: v if k == "N" else _nudge(rng, k, v) for k, v in case.params.items()}
        try:
            spec = make_family(case.kind, params)
        except DomainError:
            continue
        problem = ZeroProblem(spec, case.n) if case.problem is not None else None
        return replace(case, params=params, spec=spec, problem=problem)
    raise RuntimeError(f"no in-domain jitter of {case.label()} after {_MAX_REDRAWS} tries")
