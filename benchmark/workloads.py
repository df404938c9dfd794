"""The benchmark's workloads.  One round of a workload is one pass over
toruslb's public API in the order ``toruslb.cli`` calls it: it builds its
schemes afresh and makes every query, with every answer checked.

Library calls go through :meth:`Pass.build` (scheme constructors) or
:meth:`Pass.query` (evaluation and export) so their wall time lands in the
right bucket.  Each checked answer is one :meth:`Pass.op`, whose checks are
timed apart and excluded from ``time_to_result_s``; tracing is off while a
check runs.

Every function used here is one that ``tests/test_acceptance.py`` imports,
plus ``classify``, which the package exports, so a change that keeps the
acceptance gate keeps this benchmark runnable.  Functions are looked up on
their modules at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import io
import json
import math
import time
from functools import partial
from typing import Any, Callable

TOL = 1e-9
DEFAULT_SEED = 20240917

# max_load_mean of the random row at the default seed, measured at the commit
# that introduced this benchmark (10x10, k=18, 100 trials).
RANDOM_MEANS_AT_DEFAULT_SEED = {"ecmp": 1.5729543650793656, "vlb": 1.0085144841269842, "llb": 0.9884375}
# tests/test_acceptance.py criterion 5 gives (centre, tolerance) for the mean
# of 1000 trials; a round runs 100, so the tolerance grows by sqrt(10).
RANDOM_MEAN_BANDS = {"ecmp": (1.543, 0.32), "vlb": (0.978, 0.16), "llb": (0.958, 0.16)}

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "table1-10x10": {
            "n": 10, "k": 18, "r": 3, "trials": 100,
            # tests/test_acceptance.py criterion 4
            "hotspot": {
                "ecmp": {"exact": 4.0},
                "vlb": {"band": (1.858, 0.05), "vlb_floor": True},
                "llb": {"band": (1.417, 0.10)},
            },
            "random_means": RANDOM_MEANS_AT_DEFAULT_SEED,
            "random_bands": RANDOM_MEAN_BANDS,
        },
        "worstcase-12x12": {"n": 12, "r": 4, "ks": [18, 32, 50]},
        "verify-sweep": {
            "n": 8, "k": 18, "opt_r": 3,
            "gllb": [[4, 10, [8, 20]], [5, 9, [8, 13, 18]], [6, 8, [8, 12]], [10, 14, [9, 17]]],
        },
    },
    "toy": {
        "table1-10x10": {"n": 6, "k": 8, "r": 2, "trials": 3},
        "worstcase-12x12": {"n": 6, "r": 2, "ks": [2, 8, 12]},
        "verify-sweep": {"n": 6, "k": 8, "opt_r": 2, "gllb": [[4, 6, [2, 6]]]},
    },
}


class Pass:
    """One round of a workload: the time of each library call in order, in
    its bucket (``build`` for scheme constructors, ``query`` for evaluation
    and export), and answer accounting.

    The first round of a run checks every answer.  A later round is given the
    first round's answers as ``reference``: each of its answers must equal
    the checked one exactly, and then carries the checked verdict, so every
    round fails the same operations."""

    def __init__(self, lib: Any, sampler: Any, tracer: Any = None,
                 reference: dict | None = None) -> None:
        self.lib = lib
        # ``sampler.samples`` grows while the round runs; ``sampler.away_s``
        # is the time spent taking them, left out of every time measured here
        self.sampler = sampler
        self.tracer = tracer
        self.reference = reference
        self.check_s = 0.0
        # (bucket, seconds, index of the first speed sample taken during the
        # call, index of the first taken after it)
        self.calls: list[tuple[str, float, int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.answer_failures = 0
        self.outside_count = 0
        self.errors: list[str] = []
        self.answers: dict[str, Any] = {}
        self.verdicts: dict[str, tuple[list[str], list[str]]] = {}

    def _timed(self, bucket: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        # Every call starts as cold as in a fresh process: an lru_cache the
        # library fills in one round would otherwise speed up the next.
        for clear in self.lib.cache_clears:
            clear()
        sampler = self.sampler
        away, first = sampler.away_s, len(sampler.samples)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start - (sampler.away_s - away)
            self.calls.append((bucket, took, first, len(sampler.samples)))

    def build(self, fn: Callable, *args: Any) -> Any:
        return self._timed("build", fn, args, {})

    def query(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self._timed("query", fn, args, kwargs)

    def op(
        self,
        name: str,
        compute: Callable[[], Any],
        answer: Callable[[Any], list[str]],
        bound: Callable[[Any], list[str]] | None = None,
        record: Callable[[Any], Any] = lambda result: result,
    ) -> Any:
        """One checked answer.  ``answer`` compares the result with an exact
        reference and a self-consistency check; ``bound`` compares it with
        the library's own closed-form bounds.  A problem from either, or an
        exception, makes the operation fail; only answer problems and
        exceptions make the run incorrect."""
        self.attempted += 1
        try:
            result = compute()
        except Exception as exc:  # a raising library call is a failed operation
            self._fail(name, [f"raised {exc!r}"], counts_against_answer=True)
            return None
        away = self.sampler.away_s
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            try:
                recorded = json.loads(json.dumps(record(result)))
                if self.reference is None:
                    answer_problems = answer(result)
                    bound_problems = bound(result) if bound else []
                elif name not in self.reference:
                    answer_problems, bound_problems = ["no answer in the checked round"], []
                elif recorded != self.reference[name][0]:
                    answer_problems = [f"answer {recorded!r} differs from the checked round's "
                                       f"{self.reference[name][0]!r}"]
                    bound_problems = []
                else:
                    answer_problems, bound_problems = self.reference[name][1]
                self.answers[name] = recorded
                self.verdicts[name] = (answer_problems, bound_problems)
            except Exception as exc:  # a check that cannot run fails its operation
                answer_problems, bound_problems = [f"check raised {exc!r}"], []
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
            self.check_s += time.perf_counter() - start - (self.sampler.away_s - away)
        if bound_problems:
            self.outside_count += 1
        if answer_problems or bound_problems:
            self._fail(name, answer_problems + bound_problems, bool(answer_problems))
        return result

    def checked(self) -> dict:
        """This round's answers and verdicts, the reference for later rounds."""
        return {name: (self.answers[name], self.verdicts[name]) for name in self.answers}

    def run(self, workload: Callable[["Pass", dict, int], None], cfg: dict, seed: int) -> None:
        """Run one workload.  A library call that raises outside any checked
        answer (a scheme build, say) ends the round as one failed operation."""
        try:
            workload(self, cfg, seed)
        except Exception as exc:  # reported, not raised: the run stays measurable
            self.attempted += 1
            self._fail(workload.__name__, [f"raised {exc!r}"], counts_against_answer=True)

    def _fail(self, name: str, problems: list[str], counts_against_answer: bool) -> None:
        self.failed += 1
        if counts_against_answer:
            self.answer_failures += 1
        self.errors.append(f"{name}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# harness-side references, written without the library's code


def _hops(n_rows: int, n_cols: int, s: Any, t: Any) -> int:
    dx, dy = abs(s.x - t.x), abs(s.y - t.y)
    return min(dx, n_cols - dx) + min(dy, n_rows - dy)


def cut_lb(k: int) -> float:
    return math.sqrt(k) / 4


def llb_ub(r: int, k: int) -> float:
    return r / 4 + k / (8 * r)


def best_llb_radius(k: int, max_r: int) -> int:
    return min(range(1, max_r + 1), key=lambda r: (llb_ub(r, k), r))


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def load_problems(
    rep: Any, demand: Any, rows: int, cols: int,
    exact: float | None = None, band: tuple[float, float] | None = None,
    floor: float | None = None,
) -> list[str]:
    """Reference value plus two consistency checks: the mean path is no
    shorter than the mean torus distance, and the most loaded edge carries at
    least the average edge load (total demand x mean path over 4NM unit edges)."""
    out = []
    if exact is not None and not _near(rep.max_load, exact):
        out.append(f"max_load {rep.max_load!r} != {exact!r}")
    if band is not None and abs(rep.max_load - band[0]) > band[1]:
        out.append(f"max_load {rep.max_load!r} outside {band[0]}+-{band[1]}")
    if floor is not None and rep.max_load < floor - TOL:
        out.append(f"max_load {rep.max_load!r} below floor {floor!r}")
    total = sum(demand.entries.values())
    mean_dist = sum(a * _hops(rows, cols, s, t) for (s, t), a in demand.entries.items()) / total
    if rep.avg_hops < mean_dist - TOL:
        out.append(f"avg_hops {rep.avg_hops!r} below mean distance {mean_dist!r}")
    if rep.max_load < total * rep.avg_hops / (4 * rows * cols) - TOL:
        out.append(f"max_load {rep.max_load!r} below the average edge load")
    return out


def witness_problems(lib: Any, policy: Any, result: Any, k: int) -> list[str]:
    """The witness is a 0/1 k-sparse demand (checked by ``classify`` and by
    counting here), and evaluating it directly reproduces the value."""
    out = []
    w = result.witness
    entries = w.entries
    if any(v != 1.0 for v in entries.values()):
        out.append("witness is not 0/1")
    sources = [s for s, _ in entries]
    sinks = [t for _, t in entries]
    if len(entries) > k or len(set(sources)) != len(sources) or len(set(sinks)) != len(sinks):
        out.append(f"witness with {len(entries)} entries is not {k}-sparse")
    report = lib.traffic.classify(w, k)
    if not (report.is_k_sparse and report.is_k_limited):
        out.append(f"classify rejects the witness: {report.violations}")
    direct = lib.evaluate.edge_loads(policy, w).max_load
    if not _near(direct, result.value):
        out.append(f"witness load {direct!r} != worst case {result.value!r}")
    return out


def _record_wc(result: Any) -> list:
    pairs = sorted((s.x, s.y, t.x, t.y) for s, t in result.witness.entries)
    return [result.value, pairs]


def _record_load(rep: Any) -> list:
    return [rep.max_load, rep.avg_hops]


# ---------------------------------------------------------------------------
# workloads


def table1(p: Pass, cfg: dict, seed: int) -> None:
    """``toruslb table1``: ECMP, VLB and LLB(r) on split-diamond, hotspot and
    ``trials`` random k-sparse demands per scheme."""
    lib = p.lib
    S, E, T, B = lib.schemes, lib.evaluate, lib.traffic, lib.bounds
    n, k, r = cfg["n"], cfg["k"], cfg["r"]
    spec = lib.torus.TorusSpec(n, n)
    policies = {
        "ecmp": p.build(S.build_ecmp, spec),
        "vlb": p.build(S.build_vlb, spec),
        "llb": p.build(S.build_llb, spec, r),
    }
    diamond = T.gen_split_diamond(spec, r)
    hotspot = T.gen_hotspot(spec, k)
    for name, policy in policies.items():
        p.op(
            f"split-diamond.{name}",
            partial(p.query, E.edge_loads, policy, diamond),
            lambda rep: load_problems(rep, diamond, n, n, exact=r / 2),
            record=_record_load,
        )
    for name, policy in policies.items():
        refs = dict(cfg.get("hotspot", {}).get(name, {}))
        if refs.pop("vlb_floor", False):
            refs["floor"] = B.vlb_hotspot_lower_bound(n, k)
        p.op(
            f"hotspot.{name}",
            partial(p.query, E.edge_loads, policy, hotspot),
            lambda rep, refs=refs: load_problems(rep, hotspot, n, n, **refs),
            record=_record_load,
        )
    trials = cfg["trials"]
    for name, policy in policies.items():

        def problems(s: Any, name: str = name) -> list[str]:
            out = []
            if s.trials != trials:
                out.append(f"{s.trials} trials, asked for {trials}")
            if not (0 < s.max_load_min <= s.max_load_mean <= s.max_load_max):
                out.append("max-load mean outside [min, max]")
            if "random_means" in cfg and seed == DEFAULT_SEED:
                if s.max_load_mean != cfg["random_means"][name]:
                    out.append(f"mean {s.max_load_mean!r} != {cfg['random_means'][name]!r}")
            elif "random_bands" in cfg:
                centre, tol = cfg["random_bands"][name]
                if abs(s.max_load_mean - centre) > tol:
                    out.append(f"mean {s.max_load_mean!r} outside {centre}+-{tol}")
            return out

        p.op(
            f"random.{name}",
            lambda policy=policy: p.query(
                E.run_trials, policy, partial(T.gen_random_sparse, spec, k),
                trials=trials, base_seed=seed,
            ),
            problems,
            record=lambda s: [s.max_load_mean, s.avg_hops_mean],
        )


def worstcase(p: Pass, cfg: dict, seed: int) -> None:
    """``build_llb(n x n, r)`` and its exact worst case at each k."""
    lib = p.lib
    n, r = cfg["n"], cfg["r"]
    policy = p.build(lib.schemes.build_llb, lib.torus.TorusSpec(n, n), r)
    for k in cfg["ks"]:

        def problems(res: Any, k: int = k) -> list[str]:
            out = witness_problems(lib, policy, res, k)
            out += sandwich_problems(lib, res.value, k, r)
            return out

        p.op(
            f"llb{r}.k{k}",
            partial(p.query, lib.evaluate.worst_case_load, policy, k),
            problems,
            record=_record_wc,
        )


def sandwich_problems(lib: Any, value: float, k: int, r: int) -> list[str]:
    """cut_lb <= oblivious_lb <= measured <= llb_ub, and sqrt(2k)/4 exactly
    when the radius is sqrt(k/2)."""
    obl = lib.bounds.oblivious_lower_bound(k)
    out = []
    if not (cut_lb(k) <= obl + TOL and obl <= value + TOL and value <= llb_ub(r, k) + TOL):
        out.append(f"sandwich broken: {cut_lb(k)!r} <= {obl!r} <= {value!r} <= {llb_ub(r, k)!r}")
    if 2 * r * r == k and not _near(value, math.sqrt(2 * k) / 4):
        out.append(f"worst case {value!r} != sqrt(2k)/4")
    return out


def verify_sweep(p: Pass, cfg: dict, seed: int) -> None:
    """``toruslb bounds``, the three schemes' worst case, the reduced LP with
    LLB's hose duals substituted, the fixed-demand LPs, and GLLB's exact
    worst case on rectangles against the library's general bounds."""
    lib = p.lib
    S, E, L, T = lib.schemes, lib.evaluate, lib.lpexport, lib.traffic
    n, kmax = cfg["n"], cfg["k"]
    spec = lib.torus.TorusSpec(n, n)

    # bounds sweep: LLB at the best radius for each k
    llb: dict[int, Any] = {}
    wc_llb: dict[int, Any] = {}
    for k in range(2, kmax + 1):
        r = best_llb_radius(k, max(1, n // 2 - 1))
        if r not in llb:
            llb[r] = p.build(S.build_llb, spec, r)
        policy = llb[r]

        def problems(res: Any, k: int = k, r: int = r, policy: Any = policy) -> list[str]:
            return witness_problems(lib, policy, res, k) + sandwich_problems(lib, res.value, k, r)

        wc_llb[k] = p.op(
            f"bounds.k{k}", partial(p.query, E.worst_case_load, policy, k), problems,
            record=_record_wc,
        )

    # the other schemes' worst case at kmax
    r_top = best_llb_radius(kmax, max(1, n // 2 - 1))
    for name, builder in (("ecmp", S.build_ecmp), ("vlb", S.build_vlb)):
        policy = p.build(builder, spec)

        def problems(res: Any, policy: Any = policy) -> list[str]:
            out = witness_problems(lib, policy, res, kmax)
            floor = lib.bounds.oblivious_lower_bound(kmax)
            if res.value < floor - TOL:
                out.append(f"worst case {res.value!r} below the oblivious floor {floor!r}")
            return out

        p.op(f"worst.{name}.k{kmax}", partial(p.query, E.worst_case_load, policy, kmax),
             problems, record=_record_wc)

    # reduced oblivious LP: export, parse back, substitute LLB's flows and duals
    model_box: list[Any] = []

    def export_reduced() -> tuple[int, int, int, int]:
        buf = io.StringIO()
        counts = p.query(L.export_reduced_oblivious_lp, spec, kmax, buf)
        model = p.query(L.parse_lp, buf.getvalue())
        model_box.append(model)
        return counts.variables, counts.constraints, len(model.variables()), len(model.constraints)

    p.op("lp.reduced", export_reduced, _roundtrip_problems)

    def feasibility() -> list[str]:
        policy = llb[r_top]
        duals: dict[str, float] = {}
        for label, edge, _cap in L.load_edge_classes(spec):
            weights = p.query(E.pair_weights_on_edge, policy, edge)
            res = p.query(E._k_matching_sparse, weights, kmax)
            for s, v in res.row_duals.items():
                duals[f"a_{label}_s{s.x}_{s.y}"] = v
            for t, v in res.col_duals.items():
                duals[f"b_{label}_t{t.x}_{t.y}"] = v
            duals[f"gam_{label}"] = res.card_dual
        return p.query(
            L.check_oblivious_feasibility, spec, kmax, model_box[0], policy,
            wc_llb[kmax].value, duals,
        )

    p.op("lp.feasibility", feasibility,
         lambda failures: [f"{len(failures)} violated: {failures[:3]}"] if failures else [],
         record=len)

    # fixed-demand optimum programs
    for name, demand in (
        ("split-diamond", T.gen_split_diamond(spec, cfg["opt_r"])),
        ("hotspot", T.gen_hotspot(spec, kmax)),
    ):

        def export_opt(demand: Any = demand) -> tuple[int, int, int, int]:
            buf = io.StringIO()
            counts = p.query(L.export_opt_lp, spec, demand, buf)
            model = p.query(L.parse_lp, buf.getvalue())
            return counts.variables, counts.constraints, len(model.variables()), len(model.constraints)

        p.op(f"lp.opt.{name}", export_opt, _roundtrip_problems)

    # GLLB on rectangles, radii capped as tests/test_grid.py caps them
    built: dict[tuple, Any] = {}
    for rows, cols, ks in cfg["gllb"]:
        rect = lib.torus.TorusSpec(rows, cols)
        for k in ks:
            r1, r2 = S.gllb_radii(rect, k)
            key = (rows, cols, min(r1, rows // 2), min(r2, cols // 2))

            def compute(key: tuple = key, rect: Any = rect, k: int = k) -> Any:
                if key not in built:
                    built[key] = p.build(S.build_gllb, rect, key[2], key[3])
                return p.query(E.worst_case_load, built[key], k)

            def bound(res: Any, rect: Any = rect, k: int = k) -> list[str]:
                b = lib.bounds.general_torus_bounds(rect, k)
                if b.general_lb - TOL <= res.value <= b.general_ub + TOL:
                    return []
                return [f"exact {res.value!r} outside general bounds "
                        f"[{b.general_lb!r}, {b.general_ub!r}]"]

            p.op(
                f"gllb.{rows}x{cols}.k{k}", compute,
                lambda res, key=key, k=k: witness_problems(lib, built[key], res, k),
                bound=bound, record=_record_wc,
            )


def _roundtrip_problems(sizes: tuple[int, int, int, int]) -> list[str]:
    exported_vars, exported_cons, parsed_vars, parsed_cons = sizes
    if (exported_vars, exported_cons) != (parsed_vars, parsed_cons):
        return [f"export {exported_vars}x{exported_cons} != parsed {parsed_vars}x{parsed_cons}"]
    return []


WORKLOADS: dict[str, Callable[[Pass, dict, int], None]] = {
    "table1-10x10": table1,
    "worstcase-12x12": worstcase,
    "verify-sweep": verify_sweep,
}
