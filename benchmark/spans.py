"""Spans around toruslb's public calls, recorded from outside the library.

A :class:`Tracer` replaces each traced function with a wrapper in every
``toruslb`` module that holds a reference to it, so calls the library makes
internally (``build_gllb`` calling ``build_ring_lb``, ``run_trials`` calling
``edge_loads``) are recorded too.  A span is ``(name, start, end, parent)``;
spans stay in memory until the round ends.  Self time is a span's duration
minus the durations of its direct children.

``torus`` helpers are not wrapped: they run millions of times per round and a
Python wrapper around each call would distort the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


def _nnz(policy: Any) -> int:
    """Nonzero destination-edge entries of a built policy, whose flows are
    per-destination edge dicts, or one array once policies are stored densely."""
    flows = policy.flows
    if isinstance(flows, dict):
        return sum(sum(1 for v in f.values() if v != 0) for f in flows.values())
    import numpy as np

    return int(np.count_nonzero(flows))


def _lp_size(args: tuple, result: Any) -> tuple[int, int, int]:
    sink = args[2]
    return len(sink.getvalue()), result.constraints, result.variables


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined, and an optional count taken
    from its arguments and result after the span has ended."""

    module: str
    name: str
    count: Callable[[tuple, Any], Any] | None = None


TARGETS = [
    Target("toruslb.traffic", "gen_random_sparse", lambda a, r: len(r.entries)),
    Target("toruslb.traffic", "gen_split_diamond", lambda a, r: len(r.entries)),
    Target("toruslb.traffic", "gen_hotspot", lambda a, r: len(r.entries)),
    Target("toruslb.schemes", "build_ecmp", lambda a, r: _nnz(r)),
    Target("toruslb.schemes", "build_vlb", lambda a, r: _nnz(r)),
    Target("toruslb.schemes", "build_llb", lambda a, r: _nnz(r)),
    Target("toruslb.schemes", "build_gllb", lambda a, r: _nnz(r)),
    Target("toruslb.schemes", "build_ring_lb", lambda a, r: _nnz(r)),
    Target("toruslb.policy", "symmetrize_origin"),
    Target("toruslb.policy", "check_reflection_invariance"),
    Target("toruslb.paths", "route_disjoint_quanta"),
    Target("toruslb.paths", "max_flow"),
    Target("toruslb.evaluate", "edge_loads"),
    Target("toruslb.evaluate", "run_trials"),
    Target("toruslb.evaluate", "worst_case_load"),
    Target("toruslb.evaluate", "candidate_edges"),
    Target("toruslb.evaluate", "pair_weights_on_edge", lambda a, r: len(r)),
    Target("toruslb.evaluate", "_k_matching_sparse", lambda a, r: len(r.assignment)),
    Target("toruslb.lpexport", "export_reduced_oblivious_lp", _lp_size),
    Target("toruslb.lpexport", "export_opt_lp", _lp_size),
    Target("toruslb.lpexport", "parse_lp"),
    Target("toruslb.lpexport", "check_oblivious_feasibility"),
]

# Internal steps a later change may remove or fold into others; the traced run
# then reports them as absent instead of failing.
OPTIONAL = {
    "candidate_edges",
    "symmetrize_origin",
    "check_reflection_invariance",
    "route_disjoint_quanta",
    "max_flow",
}

BUILDERS = ("build_ecmp", "build_vlb", "build_llb", "build_gllb", "build_ring_lb")


class Tracer:
    """Records spans while ``enabled``; harness-side checks switch it off so
    their library calls do not count toward any layer."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded ``toruslb`` module that refers to
        it.  Raises if a required target is missing."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "toruslb" or n.startswith("toruslb."))]
        for target in TARGETS:
            home = sys.modules.get(target.module)
            original = getattr(home, target.name, None)
            if original is None:
                if target.name not in OPTIONAL:
                    raise AttributeError(f"{target.module}.{target.name} is missing")
                self.absent.append(target.name)
                continue
            wrapped = self._wrap(target.name, original, target.count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def reset(self) -> None:
        """Forget the recorded spans, to record another round."""
        self.spans.clear()
        self._stack.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as out:
            for name, start, end, parent, _ in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self) -> dict[str, float | int]:
        """Per-layer self times, counts and call-time percentiles."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for i, (name, start, end, parent, count) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if count is None:
                continue
            if name in BUILDERS and parent >= 0 and spans[parent][0] in BUILDERS:
                continue  # a fallback build inside another build: count its result once
            if name.startswith("export_"):
                for key, value in zip(("lp_bytes", "lp_rows", "lp_cols"), count):
                    counts[key] = counts.get(key, 0) + value
                continue
            counts[name] = counts.get(name, 0) + count
        edge_us = [(s[2] - s[1]) * 1e6 for s in spans if s[0] == "edge_loads"]
        edges_evaluated = sum(
            1 for s in spans
            if s[0] == "pair_weights_on_edge" and s[3] >= 0 and spans[s[3]][0] == "worst_case_load"
        )

        def s(name: str) -> float:
            return self_s.get(name, 0.0)

        return {
            "traffic.gen_s": s("gen_random_sparse") + s("gen_split_diamond") + s("gen_hotspot"),
            "traffic.demand_entries": sum(
                counts.get(n, 0) for n in ("gen_random_sparse", "gen_split_diamond", "gen_hotspot")
            ),
            "schemes.build_ecmp_s": s("build_ecmp"),
            "schemes.build_vlb_s": s("build_vlb"),
            "schemes.build_llb_s": s("build_llb"),
            "schemes.build_gllb_s": s("build_gllb"),
            "schemes.build_ring_s": s("build_ring_lb"),
            "schemes.policy_nnz": sum(counts.get(n, 0) for n in BUILDERS),
            "policy.symmetrize_origin_s": s("symmetrize_origin"),
            "policy.check_reflection_invariance_s": s("check_reflection_invariance"),
            "policy.check_reflection_invariance_calls": calls.get("check_reflection_invariance", 0),
            "paths.route_disjoint_quanta_s": s("route_disjoint_quanta"),
            "paths.route_disjoint_quanta_calls": calls.get("route_disjoint_quanta", 0),
            "paths.max_flow_s": s("max_flow"),
            "paths.max_flow_calls": calls.get("max_flow", 0),
            "evaluate.edge_loads_s": s("edge_loads"),
            "evaluate.edge_loads_calls": calls.get("edge_loads", 0),
            "evaluate.edge_loads_p50_us": _percentile(edge_us, 50),
            "evaluate.edge_loads_p99_us": _percentile(edge_us, 99),
            "evaluate.run_trials_self_s": s("run_trials"),
            "evaluate.worst_case_load_s": s("worst_case_load"),
            "evaluate.worst_case_calls": calls.get("worst_case_load", 0),
            "evaluate.candidate_edges_s": s("candidate_edges"),
            "evaluate.edges_evaluated": edges_evaluated,
            "evaluate.pair_weights_s": s("pair_weights_on_edge"),
            "evaluate.pair_weights_nnz": counts.get("pair_weights_on_edge", 0),
            "evaluate.matching_s": s("_k_matching_sparse"),
            "evaluate.matching_size": counts.get("_k_matching_sparse", 0),
            "lpexport.export_reduced_s": s("export_reduced_oblivious_lp"),
            "lpexport.export_opt_s": s("export_opt_lp"),
            "lpexport.parse_lp_s": s("parse_lp"),
            "lpexport.check_oblivious_feasibility_s": s("check_oblivious_feasibility"),
            "lpexport.lp_bytes": counts.get("lp_bytes", 0),
            "lpexport.lp_rows": counts.get("lp_rows", 0),
            "lpexport.lp_cols": counts.get("lp_cols", 0),
        }


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
