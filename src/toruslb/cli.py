"""Command-line driver: reproduce the benchmark tables, sweep bounds, and
export LP files, all with fixed seeds and CSV output.

Every CSV ends with a ``# seed=...,version=...`` provenance comment, and
identical configuration plus seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, TextIO

from toruslb import __version__ as VERSION
from toruslb import bounds as bounds_mod
from toruslb.evaluate import edge_loads, load_report_to_csv, run_trials, worst_case_load
from toruslb.lpexport import export_opt_lp, export_reduced_oblivious_lp
from toruslb.policy import OriginPolicy
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb, gllb_radii
from toruslb.torus import TorusSpec
from toruslb.traffic import (
    TrafficMatrix,
    gen_hotspot,
    gen_random_sparse,
    gen_split_diamond,
    traffic_to_csv,
)

DEFAULT_SEED = 20240917


@dataclass
class RunConfig:
    rows: int = 10
    cols: int = 10
    cap_vertical: float = 1.0
    cap_horizontal: float = 1.0
    k: int = 18
    r: int | None = None
    scheme: str = "llb"
    traffic: str = "split-diamond"
    trials: int = 1000
    seed: int = DEFAULT_SEED
    out: str | None = None

    def spec(self) -> TorusSpec:
        return TorusSpec(self.rows, self.cols, self.cap_vertical, self.cap_horizontal)

    def radius(self) -> int:
        if self.r is not None:
            return self.r
        return bounds_mod.best_llb_radius(self.k, max_r=max(1, self.rows // 2 - 1))


def _build_scheme(name: str, config: RunConfig) -> OriginPolicy:
    spec = config.spec()
    if name == "ecmp":
        return build_ecmp(spec)
    if name == "vlb":
        return build_vlb(spec)
    if name == "llb":
        return build_llb(spec, config.radius())
    if name == "gllb":
        r1, r2 = gllb_radii(spec, config.k)
        return build_gllb(spec, min(r1, spec.rows // 2), min(r2, spec.cols // 2))
    if name == "ring":
        return build_ring_lb(spec)
    raise ValueError(f"unknown scheme {name!r}")


def _build_traffic(name: str, config: RunConfig, seed: int | None = None) -> TrafficMatrix:
    spec = config.spec()
    if name == "split-diamond":
        return gen_split_diamond(spec, config.radius())
    if name == "hotspot":
        return gen_hotspot(spec, config.k)
    if name == "random":
        return gen_random_sparse(spec, config.k, config.seed if seed is None else seed)
    raise ValueError(f"unknown traffic {name!r}")


@contextmanager
def _output(config: RunConfig) -> Iterator[TextIO]:
    """Standard output, or ``--out`` written through a temporary file in the
    same directory that replaces the target only once the command succeeds,
    so a failed run leaves no partial file behind."""
    if not config.out or config.out == "-":
        yield sys.stdout
        return
    target = os.path.abspath(config.out)
    tmp = os.path.join(
        os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp"
    )
    sink = open(tmp, "x")
    try:
        with sink:
            yield sink
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _footer(sink: TextIO, config: RunConfig) -> None:
    sink.write(f"# seed={config.seed},version={VERSION}\n")


def _table_rows(config: RunConfig, metric: Callable[[OriginPolicy, TrafficMatrix], float]):
    schemes = [(name, _build_scheme(name, config)) for name in ("ecmp", "vlb", "llb")]
    rows = []
    for traffic_name in ("split-diamond", "hotspot"):
        d = _build_traffic(traffic_name, config)
        rows.append((traffic_name, [metric(p, d) for _, p in schemes]))
    spec = config.spec()
    means = []
    for _, p in schemes:
        summary = run_trials(
            p,
            partial(gen_random_sparse, spec, config.k),
            trials=config.trials,
            base_seed=config.seed,
        )
        means.append(summary)
    return rows, means


def cmd_table1(config: RunConfig) -> int:
    rows, means = _table_rows(config, lambda p, d: edge_loads(p, d).max_load)
    with _output(config) as sink:
        sink.write("traffic,ecmp,vlb,llb,o_opt,opt\n")
        for name, vals in rows:
            sink.write(
                f"{name},{vals[0]!r},{vals[1]!r},{vals[2]!r},external,external\n"
            )
        sink.write(
            "random,"
            + ",".join(repr(s.max_load_mean) for s in means)
            + ",external,external\n"
        )
        sink.write("# o_opt/opt columns require an external LP solve;"
                   " see export-lp and export-opt\n")
        _footer(sink, config)
    return 0


def cmd_table2(config: RunConfig) -> int:
    rows, means = _table_rows(config, lambda p, d: edge_loads(p, d).avg_hops)
    with _output(config) as sink:
        sink.write("traffic,ecmp,vlb,llb\n")
        for name, vals in rows:
            sink.write(f"{name},{vals[0]!r},{vals[1]!r},{vals[2]!r}\n")
        sink.write("random," + ",".join(repr(s.avg_hops_mean) for s in means) + "\n")
        _footer(sink, config)
    return 0


def cmd_bounds(config: RunConfig) -> int:
    spec = config.spec()
    if config.k > spec.rows * spec.cols // 2:
        raise ValueError("k range must stay within N^2/2")
    with _output(config) as sink:
        sink.write("k,cut_lb,oblivious_lb,measured_llb,llb_ub\n")
        policies: dict[int, OriginPolicy] = {}
        for k in range(2, config.k + 1):
            r = bounds_mod.best_llb_radius(k, max_r=max(1, spec.rows // 2 - 1))
            if r not in policies:
                policies[r] = build_llb(spec, r)
            measured = worst_case_load(policies[r], k).value
            sink.write(
                f"{k},{bounds_mod.cut_lower_bound(k)!r},"
                f"{bounds_mod.oblivious_lower_bound(k)!r},{measured!r},"
                f"{bounds_mod.llb_load_upper(r, k)!r}\n"
            )
        _footer(sink, config)
    return 0


def cmd_worst_case(config: RunConfig) -> int:
    policy = _build_scheme(config.scheme, config)
    result = worst_case_load(policy, config.k)
    e = result.edge
    with _output(config) as sink:
        sink.write("scheme,k,value,edge_tail_x,edge_tail_y,dir\n")
        sink.write(
            f"{config.scheme},{config.k},{result.value!r},{e.tail.x},{e.tail.y},{e.dir.token}\n"
        )
        sink.write("# witness follows\n")
        sink.write(traffic_to_csv(result.witness))
        _footer(sink, config)
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    policy = _build_scheme(config.scheme, config)
    demand = _build_traffic(config.traffic, config)
    report = edge_loads(policy, demand)
    with _output(config) as sink:
        sink.write(f"# scheme={config.scheme},traffic={config.traffic}\n")
        sink.write(f"# max_load={report.max_load!r},avg_hops={report.avg_hops!r}\n")
        sink.write(load_report_to_csv(report))
        _footer(sink, config)
    return 0


def cmd_export_lp(config: RunConfig) -> int:
    with _output(config) as sink:
        counts = export_reduced_oblivious_lp(config.spec(), config.k, sink)
    print(
        f"variables={counts.variables} constraints={counts.constraints} "
        f"flow_variables={counts.flow_variables}",
        file=sys.stderr,
    )
    return 0


def cmd_export_opt(config: RunConfig) -> int:
    demand = _build_traffic(config.traffic, config)
    with _output(config) as sink:
        counts = export_opt_lp(config.spec(), demand, sink)
    print(
        f"variables={counts.variables} constraints={counts.constraints}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslb",
        description="Oblivious routing schemes and worst-case evaluation on 2-D tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "table1": cmd_table1,
        "table2": cmd_table2,
        "bounds": cmd_bounds,
        "worst-case": cmd_worst_case,
        "evaluate": cmd_evaluate,
        "export-lp": cmd_export_lp,
        "export-opt": cmd_export_opt,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=10, help="rows (vertical extent)")
        p.add_argument("--m", type=int, default=None, help="cols (defaults to --n)")
        p.add_argument("--c1", type=float, default=1.0, help="vertical link capacity")
        p.add_argument("--c2", type=float, default=1.0, help="horizontal link capacity")
        p.add_argument("--k", type=int, default=18)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--scheme", default="llb",
                       choices=["ecmp", "vlb", "llb", "gllb", "ring"])
        p.add_argument("--traffic", default="split-diamond",
                       choices=["split-diamond", "hotspot", "random"])
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        rows=args.n,
        cols=args.m if args.m is not None else args.n,
        cap_vertical=args.c1,
        cap_horizontal=args.c2,
        k=args.k,
        r=args.r,
        scheme=args.scheme,
        traffic=args.traffic,
        trials=args.trials,
        seed=args.seed,
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(config_from_args(args))
    except Exception as exc:  # runtime failures exit 1, usage errors exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
