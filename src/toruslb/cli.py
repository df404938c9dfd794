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
from functools import partial
from typing import Callable, Iterator, TextIO

from toruslb import __version__ as VERSION
from toruslb import bounds as bounds_mod
from toruslb.evaluate import edge_loads, load_report_to_csv, run_trials, worst_case_load, worst_case_profile
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


def _int_at_least(lowest: int) -> Callable[[str], int]:
    """argparse type for --k and --trials (at least 1) and --seed (at least
    0): an integer of at least ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


def _spec(args: argparse.Namespace) -> TorusSpec:
    return TorusSpec(args.n, args.m if args.m is not None else args.n, args.c1, args.c2)


def _best_radius(n: int, k: int) -> int:
    """The radius minimizing ``llb_load_upper`` for k among those that LLB
    allows on an n x n torus, 1 <= r < n/2."""
    return bounds_mod.best_llb_radius(k, max_r=max(1, (n - 1) // 2))


def _radius(args: argparse.Namespace) -> int:
    return args.r if args.r is not None else _best_radius(args.n, args.k)


def _build_scheme(name: str, args: argparse.Namespace) -> OriginPolicy:
    spec = _spec(args)
    if name == "ecmp":
        return build_ecmp(spec)
    if name == "vlb":
        return build_vlb(spec)
    if name == "llb":
        return build_llb(spec, _radius(args))
    if name == "gllb":
        r1, r2 = gllb_radii(spec, args.k)
        return build_gllb(spec, min(r1, spec.rows // 2), min(r2, spec.cols // 2))
    if name == "ring":
        return build_ring_lb(spec)
    raise ValueError(f"unknown scheme {name!r}")


def _build_traffic(name: str, args: argparse.Namespace) -> TrafficMatrix:
    spec = _spec(args)
    if name == "split-diamond":
        return gen_split_diamond(spec, _radius(args))
    if name == "hotspot":
        return gen_hotspot(spec, args.k)
    if name == "random":
        return gen_random_sparse(spec, args.k, args.seed)
    raise ValueError(f"unknown traffic {name!r}")


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Standard output, or ``--out`` written through a temporary file in the
    same directory that replaces the target only once the command succeeds,
    so a failed run leaves no partial file behind."""
    if not out or out == "-":
        yield sys.stdout
        return
    target = os.path.abspath(out)
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


def _footer(sink: TextIO, args: argparse.Namespace) -> None:
    sink.write(f"# seed={args.seed},version={VERSION}\n")


def _table_rows(args: argparse.Namespace, metric: Callable[[OriginPolicy, TrafficMatrix], float]):
    schemes = [(name, _build_scheme(name, args)) for name in ("ecmp", "vlb", "llb")]
    rows = []
    for traffic_name in ("split-diamond", "hotspot"):
        d = _build_traffic(traffic_name, args)
        rows.append((traffic_name, [metric(p, d) for _, p in schemes]))
    spec = _spec(args)
    means = []
    for _, p in schemes:
        summary = run_trials(
            p,
            partial(gen_random_sparse, spec, args.k),
            trials=args.trials,
            base_seed=args.seed,
        )
        means.append(summary)
    return rows, means


def cmd_table1(args: argparse.Namespace) -> int:
    rows, means = _table_rows(args, lambda p, d: edge_loads(p, d).max_load)
    with _output(args.out) as sink:
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
        _footer(sink, args)
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows, means = _table_rows(args, lambda p, d: edge_loads(p, d).avg_hops)
    with _output(args.out) as sink:
        sink.write("traffic,ecmp,vlb,llb\n")
        for name, vals in rows:
            sink.write(f"{name},{vals[0]!r},{vals[1]!r},{vals[2]!r}\n")
        sink.write("random," + ",".join(repr(s.avg_hops_mean) for s in means) + "\n")
        _footer(sink, args)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.k > spec.rows * spec.cols // 2:
        raise ValueError("k range must stay within N^2/2")
    radius = {k: _best_radius(spec.rows, k) for k in range(2, args.k + 1)}
    # one build and one matching run per radius, to the largest k it serves
    kmax = {r: k for k, r in radius.items()}
    measured = {r: worst_case_profile(build_llb(spec, r), kmax[r]).tolist() for r in kmax}
    with _output(args.out) as sink:
        sink.write("k,cut_lb,oblivious_lb,measured_llb,llb_ub\n")
        for k, r in radius.items():
            sink.write(
                f"{k},{bounds_mod.cut_lower_bound(k)!r},"
                f"{bounds_mod.oblivious_lower_bound(k)!r},{measured[r][k - 1]!r},"
                f"{bounds_mod.llb_load_upper(r, k)!r}\n"
            )
        _footer(sink, args)
    return 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    policy = _build_scheme(args.scheme, args)
    result = worst_case_load(policy, args.k)
    e = result.edge
    with _output(args.out) as sink:
        sink.write("scheme,k,value,edge_tail_x,edge_tail_y,dir\n")
        sink.write(
            f"{args.scheme},{args.k},{result.value!r},{e.tail.x},{e.tail.y},{e.dir.token}\n"
        )
        sink.write("# witness follows\n")
        sink.write(traffic_to_csv(result.witness))
        _footer(sink, args)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    policy = _build_scheme(args.scheme, args)
    demand = _build_traffic(args.traffic, args)
    report = edge_loads(policy, demand)
    with _output(args.out) as sink:
        sink.write(f"# scheme={args.scheme},traffic={args.traffic}\n")
        sink.write(f"# max_load={report.max_load!r},avg_hops={report.avg_hops!r}\n")
        sink.write(load_report_to_csv(report))
        _footer(sink, args)
    return 0


def cmd_export_lp(args: argparse.Namespace) -> int:
    with _output(args.out) as sink:
        counts = export_reduced_oblivious_lp(_spec(args), args.k, sink)
    print(
        f"variables={counts.variables} constraints={counts.constraints} "
        f"flow_variables={counts.flow_variables}",
        file=sys.stderr,
    )
    return 0


def cmd_export_opt(args: argparse.Namespace) -> int:
    demand = _build_traffic(args.traffic, args)
    with _output(args.out) as sink:
        counts = export_opt_lp(_spec(args), demand, sink)
    print(
        f"variables={counts.variables} constraints={counts.constraints}",
        file=sys.stderr,
    )
    return 0


# every command reads --n and --out, plus these; table1, table2 and bounds
# take --n only, as LLB needs a square torus and their columns unit capacity
_FLAGS = {
    "m": dict(type=int, default=None, help="cols (defaults to --n)"),
    "c1": dict(type=float, default=1.0, help="vertical link capacity"),
    "c2": dict(type=float, default=1.0, help="horizontal link capacity"),
    "k": dict(type=_int_at_least(1), default=18),
    "r": dict(type=int, default=None),
    "scheme": dict(default="llb", choices=["ecmp", "vlb", "llb", "gllb", "ring"]),
    "traffic": dict(default="split-diamond", choices=["split-diamond", "hotspot", "random"]),
    "trials": dict(type=_int_at_least(1), default=1000),
    "seed": dict(type=_int_at_least(0), default=DEFAULT_SEED),
}
_COMMANDS = {
    "table1": (cmd_table1, ("k", "r", "trials", "seed")),
    "table2": (cmd_table2, ("k", "r", "trials", "seed")),
    "bounds": (cmd_bounds, ("k",)),
    "worst-case": (cmd_worst_case, ("m", "c1", "c2", "k", "r", "scheme")),
    "evaluate": (cmd_evaluate, ("m", "c1", "c2", "k", "r", "scheme", "traffic", "seed")),
    "export-lp": (cmd_export_lp, ("m", "c1", "c2", "k")),
    "export-opt": (cmd_export_opt, ("m", "c1", "c2", "k", "r", "traffic", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslb",
        description="Oblivious routing schemes and worst-case evaluation on 2-D tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=10, help="rows (vertical extent)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--out", default=None)
        # footers print the seed also where it cannot be set, and commands
        # without --m --c1 --c2 run on the square unit-capacity torus
        p.set_defaults(func=func, seed=DEFAULT_SEED, m=None, c1=1.0, c2=1.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # LLB and split-diamond are defined on square tori with equal capacities
    if args.m not in (None, args.n) or args.c1 != args.c2:
        for flag, value in (("scheme", "llb"), ("traffic", "split-diamond")):
            if getattr(args, flag, None) == value:
                parser.error(f"--{flag} {value} needs --m equal to --n and --c1 equal to --c2")
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 1, usage errors exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
