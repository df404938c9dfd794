"""Command-line driver: reproduce the benchmark tables, sweep bounds, and
export LP files, all with fixed seeds and CSV output.

Each CSV command builds its rows and hands them to one writer, ``_emit``,
which ends every CSV with a ``# seed=...,version=...`` provenance comment;
the LP exports stream into the same output.  Identical configuration plus
seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, TextIO

from toruslb import __version__ as VERSION
from toruslb import bounds as bounds_mod
from toruslb.evaluate import edge_loads, run_trials, worst_case_load, worst_case_profile
from toruslb.lpexport import LpCounts, export_opt_lp, export_reduced_oblivious_lp
from toruslb.policy import OriginPolicy, edge_entries
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb, gllb_radii, llb_radius
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


def _radius(args: argparse.Namespace) -> int:
    return args.r if args.r is not None else llb_radius(_spec(args), args.k)


def _build_scheme(name: str, args: argparse.Namespace) -> OriginPolicy:
    spec = _spec(args)
    if name == "ecmp":
        return build_ecmp(spec)
    if name == "vlb":
        return build_vlb(spec)
    if name == "llb":
        return build_llb(spec, _radius(args))
    if name == "gllb":
        return build_gllb(spec, *gllb_radii(spec, args.k))
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
    # a unique name, as a killed run leaves its temporary file behind
    fd, tmp = tempfile.mkstemp(
        suffix=".tmp", prefix=f".{os.path.basename(target)}.", dir=os.path.dirname(target)
    )
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode open(target, "w") gives, not 0600
        with open(fd, "w") as sink:
            yield sink
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(args: argparse.Namespace, *lines: list | str) -> None:
    """Write each list as one comma-joined row of ``str`` values (``repr``
    for floats) and each string as it is, then the provenance footer."""
    with _output(args.out) as sink:
        for line in lines:
            sink.write(line if isinstance(line, str) else ",".join(map(str, line)) + "\n")
        sink.write(f"# seed={args.seed},version={VERSION}\n")


def _table(args: argparse.Namespace, metric: str, external: list[str], *notes: str) -> None:
    """ECMP, VLB and LLB's ``metric`` on split-diamond, hotspot and, as the
    mean over ``--trials`` random demands, on random traffic; each
    ``external`` column names an LP value that needs a solver."""
    schemes = [_build_scheme(name, args) for name in ("ecmp", "vlb", "llb")]
    unsolved = ["external"] * len(external)
    rows = [["traffic", "ecmp", "vlb", "llb", *external]]
    for traffic in ("split-diamond", "hotspot"):
        d = _build_traffic(traffic, args)
        rows.append([traffic, *(getattr(edge_loads(p, d), metric) for p in schemes), *unsolved])
    demands = partial(gen_random_sparse, _spec(args), args.k)
    summaries = [run_trials(p, demands, trials=args.trials, base_seed=args.seed) for p in schemes]
    rows.append(["random", *(getattr(s, f"{metric}_mean") for s in summaries), *unsolved])
    _emit(args, *rows, *notes)


def cmd_table1(args: argparse.Namespace) -> None:
    _table(
        args, "max_load", ["o_opt", "opt"],
        "# o_opt/opt columns require an external LP solve; see export-lp and export-opt\n",
    )


def cmd_table2(args: argparse.Namespace) -> None:
    _table(args, "avg_hops", [])


def cmd_bounds(args: argparse.Namespace) -> None:
    spec = _spec(args)
    if args.k > spec.rows * spec.cols // 2:
        raise ValueError("k range must stay within N^2/2")
    radius = {k: llb_radius(spec, k) for k in range(2, args.k + 1)}
    # one build and one matching run per radius, to the largest k it serves
    kmax = {r: k for k, r in radius.items()}
    measured = {r: worst_case_profile(build_llb(spec, r), kmax[r]).tolist() for r in kmax}
    rows = [
        [k, bounds_mod.cut_lower_bound(k), bounds_mod.oblivious_lower_bound(k),
         measured[r][k - 1], bounds_mod.llb_load_upper(r, k)]
        for k, r in radius.items()
    ]
    _emit(args, ["k", "cut_lb", "oblivious_lb", "measured_llb", "llb_ub"], *rows)


def cmd_worst_case(args: argparse.Namespace) -> None:
    result = worst_case_load(_build_scheme(args.scheme, args), args.k)
    tail, direction = result.edge
    header = ["scheme", "k", "value", "edge_tail_x", "edge_tail_y", "dir"]
    row = [args.scheme, args.k, result.value, tail.x, tail.y, direction.token]
    # traffic_to_csv ends its rows in the csv module's \r\n; the CLI's in \n
    witness = traffic_to_csv(result.witness).replace("\r\n", "\n")
    _emit(args, header, row, "# witness follows\n", witness)


def cmd_evaluate(args: argparse.Namespace) -> None:
    policy = _build_scheme(args.scheme, args)
    report = edge_loads(policy, _build_traffic(args.traffic, args))
    _emit(
        args,
        f"# scheme={args.scheme},traffic={args.traffic}\n",
        f"# max_load={report.max_load!r},avg_hops={report.avg_hops!r}\n",
        ["edge_tail_x", "edge_tail_y", "dir", "load"],
        *([e.tail.x, e.tail.y, e.dir.token, load] for e, load in edge_entries(report.load)),
    )


def _export(args: argparse.Namespace, export: Callable[[TextIO], LpCounts], *keys: str) -> None:
    """Stream an LP into the output, then print the named counts to stderr."""
    with _output(args.out) as sink:
        counts = export(sink)
    print(" ".join(f"{key}={getattr(counts, key)}" for key in keys), file=sys.stderr)


def cmd_export_lp(args: argparse.Namespace) -> None:
    export = partial(export_reduced_oblivious_lp, _spec(args), args.k)
    _export(args, export, "variables", "constraints", "flow_variables")


def cmd_export_opt(args: argparse.Namespace) -> None:
    export = partial(export_opt_lp, _spec(args), _build_traffic(args.traffic, args))
    _export(args, export, "variables", "constraints")


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
        args.func(args)
    except Exception as exc:  # runtime failures exit 1, usage errors exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
