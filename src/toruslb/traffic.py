"""Traffic matrices, sparsity-class membership checks, and the generator
suite used for worst-case constructions and randomized experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from io import StringIO
from itertools import chain
from typing import Callable

import numpy as np

from toruslb.torus import Node, TorusSpec, node_add, weighted_distance


class TrafficError(ValueError):
    pass


class OddSizeUnsupported(TrafficError):
    """The worst-case generators are defined for even torus extents only."""


class NotSquare(TrafficError):
    pass


class DoesNotFit(TrafficError):
    pass


@lru_cache(maxsize=16)
def _node_table(rows: int, cols: int) -> tuple[tuple[Node, ...], frozenset[Node]]:
    """The nodes of a rows x cols torus in flat-index order (``y * cols +
    x``), and as a set for membership tests, built once per shape."""
    nodes = tuple(TorusSpec(rows, cols).nodes())
    return nodes, frozenset(nodes)


@dataclass(frozen=True)
class TrafficMatrix:
    """Sparse demand map (source, dest) -> units: both nodes among the grid's
    nodes and distinct, every demand positive and finite."""

    spec: TorusSpec
    entries: dict[tuple[Node, Node], float]

    def __post_init__(self) -> None:
        cols, rows = self.spec.cols, self.spec.rows
        grid = _node_table(rows, cols)[1]
        if not grid.issuperset(chain.from_iterable(self.entries)):
            s, t = next(pair for pair in self.entries if not grid.issuperset(pair))
            u = s if s not in grid else t
            raise TrafficError(f"node {u} of {s}->{t} is off the {cols}x{rows} grid")
        for (s, t), demand in self.entries.items():
            if s == t:
                raise TrafficError(f"self-demand at {s}")
            if not 0 < demand < math.inf:
                raise TrafficError(f"demand {demand} for {s}->{t} is not positive and finite")

    def total(self) -> float:
        return sum(self.entries.values())

    def sources(self) -> set[Node]:
        return {s for s, _ in self.entries}

    def sinks(self) -> set[Node]:
        return {t for _, t in self.entries}


@dataclass
class TrafficClassReport:
    is_hose: bool
    is_k_limited: bool
    is_k_sparse: bool
    total: float
    violations: list[str] = field(default_factory=list)


_RATE_TOL = 1e-9


def classify(d: TrafficMatrix, k: int) -> TrafficClassReport:
    """Check hose, k-limited, and k-sparse membership, reporting every
    violation found rather than stopping at the first."""
    out_rate: dict[Node, float] = {}
    in_rate: dict[Node, float] = {}
    for (s, t), demand in d.entries.items():
        out_rate[s] = out_rate.get(s, 0.0) + demand
        in_rate[t] = in_rate.get(t, 0.0) + demand
    sides = (("source", out_rate), ("sink", in_rate))
    violations = [
        f"{side} {u} rate {rate:.6g} exceeds 1"
        for side, rates in sides
        for u, rate in sorted(rates.items())
        if rate > 1.0 + _RATE_TOL
    ]
    is_hose = not violations
    total = d.total()
    if total > k + _RATE_TOL:
        violations.append(f"total demand {total:.6g} exceeds k={k}")
    crowded = [f"{len(rates)} {side}s exceed k={k}" for side, rates in sides if len(rates) > k]
    violations += crowded
    return TrafficClassReport(
        is_hose=is_hose,
        is_k_limited=is_hose and total <= k + _RATE_TOL,
        is_k_sparse=is_hose and not crowded,
        total=total,
        violations=violations,
    )


def gen_split_diamond(spec: TorusSpec, r: int) -> TrafficMatrix:
    """Two diamond-shaped source clusters, one hugging the origin and one
    hugging the antipode, every source sending one unit to the node half the
    torus away in both axes.  Total demand is exactly 2*r**2.  It is the
    first matrix of the unit-weight :func:`gen_generalized_split`."""
    if not spec.is_square_symmetric():
        raise NotSquare("split-diamond requires a square symmetric torus")
    n = spec.rows
    if n % 2 != 0:
        raise OddSizeUnsupported("split-diamond requires an even torus extent")
    if r < 1 or 2 * r * r > n * n // 2:
        raise TrafficError(f"need 1 <= 2*r^2 <= N^2/2, got r={r}")
    return gen_generalized_split(spec, 1.0, 1.0, r)[0]


def gen_hotspot(spec: TorusSpec, k: int) -> TrafficMatrix:
    """Two adjacent square-ish blocks: k sources filling a floor(sqrt(k))-wide
    block row-major from the origin, k sinks in the horizontally adjacent
    block, source i paired with sink i."""
    if k < 1 or k > spec.num_nodes // 2:
        raise TrafficError(f"need 1 <= k <= {spec.num_nodes // 2}")
    width = max(1, int(np.sqrt(k)))
    height = -(-k // width)
    if 2 * width > spec.cols or height > spec.rows:
        raise DoesNotFit(f"two {width}x{height} blocks do not fit on {spec.cols}x{spec.rows}")
    entries: dict[tuple[Node, Node], float] = {}
    for i in range(k):
        dx, dy = i % width, i // width
        entries[(Node(dx, dy), Node(width + dx, dy))] = 1.0
    return TrafficMatrix(spec=spec, entries=entries)


def gen_random_sparse(spec: TorusSpec, k: int, seed: int) -> TrafficMatrix:
    """k distinct sources and k distinct sinks drawn uniformly without
    replacement, paired by a uniform random permutation.  A permutation that
    pairs a node with itself is redrawn (and for k = 1 a sink equal to the
    source, which no permutation avoids), so the result is always a valid
    traffic matrix.  Deterministic given the seed, which must be nonnegative."""
    if k < 1 or k > spec.num_nodes:
        raise TrafficError(f"need 1 <= k <= {spec.num_nodes}")
    if seed < 0:
        raise TrafficError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    src_idx = rng.choice(spec.num_nodes, size=k, replace=False)
    dst_idx = rng.choice(spec.num_nodes, size=k, replace=False)
    while k == 1 and src_idx[0] == dst_idx[0]:  # no permutation avoids this self-pair
        dst_idx = rng.choice(spec.num_nodes, size=k, replace=False)
    while True:
        perm = rng.permutation(k)
        if (src_idx != dst_idx[perm]).all():
            break
    nodes = _node_table(spec.rows, spec.cols)[0]
    sources = [nodes[i] for i in src_idx.tolist()]
    sinks = [nodes[i] for i in dst_idx[perm].tolist()]
    return TrafficMatrix(spec=spec, entries=dict.fromkeys(zip(sources, sinks), 1.0))


def gen_generalized_split(
    spec: TorusSpec, lambda_v: float, lambda_h: float, r: float
) -> tuple[TrafficMatrix, TrafficMatrix]:
    """Weighted-distance analogue of the split-diamond pair for N x M tori.

    Both matrices send one unit per source toward the displacement that is
    half the torus in each axis; the first restricts sources to the lower
    half-plane in y, the second to the left half-plane in x.  Source sets are
    the open weighted ball around the origin and the closed weighted ball
    around the far node, matching the square construction, so each total is
    at most 2*r^2/(lambda_v*lambda_h)."""
    if spec.rows % 2 != 0 or spec.cols % 2 != 0:
        raise OddSizeUnsupported("generalized split requires even extents")
    if lambda_v <= 0 or lambda_h <= 0:
        raise TrafficError("weights must be positive")
    t_star = Node(spec.cols // 2, spec.rows // 2)
    origin = Node(0, 0)

    def wd(a: Node, b: Node) -> float:
        return weighted_distance(spec, a, b, lambda_v, lambda_h)

    def build(half_plane: Callable[[Node], bool]) -> TrafficMatrix:
        sources = [
            j
            for j in spec.nodes()
            if half_plane(j) and (wd(j, origin) < r or wd(j, t_star) <= r)
        ]
        return TrafficMatrix(
            spec=spec, entries={(s, node_add(spec, s, t_star)): 1.0 for s in sources}
        )

    d1 = build(lambda j: j.y <= spec.rows // 2 - 1)
    d2 = build(lambda j: j.x <= spec.cols // 2 - 1)
    return d1, d2


CSV_HEADER = ["src_x", "src_y", "dst_x", "dst_y", "demand"]


def traffic_to_csv(d: TrafficMatrix) -> str:
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for (s, t), v in sorted(d.entries.items()):
        writer.writerow([int(s.x), int(s.y), int(t.x), int(t.y), repr(float(v))])
    return buf.getvalue()


def traffic_from_csv(spec: TorusSpec, text: str) -> TrafficMatrix:
    """:func:`traffic_to_csv`'s rows as a matrix on ``spec``; a row that
    does not parse, that :class:`TrafficMatrix` rejects, or that repeats an
    earlier row's pair raises ``TrafficError`` naming its line."""
    reader = csv.reader(StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise TrafficError(f"unexpected header {header}")
    entries: dict[tuple[Node, Node], float] = {}
    for row in reader:
        if not row:
            continue
        try:
            sx, sy, tx, ty, v = row
            pair = (Node(int(sx), int(sy)), Node(int(tx), int(ty)))
            if pair in entries:
                raise TrafficError(f"pair {pair[0]}->{pair[1]} repeats an earlier row")
            entries |= TrafficMatrix(spec=spec, entries={pair: float(v)}).entries
        except ValueError as exc:
            raise TrafficError(f"line {reader.line_num}: {','.join(row)}: {exc}") from None
    return TrafficMatrix(spec=spec, entries=entries)
