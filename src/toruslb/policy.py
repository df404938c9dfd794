"""Routing-policy representations and their structural checks.

Both policy classes hold one dense float array.  Its node axes follow
:meth:`TorusSpec.nodes` order (flat index ``y * cols + x``), and its last
three axes form a *slab* ``[dir, y, x]``: the fraction of one route carried
by the edge leaving (x, y) in direction ``dir`` (the :class:`Direction`
value).

* :class:`OriginPolicy` stores ``flows = G[t, dir, y, x]``, the route from
  the origin to destination offset t.  The origin's own slab is all zeros.
  Translation invariance gives every pair: s -> s+t carries ``G[t]`` moved
  by s, so the flow on the edge leaving u is ``G[t]`` read at u - s.
* :class:`FullPolicy` stores ``flows = F[s, t, dir, y, x]`` per pair and is
  used for symmetrization experiments and arbitrary-policy evaluation.

Both classes are read only through :meth:`~OriginPolicy.gather`, the slabs
of many pairs in one array gather (``G[t - s]`` at every cell shifted by
its source, or ``F[s, t]``), and :meth:`~OriginPolicy.on_edge`, every
pair's flow on one edge.  :func:`expand` is gather's all-pairs case, and
the load evaluator gathers a block of demands' pairs in one call.

A zero slab means the policy routes nothing for that destination or pair;
validation and CSV output skip it.  Translations are rolls and the point
group acts by the index maps of :func:`~toruslb.torus.automorphism_index_maps`,
so symmetrization and the reflection check are whole-array operations.
Both classes make their flows read-only on construction, so a policy's
reflection invariance is a fixed fact, held by
:attr:`OriginPolicy.reflection_invariant`: :func:`symmetrize_origin` and the
ECMP and VLB constructors record it for their output, which is invariant by
construction, and any other policy is checked once, on first use.  Policies
enter and leave only as these arrays: the scheme constructors write their
routes into them, :func:`policy_to_csv` writes either class in one sorted
walk, and :func:`origin_policy_from_csv` reads rows into ``G``, naming the
line of a row with a wrong field count or a non-number, a node off the grid,
destination (0, 0), an unknown direction or a fraction that is not finite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from io import StringIO

import numpy as np

from toruslb.torus import (
    Automorphism,
    DIRECTION_FROM_TOKEN,
    DirectedEdge,
    Direction,
    Node,
    TorusSpec,
    automorphism_index_maps,
    node_index,
    point_group,
)

CONSERVATION_TOL = 1e-9
BOUND_TOL = 1e-12

@lru_cache(maxsize=16)
def _differences(rows: int, cols: int) -> np.ndarray:
    """``D[s, t]``: the flat index of t - s for flat node indices s and t of a
    rows x cols torus, read-only and built once per shape.  Row s takes every
    node u to u - s, so pair s -> t routes ``G[D[s, t]]`` read at ``D[s]``."""
    dy = (np.arange(rows) - np.arange(rows)[:, None]) % rows * cols
    dx = (np.arange(cols) - np.arange(cols)[:, None]) % cols
    diff = (dy[:, None, :, None] + dx[None, :, None, :]).reshape(rows * cols, rows * cols)
    diff.flags.writeable = False
    return diff


def translate(slab: np.ndarray, by: Node) -> np.ndarray:
    """Shift the trailing ``[y, x]`` axes so the flow at u moves to u + by."""
    return np.roll(slab, (by.y, by.x), axis=(-2, -1))


def edge_entries(slab: np.ndarray) -> list[tuple[DirectedEdge, float]]:
    """Nonzero entries of one ``[dir, y, x]`` slab in sorted edge order."""
    xs, ys, ds = (a.tolist() for a in np.nonzero(slab.transpose(2, 1, 0)))
    values = slab[ds, ys, xs].tolist()
    return [
        (DirectedEdge(Node(x, y), Direction(d)), v)
        for x, y, d, v in zip(xs, ys, ds, values)
    ]


def _check_shape(spec: TorusSpec, flows: np.ndarray, node_axes: int) -> None:
    shape = (spec.num_nodes,) * node_axes + (4, spec.rows, spec.cols)
    if flows.shape != shape:
        raise ValueError(f"flows have shape {flows.shape}, expected {shape}")


@dataclass(frozen=True, eq=False)
class OriginPolicy:
    spec: TorusSpec
    flows: np.ndarray

    def __post_init__(self) -> None:
        _check_shape(self.spec, self.flows, 1)
        self.flows.flags.writeable = False

    @cached_property
    def reflection_invariant(self) -> bool:
        """Whether the reflection identities hold.  The scheme constructors
        record True for their output, which is invariant by construction; any
        other policy (read from CSV or built from a user's array) runs
        :func:`check_reflection_invariance` at its default tolerance once, as
        the flows are read-only and the verdict cannot change."""
        return check_reflection_invariance(self)

    def gather(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Edge flows ``[k, dir, y, x]`` of the k pairs src[i] -> dst[i]
        (flat node indices): ``G[dst - src]`` read at every cell u shifted
        back by its source, at u - src; both differences come from
        :func:`_differences`."""
        spec = self.spec
        n = spec.num_nodes
        diff = _differences(spec.rows, spec.cols)
        slab = (diff[src, dst] * 4)[:, None, None] + np.arange(4)[:, None]  # (t - s, dir) rows
        cell = slab * n + diff[src][:, None, :]
        return np.take(self.flows, cell).reshape(-1, 4, spec.rows, spec.cols)

    def on_edge(self, edge: DirectedEdge) -> np.ndarray:
        """``W[s, t]``: the fraction of pair s -> t on ``edge``, which is
        ``G[t - s]`` read at the edge's tail translated by -s; an off-grid
        tail or a value that is no ``Direction`` raises ``ValueError``."""
        spec = self.spec
        n = spec.num_nodes
        diff = _differences(spec.rows, spec.cols)
        tail = node_index(spec, edge.tail)
        return self.flows.reshape(n, 4, n)[diff, Direction(edge.dir), diff[:, tail, None]]


@dataclass(frozen=True, eq=False)
class FullPolicy:
    spec: TorusSpec
    flows: np.ndarray

    def __post_init__(self) -> None:
        _check_shape(self.spec, self.flows, 2)
        self.flows.flags.writeable = False

    def gather(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Edge flows ``[k, dir, y, x]`` of the k pairs src[i] -> dst[i]."""
        return self.flows[src, dst]

    def on_edge(self, edge: DirectedEdge) -> np.ndarray:
        """``W[s, t]``: the fraction of pair s -> t on ``edge``."""
        y, x = divmod(node_index(self.spec, edge.tail), self.spec.cols)
        return self.flows[:, :, Direction(edge.dir), y, x]


Policy = OriginPolicy | FullPolicy


def validate_policy(p: Policy) -> list[str]:
    """Flow-conservation and box-bound check of every routed destination
    (or pair), which a NaN flow fails; an empty list means valid."""
    spec = p.spec
    n = spec.num_nodes
    slabs = p.flows.reshape(-1, 4, spec.rows, spec.cols)  # origin: source 0 throughout
    src, dst = np.divmod(np.arange(len(slabs)), n)
    routed = np.flatnonzero(slabs.any(axis=(1, 2, 3)))
    slabs, src, dst = slabs[routed], src[routed], dst[routed]
    inflow = sum(translate(slabs[:, d], Node(*d.delta)) for d in Direction)
    balance = slabs.sum(axis=1) - inflow
    ys, xs = np.divmod(np.arange(n), spec.cols)
    balance[np.arange(len(routed)), ys[src], xs[src]] -= 1.0
    balance[np.arange(len(routed)), ys[dst], xs[dst]] += 1.0
    out_of_box = ~((slabs >= -BOUND_TOL) & (slabs <= 1.0 + BOUND_TOL)).all(axis=(1, 2, 3))
    unbalanced = ~(np.abs(balance) <= CONSERVATION_TOL).all(axis=(1, 2))
    nodes = list(spec.nodes())
    violations: list[str] = []
    for i in np.flatnonzero(out_of_box | unbalanced):
        s, t = nodes[src[i]], nodes[dst[i]]
        label = f"dest {t}" if isinstance(p, OriginPolicy) else f"pair {s}->{t}"
        for edge, v in edge_entries(slabs[i]):
            if not -BOUND_TOL <= v <= 1.0 + BOUND_TOL:
                violations.append(f"{label}: flow {v!r} on {edge} outside [0, 1]")
        for y, x in zip(*np.nonzero(~(np.abs(balance[i]) <= CONSERVATION_TOL))):
            node = Node(int(x), int(y))
            violations.append(f"{label}: node {node} residual {balance[i, y, x]:.3e}")
    return violations


def expand(g: OriginPolicy) -> FullPolicy:
    """Materialize the translation-invariant full policy for every pair."""
    spec = g.spec
    n = spec.num_nodes
    src, dst = np.divmod(np.arange(n * n), n)
    flows = g.gather(src, dst).reshape(n, n, 4, spec.rows, spec.cols)
    return FullPolicy(spec=spec, flows=flows)


def _pull_back(spec: TorusSpec, flat: np.ndarray, phi: Automorphism) -> np.ndarray:
    """``flat[..., dir, node]`` (node axes flattened) read at phi's images:
    entry (a, b, ..., d, u) becomes flat[phi(a), phi(b), ..., phi(d), phi(u)]."""
    nodes, dirs = automorphism_index_maps(spec, phi)
    return flat[np.ix_(*[nodes] * (flat.ndim - 2), dirs, nodes)]


def _average(spec: TorusSpec, flows: np.ndarray, group: list[Automorphism]) -> np.ndarray:
    flat = flows.reshape(flows.shape[:-2] + (spec.num_nodes,))
    weight = 1.0 / len(group)
    out = np.zeros_like(flat)
    for phi in group:
        out += weight * _pull_back(spec, flat, phi)
    return out.reshape(flows.shape)


def symmetrize(f: FullPolicy, group: list[Automorphism]) -> FullPolicy:
    """Average a policy over a set of automorphisms.  The result is invariant
    under every group element and its worst-case load never exceeds the
    input's."""
    if not group:
        raise ValueError("group must be nonempty")
    return FullPolicy(spec=f.spec, flows=_average(f.spec, f.flows, group))


def symmetrize_origin(g: OriginPolicy) -> OriginPolicy:
    """Average an origin policy over the spec's point group, enforcing the
    reflection identities destination class by destination class.  Point-group
    elements are involutions, so pulling back equals pushing forward.

    The result is reflection invariant by construction, and its
    :attr:`~OriginPolicy.reflection_invariant` is recorded as True without a
    check: every point-group image of the average is the same sum of
    ``len(group)`` terms in another order, so it differs from the average
    only by rounding, about 1e-15 for flows in [0, 1]."""
    flows = _average(g.spec, g.flows, point_group(g.spec))
    return _invariant_by_construction(OriginPolicy(spec=g.spec, flows=flows))


def _invariant_by_construction(g: OriginPolicy) -> OriginPolicy:
    """``g`` with :attr:`~OriginPolicy.reflection_invariant` recorded as True
    without a check, for a policy reflection invariant by construction."""
    vars(g)["reflection_invariant"] = True  # fills the cached property
    return g


def check_reflection_invariance(g: OriginPolicy) -> bool:
    """True iff the applicable reflection identities hold: origin reflection
    always, the x=y reflection additionally on square symmetric specs."""
    spec = g.spec
    flat = g.flows.reshape(spec.num_nodes, 4, spec.num_nodes)
    for phi in point_group(spec)[1:]:
        image = _pull_back(spec, flat, phi)  # the one copy of the flows held
        image -= flat
        if not np.abs(image, out=image).max() <= CONSERVATION_TOL:  # NaN fails too
            return False
        del image  # before the next element's copy is made
    return True


ORIGIN_CSV_HEADER = ["dst_x", "dst_y", "tail_x", "tail_y", "dir", "fraction"]
FULL_CSV_HEADER = ["src_x", "src_y"] + ORIGIN_CSV_HEADER


def policy_to_csv(p: Policy) -> str:
    """Every nonzero flow as a row, sorted by source (full policies only),
    destination and tail, each as (x, y), then direction: the order of one
    ``np.nonzero`` over ``flows`` with each node axis split into (x, y)."""
    spec = p.spec
    node_axes = p.flows.ndim - 3
    grid = p.flows.reshape((spec.rows, spec.cols) * node_axes + (4, spec.rows, spec.cols))
    tail = 2 * node_axes  # axes (y, x) per node, then the slab's (dir, y, x)
    walk = grid.transpose([a ^ 1 for a in range(tail)] + [tail + 2, tail + 1, tail])
    index = np.nonzero(walk)
    *coords, dirs = (a.tolist() for a in index)
    tokens = [d.token for d in Direction]
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(FULL_CSV_HEADER[2 * (2 - node_axes):])
    writer.writerows(zip(*coords, map(tokens.__getitem__, dirs), map(repr, walk[index].tolist())))
    return buf.getvalue()


def origin_policy_from_csv(spec: TorusSpec, text: str) -> OriginPolicy:
    """:func:`policy_to_csv`'s rows of an :class:`OriginPolicy`, each written
    into ``G[t, dir, y, x]`` (a later row overrides an earlier one); a row
    that cannot be placed, or whose fraction is NaN or infinite, raises
    ``ValueError`` naming its line."""
    reader = csv.reader(StringIO(text))
    header = next(reader)
    if header != ORIGIN_CSV_HEADER:
        raise ValueError(f"unexpected header {header}")
    g = np.zeros((spec.num_nodes, 4, spec.rows, spec.cols))
    for row in reader:
        if not row:
            continue
        try:
            tx, ty, ex, ey, tok, v = row
            xs, ys = (int(tx), int(ex)), (int(ty), int(ey))
            if not all(0 <= x < spec.cols for x in xs) or not all(0 <= y < spec.rows for y in ys):
                raise ValueError(f"node off the grid x < {spec.cols}, y < {spec.rows}")
            if xs[0] == ys[0] == 0:
                raise ValueError("destination (0, 0) is the origin, which routes nothing")
            if tok not in DIRECTION_FROM_TOKEN:
                raise ValueError(f"unknown direction {tok!r}")
            fraction = float(v)
            if not math.isfinite(fraction):
                raise ValueError(f"fraction {v} is not finite")
            g[ys[0] * spec.cols + xs[0], DIRECTION_FROM_TOKEN[tok], ys[1], xs[1]] = fraction
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {','.join(row)}: {exc}") from None
    return OriginPolicy(spec=spec, flows=g)
