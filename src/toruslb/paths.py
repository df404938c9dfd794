"""Stems, edge-disjoint paths between node sets, and exact min cuts.

A stem is the 4-legged cross of nodes within a per-axis radius of a center
(center excluded).  The local load-balancing schemes spread traffic over the
source stem, cross between stems on pairwise edge-disjoint paths, and
aggregate at the destination stem; ``_route_quanta`` routes that crossing
with two paths per stem node on each side, and ``max_flow`` finds the min
cuts that decide whether it exists.  Both run one integer max-flow routine,
``_augment`` (shortest augmenting paths), on edge ids that are slab
indices: the edge leaving (x, y) in direction ``dir`` is ``dir * num_nodes +
y * cols + x``, its place in a flattened ``[dir, y, x]`` policy slab, and its
head is read from :func:`toruslb.torus.edge_heads`.  Both take per-edge
capacities as one such slab, where 0 removes an edge; only
``find_disjoint_stem_paths`` and ``max_flow``'s cut turn ids into
``DirectedEdge``s.

``_augment`` works on one residual-capacity list in distance phases (Dinic,
1970): one reverse breadth-first search per phase labels nodes with their
residual distance to the demanders, and walks down those levels, each taking
the first usable edge in ``Direction`` order, find every augmenting path of
that length.  Each walk finds the path one breadth-first search per
augmenting path would find (shortest, then least by supplier and direction
sequence), so flows, paths and cuts do not depend on the phases.  The head
list, the reverse-edge ids and each node's out- and in-edges come from
``_shape_tables``, built once per ``(rows, cols)``.  ``_decompose_flow``
reads the flow straight from ``cap`` and ``res`` and splits it in one walk
per quantum, which erases each loop as soon as it closes.  Only ``max_flow``
searches the residual graph once more, with ``_reached``, for its cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Real

import numpy as np

from toruslb.torus import DirectedEdge, Direction, Node, TorusSpec, edge_heads, node_index


class PathError(ValueError):
    pass


class RadiusTooLarge(PathError):
    pass


class StemsOverlap(PathError):
    pass


class CutTooSmall(PathError):
    """The cut between suppliers and demanders admits fewer paths than their
    quotas ask for (for stems: fewer than two per stem node)."""


EdgePath = list[DirectedEdge]


@dataclass(frozen=True)
class Stem:
    center: Node
    members: tuple[Node, ...]

    @property
    def nodes(self) -> frozenset[Node]:
        """The members together with the center."""
        return frozenset(self.members) | {self.center}


def _whole_radius(name: str, r: object) -> int:
    """A stem radius as an int: a whole number such as 2 or 2.0 reads as 2;
    anything else, a bool included, raises ``ValueError`` naming it."""
    if isinstance(r, bool) or not isinstance(r, Real) or r % 1 != 0:
        raise ValueError(f"radius {name}={r!r} is not a whole number")
    return int(r)


def _stem_legs(rows: int, cols: int, r1: int, r2: int) -> tuple[np.ndarray, ...]:
    """The leg edges of the origin's stem on a rows x cols torus, in leg
    order +v, -v, +h, -h (leg index == ``Direction``), each by increasing
    hop: every edge's leg, its hop (the tail's distance from the origin), its
    slab id ``leg * rows * cols + y * cols + x`` and the (y, x) of the node it
    enters.  Unchecked: :func:`stem` and the stem builder in
    :mod:`toruslb.schemes` check the radii first."""
    radius = np.array([r1, r1, r2, r2])
    leg = np.repeat(np.arange(4), radius)
    hop = np.concatenate([np.arange(r) for r in radius])
    dx, dy = np.array([d.delta for d in Direction]).T[:, leg]
    edge = leg * rows * cols + (hop * dy % rows) * cols + hop * dx % cols
    return leg, hop, edge, (hop + 1) * dy % rows, (hop + 1) * dx % cols


def stem(spec: TorusSpec, center: Node, r1: int, r2: int) -> Stem:
    """Nodes differing from ``center`` in exactly one coordinate, within r1
    hops vertically or r2 hops horizontally: :func:`_stem_legs`'s heads
    moved by ``center``, in its order.  ``center`` must be one of the grid's
    nodes, and the radii whole numbers (see :func:`_whole_radius`)."""
    r1, r2 = _whole_radius("r1", r1), _whole_radius("r2", r2)
    y, x = divmod(node_index(spec, center), spec.cols)
    if r1 < 0 or r2 < 0:
        raise RadiusTooLarge("radii must be nonnegative")
    if 2 * r1 > spec.rows or 2 * r2 > spec.cols:
        raise RadiusTooLarge(
            f"legs overrun: need 2*r1 <= rows and 2*r2 <= cols, got r1={r1}, r2={r2}"
        )
    *_, head_y, head_x = _stem_legs(spec.rows, spec.cols, r1, r2)
    ys, xs = ((y + head_y) % spec.rows).tolist(), ((x + head_x) % spec.cols).tolist()
    # opposite legs meet at the antipode when 2*r equals the extent; keep the first
    return Stem(center=Node(x, y), members=tuple(dict.fromkeys(map(Node, xs, ys))))


def _disjoint_stems(
    spec: TorusSpec, src: Node, dst: Node, r1: int, r2: int
) -> tuple[Stem, Stem]:
    """The stems of ``src`` and ``dst``, which may not share a node, centers
    included."""
    s_stem, t_stem = stem(spec, src, r1, r2), stem(spec, dst, r1, r2)
    if not s_stem.nodes.isdisjoint(t_stem.nodes):
        raise StemsOverlap(f"stems of {src} and {dst} intersect")
    return s_stem, t_stem


EdgePairs = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=16)
def _shape_tables(
    rows: int, cols: int
) -> tuple[tuple[int, ...], tuple[int, ...], EdgePairs, EdgePairs]:
    """Edge tables of a rows x cols torus, built once per shape: every edge's
    head, the id of its reverse (which leaves the head in the opposite
    direction, ``dir ^ 1`` by :class:`Direction`'s bit layout), each node's
    ``(edge, head)`` pairs in ``Direction`` order, and each node's in-edges
    as ``(edge, tail)`` pairs."""
    n = rows * cols
    heads = tuple(edge_heads(TorusSpec(rows, cols)).ravel().tolist())
    back = tuple(((e // n) ^ 1) * n + v for e, v in enumerate(heads))
    adj = tuple(tuple((e, heads[e]) for e in range(u, 4 * n, n)) for u in range(n))
    into = tuple(tuple((back[e], v) for e, v in out) for out in adj)
    return heads, back, adj, into


def _augment(
    rows: int, cols: int, res: list[int], supply: dict[int, int], demand: dict[int, int]
) -> None:
    """Integer max flow from supplier quotas to demander quotas by shortest
    augmenting paths (Edmonds and Karp), found in distance phases (Dinic),
    over slab-index edge ids, between disjoint supplier and demander sets.

    ``res`` holds every edge's residual capacity: it starts as the capacity
    ``cap``, and an edge is usable while ``res[e] > 0``.  Sending an amount
    along an edge draws its residual down and raises its reverse's, so
    ``res[e]`` is ``cap[e]`` less the flow on e plus the flow on its reverse.
    A push cancels reverse flow first, so an edge and its reverse never both
    carry flow, and the flow on e is ``max(cap[e] - res[e], 0)``.  ``res``,
    ``supply`` and ``demand`` are drawn down in place.

    Each phase (Dinic, 1970) first labels every node with its residual
    distance to the demanders with quota left, by one breadth-first search
    over in-edges that stops after the level D of the nearest supplier with
    quota left.  Then, for each supplier at level D in ``supply`` order, a
    walk takes at each node the first residual edge, in ``Direction`` order,
    whose head is one level lower; a node with no such edge is dropped for
    the rest of the phase and the walk steps back one edge.  At a demander
    the walk sends ``min(supply, demand, bottleneck)``, drops the demander if
    its quota is spent, and resumes before the first edge it saturated (or
    before that demander).
    The phase ends when no supplier at level D reaches a demander.

    These are the paths one breadth-first search per augmenting path finds,
    seeded with the suppliers in order and visiting edges in ``Direction``
    order: the least (supplier position, direction sequence) among the
    shortest residual paths.  Within a phase no level falls, and a new
    residual edge (the reverse of a pushed one) climbs a level, so every
    residual path of length D from a supplier at level D descends one level
    per edge and lies in the level graph; a dropped node, or a supplier
    whose walk failed, never regains such a path in the phase; and a
    depth-first walk in ``Direction`` order that skips dead ends meets the
    lexicographically least path first.
    """
    _, back, adj, into = _shape_tables(rows, cols)
    n = rows * cols
    live = [False] * n
    for u, quota in supply.items():
        live[u] = quota > 0
    while True:
        level = [-1] * n
        frontier = [v for v, quota in demand.items() if quota > 0]
        for v in frontier:
            level[v] = 0
        depth = 0
        found = False
        while frontier and not found:
            depth += 1
            labelled = []
            for v in frontier:
                for e, u in into[v]:
                    if level[u] < 0 and res[e] > 0:
                        level[u] = depth
                        labelled.append(u)
                        if live[u]:
                            found = True
            frontier = labelled
        if not found:
            break
        for s in supply:
            if not live[s] or level[s] != depth:
                continue
            path: list[int] = []
            u = s
            while True:
                if level[u]:
                    below = level[u] - 1
                    for e, v in adj[u]:
                        if level[v] == below and res[e] > 0:
                            path.append(e)
                            u = v
                            break
                    else:
                        level[u] = -1
                        if not path:
                            break
                        u = path.pop() % n
                    continue
                amount = min(supply[s], demand[u], *(res[e] for e in path))
                for e in path:
                    res[e] -= amount
                    res[back[e]] += amount
                supply[s] -= amount
                demand[u] -= amount
                if not demand[u]:
                    level[u] = -1
                if not supply[s]:
                    live[s] = False
                    break
                cut = next((i for i, e in enumerate(path) if not res[e]), len(path) - 1)
                u = path[cut] % n
                del path[cut:]


def _reached(rows: int, cols: int, res: list[int], supply: dict[int, int]) -> list[int]:
    """The edge by which a forward breadth-first search over residual edges
    from the suppliers with quota left, in ``supply`` order, first reaches
    each node (-1 for those suppliers, -2 unreached).  After ``_augment``
    no path is left, and the reached nodes are the source side of a min
    cut."""
    adj = _shape_tables(rows, cols)[2]
    parent = [-2] * (rows * cols)
    queue = [u for u, quota in supply.items() if quota > 0]
    for u in queue:
        parent[u] = -1
    for u in queue:
        for e, v in adj[u]:
            if parent[v] == -2 and res[e] > 0:
                parent[v] = e
                queue.append(v)
    return parent


def max_flow(
    spec: TorusSpec,
    sources: set[Node],
    sinks: set[Node],
    capacity: np.ndarray | None = None,
) -> tuple[float, set[DirectedEdge]]:
    """Exact max flow from a node set to a node set over the torus edges,
    returning the value and a witnessing min cut.

    ``capacity[dir, y, x]`` is the capacity of the edge leaving (x, y) in
    direction ``dir``, 0 removing it; it defaults to the spec's link
    capacities.  Rational values are scaled to integers so the value and cut
    agree exactly; a capacity that is negative, not finite, or not a
    fraction with denominator at most 10**6, raises ``ValueError`` instead of
    being clamped or rounded, and so does a source or sink off the grid.
    The cut is the one around the nodes reachable from the sources in the
    residual graph, the same for every maximum flow.
    """
    if sources & sinks:
        raise PathError("sources and sinks must be disjoint")
    shape = (4, spec.rows, spec.cols)
    if capacity is None:
        per_dir = np.array([spec.capacity(d) for d in Direction])
        capacity = np.broadcast_to(per_dir[:, None, None], shape)
    if capacity.shape != shape:
        raise ValueError(f"capacity has shape {capacity.shape}, expected (4, rows, cols)")
    values, inverse = np.unique(capacity.ravel(), return_inverse=True)
    if values[0] < 0:
        raise ValueError(f"capacity {values[0].item()!r} is negative")
    if not np.isfinite(values[-1]):  # np.unique sorts inf and then NaN last
        raise ValueError(f"capacity {values[-1].item()!r} is not finite")
    fracs = [Fraction(c).limit_denominator(10**6) for c in values.tolist()]
    for c, frac in zip(values.tolist(), fracs):
        if float(frac) != c:
            raise ValueError(f"capacity {c!r} is not a fraction with denominator <= 10**6")
    scale = lcm(*(f.denominator for f in fracs))
    cap = np.array([int(f * scale) for f in fracs])[inverse].tolist()

    big = sum(cap) + 1
    supply = {node_index(spec, u): big for u in sources}
    demand = {node_index(spec, u): big for u in sinks}
    res = list(cap)
    _augment(spec.rows, spec.cols, res, supply, demand)
    parent = _reached(spec.rows, spec.cols, res, supply)
    value = big * len(supply) - sum(supply.values())
    heads = _shape_tables(spec.rows, spec.cols)[0]
    n = spec.num_nodes
    cut_ids = [
        e for e, c in enumerate(cap) if c and parent[e % n] != -2 and parent[heads[e]] == -2
    ]
    if sum(cap[e] for e in cut_ids) != value:
        raise PathError("max-flow/min-cut duality violated")
    nodes = list(spec.nodes())
    return value / scale, {DirectedEdge(nodes[e % n], Direction(e // n)) for e in cut_ids}


def min_cut_between_stems(
    spec: TorusSpec, src: Node, dst: Node, r1: int, r2: int
) -> float:
    """Capacity-weighted min cut separating the two stems, by max flow from
    the source stem to the destination stem."""
    s_stem, t_stem = _disjoint_stems(spec, src, dst, r1, r2)
    value, _ = max_flow(spec, set(s_stem.members), set(t_stem.members))
    return value


def _route_quanta(
    rows: int,
    cols: int,
    sources: list[tuple[int, int]],
    sinks: list[tuple[int, int]],
    cap: list[int],
) -> list[list[int]]:
    """One path of edge ids per quantum from ``sources`` to ``sinks``, given
    as (node id, path count) pairs, where edge e carries at most ``cap[e]``
    quanta (all ones: pairwise edge-disjoint paths).  ``_augment`` routes
    them, seeded with the sources in order, and ``_decompose_flow`` splits
    the flow into loop-free paths in that order; ``CutTooSmall`` is raised
    exactly when no routing of all quanta exists.  Unchecked: callers pass
    node ids of the grid, disjoint sources and sinks, and nonnegative int
    quotas and capacities."""
    supply: dict[int, int] = {}
    demand: dict[int, int] = {}
    for quotas, terminals in ((supply, sources), (demand, sinks)):
        for u, quota in terminals:
            quotas[u] = quotas.get(u, 0) + quota
    wanted = dict(demand)
    total = sum(supply.values())
    res = list(cap)
    _augment(rows, cols, res, supply, demand)
    unrouted = sum(supply.values())
    if unrouted:
        raise CutTooSmall(f"cut admits {total - unrouted} of {total} quanta")
    consumed = {u: wanted[u] - demand[u] for u in wanted}
    return _decompose_flow(_shape_tables(rows, cols)[0], sources, consumed, cap, res)


def _decompose_flow(
    heads: tuple[int, ...],
    suppliers: list[tuple[int, int]],
    consumed: dict[int, int],
    cap: list[int],
    res: list[int],
) -> list[list[int]]:
    """Split the integer flow ``max(cap - res, 0)`` into one loop-free path
    of edge ids per supplied quantum.  Each quantum walks unused flow units,
    each node's in edge-id order, to a demander with consumption left (flow
    conservation leaves a unit to take at every other node), and erases a
    loop as soon as it closes (chronological loop erasure, Lawler 1980)."""
    n = len(heads) // 4
    flow_out: list[list[int]] = [[] for _ in range(n)]
    for e, (c, r) in enumerate(zip(cap, res)):
        if c > r:
            flow_out[e % n].extend([e] * (c - r))
    taken = [0] * n  # flow_out[u][:taken[u]] are used up
    terminal = dict(consumed)
    paths: list[list[int]] = []
    for node, quota in suppliers:
        for _ in range(quota):
            path: list[int] = []
            at = {node: 0}  # each node on the path: the number of edges before it
            u = node
            while not terminal.get(u):
                e = flow_out[u][taken[u]]
                taken[u] += 1
                u = heads[e]
                if u in at:
                    for dropped in path[at[u] :]:
                        del at[heads[dropped]]
                    del path[at[u] :]
                else:
                    path.append(e)
                    at[u] = len(path)
            terminal[u] -= 1
            paths.append(path)
    return paths


def find_disjoint_stem_paths(
    spec: TorusSpec, src: Node, dst: Node, r1: int, r2: int
) -> list[EdgePath]:
    """2*(2r1+2r2) pairwise edge-disjoint paths between the stems of ``src``
    and ``dst``: two leaving each source-stem node, two arriving at each
    destination-stem node, found by ``_route_quanta``, which raises
    ``CutTooSmall`` when the cut between the stems admits fewer.

    The search never rides the stems' own distribution or aggregation edges,
    so the paths compose with the local load-balancing phases without
    overloading leg edges.
    """
    s_stem, t_stem = _disjoint_stems(spec, src, dst, r1, r2)
    # The cut around either stem-plus-center has only 4 spare edges beyond the
    # 8r path endpoints, so no valid solution transits a stem: forbid entering
    # the source stem and leaving the destination stem, which also keeps the
    # paths off the stems' own leg edges and forces each path to leave
    # perpendicular to its leg.
    s_nodes, t_nodes = ([node_index(spec, u) for u in st.nodes] for st in (s_stem, t_stem))
    tails = np.arange(spec.num_nodes).reshape(spec.rows, spec.cols)
    capacity = np.where(np.isin(edge_heads(spec), s_nodes) | np.isin(tails, t_nodes), 0, 1)
    suppliers = [(node_index(spec, u), 2) for u in s_stem.members]
    demanders = [(node_index(spec, v), 2) for v in t_stem.members]
    paths = _route_quanta(spec.rows, spec.cols, suppliers, demanders, capacity.ravel().tolist())
    nodes, n = list(spec.nodes()), spec.num_nodes
    return [[DirectedEdge(nodes[e % n], Direction(e // n)) for e in path] for path in paths]
