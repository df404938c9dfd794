"""Constructors for the routing schemes under study.

* ECMP: equal split over all shortest paths.
* VLB: two-phase routing through a uniformly random intermediate node.
* LLB(r): spread over the source stem, cross on edge-disjoint paths, and
  aggregate at the destination stem; near destinations cancel the shared stem
  work instead of crossing.
* GLLB(r1, r2): the N x M generalization with per-axis radii; when the cut
  between stems is bisection-limited it falls back to ring load balancing.
* Ring load balancing: spread around the short-dimension ring, cross on both
  arcs of the long dimension, aggregate.

Every constructor returns an origin policy averaged over the spec's point
group, so translation and reflection invariance hold by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from toruslb.paths import (
    PathError,
    RadiusTooLarge,
    max_flow,
    route_disjoint_quanta,
    stem,
    stems_overlap,
)
from toruslb.policy import EdgeFlows, OriginPolicy, symmetrize_origin, translate
from toruslb.torus import (
    DirectedEdge,
    Direction,
    Node,
    TorusSpec,
    hop_distance,
    node_neg,
    node_sub,
)


class GllbCase(Enum):
    DISJOINT_HIGH_CUT = "disjoint-high-cut"
    DISJOINT_LOW_CUT = "disjoint-low-cut"
    OVERLAP_HIGH_CUT = "overlap-high-cut"
    OVERLAP_LOW_CUT = "overlap-low-cut"


@dataclass(frozen=True)
class GllbCaseInfo:
    """Case label plus the per-pair link-share parameters where defined.

    ``lambda_v``/``lambda_h`` cap the traffic fraction on vertical/horizontal
    links outside the stems and exist only for the bisection-limited cases;
    ``cap_v``/``cap_h`` are the stem-node share coefficients valid in every
    case."""

    case: GllbCase
    lambda_v: float | None
    lambda_h: float | None
    cap_v: float
    cap_h: float


def _add_flow(flows: EdgeFlows, edge: DirectedEdge, value: float) -> None:
    if value == 0.0:
        return
    flows[edge] = flows.get(edge, 0.0) + value


# ---------------------------------------------------------------------------
# ECMP


def _ecmp_flows(spec: TorusSpec, t: Node) -> EdgeFlows:
    """Equal split over all shortest origin-to-t paths via path counting on
    the shortest-path DAG (antipodal offsets admit both directions)."""
    origin = Node(0, 0)
    total_dist = hop_distance(spec, origin, t)
    dist0 = {u: hop_distance(spec, origin, u) for u in spec.nodes()}
    dist_t = {u: hop_distance(spec, u, t) for u in spec.nodes()}
    on_dag = [u for u in spec.nodes() if dist0[u] + dist_t[u] == total_dist]
    by_level: dict[int, list[Node]] = {}
    for u in on_dag:
        by_level.setdefault(dist0[u], []).append(u)

    paths_from_origin = {origin: 1}
    for level in range(total_dist):
        for u in by_level.get(level, []):
            cnt = paths_from_origin.get(u)
            if not cnt:
                continue
            for d in Direction:
                v = spec.step(u, d)
                if dist0.get(v) == level + 1 and dist0[v] + dist_t[v] == total_dist:
                    paths_from_origin[v] = paths_from_origin.get(v, 0) + cnt
    paths_to_t = {t: 1}
    for level in range(total_dist, 0, -1):
        for u in by_level.get(level, []):
            cnt = paths_to_t.get(u)
            if not cnt:
                continue
            for d in Direction:
                v = spec.step(u, d)
                if dist0.get(v) == level - 1 and dist0[v] + dist_t[v] == total_dist:
                    paths_to_t[v] = paths_to_t.get(v, 0) + cnt

    total_paths = paths_from_origin[t]
    flows: EdgeFlows = {}
    for u in on_dag:
        if u not in paths_from_origin:
            continue
        for d in Direction:
            v = spec.step(u, d)
            if (
                dist0.get(v) == dist0[u] + 1
                and dist0[v] + dist_t[v] == total_dist
                and v in paths_to_t
            ):
                frac = paths_from_origin[u] * paths_to_t[v] / total_paths
                _add_flow(flows, DirectedEdge(u, d), frac)
    return flows


def build_ecmp(spec: TorusSpec) -> OriginPolicy:
    """Equal-cost multipath: per destination, split evenly over all shortest
    paths."""
    flows = {
        t: _ecmp_flows(spec, t) for t in spec.nodes() if t != Node(0, 0)
    }
    return OriginPolicy.from_flows(spec, flows)


# ---------------------------------------------------------------------------
# VLB


def build_vlb(spec: TorusSpec) -> OriginPolicy:
    """Route through every node as an intermediate with weight 1/(rows*cols),
    each phase following ECMP shortest-path splitting.  The source and the
    destination participate as intermediates themselves.

    Phase 1 spreads from the origin to every node and is the same for every
    destination.  Phase 2 collects from every node into t, which is the
    collection into the origin translated by t; that in turn is the sum of
    every ECMP route translated to end at the origin."""
    weight = 1.0 / spec.num_nodes
    ecmp = build_ecmp(spec).flows
    nodes = list(spec.nodes())
    spread = np.zeros_like(ecmp[0])
    collect = np.zeros_like(ecmp[0])
    for m, route in zip(nodes, ecmp):
        spread += weight * route
        collect += weight * translate(route, node_neg(spec, m))
    flows = np.stack([spread + translate(collect, t) for t in nodes])
    flows[0] = 0.0  # the origin's own slab
    return OriginPolicy(spec=spec, flows=flows)


# ---------------------------------------------------------------------------
# Stem-based routing (LLB and the high-cut GLLB cases)


_LEGS = (
    (Direction.POS_VERT, "r1"),
    (Direction.NEG_VERT, "r1"),
    (Direction.POS_HOR, "r2"),
    (Direction.NEG_HOR, "r2"),
)


def _leg_radius(r1: int, r2: int, which: str) -> int:
    return r1 if which == "r1" else r2


def _axis_distance_along(spec: TorusSpec, t: Node, direction: Direction) -> int | None:
    """Hops from the origin to t walking only in ``direction``, or None when
    t is not on that axis line."""
    dx, dy = direction.delta
    if dx == 0:
        if t.x != 0:
            return None
        extent, coord, step = spec.rows, t.y, dy
    else:
        if t.y != 0:
            return None
        extent, coord, step = spec.cols, t.x, dx
    return coord % extent if step > 0 else (-coord) % extent


def _stem_route(spec: TorusSpec, t: Node, r1: int, r2: int) -> EdgeFlows:
    """Three-phase stem routing for one destination.

    Legs pointing along the axis through the destination are trimmed at the
    midline: the trimmed tip absorbs the leg's remaining share and hands the
    excess across the midline on the axis edge it already owns, and a node
    exactly on the midline holds its share for the destination's aggregation
    instead of crossing.  Perpendicular stem overlaps simply cancel.  Every
    other stem node ships its share on two crossing paths, and the crossing
    quanta may ride whatever leg-edge budget the trimming left unused.

    All accounting is in integer quanta of 1/(4*(r1+r2)), so the edge flows
    never exceed the leg profile on axis edges or one quantum elsewhere; that
    per-pair cap is what pins the scheme's exact worst-case load.
    """
    origin = Node(0, 0)
    if 2 * r1 >= spec.rows or 2 * r2 >= spec.cols:
        raise RadiusTooLarge(
            f"need 2*r1 < rows and 2*r2 < cols, got r1={r1}, r2={r2}"
        )
    unit = 1.0 / (4 * (r1 + r2))
    qflows: dict[DirectedEdge, int] = {}

    def add_q(edge: DirectedEdge, quanta: int) -> None:
        if quanta:
            qflows[edge] = qflows.get(edge, 0) + quanta

    # Per-pair slot capacities in quanta: distribution edges of the source
    # stem and aggregation edges of the destination stem.  An edge serving
    # both roles for this pair may carry their sum minus one quantum: using
    # two slots with one demand frees a pool seat elsewhere, and the forfeited
    # quantum is what keeps the stacked worst case unchanged.
    cap_src: dict[DirectedEdge, int] = {}
    cap_dst: dict[DirectedEdge, int] = {}
    for direction, which in _LEGS:
        radius = _leg_radius(r1, r2, which)
        node = origin
        for h in range(radius):
            edge = DirectedEdge(node, direction)
            cap_src[edge] = max(cap_src.get(edge, 0), 2 * (radius - h))
            node = spec.step(node, direction)
        node = t
        for h in range(radius):
            nxt = spec.step(node, direction)
            edge = DirectedEdge(nxt, direction.opposite)
            cap_dst[edge] = max(cap_dst.get(edge, 0), 2 * (radius - h))
            node = nxt
    slot_cap: dict[DirectedEdge, int] = {}
    for edge in set(cap_src) | set(cap_dst):
        a, b = cap_src.get(edge, 0), cap_dst.get(edge, 0)
        slot_cap[edge] = a + b - 1 if (a and b) else max(a, b)

    keep0: dict[Node, int] = {}
    keep_t: dict[Node, int] = {}

    def trimmed_length(d_seg: int | None, radius: int) -> int:
        if d_seg is not None and d_seg // 2 < radius:
            return d_seg // 2
        return radius

    # phase 1 and the midline handoffs
    for direction, which in _LEGS:
        radius = _leg_radius(r1, r2, which)
        d_seg = _axis_distance_along(spec, t, direction)
        length = trimmed_length(d_seg, radius)
        node = origin
        for h in range(length):
            tail_hold = 2 if h < length - 1 else 2 * (radius - length + 1)
            carried = 2 * (length - 1 - h) + 2 * (radius - length + 1)
            add_q(DirectedEdge(node, direction), carried)
            node = spec.step(node, direction)
            keep0[node] = tail_hold
        if d_seg is not None and length < radius and (d_seg % 2 == 1 or length == 0):
            add_q(DirectedEdge(node, direction), 2 * (radius - length))

    # phase 3: mirror trims, aggregation walks tip-to-center
    for direction, which in _LEGS:
        radius = _leg_radius(r1, r2, which)
        d_seg = _axis_distance_along(spec, node_sub(spec, origin, t), direction)
        length = trimmed_length(d_seg, radius)
        node = t
        chain: list[Node] = []
        for _ in range(length):
            node = spec.step(node, direction)
            chain.append(node)
        carried = 0
        for i in range(length - 1, -1, -1):
            hold = 2 if i < length - 1 else 2 * (radius - length + 1)
            keep_t[chain[i]] = hold
            carried += hold
            add_q(DirectedEdge(chain[i], direction.opposite), carried)

    shared = set(keep0) & set(keep_t)
    for u in shared:
        if keep0[u] != keep_t[u]:
            raise PathError(
                f"destination {t}: stems hold {keep0[u]} and {keep_t[u]} quanta at {u}"
            )

    suppliers = [(u, 2) for u in keep0 if u not in shared and u != t]
    demanders = [(v, 2) for v in keep_t if v not in shared and v != origin]
    if len(suppliers) != len(demanders):
        raise PathError(
            f"destination {t}: {len(suppliers)} suppliers for {len(demanders)} demanders"
        )
    if suppliers:
        budgets = {e: c - qflows.get(e, 0) for e, c in slot_cap.items()}
        forbidden = {e for e, b in budgets.items() if b <= 0}
        capacities = {e: b for e, b in budgets.items() if b > 0}
        # Tight geometries (legs spanning nearly the whole extent) can leave
        # the crossing corridors short of one-quantum capacity; widening the
        # non-leg quantum keeps conservation and stays within the generalized
        # bound's additive slack.  The square acceptance grids never relax.
        paths = None
        for pool in (1, 2, 3, 4):
            try:
                paths = route_disjoint_quanta(
                    spec, suppliers, demanders, forbidden, capacities,
                    default_capacity=pool,
                )
                break
            except PathError:
                continue
        if paths is None:
            raise PathError(f"stem crossing infeasible for destination {t}")
        for path in paths:
            for edge in path:
                add_q(edge, 1)
    return {e: q * unit for e, q in qflows.items()}


def build_llb(spec: TorusSpec, r: int) -> OriginPolicy:
    """Local load balancing with stem radius r on a square symmetric torus."""
    if not spec.is_square_symmetric():
        raise ValueError("LLB is defined on square symmetric tori; use build_gllb")
    if r < 1 or 2 * r >= spec.rows:
        raise RadiusTooLarge(f"need 1 <= r < rows/2, got r={r}")
    flows = {
        t: _stem_route(spec, t, r, r) for t in spec.nodes() if t != Node(0, 0)
    }
    return symmetrize_origin(OriginPolicy.from_flows(spec, flows))


# ---------------------------------------------------------------------------
# Ring load balancing


def _ring_spread(extent: int, reverse: bool) -> dict[tuple[int, bool], float]:
    """Edge flows for distributing 1/extent to every node of a ring from
    position 0, shortest-way with antipodal split.  Keys are (position,
    plus_direction); ``reverse`` flips into an aggregation pattern."""
    flows: dict[tuple[int, bool], float] = {}
    for d in range(1, extent):
        fwd, bwd = d, extent - d
        if fwd < bwd:
            routes = [(True, fwd, 1.0)]
        elif bwd < fwd:
            routes = [(False, bwd, 1.0)]
        else:
            routes = [(True, fwd, 0.5), (False, bwd, 0.5)]
        for plus, hops, frac in routes:
            for step_i in range(hops):
                pos = step_i if plus else (-step_i) % extent
                key = (pos, plus)
                flows[key] = flows.get(key, 0.0) + frac / extent
    if reverse:
        # aggregation toward 0 is the edge-reversed mirror of distribution
        flows = {
            ((pos + 1) % extent if plus else (pos - 1) % extent, not plus): v
            for (pos, plus), v in flows.items()
        }
    return flows


def _ring_route(spec: TorusSpec, t: Node, vertical_rings: bool) -> EdgeFlows:
    """Spread 1/ring over the source's ring, cross to the destination's ring
    on both arcs equally, aggregate."""
    flows: EdgeFlows = {}
    if vertical_rings:
        ring, plus_dir = spec.rows, Direction.POS_VERT
        cross, cross_plus = spec.cols, Direction.POS_HOR
        t_ring, t_cross = t.y, t.x

        def ring_edge(ring_pos: int, cross_pos: int, plus: bool) -> DirectedEdge:
            return DirectedEdge(
                Node(cross_pos, ring_pos), plus_dir if plus else plus_dir.opposite
            )

        def cross_edge(cross_pos: int, ring_pos: int, plus: bool) -> DirectedEdge:
            return DirectedEdge(
                Node(cross_pos, ring_pos), cross_plus if plus else cross_plus.opposite
            )

    else:
        ring, plus_dir = spec.cols, Direction.POS_HOR
        cross, cross_plus = spec.rows, Direction.POS_VERT
        t_ring, t_cross = t.x, t.y

        def ring_edge(ring_pos: int, cross_pos: int, plus: bool) -> DirectedEdge:
            return DirectedEdge(
                Node(ring_pos, cross_pos), plus_dir if plus else plus_dir.opposite
            )

        def cross_edge(cross_pos: int, ring_pos: int, plus: bool) -> DirectedEdge:
            return DirectedEdge(
                Node(ring_pos, cross_pos), cross_plus if plus else cross_plus.opposite
            )

    for (pos, plus), v in _ring_spread(ring, reverse=False).items():
        _add_flow(flows, ring_edge(pos, 0, plus), v)
    if t_cross != 0:
        for y in range(ring):
            for arc_plus in (True, False):
                pos = 0
                hops = t_cross if arc_plus else cross - t_cross
                for _ in range(hops):
                    _add_flow(flows, cross_edge(pos, y, arc_plus), 0.5 / ring)
                    pos = (pos + 1) % cross if arc_plus else (pos - 1) % cross
    for (pos, plus), v in _ring_spread(ring, reverse=True).items():
        _add_flow(
            flows,
            ring_edge((pos + t_ring) % ring, t_cross, plus),
            v,
        )
    return flows


def build_ring_lb(spec: TorusSpec) -> OriginPolicy:
    """Ring load balancing along the dimension with the smaller crossing
    bisection (ties go to vertical rings)."""
    vertical_rings = spec.rows * spec.cap_horizontal <= spec.cols * spec.cap_vertical
    flows = {
        t: _ring_route(spec, t, vertical_rings)
        for t in spec.nodes()
        if t != Node(0, 0)
    }
    return symmetrize_origin(OriginPolicy.from_flows(spec, flows))


# ---------------------------------------------------------------------------
# GLLB


def gllb_radii(spec: TorusSpec, k: int) -> tuple[int, int]:
    """Stem radii minimizing the worst-case bound for k-limited traffic."""
    c1, c2 = spec.cap_vertical, spec.cap_horizontal
    r1 = max(1, math.ceil(math.sqrt(c1 * k / (2 * c2))))
    r2 = max(1, math.ceil(math.sqrt(c2 * k / (2 * c1))))
    return r1, r2


@lru_cache(maxsize=None)
def _probe_high_cut(spec: TorusSpec, r1: int, r2: int) -> bool:
    """True when the unit-capacity cut between distant stems supports two
    paths per stem node; bisection-limited geometries fail this and use the
    ring scheme instead."""
    if 2 * r1 >= spec.rows or 2 * r2 >= spec.cols:
        return False
    s_stem = stem(spec, Node(0, 0), r1, r2)
    t_stem = stem(spec, Node(spec.cols // 2, spec.rows // 2), r1, r2)
    if stems_overlap(s_stem, t_stem):
        return False
    value, _ = max_flow(
        spec,
        set(),
        set(s_stem.members),
        set(t_stem.members),
        capacities={e: 1.0 for e in spec.edges()},
    )
    return value >= 4 * (r1 + r2)


def classify_gllb_case(spec: TorusSpec, r1: int, r2: int, t: Node) -> GllbCase:
    overlap = stems_overlap(stem(spec, Node(0, 0), r1, r2), stem(spec, t, r1, r2))
    high = _probe_high_cut(spec, r1, r2)
    if overlap:
        return GllbCase.OVERLAP_HIGH_CUT if high else GllbCase.OVERLAP_LOW_CUT
    if high:
        return GllbCase.DISJOINT_HIGH_CUT
    return GllbCase.DISJOINT_LOW_CUT


def gllb_case_info(spec: TorusSpec, r1: int, r2: int, t: Node) -> GllbCaseInfo:
    """Case dispatch for one destination together with the share parameters:
    in the bisection-limited cases the non-stem link shares are
    lambda_h = 1/(2N) and lambda_v = 1/(2 r2) - r1/(r2 N)."""
    case = classify_gllb_case(spec, r1, r2, t)
    base = 1.0 / (4 * (r1 + r2))
    low = case in (GllbCase.DISJOINT_LOW_CUT, GllbCase.OVERLAP_LOW_CUT)
    n = spec.rows
    lam_h = 1.0 / (2 * n) if low else None
    lam_v = (1.0 / (2 * r2) - r1 / (r2 * n)) if low else None
    return GllbCaseInfo(
        case=case,
        lambda_v=lam_v,
        lambda_h=lam_h,
        cap_v=max(base, lam_v) if low else base,
        cap_h=max(base, lam_h) if low else base,
    )


def build_gllb(spec: TorusSpec, r1: int, r2: int) -> OriginPolicy:
    """Generalized local load balancing with per-axis radii.

    High-cut geometries use stem routing for every destination (reducing to
    LLB when the spec is square and r1 == r2); when the stem-to-stem cut is
    capped by the torus bisection, the whole policy becomes ring load
    balancing, whose crossing phase saturates that bisection evenly.
    """
    if r1 < 1 or r2 < 1 or 2 * r1 > spec.rows or 2 * r2 > spec.cols:
        raise RadiusTooLarge("need 1 <= r1 <= rows/2 and 1 <= r2 <= cols/2")
    if not _probe_high_cut(spec, r1, r2):
        return build_ring_lb(spec)
    flows = {
        t: _stem_route(spec, t, r1, r2) for t in spec.nodes() if t != Node(0, 0)
    }
    return symmetrize_origin(OriginPolicy.from_flows(spec, flows))
