import hashlib
import math
import random
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslb import schemes
from toruslb.paths import (
    CutTooSmall,
    _augment,
    _decompose_flow,
    _reached,
    _route_quanta,
    RadiusTooLarge,
    StemsOverlap,
    find_disjoint_stem_paths,
    max_flow,
    min_cut_between_stems,
    stem,
)
from toruslb.policy import origin_policy_from_csv, policy_to_csv
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb
from toruslb.torus import DirectedEdge, Direction, Node, TorusSpec, edge_heads, node_index


def test_stem_sizes():
    assert len(stem(TorusSpec(7, 7), Node(0, 0), 2, 2).members) == 8
    assert len(stem(TorusSpec(6, 10), Node(0, 0), 1, 2).members) == 6
    assert len(stem(TorusSpec(5, 5), Node(3, 3), 0, 0).members) == 0


def test_stem_radius_validation():
    with pytest.raises(RadiusTooLarge):
        stem(TorusSpec(6, 6), Node(0, 0), 4, 1)
    # radius exactly half the extent folds the two legs at the antipode
    folded = stem(TorusSpec(4, 10), Node(0, 0), 2, 2)
    assert len(folded.members) == 2 * 2 + 2 * 2 - 1


def test_stem_radii_must_be_whole_numbers():
    # a fractional radius used to end in a bare TypeError from range, and a
    # bool passed as radius 1
    spec = TorusSpec(8, 8)
    with pytest.raises(ValueError, match=r"radius r1=1\.5 is not a whole number"):
        stem(spec, Node(0, 0), 1.5, 1)
    with pytest.raises(ValueError, match="radius r1=True is not a whole number"):
        stem(spec, Node(0, 0), True, 1)
    with pytest.raises(ValueError, match="radius r2=nan is not a whole number"):
        stem(spec, Node(0, 0), 1, math.nan)
    assert stem(spec, Node(0, 0), 2.0, 1) == stem(spec, Node(0, 0), 2, 1)


def test_min_cut_examples():
    assert min_cut_between_stems(TorusSpec(8, 8), Node(0, 0), Node(4, 4), 2, 2) == 20
    assert min_cut_between_stems(TorusSpec(8, 8), Node(0, 0), Node(4, 4), 3, 3) == 28
    assert min_cut_between_stems(TorusSpec(4, 10), Node(0, 0), Node(5, 2), 2, 2) == 8


def test_min_cut_rejects_overlap():
    with pytest.raises(StemsOverlap):
        min_cut_between_stems(TorusSpec(8, 8), Node(0, 0), Node(2, 2), 2, 2)


def check_path_bundle(spec, paths, src_stem, dst_stem, expected):
    assert len(paths) == expected
    all_edges = [e for p in paths for e in p]
    assert len(all_edges) == len(set(all_edges)), "paths share an edge"
    for path in paths:
        assert path
        seen = set()
        for a, b in zip(path, path[1:]):
            assert spec.edge_head(a) == b.tail
        for e in path:
            assert e not in seen
            seen.add(e)
    starts = Counter(p[0].tail for p in paths)
    ends = Counter(spec.edge_head(p[-1]) for p in paths)
    assert set(starts) == set(src_stem.members) and set(starts.values()) == {2}
    assert set(ends) == set(dst_stem.members) and set(ends.values()) == {2}


def test_disjoint_paths_examples():
    spec = TorusSpec(7, 7)
    paths = find_disjoint_stem_paths(spec, Node(0, 0), Node(3, 3), 2, 2)
    check_path_bundle(
        spec, paths, stem(spec, Node(0, 0), 2, 2), stem(spec, Node(3, 3), 2, 2), 16
    )
    spec8 = TorusSpec(8, 8)
    paths8 = find_disjoint_stem_paths(spec8, Node(0, 0), Node(4, 4), 3, 3)
    check_path_bundle(
        spec8, paths8, stem(spec8, Node(0, 0), 3, 3), stem(spec8, Node(4, 4), 3, 3), 24
    )


def test_disjoint_paths_exhaustive_8x8():
    spec = TorusSpec(8, 8)
    origin = Node(0, 0)
    for r in (1, 2, 3):
        plus0 = set(stem(spec, origin, r, r).members) | {origin}
        for t in spec.nodes():
            if t == origin:
                continue
            plust = set(stem(spec, t, r, r).members) | {t}
            if plus0 & plust:
                continue
            paths = find_disjoint_stem_paths(spec, origin, t, r, r)
            check_path_bundle(
                spec, paths, stem(spec, origin, r, r), stem(spec, t, r, r), 8 * r
            )


def test_disjoint_paths_deterministic():
    spec = TorusSpec(8, 8)
    a = find_disjoint_stem_paths(spec, Node(0, 0), Node(4, 4), 2, 2)
    b = find_disjoint_stem_paths(spec, Node(0, 0), Node(4, 4), 2, 2)
    assert a == b


# sha256 of find_disjoint_stem_paths on acceptance criterion 7's instances (6x6,
# 8x8 and 10x10, every r < n/2, every t whose stem is disjoint from the
# origin's), one update per instance with the repr of its paths as (tail.x,
# tail.y, dir) tuples.  Criterion 7 only counts the paths; this pins them, and
# was recorded while they still went through a checked public entry.
STEM_PATHS_DIGEST = "357e95626ad9ba02be64473e9855924a31ff3cbe9a9d1b50a2637576d385cce7"


def test_stem_paths_pinned():
    digest, count = hashlib.sha256(), 0
    for n in (6, 8, 10):
        spec, origin = TorusSpec(n, n), Node(0, 0)
        for r in range(1, (n + 1) // 2):
            home = stem(spec, origin, r, r).nodes
            for t in spec.nodes():
                if not home.isdisjoint(stem(spec, t, r, r).nodes):
                    continue
                paths = find_disjoint_stem_paths(spec, origin, t, r, r)
                tuples = [[(e.tail.x, e.tail.y, int(e.dir)) for e in p] for p in paths]
                digest.update(repr(tuples).encode())
                count += 1
    assert count == 345
    assert digest.hexdigest() == STEM_PATHS_DIGEST


def test_disjoint_paths_cut_too_small():
    # stems of the full vertical extent on a skewed torus are bisection-capped
    spec = TorusSpec(4, 12)
    with pytest.raises(CutTooSmall):
        find_disjoint_stem_paths(spec, Node(0, 0), Node(6, 2), 2, 3)


def test_max_flow_basics():
    spec = TorusSpec(5, 5)
    value, cut = max_flow(spec, {Node(0, 0)}, {Node(1, 0)})
    assert value >= 1
    value0, _ = max_flow(spec, {Node(0, 0)}, {Node(1, 0)}, np.zeros((4, 5, 5)))
    assert value0 == 0
    with pytest.raises(Exception):
        max_flow(spec, {Node(0, 0)}, {Node(0, 0)})


def test_max_flow_matches_stem_cut():
    spec = TorusSpec(8, 8)
    direct, cut = max_flow(
        spec,
        set(stem(spec, Node(0, 0), 2, 2).members),
        set(stem(spec, Node(4, 4), 2, 2).members),
    )
    assert direct == min_cut_between_stems(spec, Node(0, 0), Node(4, 4), 2, 2)
    assert sum(spec.capacity(e.dir) for e in cut) == direct


def test_max_flow_respects_capacities():
    spec = TorusSpec(4, 4, cap_vertical=2.0, cap_horizontal=0.5)
    value, cut = max_flow(spec, {Node(0, 0)}, {Node(2, 2)})
    assert value == sum(spec.capacity(e.dir) for e in cut)
    # out-degree of a single source: two vertical and two horizontal links
    assert value <= 2 * 2.0 + 2 * 0.5


def test_max_flow_rejects_capacities_it_cannot_scale_exactly():
    spec = TorusSpec(4, 4)
    with pytest.raises(ValueError, match="not a fraction"):
        max_flow(spec, {Node(0, 0)}, {Node(2, 2)}, np.full((4, 4, 4), math.sqrt(2)))
    # fractions with small denominators keep their exact values
    value, cut = max_flow(spec, {Node(0, 0)}, {Node(2, 2)}, np.full((4, 4, 4), 0.1))
    assert value == 0.4
    origin_out = {DirectedEdge(Node(0, 0), d) for d in Direction}
    assert cut == origin_out
    value, cut = max_flow(TorusSpec(4, 4, 0.5, 1.5), {Node(0, 0)}, {Node(2, 2)})
    assert value == 4.0
    assert cut == origin_out


# Oracles below share no code with the max-flow engine: they enumerate every
# node bipartition of a tiny torus.


def brute_force_cut(spec, cap, source_side_cost):
    """min over node sets X of source_side_cost(X) + capacity of edges X -> not X."""
    nodes = list(spec.nodes())
    arcs = [(e.tail, spec.edge_head(e), c) for e, c in cap.items() if c]
    best = None
    for mask in range(1 << len(nodes)):
        side = {u for i, u in enumerate(nodes) if mask >> i & 1}
        cost = source_side_cost(side)
        if cost is None:
            continue
        cost += sum(c for u, v, c in arcs if u in side and v not in side)
        best = cost if best is None else min(best, cost)
    return best


@st.composite
def tiny_networks(draw):
    spec = TorusSpec(3, draw(st.sampled_from([3, 4])))
    edges = list(spec.edges())
    caps = draw(st.lists(st.integers(0, 3), min_size=len(edges), max_size=len(edges)))
    nodes = list(spec.nodes())
    picked = draw(st.permutations(nodes))
    n_src = draw(st.integers(1, 4))
    n_dst = draw(st.integers(1, 4))
    return spec, dict(zip(edges, caps)), picked[:n_src], picked[n_src : n_src + n_dst]


@settings(max_examples=150, deadline=None)
@given(tiny_networks())
def test_max_flow_equals_brute_force_min_cut(network):
    spec, cap, sources, sinks = network
    capacity = np.zeros((4, spec.rows, spec.cols))
    for e, c in cap.items():
        capacity[e.dir, e.tail.y, e.tail.x] = c
    value, cut = max_flow(spec, set(sources), set(sinks), capacity)
    expected = brute_force_cut(
        spec,
        cap,
        lambda side: 0 if set(sources) <= side and not side & set(sinks) else None,
    )
    assert value == expected
    assert sum(cap[e] for e in cut) == value
    assert all(cap[e] > 0 for e in cut)
    # the cut separates: without its edges no positive edge joins sources to sinks
    reach = set(sources)
    frontier = list(sources)
    while frontier:
        u = frontier.pop()
        for e, c in cap.items():
            v = spec.edge_head(e)
            if e.tail == u and c > 0 and e not in cut and v not in reach:
                reach.add(v)
                frontier.append(v)
    assert not reach & set(sinks)


@settings(max_examples=60, deadline=None)
@given(tiny_networks(), st.data())
def test_route_quanta_against_brute_force_cut(network, data):
    spec, cap, src_nodes, dst_nodes = network
    supply = {u: data.draw(st.integers(1, 3)) for u in src_nodes}
    demand = {v: data.draw(st.integers(1, 3)) for v in dst_nodes}
    default = data.draw(st.integers(1, 2))
    edges = list(spec.edges())
    overrides = {e: c for e, c in cap.items() if data.draw(st.booleans())}
    forbidden = {e for e in edges if data.draw(st.integers(0, 4)) == 0}
    effective = {
        e: 0 if e in forbidden else overrides.get(e, default) for e in edges
    }
    total = sum(supply.values())
    cut = brute_force_cut(
        spec,
        effective,
        lambda side: sum(q for u, q in supply.items() if u not in side)
        + sum(q for v, q in demand.items() if v in side),
    )
    capacity = np.zeros((4, spec.rows, spec.cols), dtype=int)
    for e, c in effective.items():
        capacity[e.dir, e.tail.y, e.tail.x] = c
    sources, sinks = (
        [(node_index(spec, u), q) for u, q in quotas.items()] for quotas in (supply, demand)
    )
    args = (spec.rows, spec.cols, sources, sinks, capacity.ravel().tolist())
    if cut < total:
        with pytest.raises(CutTooSmall):
            _route_quanta(*args)
        return
    n = spec.num_nodes
    paths = [
        [DirectedEdge(Node(e % n % spec.cols, e % n // spec.cols), Direction(e // n)) for e in ids]
        for ids in _route_quanta(*args)
    ]
    assert len(paths) == total
    for path in paths:
        assert path
        for a, b in zip(path, path[1:]):
            assert spec.edge_head(a) == b.tail
        assert not set(path) & forbidden
    assert Counter(p[0].tail for p in paths) == Counter(supply)
    ends = Counter(spec.edge_head(p[-1]) for p in paths)
    assert all(ends[v] <= demand.get(v, 0) for v in ends)
    use = Counter(e for p in paths for e in p)
    assert all(use[e] <= effective[e] for e in use)


# sha256 of policy_to_csv per scheme build.  The stem-routed digests were
# recorded before the path search moved to integer edge ids, and the ECMP, VLB
# and ring digests before those schemes wrote their routes as arrays; any
# change to a search order or a summation order shows here.
POLICY_DIGESTS = [
    ("llb", (6, 6), (2,), "4312a43806019b60bc2e07a5e3fe8df8ab510ac1401deff37730a79058a88848"),
    ("llb", (10, 10), (3,), "1736673ddcaa620f660753a1062dd45079aa74ecb48637b33bbe40abaf3627c9"),
    ("gllb", (6, 8), (2, 2), "ca7433586195183360f02378e0907aa8dab5c09f6d419e67ed5cf59e04055f7c"),
    ("gllb", (8, 10), (3, 3), "5903954ca03ce7fcd119cede764519002faa5e671e3d35d848b75f6a7be06f6e"),
    ("gllb", (5, 9), (2, 3), "0acf654e2aad780305b3bcdccd7f1f94e1f06f76bacc017614fc12e6baeddb25"),
    ("ecmp", (4, 6), (), "fd205cde5fa8a56d2145fb4784d8a80273a1870e6277b9d9f598774a108804e8"),
    ("ecmp", (5, 5), (), "2d440871bce1158c25c231365b75e4fec892d6e8c717af676199d12cea616f2c"),
    ("ecmp", (10, 10), (), "d4e885894bae3df70aa364dacd6c60a68a40c70ad97597db839e07a151b7acff"),
    ("vlb", (6, 8), (), "1a6cc1281d6e7c96bb73140a59ae70cceedd2e7611f24091ee659d6a04d54561"),
    ("ring", (4, 10), (), "ab3ed06b301c2b6589b39066c68aa01de7445abf654dc65810d89b6e7b29adcb"),
    ("ring", (10, 4), (), "3687f5525e9b32e0f2628a5d69ecd6d42fdbd774672c71e97ee77786e184b72d"),
    ("ring", (5, 9), (), "63bd0e4a87d6d0a2dd9aa64521906bfa8ba38ca30e22bce1414e5bfd94428faf"),
    ("ring", (9, 5), (), "888c7d1fd73cef542bcde01ecacbda80b2b218746e16687d3f840977f26a157f"),
    ("ring", (6, 6, 2.0, 1.0), (), "7f54c69a852d75ea52674704306e6cae00c27c23a608887c8c5881a7b6435acc"),
    ("ring", (6, 6, 1.0, 2.0), (), "81045abc83b65b037eb8e7e151c3f510edda10735838db643dc85b7b3860103b"),
    ("llb", (12, 12), (4,), "0d1dce0fcf7732f42e7f437033d30df7620fb0b63400cd1c3aee11a0a659e688"),
    ("gllb", (9, 15), (3, 5), "b713ed89d8a5a98818ff01dc52c22ed166b9489655ca9457592de5d3a1945866"),
]

BUILDERS = {
    "ecmp": build_ecmp,
    "vlb": build_vlb,
    "ring": build_ring_lb,
    "llb": build_llb,
    "gllb": build_gllb,
}


@pytest.mark.parametrize("scheme,shape,radii,digest", POLICY_DIGESTS)
def test_stem_policy_bytes_pinned(scheme, shape, radii, digest):
    policy = BUILDERS[scheme](TorusSpec(*shape), *radii)
    text = policy_to_csv(policy)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert np.array_equal(origin_policy_from_csv(policy.spec, text).flows, policy.flows)


# The queue-BFS Edmonds-Karp and flow decomposition that the residual-list
# search replaced, kept as their oracle: the rewrite must find the very same
# augmenting paths, so flows, cuts and decomposed paths agree exactly.


def queue_bfs_augment(heads, cap, supply, demand):
    n = len(heads) // 4
    back = [((e // n) ^ 1) * n + v for e, v in enumerate(heads)]
    flow = [0] * len(cap)
    while True:
        parent = [-2] * n
        queue = deque()
        for u, quota in supply.items():
            if quota > 0:
                parent[u] = -1
                queue.append(u)
        while queue:
            u = queue.popleft()
            if demand.get(u, 0) > 0:
                break
            for e in range(u, 4 * n, n):
                v = heads[e]
                if parent[v] == -2 and (flow[e] < cap[e] or flow[back[e]] > 0):
                    parent[v] = e
                    queue.append(v)
        else:
            return flow, parent
        end = u
        path = []
        while parent[u] >= 0:
            path.append(parent[u])
            u = parent[u] % n
        amount = min(
            supply[u], demand[end], *(cap[e] - flow[e] + flow[back[e]] for e in path)
        )
        for e in path:
            cancel = min(amount, flow[back[e]])
            flow[back[e]] -= cancel
            flow[e] += amount - cancel
        supply[u] -= amount
        demand[end] -= amount


def _trim_cycles(heads: tuple[int, ...], start: int, path: list[int]) -> list[int]:
    """Loop-erase a walk of edge ids from node ``start`` so the result visits
    each node at most once."""
    nodes = [start]
    index = {start: 0}
    out: list[int] = []
    for e in path:
        head = heads[e]
        if head in index:
            k = index[head]
            for dropped in nodes[k + 1 :]:
                del index[dropped]
            del nodes[k + 1 :]
            del out[k:]
        else:
            out.append(e)
            nodes.append(head)
            index[head] = len(nodes) - 1
    return out


def pop_front_decompose(heads, suppliers, consumed, flow):
    n = len(heads) // 4
    flow_out = {}
    for e, units in enumerate(flow):
        if units:
            flow_out.setdefault(e % n, []).extend([e] * units)
    terminal = dict(consumed)
    paths = []
    for node, quota in suppliers:
        for _ in range(quota):
            path, u = [], node
            while not (path and terminal.get(u, 0) > 0):
                e = flow_out[u].pop(0)
                path.append(e)
                u = heads[e]
            terminal[u] -= 1
            paths.append(_trim_cycles(heads, node, path))
    return paths


@st.composite
def quota_networks(draw):
    spec = TorusSpec(draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    n = spec.num_nodes
    cap = draw(st.lists(st.integers(0, 3), min_size=4 * n, max_size=4 * n))
    picked = draw(st.permutations(range(n)))
    n_src = draw(st.integers(1, min(12, n - 1)))
    n_dst = draw(st.integers(1, min(12, n - n_src)))
    quotas = st.integers(1, 3)
    suppliers = [(u, draw(quotas)) for u in picked[:n_src]]
    demanders = [(v, draw(quotas)) for v in picked[n_src : n_src + n_dst]]
    return spec, cap, suppliers, demanders


@settings(max_examples=200, deadline=None)
@given(quota_networks())
def test_residual_augment_matches_queue_bfs_oracle(network):
    spec, cap, suppliers, demanders = network
    heads = edge_heads(spec).ravel().tolist()
    capacity = np.array(cap).reshape(4, spec.rows, spec.cols)

    def node(u):
        return Node(u % spec.cols, u // spec.cols)

    # the max-flow routine itself: flows, leftover quotas and last search
    supply, demand = dict(suppliers), dict(demanders)
    flow, parent = queue_bfs_augment(heads, cap, supply, demand)
    new_supply, new_demand, res = dict(suppliers), dict(demanders), list(cap)
    _augment(spec.rows, spec.cols, res, new_supply, new_demand)
    new_parent = _reached(spec.rows, spec.cols, res, new_supply)
    assert [max(c - r, 0) for c, r in zip(cap, res)] == flow
    assert (new_supply, new_demand, new_parent) == (supply, demand, parent)

    # _route_quanta: the same CutTooSmall outcome, the same paths
    args = (spec.rows, spec.cols, suppliers, demanders, cap)
    if any(supply.values()):
        with pytest.raises(CutTooSmall):
            _route_quanta(*args)
    else:
        consumed = {v: q - demand[v] for v, q in demanders}
        expected = pop_front_decompose(heads, suppliers, consumed, flow)
        assert _route_quanta(*args) == expected

    # max_flow: the same value and min cut
    sources, sinks = {node(u) for u, _ in suppliers}, {node(v) for v, _ in demanders}
    big = sum(cap) + 1
    supply = {u.y * spec.cols + u.x: big for u in sources}
    demand = {u.y * spec.cols + u.x: big for u in sinks}
    _, parent = queue_bfs_augment(heads, cap, supply, demand)
    value = big * len(supply) - sum(supply.values())
    n = spec.num_nodes
    cut = {
        DirectedEdge(node(e % n), Direction(e // n))
        for e, c in enumerate(cap)
        if c and parent[e % n] != -2 and parent[heads[e]] == -2
    }
    assert max_flow(spec, sources, sinks, capacity) == (value, cut)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6), st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_decompose_flow_matches_walk_then_trim_on_random_walks(rows, cols, seed):
    # flows summed from random walks close many loops, nested ones included
    rng = random.Random(seed)
    spec = TorusSpec(rows, cols)
    heads, n = edge_heads(spec).ravel().tolist(), spec.num_nodes
    picked = rng.sample(range(n), 4)
    suppliers = [(u, rng.randint(1, 3)) for u in picked[:2]]
    flow, consumed = [0] * (4 * n), Counter()
    for start, quota in suppliers:
        for _ in range(quota):
            u = start
            while u not in picked[2:]:
                e = rng.randrange(4) * n + u
                flow[e] += 1
                u = heads[e]
            consumed[u] += 1
    expected = pop_front_decompose(heads, suppliers, dict(consumed), flow)
    zero = [0] * len(flow)
    assert _decompose_flow(tuple(heads), suppliers, dict(consumed), flow, zero) == expected


def test_augment_matches_queue_bfs_oracle_on_every_stem_crossing(monkeypatch):
    # every crossing the stem schemes route, at every pool they try, with the
    # ones whose cut is too small: many phases, and many suppliers per level
    instances = []
    route = schemes._route_quanta

    def capture(rows, cols, sources, sinks, cap):
        instances.append((TorusSpec(rows, cols), sources, sinks, list(cap)))
        return route(rows, cols, sources, sinks, cap)

    monkeypatch.setattr(schemes, "_route_quanta", capture)
    build_llb(TorusSpec(12, 12), 4)
    build_gllb(TorusSpec(5, 9), 2, 3)

    # count the oracle's walks that closed a loop
    closed, trim_cycles = [], _trim_cycles

    def trim(heads, start, path):
        out = trim_cycles(heads, start, path)
        closed.append(len(out) < len(path))
        return out

    monkeypatch.setitem(globals(), "_trim_cycles", trim)
    short = 0
    for spec, sources, sinks, cap in instances:
        heads = edge_heads(spec).ravel().tolist()
        supply, demand = dict(sources), dict(sinks)
        new_supply, new_demand, res = dict(supply), dict(demand), list(cap)
        flow, parent = queue_bfs_augment(heads, cap, supply, demand)
        _augment(spec.rows, spec.cols, res, new_supply, new_demand)
        new_parent = _reached(spec.rows, spec.cols, res, new_supply)
        assert [max(c - r, 0) for c, r in zip(cap, res)] == flow
        assert (new_supply, new_demand, new_parent) == (supply, demand, parent)
        if any(supply.values()):
            short += 1
            continue
        # the walks that erase loops as they close them against walk-then-trim
        consumed = {v: q - demand[v] for v, q in sinks}
        expected = pop_front_decompose(heads, sources, consumed, flow)
        assert _route_quanta(spec.rows, spec.cols, sources, sinks, cap) == expected
    assert len(instances) > 200 and short > 0 and any(closed)


def test_max_flow_rejects_negative_capacities():
    with pytest.raises(ValueError, match="capacity -1.0 is negative"):
        max_flow(TorusSpec(4, 4), {Node(0, 0)}, {Node(2, 2)}, np.full((4, 4, 4), -1.0))


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_max_flow_rejects_non_finite_capacities(value):
    # Fraction raises OverflowError on inf and a message of its own on NaN,
    # so the library must reject both before it scales
    capacity = np.ones((4, 4, 4))
    capacity[2, 1, 3] = value
    with pytest.raises(ValueError, match=f"capacity {value!r} is not finite"):
        max_flow(TorusSpec(4, 4), {Node(0, 0)}, {Node(2, 2)}, capacity)


def test_max_flow_rejects_nodes_off_the_grid():
    with pytest.raises(ValueError, match=r"Node\(x=5, y=0\) is not a node of the 4x4 torus"):
        max_flow(TorusSpec(4, 4), {Node(5, 0)}, {Node(2, 2)})
    with pytest.raises(ValueError, match=r"Node\(x=2, y=4\) is not a node of the 4x4 torus"):
        max_flow(TorusSpec(4, 4), {Node(0, 0)}, {Node(2, 4)})


def test_stem_rejects_a_center_off_the_grid():
    spec = TorusSpec(8, 8)
    with pytest.raises(ValueError, match=r"Node\(x=9, y=0\) is not a node of the 8x8 torus"):
        stem(spec, Node(9, 0), 1, 1)
    with pytest.raises(ValueError, match=r"Node\(x=9, y=0\) is not a node"):
        min_cut_between_stems(spec, Node(9, 0), Node(4, 4), 1, 1)
    with pytest.raises(ValueError, match=r"Node\(x=0, y=9\) is not a node"):
        find_disjoint_stem_paths(spec, Node(0, 0), Node(0, 9), 1, 1)


def test_nodes_and_quotas_equal_to_integers_index_as_those_integers():
    spec = TorusSpec(4, 4)
    value_cut = max_flow(spec, {Node(0, 0)}, {Node(2, 2)})
    assert max_flow(spec, {Node(0.0, 0)}, {Node(2, 2.0)}) == value_cut
    assert stem(TorusSpec(8, 8), Node(2.0, 0), 1, 1) == stem(TorusSpec(8, 8), Node(2, 0), 1, 1)
    assert stem(TorusSpec(8, 8), Node(2.0, 0), 1, 1).center == Node(2, 0)
