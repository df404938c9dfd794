"""Evaluation-module tests, anchored on brute-force oracles.

The k-cardinality matching solver is checked against exhaustive enumeration,
and the worst-case evaluator against enumeration of every 0/1 k-sparse
demand, before any scheme relies on them.
"""

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from toruslb.evaluate import (
    _BLOCK_ELEMENTS,
    SpecMismatch,
    TrialSummary,
    _blocks,
    _k_matching_sparse,
    candidate_edges,
    edge_loads,
    k_matching_max,
    pair_weights_on_edge,
    run_trials,
    worst_case_load,
    worst_case_profile,
)
from toruslb.policy import OriginPolicy, edge_entries, expand, validate_policy
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_vlb, gllb_radii
from toruslb.traffic import classify
from toruslb.torus import DirectedEdge, Direction, Node, TorusSpec, hop_distance
from toruslb.traffic import TrafficMatrix, gen_random_sparse

from tests.matching_oracle import ssp_k_matching
from tests.test_grid import GRID, grid_policies


def brute_force_k_matching(weights: np.ndarray, k: int) -> float:
    """Exhaustive max-weight matching with at most k entries."""
    nr, nc = weights.shape
    best = 0.0
    cells = [(i, j) for i in range(nr) for j in range(nc) if weights[i][j] > 0]
    for size in range(1, min(k, nr, nc) + 1):
        for combo in itertools.combinations(cells, size):
            rows = {i for i, _ in combo}
            cols = {j for _, j in combo}
            if len(rows) == size and len(cols) == size:
                best = max(best, sum(weights[i][j] for i, j in combo))
    return best


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_k_matching_matches_brute_force(seed, k):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0, 1, size=(5, 5))
    weights[weights < 0.2] = 0.0
    value, assignment = k_matching_max(weights, k)
    expected = brute_force_k_matching(weights, k)
    assert value == pytest.approx(expected, abs=1e-9)
    # assignment is a valid matching of at most k entries achieving the value
    assert len(assignment) <= k
    assert len({i for i, _ in assignment}) == len(assignment)
    assert len({j for _, j in assignment}) == len(assignment)
    assert sum(weights[i][j] for i, j in assignment) == pytest.approx(value, abs=1e-9)


def test_k_matching_trivial_cases():
    value, _ = k_matching_max([[3.0, 3.0], [3.0, 3.0]], 1)
    assert value == 3.0
    value, assignment = k_matching_max([[2.0] * 4] * 4, 3)
    assert value == pytest.approx(6.0)
    assert len(assignment) == 3


def sparse_k_matching_value(weights: np.ndarray, k: int) -> float:
    """The successive-shortest-path solver on the positive entries as a dict:
    an oracle that shares no code with the dense solver."""
    positive = {(i, j): float(w) for (i, j), w in np.ndenumerate(weights) if w > 0}
    return ssp_k_matching(positive, k).value


def quarter_ties(shape, seed):
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(0, 2, size=shape) * 4) / 4


def with_zero_lines(seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0, 1, size=(5, 4))
    weights[1] = 0.0
    weights[:, 2] = 0.0
    return weights


def with_negatives(seed):
    return np.random.default_rng(seed).uniform(-1, 1, size=(4, 5))


MATCHING_CASES = {
    "wide": lambda seed: np.random.default_rng(seed).uniform(0, 1, size=(2, 6)),
    "tall": lambda seed: np.random.default_rng(seed).uniform(0, 1, size=(6, 3)),
    "one-row": lambda seed: np.random.default_rng(seed).uniform(0, 1, size=(1, 5)),
    "one-col": lambda seed: np.random.default_rng(seed).uniform(0, 1, size=(5, 1)),
    "quarter-ties": lambda seed: quarter_ties((4, 5), seed),
    "quarter-ties-square": lambda seed: quarter_ties((4, 4), seed),
    "zero-lines": with_zero_lines,
    "negatives": with_negatives,
    "all-zero": lambda seed: np.zeros((3, 4)),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(MATCHING_CASES))
def test_k_matching_agrees_with_sparse_ssp_and_brute_force(case, seed):
    weights = MATCHING_CASES[case](seed)
    for k in (1, 2, 3, min(weights.shape), min(weights.shape) + 2, 10):
        value, assignment = k_matching_max(weights, k)
        assert value == pytest.approx(sparse_k_matching_value(weights, k), abs=1e-12), k
        assert value == pytest.approx(brute_force_k_matching(weights, k), abs=1e-12), k
        # a sorted matching of at most k positive entries that attains the value
        assert assignment == sorted(assignment)
        assert len(assignment) <= k
        assert len({i for i, _ in assignment}) == len(assignment)
        assert len({j for _, j in assignment}) == len(assignment)
        assert all(weights[i, j] > 0 for i, j in assignment)
        assert sum(weights[i, j] for i, j in assignment) == pytest.approx(value, abs=1e-12)


def test_k_matching_peak_memory_is_two_copies_of_the_costs():
    # the compacted costs and their column-major copy; a clipped copy of the
    # whole matrix beside them read 3.04x
    weights = np.random.default_rng(7).random((400, 400))
    tracemalloc.start()
    try:
        k_matching_max(weights, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * weights.nbytes


def test_k_matching_rejects_k_below_one():
    for weights in ([[1.0, 2.0]], [[0.0]], []):
        with pytest.raises(ValueError):
            k_matching_max(weights, 0)
    assert k_matching_max([], 3) == (0.0, [])


@pytest.mark.parametrize("k", [2.5, 2.0, True, False, np.True_, "2", None])
def test_k_must_be_an_integer(k):
    # k=2.5 read (5.0, [(0, 1), (1, 0)]) from the 2x2 matrix, while the 3x3
    # one raised a bare TypeError from np.empty, and k=True a TypeError
    policy = build_ecmp(TorusSpec(4, 4))
    calls = [
        (k_matching_max, [[1.0, 2.0], [3.0, 0.5]]),
        (k_matching_max, np.ones((3, 3))),
        (_k_matching_sparse, {("a", "x"): 1.0, ("b", "x"): 2.0}),
        (worst_case_load, policy),
        (worst_case_profile, policy),
    ]
    for solve, arg in calls:
        with pytest.raises(ValueError, match=rf"^k must be an integer, not {re.escape(repr(k))}$"):
            solve(arg, k)


def test_k_may_be_a_numpy_integer():
    weights = [[1.0, 2.0], [3.0, 0.5]]
    policy = build_ecmp(TorusSpec(4, 4))
    for k in (np.int64(2), np.int32(2), np.uint8(2)):
        assert k_matching_max(weights, k) == k_matching_max(weights, 2) == (5.0, [(0, 1), (1, 0)])
        assert _k_matching_sparse({("a", "x"): 1.0}, k) == _k_matching_sparse({("a", "x"): 1.0}, 2)
        assert worst_case_load(policy, k) == worst_case_load(policy, 2)
        assert worst_case_profile(policy, k).tolist() == worst_case_profile(policy, 2).tolist()
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        k_matching_max(weights, np.int64(0))


def test_k_matching_rejects_non_finite_weights():
    # a NaN was skipped (this matrix read 0.5, though its optimum with the NaN
    # taken as 0 is 2.0) and an inf read inf with RuntimeWarnings; the first
    # non-finite entry in row-major order is named, -inf too
    with pytest.raises(ValueError, match=r"^weights\[0, 0\] is nan; weights must be finite$"):
        k_matching_max([[np.nan, 1.0], [1.0, 0.5]], 2)
    assert k_matching_max([[0.0, 1.0], [1.0, 0.5]], 2) == (2.0, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^weights\[1, 0\] is inf;"):
        k_matching_max([[1.0, 0.5], [np.inf, 2.0]], 2)
    with pytest.raises(ValueError, match=r"^weights\[0, 1\] is -inf;"):
        k_matching_max([[1.0, -np.inf], [np.nan, 2.0]], 1)
    with pytest.raises(ValueError, match=r"^weights\[0, 1\] is nan;"):
        _k_matching_sparse({("a", "x"): 1.0, ("a", "y"): np.nan}, 1)


def test_worst_case_load_rejects_a_nan_flow():
    # ECMP 4x4 with one POS_VERT fraction set to NaN read 1.5, the NaN
    # dropped; the CSV reader refuses NaN, so the policy is built from an array
    spec = TorusSpec(4, 4)
    g = build_ecmp(spec).flows.copy()
    t, y, x = np.argwhere(g[:, Direction.POS_VERT] > 0)[0].tolist()
    g[t, Direction.POS_VERT, y, x] = np.nan
    policy = OriginPolicy(spec, g)
    assert DirectedEdge(Node(0, 0), Direction.POS_VERT) in candidate_edges(policy)
    for solve in (worst_case_load, worst_case_profile):
        with pytest.raises(ValueError, match="is nan; weights must be finite"):
            solve(policy, 4)


@pytest.mark.parametrize("seed", range(6))
def test_k_matching_duals_certify_optimum(seed):
    rng = np.random.default_rng(100 + seed)
    weights = {
        (i, j): float(w)
        for i in range(4)
        for j, w in enumerate(rng.uniform(0, 1, size=4))
        if w > 0.15
    }
    for k in (1, 2, 3):
        result = _k_matching_sparse(weights, k)
        for (i, j), w in weights.items():
            cover = (
                result.row_duals.get(i, 0.0)
                + result.col_duals.get(j, 0.0)
                + result.card_dual
            )
            assert cover >= w - 1e-9, (i, j, w, cover)
        dual_obj = (
            sum(result.row_duals.values())
            + sum(result.col_duals.values())
            + k * result.card_dual
        )
        assert dual_obj == pytest.approx(result.value, abs=1e-8)


def random_origin_policy(spec: TorusSpec, rng: np.random.Generator) -> OriginPolicy:
    """Random mix of monotone staircase paths per destination offset."""
    g = np.zeros((spec.num_nodes, 4, spec.rows, spec.cols))
    for t in spec.nodes():
        if t == Node(0, 0):
            continue
        n_paths = int(rng.integers(1, 4))
        parts = rng.dirichlet(np.ones(n_paths))
        for frac in parts:
            node = Node(0, 0)
            # random shortest-ish path: walk each axis toward t in random order
            dx = t.x if t.x <= spec.cols // 2 else t.x - spec.cols
            dy = t.y if t.y <= spec.rows // 2 else t.y - spec.rows
            moves = [Direction.POS_HOR if dx > 0 else Direction.NEG_HOR] * abs(dx)
            moves += [Direction.POS_VERT if dy > 0 else Direction.NEG_VERT] * abs(dy)
            moves = list(rng.permutation(moves))
            for d in moves:
                g[t.y * spec.cols + t.x, d, node.y, node.x] += float(frac)
                node = spec.edge_head(DirectedEdge(node, Direction(int(d))))
    return OriginPolicy(spec, g)


def test_random_origin_policy_bytes_pinned():
    # sha256 of the flows, recorded while the helper still built per-destination
    # {DirectedEdge: fraction} dicts; the acceptance criteria draw from it
    for dims, digest in (
        ((3, 4), "27bef3e25b836ad7f69b240cc8ce7813d2418ae5a29d42dd0cc78a9044bfa1ca"),
        ((4, 4), "093b529cc61223d37200695715ecf405ffb15aa00285ca28237a38e7a204fe4d"),
    ):
        flows = random_origin_policy(TorusSpec(*dims), np.random.default_rng(7)).flows
        assert hashlib.sha256(flows.tobytes()).hexdigest() == digest, dims


def enumerate_k_sparse_01(spec: TorusSpec, k: int):
    """All 0/1 k-sparse demands with distinct sources and distinct sinks."""
    nodes = list(spec.nodes())
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    for size in range(1, k + 1):
        for combo in itertools.combinations(pairs, size):
            if len({s for s, _ in combo}) < size:
                continue
            if len({t for _, t in combo}) < size:
                continue
            yield TrafficMatrix(spec=spec, entries={p: 1.0 for p in combo})


@pytest.mark.parametrize("dims", [(3, 4), (4, 4)])
def test_worst_case_equals_exhaustive_enumeration(dims):
    """Acceptance gate: matching-based worst case == enumeration over all 0/1
    k-sparse matrices for rows*cols <= 16, k <= 2."""
    spec = TorusSpec(*dims)
    rng = np.random.default_rng(7)
    demands = {k: list(enumerate_k_sparse_01(spec, k)) for k in (1, 2)}
    for trial in range(20):
        policy = random_origin_policy(spec, rng)
        assert validate_policy(policy) == []
        for k in (1, 2):
            exhaustive = run_trials(policy, demands[k].__getitem__, len(demands[k]), 0).max_load_max
            result = worst_case_load(policy, k)
            assert result.value == pytest.approx(exhaustive, abs=1e-9), (trial, k)
            # witness achieves the value and is genuinely k-sparse
            assert edge_loads(policy, result.witness).max_load == pytest.approx(
                result.value, abs=1e-9
            )
            assert len(result.witness.sources()) <= k
            assert len(result.witness.sinks()) <= k


def test_worst_case_k1_is_max_pair_flow():
    spec = TorusSpec(4, 4)
    policy = random_origin_policy(spec, np.random.default_rng(3))
    best = float(policy.flows.max())
    assert worst_case_load(policy, 1).value == pytest.approx(best, abs=1e-12)


def test_worst_case_monotone_in_k():
    spec = TorusSpec(4, 4)
    policy = random_origin_policy(spec, np.random.default_rng(11))
    values = [worst_case_load(policy, k).value for k in (1, 2, 3, 4, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_edge_loads_zero_traffic():
    spec = TorusSpec(4, 4)
    policy = random_origin_policy(spec, np.random.default_rng(0))
    report = edge_loads(policy, TrafficMatrix(spec=spec, entries={}))
    assert report.max_load == 0.0 and dict(edge_entries(report.load)) == {}


def roll_loop_loads(g: OriginPolicy, d: TrafficMatrix) -> tuple[np.ndarray, float, float]:
    """Oracle for ``edge_loads``: each pair's route is ``G[t - s]`` rolled by
    s, one ``np.roll`` per entry, accumulated in entry order."""
    spec = g.spec
    caps = np.array([spec.cap_vertical] * 2 + [spec.cap_horizontal] * 2)[:, None, None]
    load = np.zeros((4, spec.rows, spec.cols))
    hops = 0.0
    for (s, t), amount in d.entries.items():
        offset = ((t.y - s.y) % spec.rows) * spec.cols + (t.x - s.x) % spec.cols
        slab = np.roll(g.flows[offset], (s.y, s.x), axis=(1, 2))
        load += amount * slab / caps
        hops += amount * float(slab.sum())
    total = sum(d.entries.values())
    return load, float(load.max()), hops / total if total > 0 else 0.0


def oracle_demands(spec: TorusSpec, k: int, rng: np.random.Generator) -> list[TrafficMatrix]:
    """Unit and fractional k-sparse demands, a unit demand but for its last
    entry, one-entry demands, and the empty demand.  The unit demand and the
    two after it have one width, so a block of them mixes unit amounts, which
    skip the evaluator's ``× amount`` passes, with amounts that need them."""
    demands = [TrafficMatrix(spec=spec, entries={})]
    for seed in range(6):
        d = gen_random_sparse(spec, k, seed)
        fractional = {pair: float(rng.uniform(0.01, 2.5)) for pair in d.entries}
        pair, *_, last = d.entries
        single = {pair: float(rng.uniform(0.1, 1))}
        almost_unit = {**d.entries, last: float(rng.uniform(1.01, 2.5))}
        demands += [
            TrafficMatrix(spec=spec, entries=entries)
            for entries in (d.entries, almost_unit, fractional, single)
        ]
    return demands


@pytest.mark.parametrize(
    "spec,build,k",
    [
        (TorusSpec(10, 10), build_ecmp, 18),
        (TorusSpec(10, 10), build_vlb, 18),
        (TorusSpec(10, 10), lambda spec: build_llb(spec, 3), 18),
        (TorusSpec(5, 7, 2.0, 1.0), build_ecmp, 6),
        (TorusSpec(5, 7, 2.0, 1.0), build_vlb, 6),
        (TorusSpec(6, 4, 0.7, 3.0), build_vlb, 5),
        (TorusSpec(5, 7, 1.0, 2.0), build_vlb, 6),
    ],
    ids=[
        "10x10-ecmp", "10x10-vlb", "10x10-llb3",
        "5x7-c2-1-ecmp", "5x7-c2-1-vlb", "6x4-c0.7-3-vlb", "5x7-c1-2-vlb",
    ],
)
def test_edge_loads_matches_roll_loop_bit_for_bit(spec, build, k):
    g = build(spec)
    full = expand(g)
    for d in oracle_demands(spec, k, np.random.default_rng(k)):
        load, max_load, avg_hops = roll_loop_loads(g, d)
        for policy in (g, full):
            report = edge_loads(policy, d)
            assert np.array_equal(report.load, load)
            assert report.max_load == max_load
            assert report.avg_hops == avg_hops


def roll_loop_trials(g: OriginPolicy, generator, trials: int, base_seed: int) -> TrialSummary:
    """Oracle for ``run_trials``: :func:`roll_loop_loads` on one demand at a
    time, summarized by mean, min and max of the max load and mean hops."""
    results = [roll_loop_loads(g, generator(base_seed + i))[1:] for i in range(trials)]
    loads = np.array([max_load for max_load, _ in results])
    hops = np.array([avg_hops for _, avg_hops in results])
    return TrialSummary(
        trials=trials,
        base_seed=base_seed,
        max_load_mean=float(loads.mean()),
        max_load_min=float(loads.min()),
        max_load_max=float(loads.max()),
        avg_hops_mean=float(hops.mean()),
    )


def assert_trials_match_oracle(g: OriginPolicy, generator, trials: int, base_seed: int = 0):
    expected = roll_loop_trials(g, generator, trials, base_seed)
    for policy in (g, expand(g)):
        assert run_trials(policy, generator, trials, base_seed) == expected


def block_sizes(g: OriginPolicy, generator, trials: int, base_seed: int = 0) -> list[int]:
    demands = (generator(base_seed + i) for i in range(trials))
    return [len(block) for block in _blocks(g, demands)]


TRIAL_CASES = {
    "10x10-ecmp": (TorusSpec(10, 10), build_ecmp, 18),
    "10x10-vlb": (TorusSpec(10, 10), build_vlb, 18),
    "10x10-llb3": (TorusSpec(10, 10), lambda spec: build_llb(spec, 3), 18),
    "5x7-c2-1-ecmp": (TorusSpec(5, 7, 2.0, 1.0), build_ecmp, 6),
    "5x7-c2-1-vlb": (TorusSpec(5, 7, 2.0, 1.0), build_vlb, 6),
    "6x4-c0.7-3-vlb": (TorusSpec(6, 4, 0.7, 3.0), build_vlb, 5),
    "5x7-c1-2-vlb": (TorusSpec(5, 7, 1.0, 2.0), build_vlb, 6),
}


@pytest.mark.parametrize("case", TRIAL_CASES)
def test_run_trials_matches_roll_loop_oracle(case):
    """Block evaluation gives the one-demand-at-a-time summary exactly, on
    the bit-for-bit cases' demands (widths change from demand to demand)
    and on a run of equal-width random demands (blocks of many)."""
    spec, build, k = TRIAL_CASES[case]
    g = build(spec)
    mixed = oracle_demands(spec, k, np.random.default_rng(k))
    assert_trials_match_oracle(g, mixed.__getitem__, len(mixed))
    random_k = lambda seed: gen_random_sparse(spec, k, seed)
    assert max(block_sizes(g, random_k, 40)) > 1
    assert_trials_match_oracle(g, random_k, 40, base_seed=11)


def test_run_trials_cuts_blocks_where_width_changes():
    spec = TorusSpec(5, 7, 2.0, 1.0)
    g = build_vlb(spec)
    rng = np.random.default_rng(4)
    widths = [3, 3, 0, 0, 5, 5, 5, 1, 0, 3, 6, 6, 2, 2, 2, 0]
    demands = []
    for seed, width in enumerate(widths):
        entries = {}
        if width:
            pairs = gen_random_sparse(spec, width, seed).entries
            entries = {pair: float(rng.uniform(0.05, 3.0)) for pair in pairs}
        demands.append(TrafficMatrix(spec=spec, entries=entries))
    assert block_sizes(g, demands.__getitem__, len(demands)) == [2, 2, 3, 1, 1, 1, 2, 3, 1]
    assert_trials_match_oracle(g, demands.__getitem__, len(demands))


def test_run_trials_crosses_block_cap_boundaries():
    spec = TorusSpec(10, 10)
    g = build_llb(spec, 3)
    per_block = _BLOCK_ELEMENTS // (18 * 4 * spec.num_nodes)
    assert per_block >= 2
    trials = 4 * per_block + 1
    generator = lambda seed: gen_random_sparse(spec, 18, seed)
    assert block_sizes(g, generator, trials, 5) == [per_block] * 4 + [1]
    assert_trials_match_oracle(g, generator, trials, base_seed=5)


def test_demand_wider_than_block_cap_is_a_block_of_one():
    spec = TorusSpec(10, 10)
    g = build_ecmp(spec)
    nodes = list(spec.nodes())
    width = _BLOCK_ELEMENTS // (4 * spec.num_nodes) + 1
    rng = np.random.default_rng(8)
    wide = []
    for shift in (1, 37, 61):
        pairs = [(nodes[i % 100], nodes[(i + shift + i // 100) % 100]) for i in range(width)]
        wide.append(TrafficMatrix(spec=spec, entries={p: float(rng.uniform(0.1, 2)) for p in pairs}))
    assert [len(d.entries) for d in wide] == [width] * 3
    assert block_sizes(g, wide.__getitem__, 3) == [1, 1, 1]
    assert_trials_match_oracle(g, wide.__getitem__, 3)


def test_run_trials_rejects_demand_on_another_spec():
    g = build_vlb(TorusSpec(6, 6))
    other = TorusSpec(6, 6, 2.0, 2.0)
    generator = lambda seed: gen_random_sparse(g.spec if seed < 3 else other, 4, seed)
    with pytest.raises(SpecMismatch):
        run_trials(g, generator, trials=5, base_seed=0)


# run_trials at the benchmark's table1 configuration (10x10, k=18, 100
# trials, base seed 20240917), recorded while every demand was evaluated on
# its own: max-load mean, min and max, and mean hops.
TABLE1_TRIALS = {
    "ecmp": (1.5729543650793656, 1.0833333333333333, 2.2380952380952377, 5.0505555555555555),
    "vlb": (1.0085144841269842, 0.8719246031746033, 1.1694444444444447, 10.0),
    "llb3": (0.9884375, 0.8541666666666665, 1.1354166666666667, 8.787372685185185),
}


def test_run_trials_pinned_at_table1_configuration():
    spec = TorusSpec(10, 10)
    builds = {"ecmp": build_ecmp, "vlb": build_vlb, "llb3": lambda s: build_llb(s, 3)}
    generator = lambda seed: gen_random_sparse(spec, 18, seed)
    for name, build in builds.items():
        s = run_trials(build(spec), generator, trials=100, base_seed=20240917)
        pinned = (s.max_load_mean, s.max_load_min, s.max_load_max, s.avg_hops_mean)
        assert pinned == TABLE1_TRIALS[name], name


def test_avg_hops_lower_bounded_by_distance():
    spec = TorusSpec(5, 5)
    policy = random_origin_policy(spec, np.random.default_rng(2))
    for s, t in [(Node(0, 0), Node(2, 1)), (Node(1, 3), Node(4, 4))]:
        report = edge_loads(policy, TrafficMatrix(spec=spec, entries={(s, t): 1.0}))
        assert report.avg_hops >= hop_distance(spec, s, t) - 1e-9


def test_run_trials_deterministic():
    spec = TorusSpec(6, 6)
    policy = random_origin_policy(spec, np.random.default_rng(5))
    gen = lambda seed: gen_random_sparse(spec, 4, seed)
    a = run_trials(policy, gen, trials=20, base_seed=77)
    b = run_trials(policy, gen, trials=20, base_seed=77)
    assert a == b


def test_spec_mismatch_rejected():
    from toruslb.evaluate import SpecMismatch

    policy = random_origin_policy(TorusSpec(4, 4), np.random.default_rng(1))
    demand = gen_random_sparse(TorusSpec(5, 5), 2, 0)
    with pytest.raises(SpecMismatch):
        edge_loads(policy, demand)


def test_worst_case_witness_is_k_sparse():
    from toruslb.schemes import build_llb
    from toruslb.traffic import classify

    policy = build_llb(TorusSpec(10, 10), 3)
    result = worst_case_load(policy, 18)
    report = classify(result.witness, 18)
    assert report.is_k_sparse and report.is_k_limited
    assert set(result.witness.entries.values()) == {1.0}
    assert edge_loads(policy, result.witness).max_load == pytest.approx(
        result.value, abs=1e-9
    )


def test_representative_edges_on_asymmetric_spec():
    from toruslb.evaluate import candidate_edges
    from toruslb.schemes import build_ring_lb

    spec = TorusSpec(4, 6)
    policy = build_ring_lb(spec)
    reps = candidate_edges(policy)
    assert [e.dir for e in reps] == [Direction.POS_VERT, Direction.POS_HOR]
    fast = worst_case_load(policy, 4).value
    full = worst_case_load(expand(policy), 4).value
    assert fast == pytest.approx(full, abs=1e-12)


def test_worst_case_rejects_k_below_one():
    spec = TorusSpec(4, 4)
    policy = random_origin_policy(spec, np.random.default_rng(4))
    empty = OriginPolicy(spec=spec, flows=np.zeros_like(policy.flows))
    assert worst_case_load(empty, 1).value == 0.0
    for p in (policy, empty):
        with pytest.raises(ValueError):
            worst_case_load(p, 0)


def sparse_worst_case(policy, k: int) -> float:
    """Max over candidate edges of the dict-based SSP value, per capacity."""
    return max(
        ssp_k_matching(pair_weights_on_edge(policy, edge), k).value
        / policy.spec.capacity(edge.dir)
        for edge in candidate_edges(policy)
    )


def grid_instances():
    """The LLB and GLLB policies of tests/test_grid.py (LLB at k = 8 and at
    k = 2r^2, where its worst case is sqrt(2k)/4), plus ECMP and VLB 8x8."""
    for n in range(5, 11):
        for r in range(1, (n - 1) // 2 + 1):
            yield f"llb{r}-{n}x{n}", lambda n=n, r=r: build_llb(TorusSpec(n, n), r), {8, 2 * r * r}
    for dims in ((4, 6), (4, 10), (5, 9), (6, 8), (6, 10), (8, 10)):
        for k in (2, 8):

            def build(dims=dims, k=k):
                spec = TorusSpec(*dims)
                return build_gllb(spec, *gllb_radii(spec, k))

            yield f"gllb-{dims[0]}x{dims[1]}-k{k}", build, {k}

    def build_asymmetric():
        spec = TorusSpec(6, 6, cap_vertical=2.0, cap_horizontal=1.0)
        return build_gllb(spec, *gllb_radii(spec, 4))

    yield "gllb-6x6-caps2x1", build_asymmetric, {4}
    yield "ecmp-8x8", lambda: build_ecmp(TorusSpec(8, 8)), {18}
    yield "vlb-8x8", lambda: build_vlb(TorusSpec(8, 8)), {18}


GRID_INSTANCES = list(grid_instances())


@pytest.mark.parametrize(
    "build,ks", [case[1:] for case in GRID_INSTANCES], ids=[case[0] for case in GRID_INSTANCES]
)
def test_worst_case_equals_sparse_ssp_oracle(build, ks):
    policy = build()
    for k in sorted(ks):
        result = worst_case_load(policy, k)
        assert result.value == pytest.approx(sparse_worst_case(policy, k), abs=1e-12), k
        # the witness is a 0/1 k-sparse demand that attains the value
        assert set(result.witness.entries.values()) == {1.0}
        report = classify(result.witness, k)
        assert report.is_k_sparse and report.is_k_limited
        assert edge_loads(policy, result.witness).max_load == pytest.approx(
            result.value, abs=1e-12
        )


@pytest.mark.parametrize("dims", GRID, ids=lambda d: f"{d[0]}x{d[1]}")
def test_worst_case_profile_is_worst_case_load_at_every_k(dims):
    """One run to k = 50 per candidate edge gives, to the bit, the value that
    a run to each k gives, for every policy the grid tests build."""
    ks = (*range(1, 19), 32, 50)
    for policy in grid_policies(dims):
        profile = worst_case_profile(policy, 50)
        assert profile.shape == (50,)
        assert all(profile[k - 1] == worst_case_load(policy, k).value for k in ks)
        assert (np.diff(profile) >= 0).all()


def test_worst_case_profile_of_an_empty_policy_and_k_below_one():
    spec = TorusSpec(4, 4)
    empty = OriginPolicy(spec=spec, flows=np.zeros((spec.num_nodes, 4, 4, 4)))
    assert worst_case_profile(empty, 3).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        worst_case_profile(empty, 0)
