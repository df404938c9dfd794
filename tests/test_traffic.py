import hashlib

import numpy as np
import pytest

from toruslb.torus import Node, TorusSpec, hop_distance
from toruslb.traffic import (
    DoesNotFit,
    NotSquare,
    OddSizeUnsupported,
    TrafficError,
    TrafficMatrix,
    classify,
    gen_generalized_split,
    gen_hotspot,
    gen_random_sparse,
    gen_split_diamond,
    traffic_from_csv,
    traffic_to_csv,
)


def test_split_diamond_8_3():
    spec = TorusSpec(8, 8)
    d = gen_split_diamond(spec, 3)
    assert d.total() == 18
    assert {spec.wrap(t.x - s.x, t.y - s.y) for (s, t) in d.entries} == {Node(4, 4)}
    report = classify(d, 18)
    assert report.is_k_limited and report.is_k_sparse
    assert report.total == 18


def test_split_diamond_totals():
    assert gen_split_diamond(TorusSpec(10, 10), 1).total() == 2
    assert gen_split_diamond(TorusSpec(10, 10), 3).total() == 18
    assert classify(gen_split_diamond(TorusSpec(10, 10), 3), 18).is_k_sparse


def test_split_diamond_rejections():
    with pytest.raises(NotSquare):
        gen_split_diamond(TorusSpec(4, 6), 1)
    with pytest.raises(OddSizeUnsupported):
        gen_split_diamond(TorusSpec(7, 7), 1)
    with pytest.raises(TrafficError):
        gen_split_diamond(TorusSpec(8, 8), 6)


def test_classify_cases():
    spec = TorusSpec(6, 6)
    empty = classify(TrafficMatrix(spec=spec, entries={}), 3)
    assert empty.is_hose and empty.is_k_limited and empty.is_k_sparse
    assert empty.total == 0
    overloaded = TrafficMatrix(
        spec=spec,
        entries={
            (Node(0, 0), Node(1, 0)): 0.5,
            (Node(0, 0), Node(2, 0)): 0.5,
            (Node(0, 0), Node(3, 0)): 0.5,
        },
    )
    report = classify(overloaded, 1)
    assert not report.is_hose and not report.is_k_limited
    assert any("rate" in v for v in report.violations)


def test_classify_names_sink_rate_and_source_count():
    spec = TorusSpec(6, 6)
    t = Node(3, 3)
    converging = TrafficMatrix(
        spec=spec, entries={(Node(0, 0), t): 0.75, (Node(1, 0), t): 0.75, (Node(2, 0), t): 0.75}
    )
    report = classify(converging, 2)
    assert not report.is_hose and not report.is_k_limited and not report.is_k_sparse
    assert report.violations == [
        f"sink {t} rate 2.25 exceeds 1",
        "total demand 2.25 exceeds k=2",
        "3 sources exceed k=2",
    ]


def test_k_sparse_implies_k_limited():
    # container relation: sparse membership forces limited membership
    spec = TorusSpec(5, 5)
    rng = np.random.default_rng(0)
    for seed in range(30):
        d = gen_random_sparse(spec, int(rng.integers(1, 8)), seed)
        report = classify(d, len(d.sources()))
        if report.is_k_sparse:
            assert report.is_k_limited


def test_hotspot_layout():
    d = gen_hotspot(TorusSpec(10, 10), 4)
    assert d.sources() == {Node(0, 0), Node(1, 0), Node(0, 1), Node(1, 1)}
    assert d.sinks() == {Node(2, 0), Node(3, 0), Node(2, 1), Node(3, 1)}
    big = gen_hotspot(TorusSpec(10, 10), 18)
    assert big.total() == 18
    assert classify(big, 18).is_k_sparse
    with pytest.raises(DoesNotFit):
        gen_hotspot(TorusSpec(3, 8), 12)


def test_random_sparse_contract():
    spec = TorusSpec(10, 10)
    a = gen_random_sparse(spec, 18, 7)
    b = gen_random_sparse(spec, 18, 7)
    assert a.entries == b.entries
    assert a.total() == 18
    assert len(a.sources()) == 18 and len(a.sinks()) == 18
    c = gen_random_sparse(spec, 18, 8)
    assert c.entries != a.entries


def test_random_sparse_mean_distance():
    # expectation of the torus distance between the endpoints is N/4 per axis
    spec = TorusSpec(10, 10)
    total, count = 0.0, 0
    for seed in range(400):
        d = gen_random_sparse(spec, 18, seed)
        for s, t in d.entries:
            total += hop_distance(spec, s, t)
            count += 1
    assert total / count == pytest.approx(5.0, abs=0.2)


def test_random_sparse_source_uniformity():
    spec = TorusSpec(6, 6)
    k, trials = 4, 600
    counts = {node: 0 for node in spec.nodes()}
    for seed in range(trials):
        for s in gen_random_sparse(spec, k, seed).sources():
            counts[s] += 1
    p = k / spec.num_nodes
    sigma = np.sqrt(trials * p * (1 - p))
    for node, c in counts.items():
        assert abs(c - trials * p) <= 5 * sigma, (node, c)


def test_generalized_split_instance():
    spec = TorusSpec(4, 10)
    d1, d2 = gen_generalized_split(spec, 1.0, 0.5, 2.0)
    bound = 2 * 2.0**2 / (1.0 * 0.5)
    assert d1.total() <= bound and d2.total() <= bound
    assert d1.total() == 16.0
    assert d2.total() == 16.0
    assert {spec.wrap(t.x - s.x, t.y - s.y) for (s, t) in d1.entries} == {Node(5, 2)}
    assert classify(d1, 16).is_k_sparse


def test_generalized_split_square_reduction():
    spec = TorusSpec(8, 8)
    d1, _ = gen_generalized_split(spec, 1.0, 1.0, 3.0)
    assert d1.sources() == gen_split_diamond(spec, 3).sources()


def test_traffic_csv_roundtrip():
    spec = TorusSpec(5, 5)
    d = gen_random_sparse(spec, 5, 3)
    text = traffic_to_csv(d)
    assert text.splitlines()[0] == "src_x,src_y,dst_x,dst_y,demand"
    back = traffic_from_csv(spec, text)
    assert back.entries == d.entries


def test_traffic_csv_reads_its_own_output_for_any_node_type():
    spec = TorusSpec(4, 4)
    for s, t, v in (
        (Node(2.0, 0), Node(0, 1.0), 1.0),
        (Node(np.int64(2), np.int64(0)), Node(np.int64(1), np.int64(3)), np.float64(0.5)),
    ):
        d = TrafficMatrix(spec=spec, entries={(s, t): v})
        text = traffic_to_csv(d)
        assert text.splitlines()[1] == f"{int(s.x)},{int(s.y)},{int(t.x)},{int(t.y)},{float(v)!r}"
        back = traffic_from_csv(spec, text)
        assert back.entries == d.entries
        assert all(type(c) is int for pair in back.entries for u in pair for c in u)
    header = "src_x,src_y,dst_x,dst_y,demand\n"
    # three rows that do not parse, then rows that name an off-grid node, a
    # self-demand, a demand that is not positive and finite, or a pair that
    # an earlier row named
    for line, row in (
        (2, "0,0,1,1"), (3, "2.0,0,1,1,1.0"), (2, "0,0,1,1,lots"), (3, "9,0,1,1,1.0"),
        (2, "1,1,1,1,1.0"), (3, "0,0,1,1,-1"), (2, "0,0,1,1,inf"), (3, "3,3,2,2,2.0"),
    ):
        text = header + "3,3,2,2,1.0\n" * (line - 2) + row + "\n"
        with pytest.raises(TrafficError, match=f"^line {line}: {row}:"):
            traffic_from_csv(spec, text)


def test_traffic_matrix_validation():
    spec = TorusSpec(4, 4)
    with pytest.raises(TrafficError):
        TrafficMatrix(spec=spec, entries={(Node(0, 0), Node(0, 0)): 1.0})
    with pytest.raises(TrafficError):
        TrafficMatrix(spec=spec, entries={(Node(0, 0), Node(1, 0)): -0.5})
    for bad in (Node(4, 0), Node(0, 4), Node(-1, 0), Node(0, -1)):
        with pytest.raises(TrafficError, match="off the 4x4 grid"):
            TrafficMatrix(spec=spec, entries={(Node(1, 1), bad): 1.0})
        with pytest.raises(TrafficError, match="off the 4x4 grid"):
            TrafficMatrix(spec=spec, entries={(bad, Node(1, 1)): 1.0})
    for demand in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(TrafficError):
            TrafficMatrix(spec=spec, entries={(Node(0, 0), Node(1, 0)): demand})
    # Read from CSV, off-grid nodes are not wrapped: (6, 0) on 6x6 would be
    # the self-demand (0, 0) -> (0, 0); and a nan demand would make every
    # load nan.
    header = "src_x,src_y,dst_x,dst_y,demand\n"
    for row in ("7,0,3,3,1.0", "0,0,6,0,1.0", "0,0,3,3,nan", "0,0,3,3,inf"):
        with pytest.raises(TrafficError):
            traffic_from_csv(TorusSpec(6, 6), header + row + "\n")
    assert traffic_from_csv(TorusSpec(6, 6), header + "5,5,3,3,1.0\n").total() == 1.0


def test_traffic_matrix_rejects_non_integer_nodes():
    """A node is valid only if it is one of the grid's nodes: (1.5, 0) lies in
    range but is no node, and must not be evaluated as (1, 0)."""
    spec = TorusSpec(4, 4)
    for bad in (Node(1.5, 0), Node(0, 2.5), Node(float("nan"), 0), Node("1", 0)):
        with pytest.raises(TrafficError, match="off the 4x4 grid"):
            TrafficMatrix(spec=spec, entries={(bad, Node(2, 2)): 1.0})
        with pytest.raises(TrafficError, match="off the 4x4 grid"):
            TrafficMatrix(spec=spec, entries={(Node(2, 2), bad): 1.0})
    # numpy integer coordinates name the same nodes as Python ints
    from toruslb.evaluate import edge_loads
    from toruslb.schemes import build_ecmp

    s, t = Node(np.int64(1), np.int32(0)), Node(np.intp(2), np.int64(2))
    d = TrafficMatrix(spec=spec, entries={(s, t): 1.0})
    plain = TrafficMatrix(spec=spec, entries={(Node(1, 0), Node(2, 2)): 1.0})
    policy = build_ecmp(spec)
    got, want = edge_loads(policy, d), edge_loads(policy, plain)
    assert np.array_equal(got.load, want.load)
    assert (got.max_load, got.avg_hops) == (want.max_load, want.avg_hops)


def test_random_sparse_rejects_negative_seed():
    spec = TorusSpec(6, 6)
    for seed in (-1, -5):
        with pytest.raises(TrafficError, match="seed"):
            gen_random_sparse(spec, 4, seed)
    assert len(gen_random_sparse(spec, 4, 0).entries) == 4


def test_random_sparse_single_pair_never_self():
    """With k = 1 no permutation avoids a drawn self-pair, so the sink is
    redrawn; on 3x3 a ninth of the seeds draw one."""
    spec = TorusSpec(3, 3)
    for seed in range(60):
        ((s, t),) = gen_random_sparse(spec, 1, seed).entries
        assert s != t


# sha256 of the concatenated traffic_to_csv of seeds 0..199, recorded before
# the generator moved to index arrays; 3x3 with k = 9 redraws often.
DEMAND_STREAM_DIGESTS = {
    (10, 18): "fc620b757d8e548d0f7a3f6d16d6f5c5d05b6b5e6a2a50f6cdc81dc813698af7",
    (3, 9): "615dc91ab1dbd276ac173be9455524184944892f91e98e7804efc40f0cf4aa7c",
}


@pytest.mark.parametrize("n,k", sorted(DEMAND_STREAM_DIGESTS))
def test_random_sparse_stream_pinned(n, k):
    spec = TorusSpec(n, n)
    text = "".join(traffic_to_csv(gen_random_sparse(spec, k, seed)) for seed in range(200))
    assert hashlib.sha256(text.encode()).hexdigest() == DEMAND_STREAM_DIGESTS[(n, k)]
