import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslb.evaluate import (
    SpecMismatch,
    _k_matching_sparse,
    pair_weights_on_edge,
    worst_case_load,
)
from toruslb.lpexport import (
    _OrbitIndex,
    _write_lp,
    _violations,
    check_oblivious_feasibility,
    export_opt_lp,
    export_reduced_oblivious_lp,
    load_edge_classes,
    opt_program,
    parse_lp,
    reduced_oblivious_program,
)
from toruslb.policy import OriginPolicy
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb
from toruslb.torus import Direction, Node, TorusSpec, point_group
from toruslb.traffic import TrafficMatrix, gen_hotspot, gen_split_diamond

from tests import lp_oracle
from tests.lp_oracle import dict_view
from tests.symmetry_oracle import apply_automorphism, apply_to_edge
from tests.test_policy import pair_slab


def export_text(spec, k):
    buf = io.StringIO()
    counts = export_reduced_oblivious_lp(spec, k, buf)
    return buf.getvalue(), counts


def test_reduced_lp_roundtrip_counts():
    spec = TorusSpec(6, 6)
    text, counts = export_text(spec, 2)
    model = parse_lp(text)
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    assert model.sense == "min"
    assert model.objective == {"th": 1.0}
    assert max(len(line) for line in text.splitlines()) <= 255


def test_reduced_lp_variable_names():
    spec = TorusSpec(4, 4)
    text, _ = export_text(spec, 1)
    model = parse_lp(text)
    names = model.variables()
    assert "th" in names
    assert "gam_v" in names
    assert any(n.startswith("g_t") and "_e" in n for n in names)
    assert any(n.startswith("a_v_s") for n in names)
    assert any(n.startswith("b_v_t") for n in names)
    # square symmetric spec emits a single load-edge class
    assert "gam_h" not in names


def test_asymmetric_spec_emits_two_classes():
    spec = TorusSpec(4, 6)
    text, _ = export_text(spec, 2)
    model = parse_lp(text)
    names = model.variables()
    assert "gam_v" in names and "gam_h" in names
    load_names = {c.name for c in dict_view(model).constraints if c.name.startswith("load_")}
    assert load_names == {"load_v", "load_h"}


def test_reduced_lp_coefficients_survive_roundtrip():
    spec = TorusSpec(4, 4)
    text, _ = export_text(spec, 1)
    again = io.StringIO()
    export_reduced_oblivious_lp(spec, 1, again)
    assert again.getvalue() == text
    model = parse_lp(text)
    load = next(c for c in dict_view(model).constraints if c.name == "load_v")
    assert load.terms["th"] == -1.0
    assert load.terms["gam_v"] == 1.0
    hose = next(c for c in dict_view(model).constraints if c.name.startswith("hose_"))
    assert sorted(hose.terms.values()) == [-1.0, 1.0, 1.0, 1.0]


def test_opt_lp_roundtrip():
    spec = TorusSpec(6, 6)
    demand = gen_split_diamond(spec, 2)
    buf = io.StringIO()
    counts = export_opt_lp(spec, demand, buf)
    model = parse_lp(buf.getvalue())
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    assert counts.flow_variables == len(demand.entries) * 4 * 36
    # one load constraint per directed edge, conservation per pair per node
    assert counts.constraints == 4 * 36 + len(demand.entries) * 36


def test_llb_feasibility_injection():
    spec = TorusSpec(6, 6)
    k = 2
    text, _ = export_text(spec, k)
    model = parse_lp(text)
    policy = build_llb(spec, 1)
    wc = worst_case_load(policy, k)
    duals = {}
    for label, edge, _cap in load_edge_classes(spec):
        res = _k_matching_sparse(pair_weights_on_edge(policy, edge), k)
        for s, v in res.row_duals.items():
            duals[f"a_{label}_s{s.x}_{s.y}"] = v
        for t, v in res.col_duals.items():
            duals[f"b_{label}_t{t.x}_{t.y}"] = v
        duals[f"gam_{label}"] = res.card_dual
    failures = check_oblivious_feasibility(spec, k, model, policy, wc.value, duals)
    assert failures == []


def test_infeasible_theta_is_caught():
    spec = TorusSpec(4, 4)
    k = 1
    text, _ = export_text(spec, k)
    model = parse_lp(text)
    policy = build_llb(spec, 1)
    wc = worst_case_load(policy, k)
    duals = {}
    for label, edge, _cap in load_edge_classes(spec):
        res = _k_matching_sparse(pair_weights_on_edge(policy, edge), k)
        for s, v in res.row_duals.items():
            duals[f"a_{label}_s{s.x}_{s.y}"] = v
        for t, v in res.col_duals.items():
            duals[f"b_{label}_t{t.x}_{t.y}"] = v
        duals[f"gam_{label}"] = res.card_dual
    bogus = check_oblivious_feasibility(spec, k, model, policy, wc.value / 2, duals)
    assert bogus


def test_opt_lp_accepts_real_routing():
    from toruslb.evaluate import edge_loads
    from toruslb.schemes import build_ecmp

    spec = TorusSpec(6, 6)
    demand = gen_split_diamond(spec, 2)
    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    model = dict_view(parse_lp(buf.getvalue()))
    policy = build_ecmp(spec)
    flows = {pair: pair_slab(policy, *pair) for pair in demand.entries}
    theta = edge_loads(policy, demand).max_load
    assert lp_oracle.check_opt_feasibility(spec, demand, model, flows, theta) == []
    # an understated bound must violate some load constraint
    assert lp_oracle.check_opt_feasibility(spec, demand, model, flows, theta / 2)


def test_opt_feasibility_reports_bound_violations():
    from toruslb.evaluate import edge_loads
    from toruslb.traffic import gen_hotspot

    spec = TorusSpec(6, 6)
    demand = gen_hotspot(spec, 4)
    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    model = dict_view(parse_lp(buf.getvalue()))
    policy = build_ecmp(spec)
    flows = {pair: pair_slab(policy, *pair) for pair in demand.entries}
    theta = edge_loads(policy, demand).max_load
    # a -0.5 circulation around the unit square with corner (3, 3), off the
    # first pair's route: conservation still holds and no load rises, so only
    # the flows' lower bounds catch it
    first = flows[min(demand.entries)]
    for d, x, y in ((Direction.POS_HOR, 3, 3), (Direction.POS_VERT, 4, 3),
                    (Direction.NEG_HOR, 4, 4), (Direction.NEG_VERT, 3, 4)):
        first[d, y, x] -= 0.5
    assert lp_oracle.check_opt_feasibility(spec, demand, model, flows, theta) == [
        "bound f_p0_e3_3_ph: -0.5 < 0.0",
        "bound f_p0_e3_4_nv: -0.5 < 0.0",
        "bound f_p0_e4_3_pv: -0.5 < 0.0",
        "bound f_p0_e4_4_nh: -0.5 < 0.0",
    ]


# sha256 of export_reduced_oblivious_lp text, recorded before variable names
# came from the orbit key table; any change to a name or row order shows here.
LP_DIGESTS = [
    ((4, 4), 1, "18771aad0febecfdedcce5b684f6daa2c94c7a02453d4ad48a63f0c96cbe2e5f"),
    ((6, 6), 2, "a54a030b2a9b5cde2f06c37590d0cfad651f5a62a6a8663aa5c98854388a628c"),
    ((8, 8), 18, "31ea096b9b67b4173dbdc228b27fed559ce279a7f3b2637a3b1a471ee32be683"),
    ((4, 6), 2, "fb361ec57dffaaa275807d7c41b80c429212dca79ca4619a733beb14d01a5d76"),
    ((5, 9), 13, "9cc5774b5c35a2e97874091dff4ef2a18a46d9e9fbe2f517cf85a2e8c11b3f63"),
    ((6, 8), 8, "cf375fe668c27c4c538f497da6139ae5ef5df2642d789bf3edb11817e44db1d3"),
    # square, but unequal capacities leave only {I, R0}
    ((6, 6, 2.0), 2, "ebb9a08df42e7438dd2237976d458f282696d6b707787b07a6a953e1eb3289b1"),
]


# the ids keep the names these cases had while the table also pinned an
# export without orbit-tied variables (the True marked the tied ones)
@pytest.mark.parametrize(
    "dims,k,digest",
    LP_DIGESTS,
    ids=[f"dims{i}-{k}-True-{digest}" for i, (_, k, digest) in enumerate(LP_DIGESTS)],
)
def test_reduced_lp_bytes_pinned(dims, k, digest):
    text, _ = export_text(TorusSpec(*dims), k)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


SPEC_5X7 = TorusSpec(5, 7, 1.0, 3.0)
# demands other than 1 on a rectangle with unequal capacities; 0.1 prints in 17
# digits as 0.10000000000000001
HAND_DEMAND = {
    (Node(0, 0), Node(3, 4)): 1.0,
    (Node(2, 1), Node(6, 0)): 0.1,
    (Node(4, 4), Node(1, 2)): 2.25,
    (Node(6, 3), Node(0, 3)): 3.0,
}

# sha256 of export_opt_lp text, recorded before that writer moved to coefficient
# arrays; the 8x8 programs have load rows long enough to wrap.
OPT_LP_DIGESTS = [
    ("split-diamond-6x6", TorusSpec(6, 6), lambda s: gen_split_diamond(s, 2),
     "02c0bccf22342734b084b3a075bba86be365c655b27d6d15cf3d623a8ad936c8"),
    ("hotspot-6x6", TorusSpec(6, 6), lambda s: gen_hotspot(s, 4),
     "778f9b8dfe6ded9b141b23802f79ee8166dab95307c9322aeef1f36c3fbdd08d"),
    ("split-diamond-8x8", TorusSpec(8, 8), lambda s: gen_split_diamond(s, 3),
     "d0d18c8c137f210b48582cb7be2f1f38a7f4e46f0b602a25aee7a9be532d7e07"),
    ("hotspot-8x8", TorusSpec(8, 8), lambda s: gen_hotspot(s, 18),
     "b8abd444606791afdf7d605a69283d07cd86325cbd3aa465b40bec4496bf03ff"),
    ("hand-5x7", SPEC_5X7, lambda s: TrafficMatrix(s, HAND_DEMAND),
     "c0e849b674933090529ea84d8d66a617b85b8fe550515f5eedee85ba71e6e93d"),
]


@pytest.mark.parametrize(
    "spec,make,digest", [case[1:] for case in OPT_LP_DIGESTS], ids=[c[0] for c in OPT_LP_DIGESTS]
)
def test_opt_lp_bytes_pinned(spec, make, digest):
    buf = io.StringIO()
    export_opt_lp(spec, make(spec), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


class _CountingSink:
    """A text sink that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def test_lp_writer_holds_a_fraction_of_the_text():
    # 12x12 at k=32 writes 3.2 MB of text; formatting it whole before one
    # write peaked at 6.95x the text, blocks of rows peak at 0.40x
    model = reduced_oblivious_program(TorusSpec(12, 12), 32)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        _write_lp(sink, "reduced oblivious routing program", model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 3_000_000
    assert peak <= 1.0 * sink.chars


def test_parse_lp_holds_a_fraction_of_the_text():
    # 12x12 at k=32 reads back 3.2 MB of text into a model of 2.07x the
    # text; splitting the whole text, with an object for every token, peaked
    # at 8.11x, windows of the text peak at 2.5x
    text, counts = export_text(TorusSpec(12, 12), 32)
    tracemalloc.start()
    try:
        model = parse_lp(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(model.columns), len(model.constraints)) == (counts.variables, counts.constraints)
    assert peak <= 5.0 * len(text)


def orbit_head_name(spec, t, edge):
    """Reference: the name of the smallest point-group image of (t, edge),
    found by applying every automorphism."""
    orbit = [
        (apply_automorphism(spec, phi, t), apply_to_edge(spec, phi, edge))
        for phi in point_group(spec)
    ]
    return lp_oracle.g_name(*min(orbit))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(3, 7), st.sampled_from([1.0, 2.0]))
def test_orbit_names_match_automorphism_orbits(rows, cols, cap_vertical):
    spec = TorusSpec(rows, cols, cap_vertical=cap_vertical)
    index = _OrbitIndex(spec)
    heads = set()
    for t in spec.nodes():
        for edge in spec.edges():
            expected = orbit_head_name(spec, t, edge)
            at = (t.y * cols + t.x, edge.dir, edge.tail.y * cols + edge.tail.x)
            assert index.names(np.array([index.rep[at]]))[0] == expected
            assert index.names(np.array([index.key[at]]))[0] == lp_oracle.g_name(t, edge)
            if t != Node(0, 0):
                heads.add(expected)
    text, _ = export_text(spec, 2)
    names = {v for v in parse_lp(text).variables() if v.startswith("g_")}
    assert names == heads


def test_feasibility_rejects_mismatched_spec():
    for model_dims, policy_dims in [((6, 6), (8, 8)), ((6, 8), (8, 6))]:
        spec = TorusSpec(*model_dims)
        text, _ = export_text(spec, 2)
        model = parse_lp(text)
        policy = build_ecmp(TorusSpec(*policy_dims))
        with pytest.raises(SpecMismatch):
            check_oblivious_feasibility(spec, 2, model, policy, 1.0, {})


def hose_duals(policy, k):
    """The hose multipliers of ``policy``'s k-limited matching on every load
    edge class, named as the reduced program names them."""
    duals = {}
    for label, edge, _cap in load_edge_classes(policy.spec):
        res = _k_matching_sparse(pair_weights_on_edge(policy, edge), k)
        for s, v in res.row_duals.items():
            duals[f"a_{label}_s{s.x}_{s.y}"] = v
        for t, v in res.col_duals.items():
            duals[f"b_{label}_t{t.x}_{t.y}"] = v
        duals[f"gam_{label}"] = res.card_dual
    return duals


# rectangles and unequal capacities; the last two have two load-edge classes
@pytest.mark.parametrize(
    "spec,build,k",
    [
        (TorusSpec(6, 8), lambda s: build_gllb(s, 2, 2), 8),
        (TorusSpec(6, 8), build_vlb, 8),
        (TorusSpec(6, 6, 2.0, 1.0), build_ring_lb, 2),
        (SPEC_5X7, build_ecmp, 5),
    ],
    ids=["gllb22-6x8", "vlb-6x8", "ring-6x6-c2-1", "ecmp-5x7-c1-3"],
)
def test_feasibility_injection_off_square_unit_torus(spec, build, k):
    text, _ = export_text(spec, k)
    model = parse_lp(text)
    policy = build(spec)
    wc = worst_case_load(policy, k)
    duals = hose_duals(policy, k)
    assert check_oblivious_feasibility(spec, k, model, policy, wc.value, duals) == []
    assert check_oblivious_feasibility(spec, k, model, policy, 0.9 * wc.value, duals)


def test_feasibility_injection_llb3_8x8_k18():
    # the bounds sweep's top radius on 8x8, whose duals come from 18-pair matchings
    spec, k = TorusSpec(8, 8), 18
    text, _ = export_text(spec, k)
    policy = build_llb(spec, 3)
    wc = worst_case_load(policy, k)
    failures = check_oblivious_feasibility(
        spec, k, parse_lp(text), policy, wc.value, hose_duals(policy, k)
    )
    assert failures == []


def test_feasibility_rejects_model_of_another_k():
    spec = TorusSpec(6, 6)
    text, _ = export_text(spec, 2)
    policy = build_llb(spec, 1)
    with pytest.raises(ValueError, match="gam_v"):
        check_oblivious_feasibility(spec, 3, parse_lp(text), policy, 1.0, hose_duals(policy, 3))


def test_exponent_coefficients_roundtrip():
    spec = TorusSpec(4, 6, 1e-5, 1.0)
    text, counts = export_text(spec, 2)
    model = parse_lp(text)
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    load_v = next(c for c in dict_view(model).constraints if c.name == "load_v")
    assert load_v.terms["th"] == -1e-5

    small, large = (Node(0, 0), Node(2, 1)), (Node(3, 3), Node(1, 0))
    demand = TrafficMatrix(spec, {small: 1e-5, large: 2.5e20})
    buf = io.StringIO()
    counts = export_opt_lp(spec, demand, buf)
    assert "e-05" in buf.getvalue() and "e+20" in buf.getvalue()
    model = parse_lp(buf.getvalue())
    assert len(model.variables()) == counts.variables
    assert len(model.constraints) == counts.constraints
    loads = {c.name: c.terms for c in dict_view(model).constraints if c.name.startswith("load_")}
    assert loads["load_e0_0_pv"] == {"f_p0_e0_0_pv": 1e-5, "f_p1_e0_0_pv": 2.5e20, "th": -1e-5}
    assert loads["load_e0_0_ph"] == {"f_p0_e0_0_ph": 1e-5, "f_p1_e0_0_ph": 2.5e20, "th": -1.0}


@st.composite
def small_programs(draw):
    """A torus of 3-7 x 3-7 with capacities in {1, 2}, k in 1-4, and a demand
    of one to four pairs, some of whose amounts print with an exponent."""
    spec = TorusSpec(
        draw(st.integers(3, 7)),
        draw(st.integers(3, 7)),
        draw(st.sampled_from([1.0, 2.0])),
        draw(st.sampled_from([1.0, 2.0])),
    )
    nodes = list(spec.nodes())
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda p: p[0] != p[1])
    amount = st.floats(1e-3, 1e3) | st.floats(1e-12, 1e-5) | st.floats(1e17, 1e20)
    entries = draw(st.dictionaries(pair, amount, min_size=1, max_size=4))
    return spec, draw(st.integers(1, 4)), TrafficMatrix(spec, entries)


@settings(max_examples=30, deadline=None)
@given(small_programs())
def test_parse_lp_matches_dict_oracle(program):
    spec, k, demand = program
    reduced, _ = export_text(spec, k)
    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    for text in (reduced, buf.getvalue()):
        assert dict_view(parse_lp(text)) == lp_oracle.parse_lp(text)


def test_parse_lp_joins_a_break_between_coefficient_and_name():
    text = "\n".join([
        "\\ hand-wrapped",
        "Minimize",
        " obj: th",
        "Subject To",
        " c0: 2 x + 1",
        " y - 0.5 th <= 0",
        " c1: - 1 x + 1",
        "   y = 1",
        "Bounds",
        " 0 <= x <= 1",
        " 0 <= th",
        "End",
    ])
    model = dict_view(parse_lp(text))
    assert model == lp_oracle.parse_lp(text)
    assert [c.terms for c in model.constraints] == [
        {"x": 2.0, "y": 1.0, "th": -0.5}, {"x": -1.0, "y": 1.0}
    ]
    assert model.bounds == {"x": (0.0, 1.0), "th": (0.0, None)}


def test_parse_lp_adds_a_name_repeated_in_a_row():
    text = "\n".join([
        "Minimize", " obj: th",
        "Subject To", " c1: y + th <= 2", " c2: x + y - x <= 1", " c3: 2 y + y - th >= 0",
        "End",
    ])
    model = dict_view(parse_lp(text))
    assert model == lp_oracle.parse_lp(text)
    assert [c.terms for c in model.constraints] == [
        {"y": 1.0, "th": 1.0}, {"x": 0.0, "y": 1.0}, {"y": 3.0, "th": -1.0}
    ]


def test_parse_lp_rejects_an_unlabelled_first_row():
    with pytest.raises(ValueError, match=re.escape("cannot parse constraint: 'x + y <= 1'")):
        parse_lp("Minimize\n obj: th\nSubject To\n x + y <= 1\n c1: x <= 1\nEnd\n")


def row_terms(model):
    """Each row's (column name, coefficient) pairs, in written order."""
    ptr = model.indptr.tolist()
    terms = list(zip(map(model.columns.__getitem__, model.ids.tolist()), model.vals.tolist()))
    return [terms[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def bound_list(model):
    return list(zip(map(model.columns.__getitem__, model.bound_ids.tolist()),
                    model.lower.tolist(), model.upper.tolist()))


PINNED_PROGRAMS = [
    *(
        pytest.param(
            lambda dims=dims, k=k: reduced_oblivious_program(TorusSpec(*dims), k),
            lambda sink, dims=dims, k=k: export_reduced_oblivious_lp(TorusSpec(*dims), k, sink),
            id=f"reduced-{dims}-k{k}",
        )
        for dims, k, _ in LP_DIGESTS
    ),
    *(
        pytest.param(
            lambda spec=spec, make=make: opt_program(spec, make(spec)),
            lambda sink, spec=spec, make=make: export_opt_lp(spec, make(spec), sink),
            id=f"opt-{name}",
        )
        for name, spec, make, _ in OPT_LP_DIGESTS
    ),
]


@pytest.mark.parametrize("build,export", PINNED_PROGRAMS)
def test_parse_lp_reads_back_the_built_program_exactly(build, export):
    buf = io.StringIO()
    export(buf)
    text = buf.getvalue()
    built, parsed = build(), parse_lp(text)
    assert parsed.constraints == built.constraints
    assert parsed.senses.tolist() == built.senses.tolist()
    assert parsed.rhs.tolist() == built.rhs.tolist()
    assert bound_list(parsed) == bound_list(built)
    assert row_terms(parsed) == row_terms(built)
    assert (parsed.sense, parsed.objective) == (built.sense, built.objective)
    assert parsed.variables() == built.variables()
    again = io.StringIO()
    _write_lp(again, text.splitlines()[0].removeprefix("\\ "), parsed)
    assert again.getvalue() == text


@settings(max_examples=25, deadline=None)
@given(small_programs(), st.sampled_from([build_ecmp, build_vlb]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-3, 0.2]), st.floats(0.0, 3.0))
def test_feasibility_checks_match_dict_oracle(program, build, seed, noise, theta):
    """Perturbed flows, random duals and any theta: the oblivious check, and
    the row check on the fixed-demand program, report exactly the oracle's
    failure strings, in the same order."""
    spec, k, demand = program
    rng = np.random.default_rng(seed)
    policy = build(spec)
    flows = policy.flows + noise * rng.standard_normal(policy.flows.shape)
    perturbed = OriginPolicy(spec, flows)
    reduced, _ = export_text(spec, k)
    hose = sorted(v for v in lp_oracle.parse_lp(reduced).variables() if v[:2] in ("a_", "b_", "ga"))
    duals = dict(zip(hose, (rng.uniform(-0.1, 1.0, len(hose)) * (rng.random(len(hose)) < 0.5)).tolist()))
    assert check_oblivious_feasibility(spec, k, parse_lp(reduced), perturbed, theta, duals) == (
        lp_oracle.check_oblivious_feasibility(spec, lp_oracle.parse_lp(reduced), perturbed, theta, duals)
    )

    buf = io.StringIO()
    export_opt_lp(spec, demand, buf)
    pairs = sorted(demand.entries)[: rng.integers(len(demand.entries) + 1)]
    flows = {pair: pair_slab(perturbed, *pair) for pair in pairs}
    values = lp_oracle.opt_values(spec, demand, flows, theta)
    assert _violations(parse_lp(buf.getvalue()), values) == (
        lp_oracle.violations(lp_oracle.parse_lp(buf.getvalue()), values)
    )


MALFORMED_LINES = [
    ("Subject To", " c1: x + y", "constraint: 'c1: x + y'"),
    ("Subject To", " c1: x + 2 y >=", "constraint: 'c1: x + 2 y >='"),
    ("Subject To", " c1: x + y <= 1 2", "constraint: 'c1: x + y <= 1 2'"),
    ("Subject To", " c1:", "constraint: 'c1:'"),
    ("Bounds", " x >= 0", "bound: 'x >= 0'"),
    ("Bounds", " 0 <= y <= 1 <= 2", "bound: '0 <= y <= 1 <= 2'"),
    ("Bounds", " 0 <= y z", "bound: '0 <= y z'"),
]


@pytest.mark.parametrize("section,line,message", MALFORMED_LINES)
def test_parse_lp_names_a_malformed_line(section, line, message):
    lines = ["Minimize", " obj: th", "Subject To", " c0: x + y <= 1", "Bounds", " 0 <= x <= 1", "End"]
    lines.insert(lines.index(section) + 2, line)
    with pytest.raises(ValueError, match=re.escape(f"cannot parse {message}")):
        parse_lp("\n".join(lines))
