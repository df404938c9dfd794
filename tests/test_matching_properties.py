"""Hypothesis properties for the k-cardinality matching solver, and its
bit-identity with the copying reference solver."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruslb.evaluate import (
    _k_matching,
    _k_matching_sparse,
    candidate_edges,
    k_matching_max,
    worst_case_load,
)
from toruslb.schemes import build_llb
from toruslb.torus import TorusSpec
from toruslb.traffic import traffic_to_csv

from tests.matching_oracle import copying_k_matching, ssp_k_matching
from tests.test_grid import GRID, grid_policies


@st.composite
def weight_matrices(draw):
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(2, 5))
    values = draw(
        st.lists(
            st.floats(0, 10, allow_nan=False, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(values).reshape(rows, cols)


@settings(max_examples=80, deadline=None)
@given(weight_matrices())
def test_matching_monotone_and_concave_in_k(weights):
    values = [k_matching_max(weights, k)[0] for k in range(1, 6)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    gains = [b - a for a, b in zip(values, values[1:])]
    for g1, g2 in zip(gains, gains[1:]):
        assert g2 <= g1 + 1e-9


@settings(max_examples=80, deadline=None)
@given(weight_matrices(), st.integers(1, 5))
def test_matching_bounded_by_row_maxima(weights, k):
    value, assignment = k_matching_max(weights, k)
    row_maxes = sorted((row.max() for row in weights), reverse=True)
    assert value <= sum(row_maxes[:k]) + 1e-9
    assert value >= max(weights.max() if k >= 1 else 0.0, 0.0) - 1e-9


@st.composite
def signed_tied_matrices(draw):
    """Rectangular matrices with negative entries, and with all entries
    rounded to quarters when ``ties`` is drawn."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    values = draw(
        st.lists(
            st.floats(-2, 6, allow_nan=False, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    weights = np.array(values).reshape(rows, cols)
    if draw(st.booleans()):
        weights = np.round(weights * 4) / 4
    return weights


@settings(max_examples=150, deadline=None)
@given(signed_tied_matrices(), st.integers(1, 8))
def test_dense_solver_agrees_with_sparse_ssp(weights, k):
    value, assignment = k_matching_max(weights, k)
    positive = {(i, j): float(w) for (i, j), w in np.ndenumerate(weights) if w > 0}
    assert abs(value - ssp_k_matching(positive, k).value) <= 1e-12
    assert len(assignment) <= k
    assert len({i for i, _ in assignment}) == len({j for _, j in assignment}) == len(assignment)
    assert abs(sum(weights[i, j] for i, j in assignment) - value) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    signed_tied_matrices().map(
        lambda weights: {(i, j): float(w) for (i, j), w in np.ndenumerate(weights)}
    ),
    st.integers(1, 8),
)
@example({}, 3)
@example({(0, 0): 0.0, (0, 1): -1.5, (2, 1): -0.25}, 2)
@example({(0, 0): 9.999999717180685e-10, (0, 1): 9.999999717180685e-10}, 1)
@example({(0, 0): 9e-10, (1, 1): 9e-10, (2, 2): 9e-10}, 3)
def test_sparse_front_end_duals_certify_its_value(weights, k):
    """The dict front end's hose duals are nonnegative, cover every weight
    and price the matching at its value, which the oracle's equals; k runs
    past both the row and the column count."""
    result = _k_matching_sparse(weights, k)
    duals = [*result.row_duals.values(), *result.col_duals.values(), result.card_dual]
    assert min(duals) >= 0.0
    for (i, j), w in weights.items():
        cover = result.row_duals[i] + result.col_duals[j] + result.card_dual
        assert cover >= w - 1e-9, (i, j, w, cover)
    dual_obj = (
        sum(result.row_duals.values()) + sum(result.col_duals.values()) + k * result.card_dual
    )
    assert abs(dual_obj - result.value) <= 1e-9
    assert abs(result.value - ssp_k_matching(weights, k).value) <= 1e-12


def assert_same_matching(weights, k):
    """``_k_matching`` returns exactly what the copying reference returns:
    the same value, pairs and duals to the bit."""
    value, pairs, a, b, gamma = _k_matching(weights, k)
    ref_value, ref_pairs, ref_a, ref_b, ref_gamma = copying_k_matching(weights, k)
    assert value == ref_value
    assert pairs == ref_pairs
    assert a.tobytes() == ref_a.tobytes()
    assert b.tobytes() == ref_b.tobytes()
    assert gamma == ref_gamma


@pytest.mark.parametrize("dims", GRID, ids=lambda d: f"{d[0]}x{d[1]}")
def test_matching_bit_identical_to_copying_reference_on_grid_policies(dims):
    """Every candidate edge of every policy the grid tests build, at k = 1..18,
    32 and 50."""
    for policy in grid_policies(dims):
        for edge in candidate_edges(policy):
            weights = policy.on_edge(edge)
            for k in (*range(1, 19), 32, 50):
                assert_same_matching(weights, k)


@st.composite
def tied_matrices_with_zero_lines(draw):
    """1..7 x 1..7 matrices drawn mostly from a few values, so that many
    entries tie, with some rows and columns zeroed."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]),
                st.floats(-1, 4, allow_nan=False, width=32),
            ),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    weights = np.array(values).reshape(rows, cols)
    weights[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0.0
    weights[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0.0
    return weights


@settings(max_examples=400, deadline=None)
@given(tied_matrices_with_zero_lines(), st.integers(1, 9))
@example(np.array([[0.5, 1.0, 1.0, 0.0]]), 1)  # one row: its free costs are a copy
@example(np.array([[0.5, 1.0, 1.0, 0.0]]), 3)
@example(np.array([[0.5], [1.0], [1.0], [0.0]]), 2)
@example(np.ones((4, 4)), 4)
@example(np.zeros((3, 2)), 2)
# -0.0 weights mixed with exact ties
@example(np.array([[-0.0, 0.5, 0.5], [0.5, -0.0, 0.5], [0.5, 0.5, -0.0]]), 3)
@example(np.array([[1.0, -0.0, 1.0, 0.0], [-0.0, 1.0, 1.0, -0.0], [1.0, 1.0, -0.0, 0.25]]), 2)
@example(np.array([[-0.0, 0.25, 0.0], [0.25, -0.0, 0.25], [0.0, 0.25, -0.0], [-0.0] * 3]), 4)
@example(np.array([[0.5, -0.0], [-0.0, 0.5], [0.5, 0.5]]), 1)
def test_matching_bit_identical_to_copying_reference(weights, k):
    assert_same_matching(weights, k)


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 9, 16, 17, 33, 130])
def test_minimum_keeps_the_label_on_ties(n):
    """The scan's label update ``np.minimum(offer, key, out=key)`` gives the
    bits of the copying reference's strict ``<`` update: on equal inputs,
    ``0.0`` against ``-0.0`` included, numpy must return its second operand.
    Lengths cover its vector loops and their tails."""
    rng = np.random.default_rng(n)
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.25, np.inf])
    for offer_value, key_value in [(0.0, -0.0), (-0.0, 0.0), (1.25, 1.25), (np.inf, np.inf)]:
        key = np.full(n, key_value)
        np.minimum(np.full(n, offer_value), key, out=key)
        assert key.tobytes() == np.full(n, key_value).tobytes()
    for _ in range(20):
        offer, key = rng.choice(values, n), rng.choice(values, n)
        strict = key.copy()
        np.putmask(strict, offer < key, offer)
        np.minimum(offer, key, out=key)
        assert key.tobytes() == strict.tobytes()


# worst_case_load on LLB(4) 12x12, whose one candidate edge carries the
# largest matchings the benchmark times: the value and the sha256 of the
# witness CSV at each k, recorded before the scan kept a table of offers
LLB4_12X12 = {
    18: (1.5625, "b38d04acd44e0b0da9008d7318347ab56210e1344956c97972340cbd2da60ffd"),
    32: (2.0, "cd8bd4e70bd57770acd20a3371729940ff85a4d80c8c3003cb16ccee39e6f938"),
    50: (2.5625, "7aa0dcb18bd06aca67f4ea3f1a73d5327673dfdd3c82a943a7c61b5ed87610ed"),
}


def test_matching_bit_identical_to_copying_reference_on_llb4_12x12():
    policy = build_llb(TorusSpec(12, 12), 4)
    (edge,) = candidate_edges(policy)
    weights = policy.on_edge(edge)
    for k, (value, digest) in LLB4_12X12.items():
        assert_same_matching(weights, k)
        result = worst_case_load(policy, k)
        assert (result.value, result.edge) == (value, edge)
        assert hashlib.sha256(traffic_to_csv(result.witness).encode()).hexdigest() == digest


@settings(max_examples=200, deadline=None)
@given(tied_matrices_with_zero_lines(), st.integers(1, 9))
@example(np.ones((4, 4)), 9)
@example(np.zeros((3, 2)), 2)
def test_matching_values_after_each_augmentation_are_the_runs_to_each_k(weights, kmax):
    """The run to kmax reports after its t-th augmentation the value the
    run to t ends with, and it stops where every longer run stops."""
    values = [0.0]
    assert _k_matching(weights, kmax, values)[0] == values[-1]
    for k in range(1, kmax + 1):
        assert values[min(k, len(values) - 1)] == copying_k_matching(weights, k)[0]
    assert values == sorted(values)
