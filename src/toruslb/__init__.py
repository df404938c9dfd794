"""Oblivious routing on 2-D tori under sparse traffic: schemes, exact
worst-case evaluation, analytic bounds, and LP export."""

__version__ = "0.1.0"

from toruslb.evaluate import edge_loads, k_matching_max, run_trials, worst_case_load, worst_case_profile
from toruslb.schemes import build_ecmp, build_gllb, build_llb, build_ring_lb, build_vlb
from toruslb.torus import (
    Automorphism,
    DirectedEdge,
    Direction,
    Node,
    TorusSpec,
    hop_distance,
    weighted_distance,
)
from toruslb.traffic import (
    TrafficMatrix,
    classify,
    gen_generalized_split,
    gen_hotspot,
    gen_random_sparse,
    gen_split_diamond,
)

__all__ = [
    "Automorphism",
    "DirectedEdge",
    "Direction",
    "Node",
    "TorusSpec",
    "TrafficMatrix",
    "build_ecmp",
    "build_gllb",
    "build_llb",
    "build_ring_lb",
    "build_vlb",
    "classify",
    "edge_loads",
    "gen_generalized_split",
    "gen_hotspot",
    "gen_random_sparse",
    "gen_split_diamond",
    "hop_distance",
    "k_matching_max",
    "run_trials",
    "weighted_distance",
    "worst_case_load",
    "worst_case_profile",
]
