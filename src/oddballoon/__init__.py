"""Turan numbers, decomposition families and extremal constructions for
good odd-balloonings of trees, with brute-force oracles at desk scale."""

from .audits import PartitionedGraph, degree_sum_audit, lemma_partition_audit
from .balloon import (
    AnalysisReport,
    BalloonSpec,
    BipartiteTree,
    analyze,
    bipartition,
    build_balloon,
    load_spec,
    parse_spec,
    parse_spec_json,
    validate_good,
)
from .canon import canonical_form, canonical_key, is_isomorphic
from .codec import decode_graph6, encode_graph6, export_dot
from .construct import (
    LabeledConstruction,
    coloring_candidate,
    extremal_candidate,
    extremal_small_f,
)
from .decomp import (
    GraphFamily,
    b_family,
    decomposition_family,
    decomposition_oracle,
    peel_edges,
    split_vertices,
)
from .embed import contains_subgraph
from .formulas import TuranReport, chvatal_hanson, e_base, turan_number
from .graphs import (
    CapacityError,
    Graph,
    ParameterError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    path_graph,
    star_graph,
    turan_graph,
)
from .matching import max_matching, min_vertex_cover
from .oracle import (
    EdgeColoring,
    ex_bounded_degree_matching,
    ex_exact,
    f2_count_uncovered,
    f2_exact,
    star_matching_max,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BalloonSpec",
    "BipartiteTree",
    "CapacityError",
    "EdgeColoring",
    "Graph",
    "GraphFamily",
    "LabeledConstruction",
    "ParameterError",
    "PartitionedGraph",
    "TuranReport",
    "analyze",
    "b_family",
    "bipartition",
    "build_balloon",
    "canonical_form",
    "canonical_key",
    "chvatal_hanson",
    "coloring_candidate",
    "complete_bipartite",
    "complete_graph",
    "contains_subgraph",
    "cycle_graph",
    "decode_graph6",
    "decomposition_family",
    "decomposition_oracle",
    "degree_sum_audit",
    "disjoint_union",
    "e_base",
    "empty_graph",
    "encode_graph6",
    "ex_bounded_degree_matching",
    "ex_exact",
    "export_dot",
    "extremal_candidate",
    "extremal_small_f",
    "f2_count_uncovered",
    "f2_exact",
    "from_edges",
    "is_isomorphic",
    "join",
    "lemma_partition_audit",
    "load_spec",
    "max_matching",
    "min_vertex_cover",
    "parse_spec",
    "parse_spec_json",
    "path_graph",
    "peel_edges",
    "split_vertices",
    "star_graph",
    "star_matching_max",
    "turan_graph",
    "turan_number",
    "validate_good",
]
