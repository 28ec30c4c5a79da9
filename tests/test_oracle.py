import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_contains, graph_from_mask, max_b_free, reference_ex_exact, slow_f2, slow_uncovered
from oddballoon.audits import PartitionedGraph, degree_sum_audit, lemma_partition_audit
from oddballoon.balloon import build_balloon, load_spec
from oddballoon.canon import canonical_form, is_isomorphic
from oddballoon.codec import encode_graph6
from oddballoon.embed import contains_subgraph
from oddballoon.formulas import chvatal_hanson
from oddballoon.generate import graph_levels, random_graph
from oddballoon.graphs import (
    CapacityError,
    ParameterError,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
    relabel,
    star_graph,
    union_all,
)
from oddballoon.oracle import (
    EdgeColoring,
    ex_bounded_degree_matching,
    ex_exact,
    f2_count_uncovered,
    f2_exact,
    star_matching_max,
)

K2 = from_edges(2, [(0, 1)])
K3 = complete_graph(3)
BOWTIE = build_balloon(*load_spec(Path(__file__).resolve().parent.parent / "specs" / "bowtie.spec"))


def test_ex_exact_mantel():
    for n in range(2, 9):
        res = ex_exact(n, [K3])
        assert res.value == n * n // 4
    res5 = ex_exact(5, [K3])
    assert is_isomorphic(res5.witness, complete_bipartite(2, 3))


def test_ex_exact_matches_labelled_brute_force():
    for h in (K3, cycle_graph(4), cycle_graph(5)):
        for n in range(2, 7):
            pairs = n * (n - 1) // 2
            # the densest h-free labelled graph, scanning down by edge count
            masks = sorted(range(1 << pairs), key=lambda m: -m.bit_count())
            best = next(m.bit_count() for m in masks if not brute_contains(graph_from_mask(n, m), h))
            assert ex_exact(n, [h]).value == best


def test_ex_exact_matches_full_last_level():
    families = [
        [K3],
        [cycle_graph(4)],
        [cycle_graph(5)],
        [cycle_graph(4), K3],
        [star_graph(4)],
        [union_all([K2] * 3)],
        [BOWTIE],
        [complete_graph(4)],
    ]
    for family in families:
        for n in range(8):
            value, witness = reference_ex_exact(n, family)
            res = ex_exact(n, family)
            assert res.value == value, (n, family)
            assert res.witness.rows == witness.rows, (n, family)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=5).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.booleans(), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2))
    ),
    st.integers(min_value=0, max_value=6),
    st.randoms(use_true_random=False),
)
def test_ex_exact_invariant_under_relabelling(member_spec, n, rng):
    k, bits = member_spec
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    assume(any(bits))
    member = from_edges(k, [p for p, bit in zip(pairs, bits) if bit])
    perm = list(range(k))
    rng.shuffle(perm)
    res, moved = ex_exact(n, [member]), ex_exact(n, [relabel(member, perm)])
    assert (res.value, encode_graph6(res.witness)) == (moved.value, encode_graph6(moved.witness))


def test_ex_exact_grows_one_child_per_orbit():
    # every neighbour set of every parent would be 16,723 candidates, every
    # orbit at every level 8,359; only orbits that pass the edge floor and
    # the minimum-degree check are built, each once per call however many
    # of the runs for v <= n and the targets tried meet it
    assert ex_exact(8, [K3]).nodes_explored < 200
    assert ex_exact(8, [complete_graph(4)]).nodes_explored < 200


def test_ex_exact_pinned_at_cap():
    # the witness is the extremal class with the least key; every graph with
    # a cycle, connected or not, is keyed by the rows of its refined copy, so
    # for K_{1,4} that is K4 plus a cubic graph on 6 vertices
    for family, value, graph6 in [
        ([star_graph(4)], 15, "IJ[?KMA`G"),
        ([K3], 25, "I?B~vrw}?"),
        ([cycle_graph(4)], 16, "IYQK`?LCw"),
        ([complete_graph(4)], 33, "I?~vf~}~_"),
    ]:
        res = ex_exact(10, family)
        assert (res.value, encode_graph6(res.witness)) == (value, graph6), family
    # each distinct candidate is counted once per call (it was 51 and 6,164
    # when every run rebuilt the candidates of the runs before it)
    assert ex_exact(8, [K3]).nodes_explored == 11
    assert ex_exact(10, [star_graph(4)]).nodes_explored == 2578


def test_ex_exact_k4_within_budget():
    t0 = time.perf_counter()
    assert ex_exact(8, [complete_graph(4)]).value == 21
    assert time.perf_counter() - t0 < 3.0


def test_ex_exact_matches_labelled_branch_and_bound():
    # max_b_free keeps the least canonical key among the densest labelled
    # graphs, so its witness is the same class as ex_exact's
    for n, max_order in [(n, 5) for n in range(6)] + [(6, 4)]:
        for h in _connected_graphs(max_order):
            witness, value = max_b_free(n, [h])
            res = ex_exact(n, [h])
            assert res.value == value, (n, h)
            assert res.witness.rows == canonical_form(witness).rows, (n, h)


def test_ex_exact_k4_at_cap_within_budget():
    t0 = time.perf_counter()
    assert ex_exact(10, [complete_graph(4)]).value == 33
    assert time.perf_counter() - t0 < 1.0


def test_ex_exact_small_connected_members_at_cap_within_budget():
    for h in _connected_graphs(5):
        t0 = time.perf_counter()
        res = ex_exact(10, [h])
        assert time.perf_counter() - t0 < 2.0, h
        assert res.witness.n == 10 and res.witness.edge_count() == res.value
        assert not contains_subgraph(res.witness, h)


def _connected_graphs(max_order: int) -> list:
    """Every connected graph on 2..max_order vertices, up to isomorphism."""
    return [g for level in graph_levels(max_order)[2:] for g in level if len(connected_components(g)) == 1]


def test_ex_exact_monotone_in_family():
    base = ex_exact(6, [K3]).value
    wider = ex_exact(6, [K3, star_graph(4)]).value
    assert wider <= base


def test_ex_exact_edge_cases():
    assert ex_exact(0, [complete_graph(1)]).value == 0
    assert ex_exact(4, [K2]).value == 0  # forbidding an edge leaves E_4
    with pytest.raises(ParameterError):
        ex_exact(1, [complete_graph(1)])  # K_1 forbids every nonempty graph
    with pytest.raises(CapacityError):
        ex_exact(11, [K3])
    with pytest.raises(ParameterError):
        ex_exact(3, [])
    with pytest.raises(ParameterError):
        ex_exact(-1, [K3])


def test_ex_exact_respects_member_isolated_vertices():
    # K_2 u E_2 needs four host vertices: any 3-vertex host is free,
    # while on 4 vertices a single edge already creates a copy
    member = union_all([K2, empty_graph(2)])
    assert ex_exact(3, [member]).value == 3
    assert ex_exact(4, [member]).value == 0


def test_ex_bounded_matches_formula():
    for nu in range(4):
        for delta in range(4):
            assert ex_bounded_degree_matching(nu, delta) == chvatal_hanson(nu, delta)
    with pytest.raises(CapacityError):
        ex_bounded_degree_matching(4, 4)


def test_star_matching_values():
    v2, w2 = star_matching_max(2)
    assert v2 == 1 and len(w2) == 1 and is_isomorphic(w2[0], K2)
    v3, w3 = star_matching_max(3)
    assert v3 == 4 and len(w3) == 1 and is_isomorphic(w3[0], complete_bipartite(2, 2))
    v4, w4 = star_matching_max(4)
    assert v4 == 9 and len(w4) == 2
    shapes = {g.n for g in w4}
    assert shapes == {6, 9}
    assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in w4)
    assert any(is_isomorphic(g, union_all([K3] * 3)) for g in w4)
    with pytest.raises(CapacityError):
        star_matching_max(5)


def test_f2_exact_against_slow_oracle():
    for n in range(2, 6):
        assert f2_exact(n, K3) == slow_f2(n, K3)
    assert f2_exact(4, path_graph(3)) == slow_f2(4, path_graph(3))


def test_f2_exact_values():
    # frozen from the exhaustive search above; also >= ex(n, K_3)
    assert f2_exact(5, K3) == 10  # a triangle-free 2-coloring of K_5 exists
    assert f2_exact(6, K3) == 10
    assert f2_exact(6, K3) >= ex_exact(6, [K3]).value
    assert f2_exact(4, complete_graph(5)) == 6  # no copies fit at all
    with pytest.raises(CapacityError):
        f2_exact(8, K3)
    with pytest.raises(ParameterError):
        f2_exact(-1, K3)


def test_f2_count_uncovered_examples():
    # all-red K_4, H = K_3: every edge lies in a red triangle
    import itertools

    red_all = frozenset(itertools.combinations(range(4), 2))
    assert f2_count_uncovered(EdgeColoring(4, red_all), K3) == 0
    # all-red K_4, H bigger than the host: nothing is covered
    assert f2_count_uncovered(EdgeColoring(4, red_all), complete_graph(5)) == 6
    # red = T_2(6): 9 bipartite red edges uncovered, 6 blue edges in blue K_3s
    red_t26 = frozenset((u, v) for u in range(3) for v in range(3, 6))
    assert f2_count_uncovered(EdgeColoring(6, red_t26), K3) == 9


def test_f2_count_uncovered_against_slow():
    rng = random.Random(4)
    import itertools

    pairs = list(itertools.combinations(range(6), 2))
    for _ in range(25):
        red = frozenset(p for p in pairs if rng.random() < 0.5)
        col = EdgeColoring(6, red)
        for h in (K3, path_graph(3)):
            assert f2_count_uncovered(col, h) == slow_uncovered(col, h)


def test_partition_audit_examples():
    pg = PartitionedGraph(complete_bipartite(2, 2), (0, 1, 2, 3), ())
    res = lemma_partition_audit(pg, 3, 1)
    assert res.premises_hold and res.inequality_holds
    assert res.lhs == 4 == res.bound

    empty = PartitionedGraph(empty_graph(0), (), ())
    res = lemma_partition_audit(empty, 2, 1)
    assert res.inequality_holds and res.lhs == 0

    with pytest.raises(ParameterError):
        lemma_partition_audit(pg, 1, 2)


def test_partition_audit_premise_failure_detected():
    # K_4 inside one side contains S_3 = S_{k-0} for k = 3
    pg = PartitionedGraph(complete_graph(4), (0, 1, 2, 3), ())
    res = lemma_partition_audit(pg, 3, 1)
    assert not res.premises_hold


def test_degree_sum_audit():
    assert degree_sum_audit(complete_graph(4), 1)  # 4 <= 2*4
    assert degree_sum_audit(empty_graph(5), 0)
    assert degree_sum_audit(complete_graph(4), 5)  # delta = b + 2 = 7 > Delta
    with pytest.raises(ParameterError):
        degree_sum_audit(complete_graph(4), -1)
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
        b = rng.randint(0, max(g.max_degree() - 2, 0))
        assert degree_sum_audit(g, b)


def test_partition_and_f2_capacity():
    with pytest.raises(CapacityError):
        lemma_partition_audit(PartitionedGraph(empty_graph(21), tuple(range(21)), ()), 2, 1)
    big = EdgeColoring(41, frozenset())
    with pytest.raises(CapacityError):
        f2_count_uncovered(big, K3)
