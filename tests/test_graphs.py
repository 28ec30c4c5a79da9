import pytest

from oddballoon.graphs import (
    CapacityError,
    Graph,
    ParameterError,
    add_vertex,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced,
    is_bipartite,
    join,
    path_graph,
    star_graph,
    strip_isolated,
    turan_graph,
)


def test_standard_builders():
    assert turan_graph(5, 2).edge_count() == 6  # K_{2,3}
    assert empty_graph(4).edge_count() == 0
    s3 = star_graph(3)
    assert s3.n == 4 and s3.edge_count() == 3
    assert path_graph(4).edge_count() == 3
    assert cycle_graph(5).edge_count() == 5
    assert complete_graph(6).edge_count() == 15


def test_builder_refusals():
    with pytest.raises(ParameterError):
        cycle_graph(2)
    with pytest.raises(ParameterError):
        turan_graph(5, 0)


def test_turan_edge_count_formula():
    # number of pairs in distinct parts
    for n in range(0, 15):
        for p in range(1, 5):
            g = turan_graph(n, p)
            sizes = [n // p + (1 if i < n % p else 0) for i in range(p)]
            expected = (n * n - sum(s * s for s in sizes)) // 2
            assert g.edge_count() == expected


def test_join_and_union():
    wheelish = join(empty_graph(1), cycle_graph(4))
    assert wheelish.edge_count() == 8
    k23 = join(empty_graph(2), empty_graph(3))
    assert k23.edge_count() == complete_bipartite(2, 3).edge_count() == 6
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    assert two_k3.n == 6 and two_k3.edge_count() == 6
    g, h = complete_graph(4), cycle_graph(5)
    assert join(g, h).edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


def test_graph_invariants_enforced():
    with pytest.raises(ParameterError):
        Graph(2, (0b10,))  # row count mismatch
    with pytest.raises(ParameterError):
        Graph(2, (0b01, 0b00))  # self loop at 0
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(1, (0b10,))  # bit >= n
    with pytest.raises(ParameterError):
        from_edges(2, [(0, 0)])


def test_capacity_cap():
    assert empty_graph(128).n == 128
    with pytest.raises(CapacityError):
        empty_graph(129)
    with pytest.raises(CapacityError):
        add_vertex(empty_graph(128), 0)
    with pytest.raises(CapacityError):
        disjoint_union(empty_graph(64), empty_graph(65))
    with pytest.raises(CapacityError):
        join(empty_graph(64), empty_graph(65))


def test_growth_refuses_past_canon_cap():
    from oddballoon.generate import graph_levels

    # the edgeless graph on 16 vertices is K_2-free, so its 17-vertex child
    # reaches the canonical key's 16-vertex cap
    with pytest.raises(CapacityError):
        graph_levels(17, (complete_graph(2),))


def test_graph_levels_counts_free_graphs():
    from oddballoon.generate import graph_levels

    # triangle-free graphs: OEIS A006785; C4-free graphs: as counted by growth
    # over every neighbour set, with no floor or minimum-degree pruning
    assert [len(level) for level in graph_levels(8, (complete_graph(3),))] == [1, 1, 2, 3, 7, 14, 38, 107, 410]
    assert [len(level) for level in graph_levels(8, (cycle_graph(4),))] == [1, 1, 2, 4, 8, 18, 44, 117, 351]
    # no forbidden family: all graphs, OEIS A000088
    assert [len(level) for level in graph_levels(4)] == [1, 1, 2, 4, 11]


def test_edge_growth_counts_match_oeis():
    from collections import Counter

    from oddballoon.generate import edge_growth_classes, small_edge_classes

    # graphs without isolated vertices by edge count: OEIS A000664
    counts = Counter(g.edge_count() for g in small_edge_classes(6, 12))
    assert [counts[m] for m in range(1, 7)] == [1, 2, 5, 11, 26, 68]
    # connected graphs by edge count: OEIS A002905
    counts = Counter(g.edge_count() for g in edge_growth_classes(lambda g: len(connected_components(g)) == 1, 6))
    assert [counts[m] for m in range(1, 7)] == [1, 1, 3, 5, 12, 30]


def test_trees_up_to_counts_and_cap():
    import time

    from oddballoon.generate import trees_up_to

    # free trees by vertex count: OEIS A000055
    sizes = [len(level) for level in trees_up_to(12)]
    assert sizes == [0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        trees_up_to(17)
    assert time.perf_counter() - start < 1.0  # refused before any growth


def test_trees_up_to_matches_edge_growth_reference():
    from helpers import reference_trees_up_to

    from oddballoon.generate import trees_up_to

    # pendant growth deduped by tree code returns the edge-growth classes
    # in the same order, representatives included
    got = trees_up_to(11)
    assert [len(level) for level in got] == [0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]
    assert [[t.rows for t in level] for level in got] == [
        [t.rows for t in level] for level in reference_trees_up_to(11)
    ]
    for max_n in range(3):
        assert trees_up_to(max_n) == reference_trees_up_to(max_n)


def test_trees_up_to_order():
    from oddballoon.codec import encode_graph6
    from oddballoon.generate import trees_up_to

    # the bench's case ids T{n}.{i} and its seeded length draws follow this order
    expected = [
        [],
        ["@"],
        ["A_"],
        ["Bo"],
        ["Cs", "Cq"],
        ["Ds_", "DsO", "DqG"],
        ["Esa?", "Es`?", "EsP?", "EsO_", "EsOG", "EqGO"],
        ["FsaC?", "FsaA?", "Fs`A?", "Fs`@?", "Fs`?G", "FsP@?", "FsO__", "FsO_O", "FsOGO", "FsOGG", "FqGOO"],
    ]
    assert [[encode_graph6(t) for t in level] for level in trees_up_to(7)] == expected


def test_strip_isolated_keeps_graph_without_isolated_vertices():
    p3 = path_graph(3)
    assert strip_isolated(p3) is p3
    assert strip_isolated(disjoint_union(p3, empty_graph(1))) == p3


def test_components_and_bipartite():
    g = disjoint_union(cycle_graph(4), path_graph(3))
    comps = connected_components(g)
    assert len(comps) == 2
    assert is_bipartite(g)
    assert not is_bipartite(cycle_graph(5))


def test_induced_and_strip():
    g = star_graph(3)
    sub = induced(g, 0b0110)  # center=0 excluded: two leaves, no edges
    assert sub.n == 2 and sub.edge_count() == 0
    h = disjoint_union(complete_graph(2), empty_graph(3))
    assert strip_isolated(h).n == 2
