import pytest

from oddballoon.balloon import parse_spec
from oddballoon.canon import canonical_key, is_isomorphic
from oddballoon.decomp import (
    GraphFamily,
    b_family,
    decomposition_family,
    decomposition_oracle,
    peel_edges,
    split_vertices,
)
from oddballoon.graphs import (
    ParameterError,
    complete_graph,
    disjoint_union,
    from_edges,
    path_graph,
    star_graph,
    strip_isolated,
    union_all,
)

K2 = from_edges(2, [(0, 1)])


def keys(graphs):
    return {canonical_key(strip_isolated(g)) for g in graphs}


def test_split_examples():
    s3 = star_graph(3)
    split, origin = split_vertices(s3, {0})
    assert is_isomorphic(split, union_all([K2] * 3))
    assert set(origin.values()) == {(0, 1), (0, 2), (0, 3)}

    p3 = path_graph(3)
    split, _ = split_vertices(p3, {0, 2})
    assert is_isomorphic(split, p3)

    p4 = path_graph(4)
    with pytest.raises(ParameterError):
        split_vertices(p4, {1, 2})


def test_split_vertex_count():
    # |result| = |G| + sum (d(u) - 1)
    s3 = star_graph(3)
    split, _ = split_vertices(s3, {0})
    assert split.n == s3.n + (3 - 1)


def test_peel_examples():
    tree, spec = parse_spec("tree: c-a c-b c-d\ncycles: c-a:5 c-b:5 c-d:5")
    s3 = tree.graph()
    peeled = peel_edges(s3, [(0, 1)], None, spec)
    assert is_isomorphic(strip_isolated(peeled), disjoint_union(star_graph(2), K2))

    # isolated K_2 component: peeling does nothing
    tk, sk = parse_spec("tree: a-b\ncycles: a-b:5")
    assert is_isomorphic(peel_edges(tk.graph(), [(0, 1)], None, sk), tk.graph())

    # middle edge of P_4 is not a leaf-edge
    tp, sp = parse_spec("tree: 1-2 2-3 3-4\ncycles: 1-2:5 2-3:5 3-4:5")
    with pytest.raises(ParameterError):
        peel_edges(tp.graph(), [(1, 2)], None, sp)

    # type I edge may not be peeled
    tm, sm = parse_spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:5 c-d:5")
    with pytest.raises(ParameterError):
        peel_edges(tm.graph(), [(0, 1)], None, sm)


def test_family_friendship():
    for k in (2, 3, 4):
        edges = " ".join(f"c-x{i}" for i in range(k))
        cyc = " ".join(f"c-x{i}:3" for i in range(k))
        tree, spec = parse_spec(f"tree: {edges}\ncycles: {cyc}")
        fam = decomposition_family(tree, spec)
        expected = keys([star_graph(k), union_all([K2] * k)])
        assert fam.keys() == expected


def test_family_single_edge():
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:5")
    fam = decomposition_family(tree, spec)
    assert fam.keys() == keys([K2])


def test_family_star3_all_five():
    tree, spec = parse_spec("tree: c-a c-b c-d\ncycles: c-a:5 c-b:5 c-d:5")
    fam = decomposition_family(tree, spec)
    expected = keys([star_graph(3), disjoint_union(star_graph(2), K2), union_all([K2] * 3)])
    assert fam.keys() == expected
    # cross-checked against the definition-based oracle
    assert decomposition_oracle(tree, spec).keys() == expected


def test_family_edge_counts_and_matching_member():
    cases = [
        "tree: 1-2 2-3\ncycles: 1-2:3 2-3:3",
        "tree: 1-2 2-3 3-4\ncycles: 1-2:3 2-3:5 3-4:3",
        "tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5",
    ]
    for text in cases:
        tree, spec = parse_spec(text)
        fam = decomposition_family(tree, spec)
        e_t = len(tree.edges)
        for m in fam:
            assert m.edge_count() == e_t
        matching = union_all([K2] * e_t)
        assert matching in fam  # good specs always carry the full matching


def test_family_traces_present():
    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    fam = decomposition_family(tree, spec)
    for m in fam:
        assert fam.trace(m) is not None


def test_oracle_examples():
    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    fam = decomposition_oracle(tree, spec)
    assert fam.keys() == keys([star_graph(2), union_all([K2] * 2)])

    tree, spec = parse_spec("tree: a-b\ncycles: a-b:3")
    assert decomposition_oracle(tree, spec).keys() == keys([K2])

    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:5 2-3:5")
    assert decomposition_oracle(tree, spec).keys() == keys([path_graph(3), union_all([K2] * 2)])


def test_oracle_stable_under_doubled_host():
    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    from oddballoon.decomp import default_oracle_side

    side = default_oracle_side(tree, spec)
    assert decomposition_oracle(tree, spec, side).keys() == decomposition_oracle(
        tree, spec, 2 * side
    ).keys()


def test_b_family_examples():
    # any star spec: a = 1, no coverings below 1
    tree, spec = parse_spec("tree: c-a c-b\ncycles: c-a:3 c-b:3")
    fam = b_family(tree, spec)
    members = fam.members()
    assert len(members) == 1 and members[0].n == 1 and members[0].edge_count() == 0

    # good double star: K_2 shows up via the two-center covering
    tree, spec = parse_spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    fam = b_family(tree, spec)
    assert K2 in fam

    # P_4 with beta = a = 2: the fallback gives K_2 = K_a
    tree, spec = parse_spec("tree: 1-2 2-3 3-4\ncycles: 1-2:3 2-3:5 3-4:3")
    fam = b_family(tree, spec)
    assert fam.keys() == keys([complete_graph(2)])


def test_prune_non_minimal():
    fam = GraphFamily()
    fam.add(K2)
    fam.add(path_graph(3))
    fam.add(complete_graph(3))
    pruned = fam.prune_non_minimal()
    assert pruned.keys() == keys([K2])


def test_decomposition_capacity():
    import pytest

    from oddballoon.balloon import BalloonSpec, BipartiteTree
    from oddballoon.graphs import CapacityError

    names = tuple(str(i) for i in range(14))
    edges = tuple((0, i) for i in range(1, 14))
    tree = BipartiteTree(names, edges)
    spec = BalloonSpec(tuple((e, 3) for e in edges))
    with pytest.raises(CapacityError):
        decomposition_family(tree, spec)


def test_family_matches_oracle_with_longer_cycles():
    # lengths beyond {3,5} exercise longer replacement paths
    cases = [
        "tree: a-b\ncycles: a-b:7",
        "tree: 1-2 2-3\ncycles: 1-2:7 2-3:3",
        "tree: 1-2 2-3\ncycles: 1-2:5 2-3:7",
        "tree: c-a c-b c-d\ncycles: c-a:3 c-b:5 c-d:7",
    ]
    for text in cases:
        tree, spec = parse_spec(text)
        assert decomposition_family(tree, spec).iso_equal(decomposition_oracle(tree, spec))


def test_family_needs_no_pruning():
    # members all have e(T) edges and no isolated vertex, so containment
    # between two of them means isomorphism and the prune drops nothing
    from itertools import product
    from pathlib import Path

    from oddballoon.audits import _tree_from_graph
    from oddballoon.balloon import BalloonSpec, load_spec
    from oddballoon.generate import trees_up_to

    cases = []
    for level in trees_up_to(5)[2:]:
        for tg in level:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5), repeat=len(tree.edges)):
                cases.append((tree, BalloonSpec(tuple(zip(tree.edges, combo)))))
    specs = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))
    assert specs
    cases += [load_spec(p) for p in specs]
    for tree, spec in cases:
        fam = decomposition_family(tree, spec)
        assert fam.keys() == fam.prune_non_minimal().keys(), (tree.edges, spec.lengths)
