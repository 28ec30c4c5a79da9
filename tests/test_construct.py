from itertools import product
from pathlib import Path

import pytest

from helpers import abbott_value, max_b_free
from oddballoon.audits import _tree_from_graph
from oddballoon.balloon import BalloonSpec, GoodnessError, analyze, build_balloon, load_spec, parse_spec
from oddballoon.canon import is_isomorphic
from oddballoon.construct import (
    EdgeColoring,
    coloring_candidate,
    extremal_candidate,
    extremal_small_f,
)
from oddballoon.decomp import GraphFamily, b_family
from oddballoon.embed import contains_subgraph
from oddballoon.formulas import chvatal_hanson, e_base, turan_number
from oddballoon.generate import trees_up_to
from oddballoon.graphs import (
    CapacityError,
    ParameterError,
    complete_bipartite,
    complete_graph,
    from_edges,
    turan_graph,
    union_all,
)
from oddballoon.matching import max_matching
from oddballoon.oracle import ex_exact, max_edges_bounded

SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_extremal_small_f():
    assert extremal_small_f(1).n == 0
    for k in range(2, 13):
        piece, d = extremal_small_f(k), k - 1
        assert max_matching(piece) <= d and piece.max_degree() <= d
        assert piece.edge_count() == chvatal_hanson(d, d) == abbott_value(k)
        if k >= 3:
            assert piece.n == -(-2 * piece.edge_count() // d)
    assert is_isomorphic(extremal_small_f(2), from_edges(2, [(0, 1)]))
    assert is_isomorphic(extremal_small_f(3), union_all([complete_graph(3)] * 2))


def test_extremal_small_f_matches_bounded_search():
    # the exhaustive search is the closed form's oracle; d = 4 takes over a
    # minute, so it stops at d = 3
    for d in range(1, 4):
        value, witnesses = max_edges_bounded(d, d)
        piece = extremal_small_f(d + 1)
        assert piece.edge_count() == value
        assert any(is_isomorphic(piece, w) for w in witnesses), d


@pytest.mark.parametrize("k", [5, 6, 7])
def test_all_triangle_star_candidate_certified(k):
    # at the least n whose larger side holds the piece
    leaves = [f"a{i}" for i in range(k)]
    tree, spec = parse_spec(
        "tree: " + " ".join(f"c-{v}" for v in leaves) + "\ncycles: " + " ".join(f"c-{v}:3" for v in leaves)
    )
    n = 2 * extremal_small_f(k).n - 1
    cand = extremal_candidate(n, tree, spec)
    with pytest.raises(ParameterError):
        extremal_candidate(n - 1, tree, spec)
    assert cand.graph.edge_count() == turan_number(n, tree, spec).total
    assert not contains_subgraph(cand.graph, build_balloon(tree, spec))


def test_max_b_free_examples():
    k3fam = GraphFamily()
    k3fam.add(complete_graph(3))
    w, v = max_b_free(5, k3fam)
    assert v == 6 and is_isomorphic(w, complete_bipartite(2, 3))

    k2fam = GraphFamily()
    k2fam.add(from_edges(2, [(0, 1)]))
    for m in range(0, 6):
        w, v = max_b_free(m, k2fam)
        assert v == 0 and w.n == m and w.edge_count() == 0

    w, v = max_b_free(1, k3fam)
    assert (w.n, v) == (1, 0)


def test_max_b_free_matches_iso_oracle():
    # independent route: branch-and-bound over labelled graphs vs the
    # isomorphism-class enumeration
    fams = []
    f1 = GraphFamily(); f1.add(complete_graph(3)); fams.append(f1)
    f2 = GraphFamily(); f2.add(from_edges(3, [(0, 1), (1, 2)])); fams.append(f2)  # P_3
    f3 = GraphFamily(); f3.add(complete_graph(4)); fams.append(f3)
    for fam in fams:
        for m in range(1, 7):
            _, value = max_b_free(m, fam)
            assert value == ex_exact(m, fam).value


def test_candidate_bowtie():
    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    cand = extremal_candidate(20, tree, spec)
    assert cand.graph.edge_count() == 101
    assert not contains_subgraph(cand.graph, build_balloon(tree, spec))


def test_candidate_double_star():
    tree, spec = parse_spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    cand = extremal_candidate(20, tree, spec)
    assert cand.graph.edge_count() == e_base(20, 3) == 117
    assert cand.embedded_x1 == () and cand.x_edges == ()
    assert not contains_subgraph(cand.graph, build_balloon(tree, spec))


def test_candidate_single_triangle_is_turan_graph():
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:3")
    cand = extremal_candidate(9, tree, spec)
    assert cand.graph.edge_count() == 20
    assert is_isomorphic(cand.graph, turan_graph(9, 2))


def test_candidate_structure_roles():
    # branch k > k1 with beta(T) = a and k >= 2: X must become a clique
    tree, spec = parse_spec("tree: 1-2 2-3 3-4 4-5\ncycles: 1-2:3 2-3:5 3-4:5 4-5:3")
    rep = analyze(tree, spec)
    assert rep.branch == "k_gt_k1" and rep.k >= 2 and rep.beta == rep.a
    cand = extremal_candidate(25, tree, spec)
    a = rep.a
    assert len(cand.x) == a - 1
    x_pairs = {(u, v) for u in cand.x for v in cand.x if u < v}
    assert set(map(tuple, cand.x_edges)) == x_pairs  # K_{a-1} inside X
    # X vertices are universal
    for u in cand.x:
        assert cand.graph.degree(u) == 25 - 1
    # the embedded piece is a K_{k-1,k-1} inside X_1
    assert len(cand.embedded_x1) == 2 * (rep.k - 1)
    assert cand.graph.edge_count() == turan_number(25, tree, spec).total


def test_roles_describe_the_candidate():
    # rebuilt from its roles alone, the candidate has no other edge: X is
    # universal to X1 u X2, X1 x X2 is complete, x_edges lie inside X, and
    # inside X1 there is only the piece on embedded_x1 (K_{k-1,k-1} split in
    # halves, or extremal_small_f(k) laid on it in order)
    checked = 0
    for path in sorted(SPECS.iterdir()):
        tree, spec = load_spec(path)
        try:
            rep = analyze(tree, spec)
        except GoodnessError:
            continue
        for n in (20, 40, 70):
            cand = extremal_candidate(n, tree, spec)
            x, x1, x2, emb = cand.x, cand.x1, cand.x2, cand.embedded_x1
            assert x + x1 + x2 == tuple(range(n)) and len(x) == rep.a - 1 and len(x1) - len(x2) in (0, 1)
            assert emb == x1[: len(emb)] and all(u in x and v in x for u, v in cand.x_edges)
            edges = [(u, v) for u in x for v in x1 + x2] + [(u, v) for u in x1 for v in x2]
            edges += cand.x_edges
            if rep.branch == "k_gt_k1":
                assert len(emb) == 2 * (rep.k - 1)
                edges += [(u, v) for u in emb[: rep.k - 1] for v in emb[rep.k - 1 :]]
            else:
                piece = extremal_small_f(rep.k)
                assert len(emb) == piece.n
                edges += [(emb[u], emb[v]) for u, v in piece.edges()]
            assert from_edges(n, edges).rows == cand.graph.rows, (path.name, n)
            checked += 1
    assert checked == 3 * 15


def test_candidate_preconditions():
    tree, spec = parse_spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:3 c-d:3")
    with pytest.raises(ParameterError):
        extremal_candidate(4, tree, spec)


def test_candidate_side_too_small_for_bipartite_piece():
    # k = 3, a = 1: n = 6 passes the size check, but X1 has 3 < 2(k - 1)
    # vertices for K_{2,2}; at n = 7 it has 4
    tree, spec = load_spec(SPECS / "star3_five.spec")
    with pytest.raises(ParameterError, match="complete bipartite piece"):
        extremal_candidate(6, tree, spec)
    cand = extremal_candidate(7, tree, spec)
    assert cand.graph.edge_count() == turan_number(7, tree, spec).total
    assert not contains_subgraph(cand.graph, build_balloon(tree, spec))


def test_coloring_candidate_matches_construction():
    tree, spec = parse_spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    col = coloring_candidate(20, tree, spec)
    cand = extremal_candidate(20, tree, spec)
    assert col.red == frozenset(map(tuple, cand.graph.edges()))
    assert col.red_graph().edge_count() + col.blue_graph().edge_count() == 20 * 19 // 2


def test_edge_coloring_validation():
    with pytest.raises(ParameterError):
        EdgeColoring(3, frozenset({(2, 1)}))  # unnormalized pair
    with pytest.raises(ParameterError):
        EdgeColoring(-3, frozenset())
    col = EdgeColoring(3, frozenset({(0, 1)}))
    assert col.blue_graph().edge_count() == 2


def test_capacity_errors():
    fam = GraphFamily()
    fam.add(complete_graph(3))
    with pytest.raises(CapacityError):
        max_b_free(8, fam)


def test_edge_counts_match_formula_across_n_range():
    # construction size equals the closed-form total over the whole window,
    # not only the certification points
    for name in ("double_star33.spec", "star3_mixed.spec", "friendship3.spec"):
        tree, spec = load_spec(SPECS / name)
        for n in range(15, 41):
            cand = extremal_candidate(n, tree, spec)
            assert cand.graph.edge_count() == turan_number(n, tree, spec).total


def test_coloring_equal_branch_examples():
    # bowtie: red is the extremal graph itself, so every red edge is uncovered
    from oddballoon.oracle import f2_count_uncovered

    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    col = coloring_candidate(16, tree, spec)
    balloon = build_balloon(tree, spec)
    uncovered = f2_count_uncovered(col, balloon)
    assert uncovered >= col.red_graph().edge_count()

    # single triangle at n = 6: the 9 bipartite red edges survive, every blue
    # edge sits inside a blue triangle
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:3")
    col = coloring_candidate(6, tree, spec)
    assert f2_count_uncovered(col, build_balloon(tree, spec)) == 9


def _covering_branch_cases():
    """Good specs on the k > k1 branch: every tree on <= 6 vertices with
    every {3,5} assignment, then every spec file."""
    cases = []
    for level in trees_up_to(6)[2:]:
        for tg in level:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5), repeat=len(tree.edges)):
                cases.append((tree, BalloonSpec(tuple(zip(tree.edges, combo)))))
    cases += [load_spec(p) for p in sorted(SPECS.iterdir())]
    for tree, spec in cases:
        try:
            rep = analyze(tree, spec)
        except GoodnessError:
            continue
        if rep.branch == "k_gt_k1":
            yield tree, spec, rep


def test_x_piece_matches_labelled_reference():
    # the X-piece comes from ex_exact; max_b_free reaches the same edge
    # count by a search over labelled graphs
    checked = 0
    for tree, spec, rep in _covering_branch_cases():
        fam = b_family(tree, spec)
        _, value = max_b_free(rep.a - 1, fam)
        n = 3 * (rep.a + 2 * rep.k)
        cand = extremal_candidate(n, tree, spec)
        assert len(cand.x_edges) == value, (tree.edges, spec.lengths)
        x_graph = from_edges(rep.a - 1, cand.x_edges)
        assert not any(contains_subgraph(x_graph, m) for m in fam), (tree.edges, spec.lengths)
        assert cand.graph.edge_count() == turan_number(n, tree, spec).total
        checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "lengths, tail",
    [((5,) * 9, 8 * 8), ((3,) * 8 + (5,), 8 * 8), ((3,) * 9, chvatal_hanson(8, 8))],
    ids=["all-5", "eight-3-one-5", "all-3"],
)
def test_nine_leaf_star_past_the_decomposition_cap(lengths, tail):
    # a = 1: the covering family is {K_1} without building the decomposition
    # family (capped at 8 edges), so the middle term is ex(0, {K_1}) = 0
    leaves = [f"a{i}" for i in range(1, 10)]
    tree, spec = parse_spec(
        "tree: " + " ".join(f"c-{v}" for v in leaves)
        + "\ncycles: " + " ".join(f"c-{v}:{ln}" for v, ln in zip(leaves, lengths))
    )
    assert analyze(tree, spec).a == 1
    for n in range(36, 41):
        rep = turan_number(n, tree, spec)
        assert (rep.base, rep.middle, rep.total) == (n * n // 4, 0, n * n // 4 + tail)
        assert extremal_candidate(n, tree, spec).graph.edge_count() == rep.total
    # a few ms with triangles; the all-5 balloon has 37 vertices, so n = 36
    # settles it by vertex count (at n = 37 the query ran 5 minutes unfinished)
    assert not contains_subgraph(extremal_candidate(36, tree, spec).graph, build_balloon(tree, spec))
