import json

import pytest

from oddballoon.balloon import (
    CompletenessError,
    GoodnessError,
    LengthError,
    SpecFormatError,
    StructureError,
    analyze,
    bipartition,
    build_balloon,
    parse_spec,
    parse_spec_json,
    validate_good,
)
from oddballoon.canon import is_isomorphic
from oddballoon.cli import main
from oddballoon.graphs import CapacityError, cycle_graph, from_edges, is_bipartite


def spec(text):
    return parse_spec(text)


def test_parse_bowtie():
    tree, s = spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    assert tree.names == ("1", "2", "3")
    assert len(tree.edges) == 2
    assert s.length((0, 1)) == 3


def test_parse_errors():
    with pytest.raises(StructureError):
        spec("tree: 1-2 2-3 3-1\ncycles: 1-2:3 2-3:3 3-1:3")
    with pytest.raises(LengthError):
        spec("tree: 1-2\ncycles: 1-2:4")
    with pytest.raises(LengthError):
        spec("tree: 1-2\ncycles: 1-2:1")
    with pytest.raises(CompletenessError):
        spec("tree: 1-2 2-3\ncycles: 1-2:3")
    with pytest.raises(CompletenessError):
        spec("tree: 1-2\ncycles: 1-2:3 1-2:5")
    with pytest.raises(CompletenessError):
        spec("tree: 1-2\ncycles: 1-3:3")
    with pytest.raises(SpecFormatError):
        spec("cycles: 1-2:3")
    with pytest.raises(StructureError):
        spec("tree: 1-2 1-2\ncycles: 1-2:3")
    # malformed JSON specs are refused as specs, not with a crash
    with pytest.raises(SpecFormatError):
        parse_spec_json(json.dumps({"tree": [["a", "b"]], "cycles": [1]}))
    with pytest.raises(SpecFormatError):
        parse_spec_json(json.dumps({"tree": 5, "cycles": {"a-b": 3}}))
    with pytest.raises(LengthError, match="non-integer"):
        parse_spec_json(json.dumps({"tree": [["a", "b"]], "cycles": {"a-b": True}}))


def test_parse_json_equivalent():
    text = json.dumps({"tree": [["u", "v"], ["v", "w"]], "cycles": {"u-v": 3, "v-w": 5}})
    tree, s = parse_spec_json(text)
    assert tree.names == ("u", "v", "w")
    assert s.length((0, 1)) == 3 and s.length((1, 2)) == 5
    with pytest.raises(SpecFormatError):
        parse_spec_json("{")
    with pytest.raises(SpecFormatError):
        parse_spec_json(json.dumps({"tree": [["a", "b"]]}))


def test_parse_json_vertex_types():
    # integers name vertices as their decimal strings; null and booleans are refused
    tree, _ = parse_spec_json(json.dumps({"tree": [[1, 2], [2, "c"]], "cycles": {"1-2": 3, "2-c": 5}}))
    assert tree.names == ("1", "2", "c")
    bad = {"tree": [[None, True], [True, 3]], "cycles": {"None-True": 3, "True-3": 5}}
    with pytest.raises(SpecFormatError, match="vertices"):
        parse_spec_json(json.dumps(bad))
    with pytest.raises(SpecFormatError, match="vertices"):
        parse_spec_json(json.dumps({"tree": [["a", 1.5]], "cycles": {"a-1.5": 3}}))


def test_bipartition_examples():
    # double star S_{3,3}: both sides size 3; a = 3
    tree, s = spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    a, b = bipartition(tree, s)
    assert len(a) == len(b) == 3
    # goodness tie-break puts u (index 0) in A: its leaf edges are triangles
    assert 0 in a
    # star: center side is A
    tree_s, s_s = spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:3 c-d:3")
    a, b = bipartition(tree_s, s_s)
    assert a == (0,)
    # five-vertex path: A is the pair of internal vertices next to the leaves
    tree_p, s_p = spec("tree: 1-2 2-3 3-4 4-5\ncycles: 1-2:3 2-3:5 3-4:5 4-5:3")
    a, b = bipartition(tree_p, s_p)
    assert a == (1, 3)


def test_bipartition_lexicographic_tie():
    # P_2 with no goodness signal either way: side of the least name wins
    tree, s = spec("tree: b-a\ncycles: b-a:5")
    a, _ = bipartition(tree, s)
    assert tree.names[a[0]] == "a"


def test_goodness_examples():
    # central edge of a double star as a triangle: not a leaf-edge
    tree, s = spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:3 u-a:5 u-b:5 v-c:5 v-d:5")
    rep = validate_good(tree, s)
    assert not rep.good
    assert any("not a leaf-edge" in why for _, why in rep.violations)
    # triangles hanging off both centers: impossible to be good either way
    tree2, s2 = spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:3 v-d:3")
    assert not validate_good(tree2, s2).good
    # all-triangle star is good
    tree3, s3 = spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:3 c-d:3")
    assert validate_good(tree3, s3).good


def test_analyze_examples():
    tree, s = spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:3 c-d:3")
    rep = analyze(tree, s)
    assert (rep.a, rep.k, rep.k1, rep.branch) == (1, 3, 3, "k_eq_k1")

    # a path with triangle leaf-edges is good only with 4+ edges, where the
    # internal vertices next to the leaves form A on their own
    tree, s = spec("tree: 1-2 2-3 3-4 4-5\ncycles: 1-2:3 2-3:5 3-4:5 4-5:3")
    rep = analyze(tree, s)
    assert (rep.a, rep.k, rep.k1, rep.branch) == (2, 2, 1, "k_gt_k1")

    # on the 4-vertex path the two triangle endpoints straddle the sides
    with pytest.raises(GoodnessError):
        t4, s4 = spec("tree: 1-2 2-3 3-4\ncycles: 1-2:3 2-3:5 3-4:3")
        analyze(t4, s4)

    tree, s = spec("tree: a-b\ncycles: a-b:3")
    rep = analyze(tree, s)
    assert (rep.a, rep.k, rep.k1) == (1, 1, 1)
    assert rep.beta == rep.nu == 1  # Konig on the tree

    with pytest.raises(GoodnessError):
        bad, sb = spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:3 u-a:5 u-b:5 v-c:5 v-d:5")
        analyze(bad, sb)


def test_build_balloon_examples():
    tree, s = spec("tree: a-b\ncycles: a-b:5")
    assert is_isomorphic(build_balloon(tree, s), cycle_graph(5))

    tree, s = spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    bow = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert is_isomorphic(build_balloon(tree, s), bow)

    tree, s = spec("tree: c-a c-b\ncycles: c-a:3 c-b:5")
    g = build_balloon(tree, s)
    assert g.n == 7 and g.edge_count() == 8


def test_balloon_size_and_parity_properties():
    cases = [
        "tree: 1-2 2-3\ncycles: 1-2:3 2-3:3",
        "tree: c-a c-b c-d\ncycles: c-a:5 c-b:3 c-d:7",
        "tree: 1-2 2-3 3-4 4-5\ncycles: 1-2:3 2-3:5 3-4:5 4-5:3",
    ]
    for text in cases:
        tree, s = spec(text)
        g = build_balloon(tree, s)
        total_len = sum(ln for _, ln in s.lengths)
        assert g.edge_count() == total_len
        assert g.n == tree.n + sum(ln - 2 for _, ln in s.lengths)
        assert not is_bipartite(g)
        # deleting the tree edges breaks one edge per odd cycle
        rows = list(g.rows)
        for u, v in tree.edges:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        from oddballoon.graphs import Graph

        assert is_bipartite(Graph(g.n, tuple(rows)))


def test_branch_tie_insensitivity_over_tree_corpus():
    # for good specs with a >= 2 every minimum-degree vertex of A has
    # d_I(u) < k, so the branch never depends on the tie-break
    from oddballoon.audits import _tree_from_graph
    from oddballoon.balloon import BalloonSpec, type_one_degree
    from oddballoon.generate import trees_up_to
    from itertools import product

    for n in range(3, 7):
        for tg in trees_up_to(6)[n]:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5), repeat=len(tree.edges)):
                s = BalloonSpec(tuple(zip(tree.edges, combo)))
                rep = validate_good(tree, s)
                if not rep.good or len(rep.side_a) < 2:
                    continue
                k = min(tree.degree(v) for v in rep.side_a)
                for u in rep.side_a:
                    if tree.degree(u) == k:
                        assert type_one_degree(tree, s, u) < k


def test_build_balloon_capacity():
    tree, s = spec("tree: a-b\ncycles: a-b:131")
    with pytest.raises(CapacityError):
        build_balloon(tree, s)


def _path_spec(n):
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    text = "tree: " + " ".join(f"{u}-{v}" for u, v in edges) + "\ncycles: " + " ".join(f"{u}-{v}:3" for u, v in edges)
    data = {"tree": [list(e) for e in edges], "cycles": {f"{u}-{v}": 3 for u, v in edges}}
    return text, json.dumps(data)


def test_parse_refuses_trees_past_the_vertex_cap(tmp_path, capsys):
    # a tree is built by the capped kernel, so a spec past 128 vertices is
    # refused when it is parsed, not after a quadratic goodness check
    text, data = _path_spec(128)
    assert parse_spec(text)[0].n == parse_spec_json(data)[0].n == 128
    text, data = _path_spec(129)
    with pytest.raises(CapacityError, match="exceeds cap 128"):
        parse_spec(text)
    with pytest.raises(CapacityError, match="exceeds cap 128"):
        parse_spec_json(data)
    path = tmp_path / "path129.spec"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "exceeds cap 128" in capsys.readouterr().err


def test_goodness_single_sided_violation():
    # triangle on one leaf-edge at the other center: that edge alone violates
    # (side names chosen so the lexicographic tie-break picks u's side as A)
    tree, s = spec("tree: u-v u-c u-d v-a v-b\ncycles: u-v:5 u-c:3 u-d:3 v-a:3 v-b:5")
    rep = validate_good(tree, s)
    assert not rep.good
    assert len(rep.violations) == 1
    ((edge, why),) = rep.violations
    assert tree.edge_name(edge) == "v-a" and "not in A" in why


def test_tau_below_a_refused():
    # S = {0, 5} leaves one uncovered edge: tau(T) = 3 < a = 4, and the base
    # construction contains T_o
    from oddballoon.construct import extremal_candidate
    from oddballoon.formulas import turan_number

    tree, s = spec(
        "tree: 0-1 0-2 0-3 1-4 4-5 5-6 5-7\ncycles: 0-1:5 0-2:3 0-3:3 1-4:5 4-5:5 5-6:5 5-7:5"
    )
    assert validate_good(tree, s).good
    for build in (turan_number, extremal_candidate):
        with pytest.raises(GoodnessError, match=r"tau\(T\) = 3 < a = 4"):
            build(40, tree, s)


def _trees_up_to_8():
    from oddballoon.audits import _tree_from_graph
    from oddballoon.generate import trees_up_to

    levels = trees_up_to(8)
    return [_tree_from_graph(tg) for n in range(2, 9) for tg in levels[n]]


def test_tau_refusals_match_brute():
    # over the good {3,5} specs on trees with <= 8 vertices, analyze refuses
    # exactly the specs whose brute-force tau(T) is below a
    from itertools import product

    from helpers import brute_tau
    from oddballoon.balloon import BalloonSpec

    refused = expected = 0
    for tree in _trees_up_to_8():
        below = brute_tau(tree.n, tree.edges) < len(bipartition(tree)[0])
        for combo in product((3, 5), repeat=len(tree.edges)):
            s = BalloonSpec(tuple(zip(tree.edges, combo)))
            if not validate_good(tree, s).good:
                continue
            try:
                analyze(tree, s)
            except GoodnessError:
                refused += 1
                assert below, (tree.edges, combo)
            else:
                assert not below, (tree.edges, combo)
            expected += below
    assert refused == expected == 7


def test_base_construction_contains_t_o_iff_tau_below_a():
    # a-1 independent universal vertices over K_{N,N}, N = |T_o|; tau(T)
    # does not depend on the lengths, so all-triangle balloonings suffice
    from helpers import brute_tau
    from oddballoon.balloon import BalloonSpec
    from oddballoon.embed import contains_subgraph

    for tree in _trees_up_to_8():
        a = len(bipartition(tree)[0])
        t_o = build_balloon(tree, BalloonSpec(tuple((e, 3) for e in tree.edges)))
        x, side = a - 1, t_o.n
        edges = [(u, v) for u in range(x) for v in range(x, x + 2 * side)]
        edges += [(u, v) for u in range(x, x + side) for v in range(x + side, x + 2 * side)]
        host = from_edges(x + 2 * side, edges)
        assert contains_subgraph(host, t_o) == (brute_tau(tree.n, tree.edges) < a), tree.edges
