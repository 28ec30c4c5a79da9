import random
import re
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_decomposition_family,
    random_tree,
    reference_b_family,
    reference_decomposition_oracle,
    reference_forests,
    replay_trace,
)
from oddballoon import decomp, embed
from oddballoon.audits import _tree_from_graph
from oddballoon.balloon import BalloonSpec, BipartiteTree, balloon_order, build_balloon, load_spec, parse_spec
from oddballoon.canon import canonical_form, canonical_key, is_isomorphic
from oddballoon.codec import encode_graph6
from oddballoon.decomp import (
    GraphFamily,
    b_family,
    decomposition_family,
    decomposition_oracle,
    default_oracle_side,
    peel_edges,
    split_vertices,
)
from oddballoon.embed import contains_subgraph
from oddballoon.generate import small_edge_classes, trees_up_to
from oddballoon.graphs import (
    CapacityError,
    ParameterError,
    complete_graph,
    connected_components,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    path_graph,
    star_graph,
    strip_isolated,
    union_all,
)

K2 = from_edges(2, [(0, 1)])
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPECS = sorted(SPEC_DIR.glob("*.spec"))


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
    # each member's trace names a split set and peel edges that re-derive it
    cases = [parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")] + [load_spec(p) for p in SPECS]
    for tree, spec in cases:
        fam = decomposition_family(tree, spec)
        for m in fam:
            trace = fam.trace(m)
            assert trace is not None
            assert canonical_key(replay_trace(tree, spec, trace)) == canonical_key(m), trace


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False), st.data())
def test_family_traces_replay_on_random_trees(n, rng, data):
    # traces speak in the tree's own names: split vertices of T, peeled
    # edges of T, and replaying one re-derives its member
    tree = _tree_from_graph(random_tree(rng, n))
    lengths = data.draw(st.lists(st.sampled_from((3, 5, 7)), min_size=n - 1, max_size=n - 1))
    spec = BalloonSpec(tuple(zip(tree.edges, lengths)))
    edge_names = {tree.edge_name(e) for e in tree.edges}
    fam = decomposition_family(tree, spec)
    for m in fam:
        trace = fam.trace(m)
        names, peeled = re.fullmatch(r"split \{(.*)\} peel \{(.*)\}", trace).groups()
        assert names == "-" or set(names.split(",")) <= set(tree.names), trace
        assert peeled == "-" or set(peeled.split(";")) <= edge_names, trace
        assert canonical_key(replay_trace(tree, spec, trace)) == canonical_key(m), trace


def test_double_star33_traces():
    tree, spec = load_spec(SPECS[0].parent / "double_star33.spec")
    fam = decomposition_family(tree, spec)
    assert {encode_graph6(m): fam.trace(m) for m in fam} == {
        "Eia?": "split {-} peel {-}",
        "F`CP?": "split {-} peel {v-c}",
        "G`?GOO": "split {-} peel {v-c;v-d}",
        "H`?G?CA": "split {u} peel {u-v}",
        "I`?G?C??G": "split {u} peel {u-v;v-c}",
    }


def test_oracle_examples():
    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:3 2-3:3")
    fam = decomposition_oracle(tree, spec)
    assert fam.keys() == keys([star_graph(2), union_all([K2] * 2)])

    tree, spec = parse_spec("tree: a-b\ncycles: a-b:3")
    assert decomposition_oracle(tree, spec).keys() == keys([K2])

    tree, spec = parse_spec("tree: 1-2 2-3\ncycles: 1-2:5 2-3:5")
    assert decomposition_oracle(tree, spec).keys() == keys([path_graph(3), union_all([K2] * 2)])


def test_oracle_stable_past_default_side():
    # default_oracle_side is where larger hosts stop changing answers: the
    # sweep over hosts of twice that side finds the same family on every
    # tree with <= 4 edges and every {3,5} assignment
    cases = list(_length_cases(5))
    assert len(cases) == 70
    for tree, spec in cases:
        doubled = reference_decomposition_oracle(tree, spec, side=2 * default_oracle_side(tree, spec))
        assert decomposition_oracle(tree, spec).keys() == doubled.keys(), (tree.edges, spec.lengths)


def test_default_oracle_side_cap():
    # s0 = 2e(T) + (L - 1)/2 for one edge: 2 + 29 = 31 at L = 59; the host
    # reaches exactly the 128-vertex cap at L = 125 and passes it at L = 127
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:59")
    assert default_oracle_side(tree, spec) == 31
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:125")
    assert default_oracle_side(tree, spec) == 64
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:127")
    with pytest.raises(CapacityError):
        default_oracle_side(tree, spec)
    # the oracle keeps its own cap, 2(|T_o| + 2e(T) + 2) <= 128: 126 host
    # vertices at L = 59, 130 at L = 61
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:61")
    with pytest.raises(CapacityError):
        decomposition_oracle(tree, spec)


def _alpha(g) -> int:
    """Independence number by exhaustive branching: the lowest vertex left
    is either out of the set or in it, and then its neighbours are out."""
    memo = {0: 0}

    def best(left: int) -> int:
        if left not in memo:
            v = (left & -left).bit_length() - 1
            memo[left] = max(best(left & ~(1 << v)), 1 + best(left & ~(1 << v) & ~g.rows[v]))
        return memo[left]

    return best(g.vertices_mask())


def test_independence_bound_behind_default_side():
    # alpha(T_o) <= max(1, sum (L_e - 1)/2) = s0 - 2e(T), the count of spare
    # vertices the s0 host keeps on each side, on every tree with <= 5
    # vertices (the edgeless one included) and every {3,5,7} assignment
    count = 0
    for level in trees_up_to(5)[1:]:
        for tg in level:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5, 7), repeat=len(tree.edges)):
                spec = BalloonSpec(tuple(zip(tree.edges, combo)))
                spare = default_oracle_side(tree, spec) - 2 * len(tree.edges)
                assert _alpha(build_balloon(tree, spec)) <= spare, (tree.edges, combo)
                count += 1
    assert count == 1 + 3 + 9 + 2 * 27 + 3 * 81


def test_embedding_host_matches_join():
    # the host built row by row against the join of the planted side and
    # the other side, on seeded forests and sides
    rng = random.Random(5)
    for _ in range(60):
        e = rng.randint(0, 6)
        m = rng.choice(list(decomp._forests(e, rng.randint(1, max(e, 1))).values()))
        side = rng.randint(max(m.n, 1), 64)
        joined = join(disjoint_union(m, empty_graph(side - m.n)), empty_graph(side))
        assert embed._planted_host(side, m) == joined, (m.rows, side)
    with pytest.raises(ParameterError):
        embed._planted_host(3, union_all([K2] * 2))
    with pytest.raises(CapacityError):
        embed._planted_host(65, K2)


def test_edgeless_tree_family_and_oracle():
    # T = K_1 balloons to T_o = K_1: splitting nothing leaves the empty
    # forest, and the oracle's one-vertex-a-side host contains K_1
    tree, spec = BipartiteTree(("a",), ()), BalloonSpec(())
    assert default_oracle_side(tree, spec) == 1
    fam, orc = decomposition_family(tree, spec), decomposition_oracle(tree, spec)
    assert fam.keys() == orc.keys() and len(orc) == 1
    assert [m.n for m in orc] == [0]


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


def test_family_finds_members_filed_whole():
    # a member filed with strip=False is found under its own key, and a
    # stripped member still under the key of the stripped graph
    tree, spec = parse_spec("tree: c-a c-b\ncycles: c-a:3 c-b:3")
    fam = b_family(tree, spec)
    assert complete_graph(1) in fam
    assert fam.trace(complete_graph(1)) == "fallback: no covering below a"

    # an independent covering of size 3 < a = 4 gives an edgeless member
    tree, spec = parse_spec(
        "tree: 0-1 0-2 0-3 1-4 4-5 5-6 5-7\ncycles: 0-1:5 0-2:3 0-3:3 1-4:5 4-5:5 5-6:5 5-7:5"
    )
    fam = b_family(tree, spec)
    assert empty_graph(3) in fam
    assert fam.trace(empty_graph(3)) == "M[S] with |S|=3"

    fam = GraphFamily()
    fam.add(empty_graph(2), trace="whole", strip=False)
    fam.add(path_graph(3), trace="stripped")
    assert empty_graph(2) in fam and fam.trace(empty_graph(2)) == "whole"
    assert disjoint_union(path_graph(3), complete_graph(1)) in fam
    assert fam.trace(disjoint_union(path_graph(3), complete_graph(1))) == "stripped"
    assert empty_graph(1) not in fam and empty_graph(3) not in fam


def test_b_family_matches_reference():
    # the search from nu(M) against the all-subsets sweep: same keys, same
    # traces, on every {3,5} spec of the trees with <= 7 vertices and on
    # every spec file
    cases = list(_length_cases(7)) + [load_spec(p) for p in sorted(SPEC_DIR.iterdir())]
    assert len(cases) == 966 + 16
    for tree, spec in cases:
        fam, ref = b_family(tree, spec), reference_b_family(tree, spec)
        assert fam.keys() == ref.keys() and fam._traces == ref._traces, (tree.edges, spec.lengths)


def test_prune_non_minimal():
    fam = GraphFamily()
    fam.add(K2)
    fam.add(path_graph(3))
    fam.add(complete_graph(3))
    pruned = fam.prune_non_minimal()
    assert pruned.keys() == keys([K2])


def test_decomposition_capacity():
    names = tuple(str(i) for i in range(10))
    edges = tuple((0, i) for i in range(1, 10))
    tree = BipartiteTree(names, edges)
    spec = BalloonSpec(tuple((e, 3) for e in edges))
    with pytest.raises(CapacityError, match="8 edges"):
        decomposition_family(tree, spec)
    # the oracle refuses before it builds a class: 9K2 alone has 18
    # vertices, past canonical_key's 16
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="8 edges"):
        decomposition_oracle(tree, spec)
    assert time.perf_counter() - t0 < 0.2
    at_cap = BipartiteTree(names[:9], edges[:8])
    assert len(decomposition_family(at_cap, BalloonSpec(spec.lengths[:8]))) == 2  # K_{1,8} and 8K2


def test_family_budget_at_cap():
    # every 9-vertex tree (8 edges, the cap) with all lengths 5: about 0.4 s
    # on a 2-core VM (2 s when each split forest was peeled on its own,
    # 33 s when all 2^r peel subsets were enumerated)
    t0 = time.perf_counter()
    for tg in trees_up_to(9)[9]:
        tree = _tree_from_graph(tg)
        decomposition_family(tree, BalloonSpec(tuple((e, 5) for e in tree.edges)))
    assert time.perf_counter() - t0 < 12.0


def _length_cases(max_n: int):
    for level in trees_up_to(max_n)[2:]:
        for tg in level:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5), repeat=len(tree.edges)):
                yield tree, BalloonSpec(tuple(zip(tree.edges, combo)))


def test_family_matches_brute_small_trees():
    for tree, spec in _length_cases(6):
        assert decomposition_family(tree, spec).keys() == brute_decomposition_family(tree, spec).keys(), (
            tree.edges,
            spec.lengths,
        )


def test_family_matches_brute_larger_trees_and_specs():
    rng = random.Random(2024)
    cases = [load_spec(p) for p in SPECS]
    for n in (7, 8):
        for tg in trees_up_to(8)[n]:
            tree = _tree_from_graph(tg)
            e = len(tree.edges)
            drawn = tuple(rng.choice((3, 5, 7)) for _ in range(e))
            for lengths in ((3,) * e, (5,) * e, drawn):
                cases.append((tree, BalloonSpec(tuple(zip(tree.edges, lengths)))))
    for tree, spec in cases:
        assert decomposition_family(tree, spec).keys() == brute_decomposition_family(tree, spec).keys(), (
            tree.edges,
            spec.lengths,
        )


def test_members_are_canonical_forms_under_their_keys():
    # members are decoded from their component codes and filed under a key
    # built from them: each must be its own canonical form, filed under its
    # canonical key; up to the 9-vertex cap with all-3, all-5 and drawn lengths
    rng = random.Random(8)
    cases = list(_length_cases(6)) + [load_spec(p) for p in SPECS]
    for n in (7, 8, 9):
        for tg in trees_up_to(9)[n]:
            tree = _tree_from_graph(tg)
            e = len(tree.edges)
            for lengths in ((3,) * e, (5,) * e, tuple(rng.choice((3, 5, 7)) for _ in range(e))):
                cases.append((tree, BalloonSpec(tuple(zip(tree.edges, lengths)))))
    for tree, spec in cases:
        for key, m in decomposition_family(tree, spec)._decoded():
            assert canonical_form(m) == m and canonical_key(m) == key, (tree.edges, spec.lengths)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(st.integers(0, len(trees_up_to(8)[n]) - 1), st.just(n))
    ),
    st.lists(st.sampled_from((3, 5, 7)), min_size=7, max_size=7),
    st.randoms(use_true_random=False),
)
def test_family_invariant_under_relabelling(pick, lengths, rng):
    i, n = pick
    tree = _tree_from_graph(trees_up_to(8)[n][i])
    spec = BalloonSpec(tuple(zip(tree.edges, lengths)))
    perm = list(range(n))
    rng.shuffle(perm)
    names = [""] * n
    for v, name in enumerate(tree.names):
        names[perm[v]] = name
    moved_lengths = tuple(
        sorted(((min(perm[u], perm[v]), max(perm[u], perm[v])), ln) for (u, v), ln in spec.lengths)
    )
    moved = BipartiteTree(tuple(names), tuple(e for e, _ in moved_lengths))
    assert decomposition_family(moved, BalloonSpec(moved_lengths)).keys() == decomposition_family(tree, spec).keys()


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


def _keyed_traces(fam: GraphFamily) -> list[tuple[bytes, str | None]]:
    return sorted((canonical_key(m), fam.trace(m)) for m in fam)


def _six_vertex_cases():
    """One draw of lengths from {3,5,7} per 6-vertex tree, redrawn until
    |T_o| <= 19: these take about 0.05 s each; 27- to 31-vertex T_o take
    up to 4 s on trees other than the path."""
    rng = random.Random(0)
    for tg in trees_up_to(6)[6]:
        tree = _tree_from_graph(tg)
        while True:
            spec = BalloonSpec(tuple((e, rng.choice((3, 5, 7))) for e in tree.edges))
            if balloon_order(tree, spec) <= 19:
                break
        yield tree, spec


def test_oracle_matches_reference_sweep():
    # the grown oracle against the sweep over every class with <= e(T)+1
    # edges, pruned afterwards: same keys, same traces
    cases = list(_length_cases(5))
    assert len(cases) == 70
    for tree, spec in cases + list(_six_vertex_cases()):
        assert _keyed_traces(decomposition_oracle(tree, spec)) == _keyed_traces(
            reference_decomposition_oracle(tree, spec)
        ), (tree.edges, spec.lengths)


def test_oracle_host_builds(monkeypatch):
    # only forests with exactly e(T) edges and max degree <= Delta(T) are
    # planted: 386 hosts over the 70 specs (458 forests less the 72 of too
    # high degree), where every e(T)-edge class built 618 and every class
    # with <= e(T)+1 edges 2,502
    built = 0
    query = decomp.planted_host_contains

    def counting(side, m, pattern):
        nonlocal built
        built += 1
        return query(side, m, pattern)

    monkeypatch.setattr(decomp, "planted_host_contains", counting)
    for tree, spec in _length_cases(5):
        decomposition_oracle(tree, spec)
    assert built == 386


def test_forests_match_edge_classes():
    # the forests the oracle plants, built from multisets of trees, against
    # the forests among all e-edge classes: same keys, and each planted
    # graph is the forest its key names
    for e in range(1, 7):
        classes = [g for g in small_edge_classes(e, 2 * e) if g.edge_count() == e and _is_forest(g)]
        for max_degree in range(1, e + 1):
            forests = decomp._forests(e, max_degree)
            assert set(forests) == {canonical_key(g) for g in classes if g.max_degree() <= max_degree}
            assert all(canonical_key(g) == key for key, g in forests.items())
    assert [len(decomp._forests(8, d)) for d in range(1, 9)] == [1, 22, 87, 129, 145, 151, 153, 154]


def test_forests_match_reference():
    # the forests built from shifted row tuples against chained disjoint
    # unions: the same keys in the same order, and the same rows
    for e in range(8):
        for max_degree in range(e + 2):
            got, want = decomp._forests(e, max_degree), reference_forests(e, max_degree)
            assert [(k, g.n, g.rows) for k, g in got.items()] == [(k, g.n, g.rows) for k, g in want.items()], (
                e,
                max_degree,
            )


def _lazy_outputs():
    """Fresh oracle and b_family outputs, nothing decoded yet; the oracle
    only on trees with at most 4 edges, which answer in milliseconds."""
    for tree, spec in list(_length_cases(5)) + [load_spec(p) for p in SPECS]:
        if len(tree.edges) <= 4:
            yield decomposition_oracle(tree, spec)
        yield b_family(tree, spec)


def _eager(fam: GraphFamily) -> GraphFamily:
    """The same family with every member decoded up front."""
    out = GraphFamily(dict(fam._members), dict(fam._traces))
    out._decoded()
    return out


def test_lazy_family_matches_eager():
    # members(), iteration, trace() and `in` on a family that decodes on
    # first use equal those of the same family decoded up front; members
    # are canonical forms filed under their canonical keys
    probes = [K2, complete_graph(3), path_graph(3), union_all([K2, K2]), empty_graph(2)]
    for fam in _lazy_outputs():
        eager = _eager(fam)
        assert all(g is None for g in fam._members.values())
        assert [fam.trace(g) for g in eager] == [eager.trace(g) for g in eager]
        assert [g in fam for g in probes + eager.members()] == [g in eager for g in probes + eager.members()]
        assert fam.members() == eager.members() == list(fam) == list(eager)
        assert fam == eager and fam.keys() == {canonical_key(g) for g in eager}
        assert all(canonical_form(g) == g for g in fam)


def test_keys_len_and_in_do_not_decode(monkeypatch):
    decoded = []
    decode = decomp._decode
    monkeypatch.setattr(decomp, "_decode", lambda key: decoded.append(key) or decode(key))
    for fam in _lazy_outputs():
        other = _eager(fam)
        decoded.clear()
        assert fam.iso_equal(other) and len(fam) == len(other) and fam.keys() == other.keys()
        assert [g in fam for g in (K2, complete_graph(3), empty_graph(1))] == [
            canonical_key(g) in fam.keys() for g in (K2, complete_graph(3), empty_graph(1))
        ]
        assert decoded == []
        fam.members()
        assert sorted(decoded) == sorted(fam.keys())


def _is_forest(g) -> bool:
    return g.edge_count() == g.n - len(connected_components(g))


def test_forest_and_degree_lemmas():
    # the oracle's two lemmas checked apart from the oracle: a host whose
    # planted e(T)-edge class has a cycle or a vertex of degree above
    # Delta(T) is T_o-free
    cases = list(_length_cases(5))
    assert len(cases) == 70
    for tree, spec in cases + list(_six_vertex_cases()):
        e_t = len(tree.edges)
        t_o = build_balloon(tree, spec)
        side = default_oracle_side(tree, spec)
        max_degree = tree.graph().max_degree()
        for cand in small_edge_classes(e_t, 2 * e_t):
            if cand.edge_count() == e_t and (not _is_forest(cand) or cand.max_degree() > max_degree):
                assert not contains_subgraph(embed._planted_host(side, cand), t_o), (tree.edges, spec.lengths)


@pytest.mark.parametrize(
    "cycles",
    [
        "0-1:7 0-2:7 1-3:7 2-4:5 3-5:7",  # |T_o| = 29
        "0-1:7 0-2:7 1-3:7 2-4:7 3-5:7",  # |T_o| = 31
    ],
)
def test_oracle_matches_family_on_long_six_vertex_path(cycles):
    tree, spec = parse_spec(f"tree: 0-1 0-2 1-3 2-4 3-5\ncycles: {cycles}")
    orc = decomposition_oracle(tree, spec)
    assert len(orc) == 7 and orc.iso_equal(decomposition_family(tree, spec))


def test_parity_lemma():
    # the oracle's parity argument checked apart from the oracle: a host
    # whose planted class has fewer than e(T) edges is T_o-free, and every
    # minimal member of the sweep over <= e(T)+1 edges has exactly e(T)
    cases = list(_length_cases(5))
    assert len(cases) == 70
    for tree, spec in cases:
        e_t = len(tree.edges)
        t_o = build_balloon(tree, spec)
        side = default_oracle_side(tree, spec)
        for cand in small_edge_classes(e_t - 1, 2 * e_t - 2):
            assert not contains_subgraph(embed._planted_host(side, cand), t_o), (tree.edges, spec.lengths)
    for tree, spec in cases + list(_six_vertex_cases()):
        e_t = len(tree.edges)
        assert all(m.edge_count() == e_t for m in reference_decomposition_oracle(tree, spec)), (
            tree.edges,
            spec.lengths,
        )


def test_family_needs_no_pruning():
    # members all have e(T) edges and no isolated vertex, so containment
    # between two of them means isomorphism and the prune drops nothing
    assert SPECS
    cases = list(_length_cases(5)) + [load_spec(p) for p in SPECS]
    for tree, spec in cases:
        fam = decomposition_family(tree, spec)
        assert fam.keys() == fam.prune_non_minimal().keys(), (tree.edges, spec.lengths)
