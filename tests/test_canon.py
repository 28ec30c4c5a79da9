import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import acyclic, random_tree, reference_forest_form
from oddballoon import canon
from oddballoon.canon import (
    _forest_from_codes,
    canonical_form,
    canonical_key,
    canonical_key_and_generators,
    canonical_key_any,
    is_isomorphic,
    tree_code,
)
from oddballoon.generate import graph_levels, random_graph, trees_up_to
from oddballoon.graphs import (
    CapacityError,
    Graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    path_graph,
    relabel,
    star_graph,
    union_all,
)


def test_key_examples():
    c6 = cycle_graph(6)
    k33_minus_pm = from_edges(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    assert canonical_key(c6) == canonical_key(k33_minus_pm)
    assert canonical_key(star_graph(3)) != canonical_key(path_graph(4))
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    assert canonical_key(two_k3) != canonical_key(c6)


def test_keys_invariant_under_relabeling():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_key(g) == canonical_key(h)
        assert canonical_form(g) == canonical_form(h)


def test_keys_separate_all_small_classes():
    rng = random.Random(5)
    levels = graph_levels(7)
    assert [len(level) for level in levels] == [1, 1, 2, 4, 11, 34, 156, 1044]
    seen = set()
    for level in levels:
        for g in level:
            key = canonical_key(g)
            assert key not in seen
            seen.add(key)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key
    assert len(seen) == 1253


def test_isolated_vertices_matter():
    assert canonical_key(empty_graph(1)) != canonical_key(empty_graph(2))
    k2 = from_edges(2, [(0, 1)])
    k2_plus = disjoint_union(k2, empty_graph(1))
    assert canonical_key(k2) != canonical_key(k2_plus)


def test_is_isomorphic_and_cap():
    assert is_isomorphic(complete_bipartite(2, 2), cycle_graph(4))
    assert not is_isomorphic(path_graph(3), complete_graph(3))
    # equal vertex and edge counts, different degree sequences
    k1 = empty_graph(1)
    assert not is_isomorphic(disjoint_union(path_graph(4), k1), disjoint_union(star_graph(3), k1))
    with pytest.raises(CapacityError):
        canonical_key(empty_graph(17))
    ok = canonical_form(complete_bipartite(2, 3))
    assert is_isomorphic(ok, complete_bipartite(2, 3))


def test_canonical_key_any_beyond_cap():
    # 18 vertices: past the public cap, still keyed by the uncapped entry point
    g = disjoint_union(disjoint_union(complete_graph(6), complete_graph(6)), complete_graph(6))
    h = disjoint_union(disjoint_union(complete_graph(6), complete_graph(6)), complete_graph(6))
    assert canonical_key_any(g) == canonical_key_any(h)


def test_forest_canonical_form_fuzz():
    # forests exercise the rooted-code route; relabelings must collapse and
    # canonical_form must be idempotent
    rng = random.Random(77)
    for _ in range(300):
        pieces = [random_tree(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        g = pieces[0]
        for p in pieces[1:]:
            g = disjoint_union(g, p)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_key(g) == canonical_key(h)
        cf = canonical_form(g)
        assert cf == canonical_form(h)
        assert canonical_form(cf) == cf


def _decoded(g):
    return _forest_from_codes(tree_code(g.rows, comp) for comp in connected_components(g))


def test_forest_decoder_on_every_small_tree():
    # the codes alone give canonical_form's rows, which are the textbook
    # center-rooted preorder form, for every tree on <= 10 vertices
    rng = random.Random(10)
    for level in trees_up_to(10):
        for t in level:
            perm = list(range(t.n))
            rng.shuffle(perm)
            h = relabel(t, perm)
            form = canonical_form(h)
            assert _decoded(h) == form == reference_forest_form(h)
            assert form == canonical_form(t)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-1, 15), min_size=0, max_size=16),
    st.randoms(use_true_random=False),
)
def test_forest_decoder_on_random_forests(parents, rng):
    # vertex v hangs from parents[v] when that is an earlier vertex, else
    # it starts a new component, so isolated vertices occur
    n = len(parents)
    g = from_edges(n, [(p, v) for v, p in enumerate(parents) if 0 <= p < v])
    perm = list(range(n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert _decoded(g) == canonical_form(g) == canonical_form(h) == reference_forest_form(h)


def test_forest_vs_cyclic_keys_never_collide():
    for level in graph_levels(6):
        for g in level:
            tag = canonical_key(g)[:1]
            forest = g.n > 0 and acyclic(g)  # the empty graph takes route G
            assert tag == (b"T" if forest else b"G")


def _cyclic_piece(rng: random.Random, n: int, extra: int) -> Graph:
    """A random connected graph on n vertices with n - 1 + extra edges."""
    t = random_tree(rng, n)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if not t.has_edge(u, v)]
    return from_edges(n, t.edges() + rng.sample(chords, extra))


def _shuffled(rng: random.Random, pieces: list[Graph]) -> Graph:
    g = union_all(rng.sample(pieces, len(pieces)))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_disconnected_cyclic_graphs_against_networkx():
    # unions of cyclic pieces, trees and isolated vertices, keyed whole by
    # one refinement search; half the pairs are relabellings, half swap the
    # first piece for another one with the same order and size
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        out = nx.empty_graph(g.n)
        out.add_edges_from(g.edges())
        return out

    rng = random.Random(2026)
    same = 0
    for _ in range(300):
        extra = rng.randint(1, 3)
        pieces = [_cyclic_piece(rng, 5, extra)]
        pieces += [random_tree(rng, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        pieces += [_cyclic_piece(rng, 3, 1) for _ in range(rng.randint(0, 1))]
        pieces += [empty_graph(1)] * rng.randint(len(pieces) == 1, 1)
        g = _shuffled(rng, pieces)
        if rng.random() < 0.5:
            pieces[0] = _cyclic_piece(rng, 5, extra)
        h = _shuffled(rng, pieces)
        iso = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_key(g) == canonical_key(h)) == iso
        same += iso
        for x in (g, h):
            form = canonical_form(x)
            assert canonical_form(form) == form
            assert canonical_key(form) == canonical_key(x)
    assert 150 < same < 250


def test_generators_of_a_disconnected_cyclic_graph_take_one_search(monkeypatch):
    # the key and the automorphisms come from the same search of the whole
    # graph; no component is labelled again on its own
    g = relabel(union_all([complete_graph(3), cycle_graph(4), path_graph(2)]), [4, 7, 0, 8, 2, 5, 1, 3, 6])
    searches = []
    search = canon._ir_search
    monkeypatch.setattr(canon, "_ir_search", lambda h: searches.append(h) or search(h))
    canonical_key_any.cache_clear()
    key, gens = canonical_key_and_generators(g)
    assert len(searches) == 1
    assert key == canonical_key(g)
    assert all(_is_automorphism(g, p) for p in gens)


def _rook_4x4() -> Graph:
    cells = [(i, j) for i in range(4) for j in range(4)]
    return from_edges(16, [(a, b) for a, (i, j) in enumerate(cells) for b, (k, m) in enumerate(cells)
                           if a < b and (i == k or j == m)])


def _shrikhande() -> Graph:
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    cells = [(i, j) for i in range(4) for j in range(4)]
    return from_edges(16, [(a, b) for a, (i, j) in enumerate(cells) for b, (k, m) in enumerate(cells)
                           if a < b and ((k - i) % 4, (m - j) % 4) in steps])


def test_keys_match_networkx_on_random_pairs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    same = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        p = rng.uniform(0.1, 0.9)
        g = random_graph(rng, n, p)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        kind = rng.randrange(3)
        if kind == 1:  # a 2-switch keeps the degree sequence
            edges = h.edges()
            if len(edges) >= 2:
                (a, b), (c, d) = rng.sample(edges, 2)
                if len({a, b, c, d}) == 4 and not h.has_edge(a, d) and not h.has_edge(b, c):
                    rest = [e for e in edges if e not in ((a, b), (c, d))]
                    h = from_edges(n, rest + [(a, d), (b, c)])
        elif kind == 2:
            h = random_graph(rng, n, p)
        iso = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_key(g) == canonical_key(h)) == iso
        assert (canonical_form(g) == canonical_form(h)) == iso
        same += iso
    assert 100 < same < 400


def _circulant(n: int, steps: list[int]) -> Graph:
    return from_edges(n, {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps})


def test_circulants_against_networkx():
    # vertex-transitive graphs: every search goes through automorphism pruning
    nx = pytest.importorskip("networkx")
    from itertools import combinations

    iso_pairs = 0
    for n in (9, 10, 11):
        graphs = [_circulant(n, [d for d in range(1, n // 2 + 1) if mask >> (d - 1) & 1])
                  for mask in range(1, 1 << (n // 2))]
        for g, h in combinations(graphs, 2):
            if g.edge_count() == h.edge_count():
                iso = nx.is_isomorphic(nx.Graph(g.edges()), nx.Graph(h.edges()))
                assert (canonical_key(g) == canonical_key(h)) == iso
                iso_pairs += iso
    assert iso_pairs > 50
    rng = random.Random(9)
    for mask in range(1, 1 << 8):
        g = _circulant(16, [d for d in range(1, 9) if mask >> (d - 1) & 1])
        perm = list(range(16))
        rng.shuffle(perm)
        assert canonical_key(relabel(g, perm)) == canonical_key(g)


def test_strongly_regular_pair():
    # both SRG(16, 6, 2, 2): refinement alone cannot tell them apart
    rook, shrikhande = _rook_4x4(), _shrikhande()
    assert sorted(rook.degrees()) == sorted(shrikhande.degrees()) == [6] * 16
    assert canonical_key(rook) != canonical_key(shrikhande)
    rng = random.Random(3)
    for g in (rook, shrikhande):
        for _ in range(5):
            perm = list(range(16))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_key(h) == canonical_key(g)
            assert canonical_form(h) == canonical_form(g)


def test_symmetric_graphs_within_budget():
    # the target is under 10 ms each; the bound leaves room for a slow machine
    import time

    k4 = complete_graph(4)
    for g in (complete_bipartite(8, 8), complete_graph(16), complete_bipartite(6, 6),
              union_all([k4] * 3), union_all([k4] * 4), _rook_4x4(), _shrikhande()):
        canonical_key_any.cache_clear()
        t0 = time.perf_counter()
        canonical_key(g)
        assert time.perf_counter() - t0 < 0.1


def _is_automorphism(g: Graph, perm) -> bool:
    return all(
        sum(1 << perm[u] for u in range(g.n) if g.rows[v] >> u & 1) == g.rows[perm[v]]
        for v in range(g.n)
    )


def _orbits(n: int, perms) -> list[int]:
    """Orbit of each vertex under <perms>, as masks."""
    orb = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            grown = orb[v]
            for u in range(n):
                if orb[v] >> u & 1:
                    grown |= orb[u]
                    for p in perms:
                        grown |= 1 << p[u]
            if grown != orb[v]:
                orb[v], changed = grown, True
    return orb


def test_generators_are_automorphisms():
    from itertools import permutations

    for level in graph_levels(6):
        for g in level:
            key, gens = canonical_key_and_generators(g)
            assert key == canonical_key(g)
            assert all(_is_automorphism(g, p) for p in gens)
            full = [p for p in permutations(range(g.n)) if _is_automorphism(g, p)]
            got, want = _orbits(g.n, gens), _orbits(g.n, full)
            assert all(a & ~b == 0 for a, b in zip(got, want))
            if key[:1] != b"T":  # forests get only their twin transpositions
                assert got == want
    for g in (_rook_4x4(), _shrikhande(), complete_bipartite(3, 4), union_all([complete_graph(4)] * 3)):
        _, gens = canonical_key_and_generators(g)
        assert gens and all(_is_automorphism(g, p) for p in gens)
