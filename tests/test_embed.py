import math
import random
import time
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_contains, random_tree
from oddballoon import embed
from oddballoon.balloon import build_balloon, load_spec, parse_spec
from oddballoon.canon import _refine
from oddballoon.construct import extremal_candidate
from oddballoon.decomp import _embedding_host, _forests, default_oracle_side
from oddballoon.embed import _embeds_at, contains_subgraph, creates_copy_with_vertex
from oddballoon.generate import random_graph, small_edge_classes
from oddballoon.graphs import (
    Graph,
    ParameterError,
    add_vertex,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    iter_bits,
    join,
    path_graph,
    relabel,
    turan_graph,
    union_all,
)

BOWTIE = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def test_examples():
    assert contains_subgraph(complete_graph(5), BOWTIE)
    assert not contains_subgraph(cycle_graph(5), complete_graph(3))
    assert not contains_subgraph(turan_graph(20, 2), cycle_graph(5))


def test_self_and_empty_patterns():
    for g in [complete_graph(4), path_graph(5), BOWTIE]:
        assert contains_subgraph(g, g)
        for k in range(g.n + 1):
            assert contains_subgraph(g, empty_graph(k))
        assert not contains_subgraph(g, empty_graph(g.n + 1))


def test_not_induced_semantics():
    # P_3 embeds into K_3 even though K_3 has the extra edge
    assert contains_subgraph(complete_graph(3), path_graph(3))


def test_against_brute_force_fuzz():
    rng = random.Random(2024)
    patterns = [g for g in small_edge_classes(4, 8) if g.n <= 5]
    for _ in range(300):
        host = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
        pat = rng.choice(patterns)
        assert contains_subgraph(host, pat) == brute_contains(host, pat)


def test_anchored_semantics():
    host = disjoint_union(complete_graph(3), complete_graph(2))
    k3 = complete_graph(3)
    # the K_2 component's edge is in no triangle
    assert not contains_subgraph(host, k3, anchor=(3, 4))
    assert contains_subgraph(host, k3, anchor=(0, 1))
    with pytest.raises(ParameterError):
        contains_subgraph(host, k3, anchor=(0, 3))  # not a host edge
    for anchor in [(-1, 1), (5, 0)]:  # not host vertices
        with pytest.raises(ParameterError):
            contains_subgraph(path_graph(3), complete_graph(2), anchor=anchor)


def test_anchored_against_brute_force_fuzz():
    rng = random.Random(77)
    patterns = [g for g in small_edge_classes(3, 6) if g.n <= 4]
    checked = 0
    while checked < 200:
        host = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
        edges = host.edges()
        if not edges:
            continue
        e = rng.choice(edges)
        pat = rng.choice(patterns)
        assert contains_subgraph(host, pat, anchor=e) == brute_contains(host, pat, anchor=e)
        checked += 1


def test_creates_copy_with_vertex_matches_full_check():
    rng = random.Random(31)
    patterns = [g for g in small_edge_classes(3, 6) if g.n <= 5]
    patterns.append(disjoint_union(complete_graph(2), empty_graph(2)))  # isolated verts
    for _ in range(300):
        parent_n = rng.randint(0, 6)
        parent = random_graph(rng, parent_n, 0.4)
        pat = rng.choice(patterns)
        if brute_contains(parent, pat):
            continue  # helper contract: the parent must be pattern-free
        cand = add_vertex(parent, rng.getrandbits(parent_n) if parent_n else 0)
        assert creates_copy_with_vertex(cand, pat, parent_n) == brute_contains(cand, pat)


def test_dense_host_performance_contract():
    t0 = time.perf_counter()
    for _ in range(20):
        assert contains_subgraph(complete_graph(40), BOWTIE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"20 bowtie-in-K40 queries took {elapsed:.3f}s"


# -- the twin-mask, orbit-refutation and seed-per-orbit fast paths -------

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _balloon(text: str) -> Graph:
    return build_balloon(*parse_spec(text))


def _star_of_c5s(k: int) -> Graph:
    edges = " ".join(f"c-x{i}" for i in range(k))
    return _balloon(f"tree: {edges}\ncycles: " + " ".join(f"c-x{i}:5" for i in range(k)))


def _friendship(k: int) -> Graph:
    return from_edges(2 * k + 1, [e for i in range(k) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def _symmetric_patterns() -> list[Graph]:
    pats = [_friendship(k) for k in (2, 3, 4)]
    pats += [_star_of_c5s(2), BOWTIE, union_all([cycle_graph(4)] * 2), complete_bipartite(2, 3)]
    for path in sorted(SPECS.glob("*.spec")):
        g = build_balloon(*load_spec(path))
        if g.n <= 11:
            pats.append(g)
    return pats


def _twin_rich_host(rng: random.Random, max_n: int) -> Graph:
    kind = rng.randrange(4)
    if kind == 0:
        side = rng.randint(3, max_n // 2)
        planted = rng.choice([g for g in small_edge_classes(3, 6) if g.n <= side])
        return _embedding_host(side, planted)
    if kind == 1:
        return turan_graph(rng.randint(3, max_n), rng.randint(2, 4))
    if kind == 2:
        a = rng.randint(1, max_n // 2)
        return join(random_graph(rng, a, 0.5), random_graph(rng, rng.randint(1, max_n - a), 0.4))
    a, b = rng.randint(1, max_n // 4), rng.randint(1, max_n // 4)
    return disjoint_union(complete_bipartite(a, b), random_graph(rng, rng.randint(1, max_n - a - b), 0.5))


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    edges = {frozenset(e) for e in g.edges()}
    return [
        perm
        for perm in permutations(range(g.n))
        if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges())
    ]


def _random_balloon(rng: random.Random) -> Graph:
    tree = random_tree(rng, rng.randint(2, 7))
    edges = [f"{u}-{v}" for u, v in tree.edges()]
    text = "tree: " + " ".join(edges) + "\ncycles: " + " ".join(f"{e}:{rng.choice((3, 5, 7))}" for e in edges)
    return _shuffled(_balloon(text), rng)


def _brute_path_back(rows: tuple[int, ...], chosen: int, p: int) -> float:
    """Length of a shortest path p, v1, ..., vk, c with k >= 1, every v_i
    unchosen and other than p, and c chosen; infinite if there is none."""
    free = ~chosen & ~(1 << p)
    frontier = seen = rows[p] & free
    length = 2
    while frontier:
        if any(rows[v] & chosen for v in iter_bits(frontier)):
            return length
        reach = 0
        for v in iter_bits(frontier):
            reach |= rows[v]
        frontier = reach & free & ~seen
        seen |= frontier
        length += 1
    return math.inf


def test_twin_rich_hosts_against_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g: Graph):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges())
        return out

    # VF2 is slow on negative monomorphism queries of 9-vertex patterns in
    # dense hosts, so the hosts stay small and size-refuted queries are skipped
    rng = random.Random(11)
    patterns = _symmetric_patterns()
    answers = set()
    checked = 0
    while checked < 80:
        host = _shuffled(_twin_rich_host(rng, 12), rng)
        pat = _shuffled(rng.choice(patterns), rng)
        if pat.n > host.n or pat.edge_count() > host.edge_count():
            assert not contains_subgraph(host, pat)
            continue
        checked += 1
        got = contains_subgraph(host, pat)
        assert got == GraphMatcher(to_nx(host), to_nx(pat)).subgraph_is_monomorphic(), (host.rows, pat.rows)
        answers.add(got)
    assert answers == {True, False}


def test_seeded_modes_against_brute_force():
    rng = random.Random(5)
    patterns = [g for g in _symmetric_patterns() if g.n <= 6] + [complete_graph(4), cycle_graph(4)]
    for _ in range(150):
        host = _shuffled(_twin_rich_host(rng, 8), rng)
        pat = _shuffled(rng.choice(patterns), rng)
        hv = rng.randrange(host.n)
        through = any(brute_contains(host, pat, anchor=(hv, x)) for x in range(host.n) if host.has_edge(hv, x))
        assert _embeds_at(host, pat, hv) == through, (host.rows, pat.rows, hv)
        if host.edge_count():
            e = rng.choice(host.edges())
            assert contains_subgraph(host, pat, anchor=e) == brute_contains(host, pat, anchor=e)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ),
    st.sampled_from([BOWTIE, cycle_graph(5), complete_bipartite(2, 3), union_all([cycle_graph(3)] * 2), path_graph(4)]),
    st.randoms(use_true_random=False),
)
def test_answers_invariant_under_relabelling(host_spec, pat, rng):
    n, bits = host_spec
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    host = from_edges(n, [p for p, bit in zip(pairs, bits) if bit])
    perm = list(range(n))
    rng.shuffle(perm)
    moved = relabel(host, perm)
    moved_pat = _shuffled(pat, rng)
    assert contains_subgraph(host, pat) == contains_subgraph(moved, moved_pat)
    hv = rng.randrange(n)
    assert _embeds_at(host, pat, hv) == _embeds_at(moved, moved_pat, perm.index(hv))


def test_stabiliser_orbits_match_brute_force():
    graphs = [g for g in small_edge_classes(6, 9) if g.n <= 6] + [BOWTIE, complete_bipartite(2, 3)]
    for g in graphs:
        auts = _automorphisms(g)
        core = [v for v in range(g.n) if g.rows[v]]
        # a seeded plan searches its orbits from its own order too
        for seed in ((), (core[-1],)):
            plan = embed._plan(g, seed)
            for d in range(plan.start, len(plan.order)):
                p, fixed = plan.order[d], plan.order[:d]
                expected = {a[p] for a in auts if all(a[x] == x for x in fixed)} - {p}
                assert plan.orbit(d) == sum(1 << q for q in expected), (g.rows, seed, d)
        expected_reps = [p for p in core if min(a[p] for a in auts) == p]
        assert list(embed._seed_reps(g)) == expected_reps, g.rows


def test_orbit_plans_pinned():
    star = _star_of_c5s(4)
    plan = embed._plan(star, ())
    centre = plan.order[0]
    assert star.degree(centre) == 8 and plan.orbit(0) == 0
    # the first neighbour of the centre is one of 8 images under Stab(centre)
    assert star.has_edge(centre, plan.order[1])
    assert (plan.orbit(1) | 1 << plan.order[1]).bit_count() == 8

    rigid = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    assert len(_automorphisms(rigid)) == 1
    rigid_plan = embed._plan(rigid, ())
    assert [rigid_plan.orbit(d) for d in range(len(rigid_plan.order))] == [0] * 6
    assert embed._seed_reps(rigid) == tuple(range(6))

    assert len(embed._seed_reps(complete_graph(4))) == 1
    assert len(embed._seed_reps(cycle_graph(5))) == 1
    assert len(embed._seed_reps(BOWTIE)) == 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ),
    st.randoms(use_true_random=False),
)
def test_greedy_order_continues_its_own_prefixes(pattern_spec, rng):
    # why a plan's stabiliser orbits are searched in the plan's own order;
    # balloons give the cycle-closing rule many ties to break
    n, bits = pattern_spec
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for pattern in (from_edges(n, [p for p, bit in zip(pairs, bits) if bit]), _random_balloon(rng)):
        core = [v for v in range(pattern.n) if pattern.rows[v]]
        seed = rng.sample(core, rng.randint(0, min(2, len(core))))
        order = embed._pattern_order(pattern, core, seed)
        assert order[: len(seed)] == seed and sorted(order) == core
        for d in range(max(len(seed) - 1, 0), len(order)):
            assert embed._pattern_order(pattern, core, order[: d + 1]) == order, (pattern.rows, seed, d)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_order_closes_the_shortest_cycle_first(rng):
    # each step against the rule computed one candidate at a time
    for pattern in (_random_balloon(rng), random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6))):
        rows = pattern.rows
        core = [v for v in range(pattern.n) if rows[v]]
        seed = rng.sample(core, rng.randint(0, min(2, len(core))))
        order = embed._pattern_order(pattern, core, seed)
        assert order[: len(seed)] == seed and sorted(order) == core
        for i in range(len(seed), len(order)):
            chosen = sum(1 << q for q in order[:i])
            count = {p: (rows[p] & chosen).bit_count() for p in order[i:]}
            top = max(count.values())

            def key(p):
                back = _brute_path_back(rows, chosen, p) if top else math.inf
                return (count[p], -back, rows[p].bit_count(), -p)

            assert order[i] == max(order[i:], key=key), (rows, seed, i)


def test_star_order_closes_each_cycle_before_the_next():
    # the centre is 0, the leaves 1-4, and each cycle's private vertices
    # come after the leaves; each leaf is followed by its own three
    star = _star_of_c5s(4)
    order = embed._plan(star, ()).order
    assert order == (0, 1, 5, 6, 7, 2, 8, 9, 10, 3, 11, 12, 13, 4, 14, 15, 16)
    for i in range(1, len(order), 4):
        leaf, *private = order[i : i + 4]
        assert 1 <= leaf <= 4 and min(private) >= 5
        cycle = 1 | sum(1 << v for v in order[i : i + 4])
        assert all((star.rows[v] & cycle).bit_count() == 2 for v in iter_bits(cycle))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ),
    st.randoms(use_true_random=False),
)
def test_plan_partitions_match_refinement_from_scratch(pattern_spec, rng):
    # a finer cell would drop orbit members and make refutation unsound
    n, bits = pattern_spec
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for pattern in (from_edges(n, [p for p, bit in zip(pairs, bits) if bit]), _random_balloon(rng)):
        core = [v for v in range(pattern.n) if pattern.rows[v]]
        plan = embed._Plan(pattern, tuple(rng.sample(core, rng.randint(0, min(2, len(core))))))
        for d in range(len(plan.order) + 1):
            fixed = plan.order[:d]
            by_degree: dict[int, int] = {}
            for v, row in enumerate(pattern.rows):
                if v not in fixed:
                    by_degree[row.bit_count()] = by_degree.get(row.bit_count(), 0) | 1 << v
            cells = [1 << v for v in fixed] + [mask for _, mask in sorted(by_degree.items())]
            assert set(plan.cells(d)) == set(_refine(pattern.rows, cells)), (pattern.rows, plan.order, d)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    ),
    st.randoms(use_true_random=False),
)
def test_stabiliser_orbit_seeds_are_edge_preserving(pattern_spec, rng):
    # _search does not re-check its seed: with order[:d] fixed, a vertex q
    # in p's refined cell must be adjacent to every fixed neighbour of p
    n, bits = pattern_spec
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pattern = from_edges(n, [p for p, bit in zip(pairs, bits) if bit])
    core = [v for v in range(n) if pattern.rows[v]]
    plan = embed._Plan(pattern, tuple(rng.sample(core, rng.randint(0, min(2, len(core))))))
    search = embed._search

    def checked(host, plan, img, used, start=None, refute=True):
        for i in range(start):
            w = img[plan.order[i]]
            assert all(host.has_edge(img[q], w) for q in plan.prev[i]), (pattern.rows, plan.order, start, img)
        return search(host, plan, img, used, start, refute)

    with mock.patch.object(embed, "_search", checked):
        for d in range(plan.start, len(plan.order)):
            embed._stabiliser_orbit(plan, d)


def test_host_degree_masks():
    rng = random.Random(7)
    for host in [empty_graph(0), empty_graph(3), _embedding_host(4, path_graph(3))] + [
        random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9)) for _ in range(30)
    ]:
        masks = embed._host_degree_masks(host)
        assert len(masks) == host.max_degree() + 1
        for d, mask in enumerate(masks):
            assert mask == sum(1 << v for v in range(host.n) if host.degree(v) >= d), (host.rows, d)


def test_twin_masks():
    host = _embedding_host(4, path_graph(2))
    twins = embed._host_twins(host)
    assert twins[0] == 0b11  # the planted edge makes 0 and 1 closed twins
    assert twins[2] == 0b1100  # unplanted X-side vertices are open twins
    assert twins[4] == 0b11110000  # the Y side is one open-twin class
    k4 = embed._host_twins(complete_graph(4))
    assert set(k4) == {0b1111}
    assert embed._host_twins(path_graph(4)) == (1, 2, 4, 8)


def test_star_of_c5s_negative_oracle_budget():
    tree, spec = parse_spec("tree: c-a c-b c-d c-e\ncycles: c-a:5 c-b:5 c-d:5 c-e:5")
    t_o = build_balloon(tree, spec)
    side = default_oracle_side(tree, spec)
    hosts = [_embedding_host(side, cand) for cand in small_edge_classes(5, 10)]
    negative = 0.0
    count = 0
    for host in hosts:
        t0 = time.perf_counter()
        found = contains_subgraph(host, t_o)
        if not found:
            negative += time.perf_counter() - t0
            count += 1
    assert count == 25
    assert negative < 1.0, f"25 negative star-of-four-C5s oracle queries took {negative:.3f}s"


def test_path_of_c7s_positive_oracle_budget():
    # every member host of the all-7 path spec contains T_o; the cycle-closing
    # order gives the first cycle's private vertices first pick of the low
    # host labels, which are the planted vertices, and 5K2 pays most for it
    # (0.4 ms with the spine placed first, about 0.1 s now, on a 2-core VM)
    tree, spec = parse_spec("tree: 0-1 1-2 2-3 3-4 4-5\ncycles: 0-1:7 1-2:7 2-3:7 3-4:7 4-5:7")
    t_o = build_balloon(tree, spec)
    side = default_oracle_side(tree, spec)
    hosts = [_embedding_host(side, cand) for cand in _forests(5, 2).values()]
    assert len(hosts) == 7
    t0 = time.perf_counter()
    assert all(contains_subgraph(host, t_o) for host in hosts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"7 positive path-of-C7s oracle queries took {elapsed:.3f}s"


def test_all_five_star_certificate_within_budget():
    # with every leaf placed before any cycle this took 23-29 s on a 2-core VM
    edges = [f"c-x{i}" for i in range(8)]
    tree, spec = parse_spec("tree: " + " ".join(edges) + "\ncycles: " + " ".join(f"{e}:5" for e in edges))
    t_o = build_balloon(tree, spec)
    host = extremal_candidate(t_o.n, tree, spec).graph
    assert host.n == 33
    t0 = time.perf_counter()
    assert not contains_subgraph(host, t_o)
    assert time.perf_counter() - t0 < 3.0
