"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's search strategies: matching by
exhaustive edge-subset enumeration, covers by subset sweep, containment by
trying every injective map, colorings by literal per-edge scans.
`max_b_free` searches labelled edge subsets, independent of the
isomorphism-class enumeration behind `ex_exact`.
"""
from __future__ import annotations

import heapq
import random
import re
from itertools import combinations, permutations

from oddballoon.balloon import bipartition, build_balloon
from oddballoon.canon import _forest_key, canonical_form, canonical_key, tree_code
from oddballoon.decomp import (
    GraphFamily,
    _independent_subsets,
    _is_covering,
    decomposition_family,
    peel_edges,
    split_vertices,
)
from oddballoon.embed import _planted_host, contains_subgraph
from oddballoon.generate import edge_growth_classes, graph_levels, small_edge_classes, trees_up_to
from oddballoon.graphs import (
    CapacityError,
    Graph,
    ParameterError,
    add_edges,
    add_vertex,
    bit_indices,
    complete_graph,
    connected_components,
    empty_graph,
    from_edges,
    induced,
    iter_bits,
    relabel,
    strip_isolated,
    union_all,
)
from oddballoon.matching import max_matching
from oddballoon.oracle import EdgeColoring


def brute_max_matching(g: Graph) -> int:
    """Enumerate all matchings recursively (fine for n <= 10)."""
    edges = g.edges()
    best = 0

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(edges) - i) <= best:
            return
        for j in range(i, len(edges)):
            u, v = edges[j]
            m = (1 << u) | (1 << v)
            if not used & m:
                rec(j + 1, used | m, count + 1)

    rec(0, 0, 0)
    return best


def brute_min_cover(g: Graph) -> int:
    edges = g.edges()
    if not edges:
        return 0
    for size in range(0, g.n + 1):
        for combo in combinations(range(g.n), size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return size
    raise AssertionError("unreachable")


def brute_tau(n: int, edges) -> int:
    """min over independent S of |S| + e(T - S), by trying every subset."""
    best = len(edges)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            s = set(combo)
            if any(u in s and v in s for u, v in edges):
                continue
            best = min(best, size + sum(1 for u, v in edges if u not in s and v not in s))
    return best


def brute_contains(host: Graph, pattern: Graph, anchor=None) -> bool:
    if pattern.n > host.n:
        return False
    core = [v for v in range(pattern.n) if pattern.rows[v]]
    if not core:
        return anchor is None
    pat_edges = [(u, v) for u, v in pattern.edges()]
    for image in permutations(range(host.n), len(core)):
        pos = dict(zip(core, image))
        if all(host.has_edge(pos[u], pos[v]) for u, v in pat_edges):
            if anchor is None:
                return True
            a = tuple(sorted(anchor))
            if any(tuple(sorted((pos[u], pos[v]))) == a for u, v in pat_edges):
                return True
    return False


def slow_f2(n: int, h: Graph) -> int:
    """Literal per-edge scan over all 2-colorings; keep n <= 5."""
    pairs = list(combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        red = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        best = max(best, slow_uncovered(EdgeColoring(n, red), h))
    return best


def slow_uncovered(coloring, h: Graph) -> int:
    """Per-edge anchored scan written against brute_contains."""
    count = 0
    for g in (coloring.red_graph(), coloring.blue_graph()):
        for e in g.edges():
            if not brute_contains(g, h, anchor=e):
                count += 1
    return count


def abbott_value(k: int) -> int:
    """f(k-1, k-1), the nu = delta = k-1 case of Chvatal-Hanson, in closed
    piecewise form."""
    if k < 1:
        raise ParameterError("abbott_value needs k >= 1")
    if k % 2 == 1:
        return k * k - k
    return k * k - 3 * k // 2


def petersen() -> Graph:
    return from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def brute_decomposition_family(tree, spec):
    """Splitting then peeling by the definition: every independent split
    set, every subset of the eligible leaf-edges, each peeled graph keyed.
    Traces name the split vertices and the peeled tree edges."""
    tg = tree.graph()
    fam = GraphFamily()
    for s_mask in _independent_subsets(tg):
        split_g, origin = split_vertices(tg, set(iter_bits(s_mask)))
        degs = split_g.degrees()
        eligible = [
            e
            for e in split_g.edges()
            if (degs[e[0]] == 1 or degs[e[1]] == 1) and spec.is_type_two(origin[(min(e), max(e))])
        ]
        names = ",".join(tree.names[v] for v in iter_bits(s_mask)) or "-"
        for r in range(len(eligible) + 1):
            for peel in combinations(eligible, r):
                result = peel_edges(split_g, list(peel), origin, spec)
                peeled = ";".join(tree.edge_name(origin[e]) for e in peel) or "-"
                fam.add(result, trace=f"split {{{names}}} peel {{{peeled}}}")
    return fam


def reference_b_family(tree, spec):
    """The covering family as first written: every vertex subset of size
    1..a-1 of every decomposition member is tried as a covering, after an
    all-members scan for the K_a fallback."""
    side_a, _ = bipartition(tree, spec)
    a = len(side_a)
    # every member has e(T) >= 1 edges, so for a = 1 none has a covering
    # below a: the family is not built and the fallback is taken
    fam = decomposition_family(tree, spec) if a > 1 else GraphFamily()
    if all(max_matching(m) >= a for m in fam):  # members are forests, so nu = tau (Konig)
        out = GraphFamily()
        # keep K_a whole: for a = 1 it is a single vertex, not the empty graph
        out.add(complete_graph(a), trace="fallback: no covering below a", strip=False)
        return out
    out = GraphFamily()
    for m in fam:
        full = m.vertices_mask()
        for size in range(1, a):
            for verts in combinations(range(m.n), size):
                s_mask = 0
                for v in verts:
                    s_mask |= 1 << v
                if not _is_covering(m, s_mask, full):
                    continue
                sub = induced(m, s_mask)
                # an independent covering below a gives an edgeless member;
                # its vertices, made universal, put T_o in the base
                # construction, so tau(T) < a and `analyze` refuses the
                # spec.  Keep its vertex count so containment stays faithful
                out.add(sub, trace=f"M[S] with |S|={size}", strip=sub.edge_count() > 0)
    return out


def replay_trace(tree, spec, trace: str) -> Graph:
    """Re-derive a decomposition member from its trace `split {S} peel {E}`,
    which names split vertices and peeled edges of the tree.  The tree is
    split at S, and each named tree edge is peeled as the split-forest edge
    it became, found through the inverse of `split_vertices`' origin map.
    Fails on any name that is not a tree vertex or a tree edge."""
    names, peeled = re.fullmatch(r"split \{(.*)\} peel \{(.*)\}", trace).groups()
    index = {name: v for v, name in enumerate(tree.names)}
    split_set = {index[x] for x in names.split(",")} if names != "-" else set()
    split_g, origin = split_vertices(tree.graph(), split_set)
    copy_of = {src: e for e, src in origin.items()}
    peel = []
    for x in peeled.split(";") if peeled != "-" else []:
        a, b = (index[y] for y in x.split("-"))
        edge = (min(a, b), max(a, b))
        assert edge in tree.edges and tree.edge_name(edge) == x, f"{x} is not a tree edge"
        peel.append(copy_of[edge])
    return strip_isolated(peel_edges(split_g, peel, origin, spec))


def reference_decomposition_oracle(tree, spec, side=None):
    """The definition-based oracle as a plain sweep: every class with at
    most e(T)+1 edges is planted and queried, then the satisfying classes
    are pruned to their minimal members.  The default side is
    |T_o| + 2e(T) + 2, the bound that needs no independence argument: a
    class with at most e(T)+1 edges and no isolated vertex has at most
    2e(T) + 2 vertices, so |T_o| spare vertices stay on each side."""
    t_o = build_balloon(tree, spec)
    e_t = len(tree.edges)
    if side is None:
        side = t_o.n + 2 * e_t + 2
    fam = GraphFamily()
    for cand in small_edge_classes(e_t + 1, 2 * e_t + 2):
        if contains_subgraph(_planted_host(side, cand), t_o):
            fam.add(cand, trace="oracle")
    return fam.prune_non_minimal()


def reference_forest_form(g: Graph) -> Graph:
    """Canonical form of a forest by the textbook route, independent of
    `canon`'s codes: each component is rooted at a center of least
    eccentricity whose rooted (AHU) code is least, walked in preorder with
    children in code order, and components go by (order, code)."""
    def rooted(v: int, parent: int) -> str:
        return "(" + "".join(sorted(rooted(u, v) for u in bit_indices(g.rows[v]) if u != parent)) + ")"

    def eccentricity(v: int) -> int:
        depth, seen, frontier = 0, 1 << v, 1 << v
        while True:
            nxt = 0
            for u in bit_indices(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~seen
            if not frontier:
                return depth
            seen |= frontier
            depth += 1

    def walk(v: int, parent: int, out: list[int]) -> list[int]:
        out.append(v)
        for u in sorted((u for u in bit_indices(g.rows[v]) if u != parent), key=lambda u: rooted(u, v)):
            walk(u, v, out)
        return out

    pieces = []
    for comp in connected_components(g):
        verts = bit_indices(comp)
        radius = min(map(eccentricity, verts))
        code, root = min((rooted(c, -1), c) for c in verts if eccentricity(c) == radius)
        pieces.append((len(verts), code, walk(root, -1, [])))
    return relabel(g, [v for *_, order in sorted(pieces) for v in order])


def reference_ex_exact(n: int, family) -> tuple[int, Graph]:
    """ex(n, family) and its witness from every class on n vertices: the
    largest edge count over the last level of graph_levels, and the
    canonical form of the extremal class with the least canonical key."""
    last = graph_levels(n, tuple(family))[-1]
    best = max(g.edge_count() for g in last)
    return best, canonical_form(min((g for g in last if g.edge_count() == best), key=canonical_key))


def max_b_free(m: int, family: GraphFamily | list[Graph]) -> tuple[Graph, int]:
    """A family-free graph on m vertices with the maximum number of edges,
    by branch-and-bound over labelled edge subsets (independent of the
    isomorphism-class oracle).  Returns (witness, value)."""
    if m < 0:
        raise ParameterError("max_b_free needs m >= 0")
    if m > 7:
        raise CapacityError("max_b_free enumerates only for m <= 7")
    members = list(family)
    blockers = [g for g in members if g.edge_count() == 0 and g.n <= m]
    if blockers:
        raise ParameterError(
            f"family member on {blockers[0].n} vertices with no edges forbids "
            f"every graph on {m} vertices"
        )
    members = [g for g in members if g.n <= m]
    pairs = list(combinations(range(m), 2))
    best: list[tuple[int, bytes | None, Graph]] = [(-1, None, empty_graph(m))]

    def consider(g: Graph, edges: int) -> None:
        value, key, _ = best[0]
        if edges < value:
            return
        gkey = canonical_key(g)
        if edges > value or (key is not None and gkey < key):
            best[0] = (edges, gkey, g)

    def grow(i: int, g: Graph, edges: int) -> None:
        if edges + (len(pairs) - i) < best[0][0]:
            return
        if i == len(pairs):
            consider(g, edges)
            return
        u, v = pairs[i]
        g2 = add_edges(g, [(u, v)])
        if not any(
            p.edge_count() <= edges + 1 and contains_subgraph(g2, p, anchor=(u, v))
            for p in members
        ):
            grow(i + 1, g2, edges + 1)
        grow(i + 1, g, edges)

    grow(0, empty_graph(m), 0)
    value, _, witness = best[0]
    return witness, value


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labelled tree via a Prufer sequence."""
    if n <= 1:
        return empty_graph(max(n, 0))
    if n == 2:
        return from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return from_edges(n, edges)


def reference_trees_up_to(max_n: int) -> tuple[tuple[Graph, ...], ...]:
    """The free trees on 0..max_n vertices by edge growth from K_2, keeping
    the candidates with e = n - 1: from a tree only the pendant move keeps
    that, so these are exactly the trees, in the order `trees_up_to` must
    keep."""
    levels: list[list[Graph]] = [[] for _ in range(max(max_n, 1) + 1)]
    levels[1].append(empty_graph(1))
    if max_n >= 2:
        for t in edge_growth_classes(lambda g: g.edge_count() == g.n - 1, max_n - 1):
            levels[t.n].append(t)
    return tuple(tuple(level) for level in levels[: max_n + 1])


def reference_pendant_trees(max_n: int) -> tuple[tuple[Graph, ...], ...]:
    """`trees_up_to` as first written: every tree of a level grows a
    pendant at every vertex, twin leaves included, and the first tree of
    each code is kept."""
    levels: list[list[Graph]] = [[], [empty_graph(1)]]
    for n in range(2, max_n + 1):
        seen: set[bytes] = set()
        level = []
        for t in levels[-1]:
            for u in range(t.n):
                cand = add_vertex(t, 1 << u)
                code = tree_code(cand.rows, (1 << n) - 1)
                if code not in seen:
                    seen.add(code)
                    level.append(cand)
        levels.append(level)
    return tuple(tuple(level) for level in levels[: max_n + 1])


def reference_forests(edges: int, max_degree: int) -> dict[bytes, Graph]:
    """`decomp._forests` as first written: each multiset of pool trees, most
    edges first, is joined by chained disjoint unions."""
    pool = [
        (t, tree_code(t.rows, t.vertices_mask()))
        for level in trees_up_to(edges + 1)[2:]
        for t in level
        if t.max_degree() <= max_degree
    ]
    pool.reverse()
    out: dict[bytes, Graph] = {}

    def extend(start: int, left: int, parts: list[tuple[Graph, bytes]]) -> None:
        if not left:
            out[_forest_key(code for _, code in parts)] = union_all(t for t, _ in parts)
            return
        for i in range(start, len(pool)):
            if pool[i][0].edge_count() <= left:
                extend(i, left - pool[i][0].edge_count(), parts + [pool[i]])

    extend(0, edges, [])
    return out


def acyclic(g: Graph) -> bool:
    """No cycle: stripping vertices of degree <= 1 empties the graph."""
    alive = (1 << g.n) - 1
    while alive:
        low = [v for v in range(g.n) if alive >> v & 1 and (g.rows[v] & alive).bit_count() <= 1]
        if not low:
            return False
        for v in low:
            alive &= ~(1 << v)
    return True
