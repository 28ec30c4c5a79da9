"""Isomorphism-deduplicated exhaustive generation and random samplers."""
from __future__ import annotations

import heapq
import random
from functools import lru_cache
from typing import Callable, Sequence

from .canon import (
    Perm,
    canonical_key,
    canonical_key_and_generators,
    canonical_key_any,
    component_key,
)
from .embed import creates_copy_with_vertex
from .graphs import (
    CapacityError,
    Graph,
    _append_vertex,
    _fast_graph,
    add_vertex,
    empty_graph,
    from_edges,
    vertex_cap,
)

Predicate = Callable[[Graph], bool]
Level = dict[bytes, tuple[Graph, tuple[Perm, ...]]]  # key -> (class, generators)


def graph_levels(
    max_n: int,
    forbidden: tuple[Graph, ...] = (),
) -> list[list[Graph]]:
    """All graphs up to isomorphism on 0..max_n vertices avoiding the
    forbidden family, grown one vertex at a time with pruning at every step.

    levels[v] holds the v-vertex classes; freeness is hereditary, so pruning
    a candidate prunes all its extensions.
    """
    if any(m.n == 0 for m in forbidden):
        raise ValueError("a forbidden member with no vertices excludes every graph")
    levels, _ = _vertex_growth(max_n, forbidden, [0] * (max_n + 1))
    return [[g for g, _ in level.values()] for level in levels]


def _vertex_growth(
    max_n: int, members: Sequence[Graph], floor: Sequence[int]
) -> tuple[list[Level], int]:
    """levels[v] maps the canonical key of each member-free class on v
    vertices with at least floor[v] edges to a representative and its
    automorphism generators; also returns the number of candidates built.

    A parent P gets one candidate add_vertex(P, S) per orbit of the group
    that P's automorphism generators span on the subsets S of its vertices,
    and only if e(P) + |S| >= floor[v + 1] and the new vertex has minimum
    degree in the candidate.  Complete when floor[v - 1] <= floor[v] -
    floor(2 floor[v] / v) for every v: deleting a vertex of minimum degree
    from a free class with e >= floor[v] edges leaves a free class with at
    least e - floor(2e / v) >= floor[v - 1] edges (nondecreasing in e), so
    it is some grown parent P, and the orbit representative of the deleted
    vertex's neighbour set rebuilds the class with a new vertex of minimum
    degree.  Freeness and the canonical key are isomorphism invariants, so
    no class is lost.
    """
    cap = vertex_cap()
    empty = empty_graph(0)
    levels: list[Level] = [{canonical_key(empty): (empty, ())}]
    nodes = 0
    for v in range(max_n):
        if levels[v] and v + 1 > cap:
            raise CapacityError(f"{v + 1} vertices exceeds cap {cap}")
        level: Level = {}
        for parent, gens in levels[v].values():
            need = floor[v + 1] - parent.edge_count()
            degrees = parent.degrees()
            low = min(degrees, default=v)
            # old vertices of degree `low` must join S when |S| = low + 1
            lowest = sum(1 << u for u, d in enumerate(degrees) if d == low)
            for subset in _subset_orbit_reps(v, gens):
                size = subset.bit_count()
                if size < need or size > low + 1 or (size > low and lowest & ~subset):
                    continue
                cand = _append_vertex(parent, subset)
                nodes += 1
                if any(creates_copy_with_vertex(cand, m, v) for m in members):
                    continue
                key, cand_gens = canonical_key_and_generators(cand)
                if key not in level:
                    level[key] = (cand, cand_gens)
        levels.append(level)
    return levels, nodes


def _subset_orbit_reps(n: int, gens: tuple[Perm, ...]) -> list[int] | range:
    """The least subset of range(n), as a mask, in each orbit of <gens>."""
    if not gens:
        return range(1 << n)
    images = []
    for perm in gens:
        img = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            img[s] = img[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(1 << n)
    reps = []
    for s in range(1 << n):
        if seen[s]:
            continue
        reps.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for img in images:
                u = img[t]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return reps


def _edge_growth(
    predicate: Predicate | None,
    max_edges: int | None,
    max_nonisolated: int | None,
    cheap_filter: Predicate | None,
    connected_only: bool,
) -> list[Graph]:
    key_fn = canonical_key_any if connected_only else component_key
    k2 = from_edges(2, [(0, 1)])
    if cheap_filter is not None and not cheap_filter(k2):
        return []
    if predicate is not None and not predicate(k2):
        return []
    classes: list[Graph] = [k2]
    level = [k2]
    m = 1
    while level and (max_edges is None or m < max_edges):
        seen: set[bytes] = set()
        nxt: list[Graph] = []
        for g in level:
            candidates: list[Graph] = []
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        rows = list(g.rows)
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        candidates.append(_fast_graph(g.n, tuple(rows)))
                candidates.append(add_vertex(g, 1 << u))
            if not connected_only:
                two = add_vertex(g, 0)
                candidates.append(add_vertex(two, 1 << g.n))
            for cand in candidates:
                if max_nonisolated is not None and cand.n > max_nonisolated:
                    continue
                if cheap_filter is not None and not cheap_filter(cand):
                    continue
                key = key_fn(cand)
                if key in seen:
                    continue
                seen.add(key)  # a failing class stays skipped: it would fail again
                if predicate is not None and not predicate(cand):
                    continue
                nxt.append(cand)
        classes.extend(nxt)
        level = nxt
        m += 1
    return classes


def edge_growth_classes(
    predicate: Predicate | None = None,
    max_edges: int | None = None,
    max_nonisolated: int | None = None,
    cheap_filter: Predicate | None = None,
) -> list[Graph]:
    """All iso-classes of graphs with no isolated vertices reachable by
    repeated edge addition (internal edge, pendant vertex, or fresh disjoint
    edge) while the hereditary predicate holds.  Terminates when a level is
    empty; cap with max_edges if the predicate alone does not bound growth.

    cheap_filter runs per candidate before deduplication (use it for bit-ops
    checks like degree caps); predicate runs once per class.
    """
    return _edge_growth(predicate, max_edges, max_nonisolated, cheap_filter, False)


def connected_edge_growth_classes(
    predicate: Predicate | None = None,
    max_edges: int | None = None,
    cheap_filter: Predicate | None = None,
) -> list[Graph]:
    """All CONNECTED iso-classes reachable while the hereditary predicate
    holds, growing by an internal edge or a pendant vertex.

    Complete: a connected graph either has a cycle edge whose removal keeps
    it connected, or is a tree and loses a leaf with its edge; both reversals
    are the moves above and heredity carries the predicates down.
    """
    return _edge_growth(predicate, max_edges, None, cheap_filter, True)


@lru_cache(maxsize=32)
def small_edge_classes(max_edges: int, max_nonisolated: int) -> tuple[Graph, ...]:
    """Cached: every iso-class with 1..max_edges edges, no isolated vertices,
    at most max_nonisolated vertices."""
    return tuple(edge_growth_classes(None, max_edges, max_nonisolated))


@lru_cache(maxsize=8)
def trees_up_to(max_n: int) -> tuple[tuple[Graph, ...], ...]:
    """trees[n] = all free trees on n vertices up to isomorphism."""
    levels: list[tuple[Graph, ...]] = [(), (empty_graph(1),)]
    for n in range(2, max_n + 1):
        seen: set[bytes] = set()
        out = []
        for t in levels[n - 1]:
            for v in range(t.n):
                cand = add_vertex(t, 1 << v)
                key = canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
        levels.append(tuple(out))
    return tuple(levels[: max_n + 1])


# -- random samplers (explicit rng for reproducible audits) --------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_bipartite_graph(rng: random.Random, nx: int, ny: int, p: float) -> Graph:
    edges = [(u, nx + v) for u in range(nx) for v in range(ny) if rng.random() < p]
    return from_edges(nx + ny, edges)


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

