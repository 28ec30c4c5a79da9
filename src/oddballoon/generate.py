"""Isomorphism-deduplicated exhaustive generation and random samplers.

Two growth routines, each keying its candidates with `canon`:

- `_vertex_growth` adds one vertex at a time, one candidate per orbit of
  the parent's automorphisms, under edge floors and a forbidden family.
  Callers: `graph_levels` and `oracle.ex_exact`.
- `edge_growth_classes` adds one edge at a time from K_2 and keeps the
  candidates that pass one isomorphism-invariant filter.  Callers:
  `small_edge_classes` (every class up to a size, for tests; its cache
  stays because the bench self-test pins it),
  `oracle._connected_bounded_classes` and `oracle.star_matching_max`.

`trees_up_to` grows free trees by pendant vertices alone and dedupes them
by `tree_code`; audits, the forests of `decomp.decomposition_oracle`,
tests and bench cases read it.
"""
from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Sequence

from .canon import (
    CANON_VERTEX_CAP,
    Perm,
    canonical_key,
    canonical_key_and_generators,
    canonical_key_any,
    tree_code,
)
from .embed import creates_copy_with_vertex
from .graphs import (
    CapacityError,
    Graph,
    _fast_graph,
    add_vertex,
    empty_graph,
    from_edges,
)

Filter = Callable[[Graph], bool]
Level = dict[bytes, tuple[Graph, tuple[Perm, ...]]]  # key -> (class, generators)
Outcome = tuple[bytes, Graph, tuple[Perm, ...]] | None  # (key, candidate, generators)
Memo = dict[Graph, tuple[Sequence[int], dict[int, Outcome]]]  # parent -> (orbit reps, outcomes)


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
    levels, _ = _vertex_growth(max_n, forbidden, [0] * (max_n + 1), {})
    return [[g for g, _ in level.values()] for level in levels]


def _vertex_growth(
    max_n: int, members: Sequence[Graph], floor: Sequence[int], memo: Memo
) -> tuple[list[Level], int]:
    """levels[v] maps the canonical key of each member-free class on v
    vertices with at least floor[v] edges to a representative and its
    automorphism generators; also returns the number of candidates built.

    memo keeps the work of earlier runs with the same members: for each
    parent graph, its subset orbit representatives and the outcome of each
    candidate built from it (None if it contains a member, else its key,
    the candidate and the candidate's generators).  An outcome depends only
    on the parent's labelled graph, the subset and the members, so a run
    that meets the same parent reuses it, and only candidates missing from
    memo are built and counted.  Pass a fresh dict for a new family.

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
    no class is lost.  A free candidate past 16 vertices meets the cap of
    `canonical_key_and_generators`, which raises CapacityError.
    """
    empty = empty_graph(0)
    levels: list[Level] = [{canonical_key(empty): (empty, ())}]
    nodes = 0
    for v in range(max_n):
        level: Level = {}
        for parent, gens in levels[v].values():
            need = floor[v + 1] - parent.edge_count()
            degrees = parent.degrees()
            low = min(degrees, default=v)
            # old vertices of degree `low` must join S when |S| = low + 1
            lowest = sum(1 << u for u, d in enumerate(degrees) if d == low)
            entry = memo.get(parent)
            if entry is None:
                entry = memo[parent] = (_subset_orbit_reps(v, gens), {})
            reps, outcomes = entry
            for subset in reps:
                size = subset.bit_count()
                if size < need or size > low + 1 or (size > low and lowest & ~subset):
                    continue
                if subset in outcomes:
                    outcome = outcomes[subset]
                else:
                    cand = add_vertex(parent, subset)
                    nodes += 1
                    outcome = None
                    if not any(creates_copy_with_vertex(cand, m, v) for m in members):
                        key, cand_gens = canonical_key_and_generators(cand)
                        outcome = (key, cand, cand_gens)
                    outcomes[subset] = outcome
                if outcome is not None and outcome[0] not in level:
                    level[outcome[0]] = outcome[1:]
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


def edge_growth_classes(keep: Filter, max_edges: int | None = None) -> list[Graph]:
    """All iso-classes of graphs with no isolated vertices and at most
    max_edges edges (no bound if None) that grow from K_2 by adding an
    internal edge, a pendant vertex or a disjoint edge, through classes
    that keep accepts; in order of edge count, then of discovery.  Without
    a max_edges bound, keep alone must make a level empty.

    keep runs on every candidate before it is keyed, so it must be an
    isomorphism invariant.  Complete for any keep that survives the
    deletion below: a graph with no isolated vertices other than K_2 has an
    edge on a cycle, a leaf whose deletion leaves no isolated vertex, or a
    K_2 component, and deleting the edge, the leaf or, failing both, the
    component reverses one of the moves.  Monotone conditions (degree and
    matching bounds, freeness, vertex caps) survive it, and so does
    connectivity: a connected graph other than K_2 has no K_2 component.
    """
    k2 = from_edges(2, [(0, 1)])
    if not keep(k2):
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
            candidates.append(add_vertex(add_vertex(g, 0), 1 << g.n))
            for cand in candidates:
                if not keep(cand):
                    continue
                key = canonical_key_any(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        classes.extend(nxt)
        level = nxt
        m += 1
    return classes


@lru_cache(maxsize=32)
def small_edge_classes(max_edges: int, max_nonisolated: int) -> tuple[Graph, ...]:
    """Cached: every iso-class with 1..max_edges edges, no isolated vertices,
    at most max_nonisolated vertices."""
    return tuple(edge_growth_classes(lambda g: g.n <= max_nonisolated, max_edges=max_edges))


@lru_cache(maxsize=8)
def trees_up_to(max_n: int) -> tuple[tuple[Graph, ...], ...]:
    """trees[n] = all free trees on n vertices up to isomorphism (n <= 16).

    Each level grows the one before by a pendant vertex at every vertex of
    every tree, in that order, and keeps the first tree of each `tree_code`:
    every tree on n >= 2 vertices loses a leaf to a tree on n - 1."""
    if max_n > CANON_VERTEX_CAP:
        raise CapacityError(f"trees_up_to supports n <= {CANON_VERTEX_CAP}")
    levels: list[list[Graph]] = [[], [empty_graph(1)]]
    for n in range(2, max_n + 1):
        full = (1 << n) - 1
        seen: set[bytes] = set()
        level = []
        for t in levels[-1]:
            for u in range(t.n):
                cand = add_vertex(t, 1 << u)
                code = tree_code(cand.rows, full)
                if code not in seen:
                    seen.add(code)
                    level.append(cand)
        levels.append(level)
    return tuple(tuple(level) for level in levels[: max_n + 1])


# -- random samplers (explicit rng for reproducible audits) --------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_bipartite_graph(rng: random.Random, nx: int, ny: int, p: float) -> Graph:
    edges = [(u, nx + v) for u in range(nx) for v in range(ny) if rng.random() < p]
    return from_edges(nx + ny, edges)
