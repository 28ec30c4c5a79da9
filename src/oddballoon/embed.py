"""Subgraph containment (not induced) by backtracking over bit rows.

Pattern vertices are placed in a connectivity-greedy order.  A search
node's candidates are the unused host vertices adjacent to the images of
the pattern vertex's earlier neighbours, of large enough degree, and not
excluded by an earlier refutation (below); all of it is bitmask algebra.

Two symmetries cut the search, and both rest on one invariant: when a
subtree fails, no embedding at all extends its partial assignment.

- **Host twins.**  Vertices with equal open or equal closed
  neighbourhoods are interchangeable: swapping two of them is a host
  automorphism, and it fixes every used vertex when both are unused.  So
  once a candidate w has been tried, its whole twin class leaves the
  node's candidate mask, and a node steps through twin classes, not
  vertices.  This keeps queries against join/Turan-shaped hosts flat.
- **Orbit refutation.**  Say the subtree p -> w at depth d fails, and an
  automorphism s of the pattern fixes order[:d] pointwise.  An embedding
  f of the same prefix with f(s(p)) a twin w' of w would give the
  embedding t.f.s, with t the transposition (w w'), which maps p to w and
  still extends the prefix - a contradiction.  So for every q in the orbit
  of p under the pointwise stabiliser of order[:d], twins[w] is excluded
  for q in the later sibling branches and their subtrees, and restored on
  return.  An exclusion only removes options no embedding uses, so it
  keeps the invariant, and refutations at different depths and the twin
  skipping compose freely.

Orbits are exact: the pattern is searched into itself with the prefix
fixed (an injective edge-preserving self-map of a finite graph is an
automorphism).  Equitable refinement only prefilters the candidate
images, since its cells over-approximate orbits.  A depth's orbit is
computed on its first refutation, so queries that succeed fast pay
almost nothing for it.  The same orbits give `creates_copy_with_vertex`
one seed vertex, and anchored `contains_subgraph` one seed edge end, per
Aut(P) orbit.

Label-order symmetry breaking (Grochow & Kellis: require f(p) < f(q) for
p, q in one orbit) is not used.  It prunes maps that are not the least of
their orbit, while twin skipping keeps only the least twin; the two
choices of representative disagree, and together they can discard every
embedding.  Nogoods do not choose a representative, so they compose.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .canon import _refine, _twin_masks
from .graphs import Graph, ParameterError, iter_bits


@lru_cache(maxsize=1024)
def _host_degrees(host: Graph) -> tuple[int, ...]:
    return tuple(row.bit_count() for row in host.rows)


@lru_cache(maxsize=1024)
def _host_twins(host: Graph) -> tuple[int, ...]:
    """For each host vertex, the mask of its twin class (itself included)."""
    return _twin_masks(host.rows)


@lru_cache(maxsize=1024)
def _host_degree_masks(host: Graph) -> tuple[int, ...]:
    """masks[d] = the host vertices of degree >= d, for d = 0..max degree."""
    degs = _host_degrees(host)
    masks = [0] * (max(degs, default=0) + 1)
    for v, dv in enumerate(degs):
        masks[dv] |= 1 << v
    for d in range(len(masks) - 2, -1, -1):
        masks[d] |= masks[d + 1]
    return tuple(masks)


def _pattern_order(pattern: Graph, core: list[int], seed: Sequence[int]) -> list[int]:
    """Connectivity-greedy order over core vertices, starting from the
    pre-assigned seed vertices (possibly none).  Each step depends only on
    the vertices already chosen, so the order continues any of its own
    prefixes that hold the seed."""
    rows = pattern.rows
    chosen = list(seed)
    chosen_mask = 0
    for q in chosen:
        chosen_mask |= 1 << q
    remaining = [v for v in core if not chosen_mask >> v & 1]
    while remaining:
        best = max(remaining, key=lambda p: ((rows[p] & chosen_mask).bit_count(), rows[p].bit_count(), -p))
        chosen.append(best)
        chosen_mask |= 1 << best
        remaining.remove(best)
    return chosen


class _Plan:
    """How to search one pattern from one seed: the order (seed first), the
    earlier neighbours of each position, the host degree each position
    needs (0 where its earlier neighbours already force it), and, filled in
    on first use, the orbit of each position under the pointwise stabiliser
    of the positions before it (a mask without the vertex itself)."""

    __slots__ = ("pattern", "order", "start", "prev", "degs", "orbits")

    def __init__(self, pattern: Graph, seed: tuple[int, ...]):
        core = [v for v in range(pattern.n) if pattern.rows[v]]
        order = _pattern_order(pattern, core, seed)
        rows = pattern.rows
        self.pattern = pattern
        self.order = tuple(order)
        self.start = len(seed)
        self.prev = tuple(tuple(q for q in order[:i] if rows[p] >> q & 1) for i, p in enumerate(order))
        self.degs = tuple(
            d if d > len(before) else 0 for d, before in zip((rows[p].bit_count() for p in order), self.prev)
        )
        self.orbits: list[int | None] = [None] * len(order)

    def orbit(self, d: int) -> int:
        orb = self.orbits[d]
        if orb is None:
            orb = self.orbits[d] = _stabiliser_orbit(self, d)
        return orb


@lru_cache(maxsize=4096)
def _plan(pattern: Graph, seed: tuple[int, ...]) -> _Plan:
    return _Plan(pattern, seed)


def _stabiliser_orbit(plan: _Plan, d: int) -> int:
    """Mask of the vertices q != p = plan.order[d] that some automorphism
    fixing plan.order[:d] pointwise sends p to.

    The search is exact in any order; it runs on from position d + 1 of
    the plan itself.  For d >= plan.start, where `_search` asks, that is the
    order a plan seeded with order[:d + 1] would take: the prefix holds the
    seed, and the greedy order continues its own prefixes."""
    pattern = plan.pattern
    fixed, p = plan.order[:d], plan.order[d]
    rows = pattern.rows
    by_degree: dict[int, int] = {}
    fixed_mask = 0
    for v in fixed:
        fixed_mask |= 1 << v
    for v, row in enumerate(rows):
        if not fixed_mask >> v & 1:
            deg = row.bit_count()
            by_degree[deg] = by_degree.get(deg, 0) | 1 << v
    cells = [1 << v for v in fixed] + [mask for _, mask in sorted(by_degree.items())]
    cell = next(c for c in _refine(rows, cells) if c >> p & 1)
    img = [0] * pattern.n
    for v in fixed:
        img[v] = v
    orb = 0
    for q in iter_bits(cell & ~(1 << p)):
        img[p] = q
        # a plain search: refuting here would need the orbits of longer
        # prefixes in turn
        if _search(pattern, plan, img, fixed_mask | 1 << q, d + 1, refute=False):
            orb |= 1 << q
    return orb


@lru_cache(maxsize=1024)
def _seed_reps(pattern: Graph) -> tuple[int, ...]:
    """The least core vertex of each orbit of Aut(pattern) on its core."""
    reps = []
    covered = 0
    for p in range(pattern.n):
        if pattern.rows[p] and not covered >> p & 1:
            reps.append(p)
            covered |= _stabiliser_orbit(_plan(pattern, (p,)), 0)
    return tuple(reps)


def _search(
    host: Graph, plan: _Plan, img: list[int], used: int, start: int | None = None, refute: bool = True
) -> bool:
    """Extend the seeded images img[order[:start]] (their host vertices are
    `used`; start defaults to plan.start) to an embedding; True iff one
    exists.

    The caller guarantees that the seeded images already map each pattern
    edge inside order[:start] to a host edge; they are not re-checked.
    Anchored `contains_subgraph` seeds an edge onto a checked host edge,
    `_embeds_at` seeds one vertex, and `_stabiliser_orbit` maps order[:d]
    to itself and p to a q in p's cell of a refinement that splits by every
    fixed singleton, so q has exactly p's fixed neighbours."""
    order = plan.order
    prev = plan.prev
    host_rows = host.rows
    if start is None:
        start = plan.start
    last = len(order) - 1
    if start > last:
        return True
    masks = _host_degree_masks(host)
    degmask = [0] * start + [masks[d] if d < len(masks) else 0 for d in plan.degs[start:]]
    excl = [0] * plan.pattern.n
    orbits = plan.orbits
    twins: tuple[int, ...] = ()  # fetched on the first failure

    def rec(pos: int, used: int) -> bool:
        nonlocal twins
        p = order[pos]
        m = degmask[pos] & ~used & ~excl[p]
        for q in prev[pos]:
            m &= host_rows[img[q]]
        if pos == last:
            return m != 0
        saved = None
        while m:
            b = m & -m
            w = b.bit_length() - 1
            img[p] = w
            if rec(pos + 1, used | b):
                return True
            if not twins:
                twins = _host_twins(host)
            tw = twins[w]
            m &= ~tw
            if refute and m:
                orb = orbits[pos]
                if orb is None:
                    orb = plan.orbit(pos)
                if orb:
                    if saved is None:
                        saved = [(q, excl[q]) for q in iter_bits(orb)]
                    for q in iter_bits(orb):
                        excl[q] |= tw
        if saved is not None:
            for q, e in saved:
                excl[q] = e
        return False

    return rec(start, used)


def contains_subgraph(
    host: Graph,
    pattern: Graph,
    anchor: tuple[int, int] | None = None,
) -> bool:
    """True iff an injective map sends pattern edges to host edges.

    With anchor=(u, v) - a host edge - some pattern edge must map onto it
    (in either orientation).  Only p -> u, q -> v is tried, for p an orbit
    representative of Aut(pattern) and q a neighbour of p: a copy mapping
    p'q' onto the anchor with p' -> u turns, through an automorphism s with
    s(p) = p', into one mapping p to u and the neighbour s^-1(q') of p to v.
    """
    if anchor is not None:
        u, v = anchor
        if not (0 <= u < host.n and 0 <= v < host.n):
            raise ParameterError(f"anchor ({u},{v}) is not a pair of host vertices")
        if not host.has_edge(u, v):
            raise ParameterError(f"anchor ({u},{v}) is not a host edge")
    if pattern.n > host.n or pattern.edge_count() > host.edge_count():
        return False
    img = [0] * pattern.n
    if anchor is None:
        if not any(pattern.rows):
            return True  # only isolated vertices; size check above suffices
        return _search(host, _plan(pattern, ()), img, 0)

    du, dv = host.degree(u), host.degree(v)
    for p in _seed_reps(pattern):
        if pattern.degree(p) > du:
            continue
        for q in iter_bits(pattern.rows[p]):
            if pattern.degree(q) > dv:
                continue
            img[p], img[q] = u, v
            if _search(host, _plan(pattern, (p, q)), img, (1 << u) | (1 << v)):
                return True
    return False


def _embeds_at(host: Graph, pattern: Graph, hv: int) -> bool:
    """True iff pattern embeds with hv in the image of its non-isolated part.

    Used for incremental freeness checks: when the host grew by one vertex,
    only copies through it are new.  One core vertex per Aut(pattern) orbit
    is tried at hv: an automorphism carries an embedding seeded at one
    vertex to one seeded at any other vertex of its orbit.
    """
    hd = host.degree(hv)
    img = [0] * pattern.n
    for p in _seed_reps(pattern):
        if pattern.degree(p) > hd:
            continue
        img[p] = hv
        if _search(host, _plan(pattern, (p,)), img, 1 << hv):
            return True
    return False


def creates_copy_with_vertex(cand: Graph, pattern: Graph, z: int) -> bool:
    """Freeness test for a host grown by vertex z from a pattern-free parent.

    A new copy either routes a core vertex through z, or - when the pattern
    carries isolated vertices - appears because the host just reached the
    pattern's vertex count and z absorbs an isolated pattern vertex.
    """
    if pattern.n > cand.n or pattern.edge_count() > cand.edge_count():
        return False
    if _embeds_at(cand, pattern, z):
        return True
    return cand.n == pattern.n and _search(cand, _plan(pattern, ()), [0] * pattern.n, 0)
