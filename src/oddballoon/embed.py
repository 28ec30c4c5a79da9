"""Subgraph containment (not induced) by backtracking over bit rows.

Pattern vertices are placed in a connectivity-greedy order: next comes
the vertex with the most placed neighbours, then the one with the
shortest path back to the placed set through unplaced vertices, then the
one of highest degree, then the least label.  The second rule closes each
cycle before the next one is opened, so a cycle that cannot close is
refuted once, not once per placement of unrelated vertices.  A search
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
automorphism).  Only the unfixed vertices with p's degree and p's fixed
neighbours are tried as images of p, since every automorphism fixing the
prefix keeps both.  A depth's orbit is computed on its first refutation,
so queries that succeed fast pay almost nothing for it.  The same orbits
give `creates_copy_with_vertex` one seed vertex, and anchored
`contains_subgraph` one seed edge end, per Aut(P) orbit.

A search reads three facts of its host besides the rows: the edge count,
the degree masks and the twin masks.  Hosts in general are scanned for
them, and the scans are cached per host.  `planted_host_contains`, the
decomposition oracle's entry, reads them off the planted graph instead,
as its hosts are K_{s,s} with a small graph planted in one side, each
queried once.

Label-order symmetry breaking (Grochow & Kellis: require f(p) < f(q) for
p, q in one orbit) is not used.  It prunes maps that are not the least of
their orbit, while twin skipping keeps only the least twin; the two
choices of representative disagree, and together they can discard every
embedding.  Nogoods do not choose a representative, so they compose.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .canon import _twin_masks
from .graphs import VERTEX_CAP, CapacityError, Graph, ParameterError, _fast_graph, iter_bits


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
    return _degree_masks(_host_degrees(host))


def _degree_masks(degs: Sequence[int]) -> tuple[int, ...]:
    """masks[d] = the vertices v with degs[v] >= d, for d = 0..max(degs)."""
    masks = [0] * (max(degs, default=0) + 1)
    for v, dv in enumerate(degs):
        masks[dv] |= 1 << v
    for d in range(len(masks) - 2, -1, -1):
        masks[d] |= masks[d + 1]
    return tuple(masks)


def _planted_host(side: int, planted: Graph) -> Graph:
    """Balanced complete bipartite host with `planted` in one side: X is
    vertices 0..side-1, `planted` on the first planted.n of them, and Y the
    rest."""
    if planted.n > side:
        raise ParameterError(f"a planted graph on {planted.n} vertices does not fit a side of {side}")
    if 2 * side > VERTEX_CAP:
        raise CapacityError(f"host on {2 * side} vertices exceeds the cap {VERTEX_CAP}")
    x_mask = (1 << side) - 1
    y_mask = x_mask << side
    return _fast_graph(
        2 * side, tuple([r | y_mask for r in planted.rows] + [y_mask] * (side - planted.n) + [x_mask] * side)
    )


def _planted_edge_count(side: int, planted: Graph) -> int:
    """e(`_planted_host(side, planted)`), unscanned; see `planted_host_contains`."""
    return side * side + planted.edge_count()


def _planted_degree_masks(side: int, planted: Graph) -> tuple[int, ...]:
    """`_host_degree_masks` of `_planted_host(side, planted)`, unscanned; see `planted_host_contains`."""
    return ((1 << 2 * side) - 1,) * (side + 1) + _degree_masks(planted.degrees())[1:]


def _planted_twins(side: int, planted: Graph) -> tuple[int, ...]:
    """`_host_twins` of `_planted_host(side, planted)`, unscanned; see `planted_host_contains`."""
    if side == 1:
        return (0b11, 0b11)  # the host is K_2
    twins = _twin_masks(planted.rows)
    x_mask = (1 << side) - 1
    spare = x_mask & ~sum(1 << v for v, row in enumerate(planted.rows) if row)
    return (
        tuple(twins[v] if row else spare for v, row in enumerate(planted.rows))
        + (spare,) * (side - planted.n)
        + (x_mask << side,) * side
    )


def _pattern_order(pattern: Graph, core: list[int], seed: Sequence[int]) -> list[int]:
    """Connectivity-greedy order over core vertices, starting from the
    pre-assigned seed vertices (possibly none).  Each step takes the vertex
    with the most chosen neighbours; among those, the one with the shortest
    path back to the chosen set through unchosen vertices (so a cycle is
    closed before the next one is opened); then the one of highest degree;
    then the least label.  Each step depends only on the set already
    chosen, so the order continues any of its own prefixes that hold the
    seed."""
    rows = pattern.rows
    chosen = list(seed)
    chosen_mask = reach = 0
    for q in chosen:
        chosen_mask |= 1 << q
        reach |= rows[q]
    remaining = [v for v in core if not chosen_mask >> v & 1]
    while remaining:
        top, tied = -1, []
        for p in remaining:
            count = (rows[p] & chosen_mask).bit_count()
            if count > top:
                top, tied = count, [p]
            elif count == top:
                tied.append(p)
        if top and len(tied) > 1:
            tied = _shortest_back(rows, chosen_mask, reach & ~chosen_mask, tied)
        best = max(tied, key=lambda p: (rows[p].bit_count(), -p))
        chosen.append(best)
        chosen_mask |= 1 << best
        reach |= rows[best]
        remaining.remove(best)
    return chosen


def _shortest_back(rows: tuple[int, ...], chosen: int, sources: int, tied: list[int]) -> list[int]:
    """The vertices of `tied` with the shortest path back to the chosen set
    (all of `tied` if none has one).  `sources` are the unchosen neighbours
    of the chosen set, and `tied` is a list of them; a path back from p runs
    through unchosen vertices other than p and ends with an edge into the
    chosen set, so it has length 2 or more.

    One BFS over the unchosen vertices, from all the sources at once,
    labels each vertex by the source that reached it.  A shortest path back
    from p leaves p's region by an edge xy into the region of another
    source, and its length is d(x) + 1 + d(y) + 1.  Once the layers up to t
    are scanned, every such length up to 2t + 2 has been seen, so the BFS
    stops as soon as a vertex of `tied` has one."""
    closing = [p for p in tied if rows[p] & sources]  # length 2 through another source
    if closing:
        return closing
    label = [-1] * len(rows)
    depth = [0] * len(rows)
    layer = []
    m = sources
    while m:
        b = m & -m
        m ^= b
        x = b.bit_length() - 1
        label[x] = x
        layer.append(x)
    wanted = 0
    for p in tied:
        wanted |= 1 << p
    back: dict[int, int] = {}
    shortest = len(rows) + 2  # among `tied`; longer than any path
    t = 0
    while layer and shortest > 2 * t:
        nxt = []
        for x in layer:
            lx = label[x]
            m = rows[x] & ~chosen
            while m:
                b = m & -m
                m ^= b
                y = b.bit_length() - 1
                ly = label[y]
                if ly < 0:
                    label[y] = lx
                    depth[y] = t + 1
                    nxt.append(y)
                elif ly != lx:
                    length = t + depth[y] + 2
                    for z in (lx, ly):
                        if length < back.get(z, length + 1):
                            back[z] = length
                            if wanted >> z & 1 and length < shortest:
                                shortest = length
        layer = nxt
        t += 1
    return [p for p in tied if back.get(p) == shortest] or tied


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

    Such an automorphism keeps degrees and fixes N(p) & order[:d], so only
    the unfixed vertices q with p's degree and p's fixed neighbours are
    tried, each by an exact search.  The search runs on from position d + 1
    of the plan itself.  For d >= plan.start, where `_search` asks, that is
    the order a plan seeded with order[:d + 1] would take: the prefix holds
    the seed, and the greedy order continues its own prefixes."""
    pattern = plan.pattern
    rows = pattern.rows
    fixed, p = plan.order[:d], plan.order[d]
    fixed_mask = 0
    for v in fixed:
        fixed_mask |= 1 << v
    deg, nbrs = rows[p].bit_count(), rows[p] & fixed_mask
    img = [0] * pattern.n
    for v in fixed:
        img[v] = v
    orb = 0
    for q in iter_bits(((1 << pattern.n) - 1) & ~fixed_mask & ~(1 << p)):
        if rows[q].bit_count() != deg or rows[q] & fixed_mask != nbrs:
            continue
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
    host: Graph,
    plan: _Plan,
    img: list[int],
    used: int,
    start: int | None = None,
    refute: bool = True,
    derived: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> bool:
    """Extend the seeded images img[order[:start]] (their host vertices are
    `used`; start defaults to plan.start) to an embedding; True iff one
    exists.  `derived` gives the host's degree masks and twin masks when
    they are known without scanning the host; by default they are scanned,
    the twin masks on the first failure, and cached per host.

    The caller guarantees that the seeded images already map each pattern
    edge inside order[:start] to a host edge; they are not re-checked.
    Anchored `contains_subgraph` seeds an edge onto a checked host edge,
    `_embeds_at` seeds one vertex, and `_stabiliser_orbit` maps order[:d]
    to itself and p to a q with exactly p's fixed neighbours."""
    order = plan.order
    prev = plan.prev
    host_rows = host.rows
    if start is None:
        start = plan.start
    last = len(order) - 1
    if start > last:
        return True
    masks, twins = derived or (_host_degree_masks(host), ())
    degmask = [0] * start + [masks[d] if d < len(masks) else 0 for d in plan.degs[start:]]
    excl = [0] * plan.pattern.n
    orbits = plan.orbits

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


def planted_host_contains(side: int, planted: Graph, pattern: Graph) -> bool:
    """`contains_subgraph(_planted_host(side, planted), pattern)`: whether
    K_{side,side} with `planted` in its side X contains pattern.  The same
    search runs on the same host rows, but the host's edge count, degree
    masks and twin masks are read off `planted` instead of being scanned
    from its 2 side rows:

    - edges: side^2 between X and Y, plus e(planted);
    - degrees: a planted vertex has side + deg_planted(v), every other
      vertex side, so the mask of degree >= d is every vertex for
      d <= side and the planted vertices of degree >= d - side past it;
    - twins: every X vertex is adjacent to all of Y, so two planted
      vertices are twins in the host iff they are twins in `planted`
      (`canon._twin_masks`).  The X vertices with no planted edge (the
      spare ones and any isolated planted vertex) have neighbourhood Y and
      form one class, and Y, whose vertices all have neighbourhood X,
      forms another.  No class crosses: a vertex with a planted edge has a
      neighbour in X and a spare one has none, and an X and a Y vertex
      have equal closed neighbourhoods only when side = 1, where the host
      is K_2 and its two vertices are one class."""
    host = _planted_host(side, planted)
    if pattern.n > host.n or pattern.edge_count() > _planted_edge_count(side, planted):
        return False
    if not any(pattern.rows):
        return True
    derived = (_planted_degree_masks(side, planted), _planted_twins(side, planted))
    return _search(host, _plan(pattern, ()), [0] * pattern.n, 0, derived=derived)


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
