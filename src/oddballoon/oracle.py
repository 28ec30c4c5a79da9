"""Independent brute-force ground truth: exact Turan numbers on small
vertex counts, bounded matching/degree maxima, and the 2-coloring maximum
f2 as the largest per-coloring count over red graphs up to isomorphism.
The module imports nothing it checks: only the graph kernel, canonical
keys, containment, generation and matching."""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canon import _decode, canonical_form, canonical_key, canonical_key_any
from .embed import contains_subgraph
from .generate import Memo, _vertex_growth, edge_growth_classes, graph_levels
from .graphs import (
    CapacityError,
    Graph,
    ParameterError,
    connected_components,
    empty_graph,
    from_edges,
    star_graph,
    union_all,
)
from .matching import max_matching


@dataclass(frozen=True)
class ExResult:
    """ex(n, family), an extremal graph in canonical form, the number of
    candidates built and the time taken.

    Candidates are counted one per Aut(parent) orbit of neighbour sets, and
    only those that pass the edge-floor and minimum-degree checks, each
    distinct candidate once per call: the growth runs for every vertex
    count v <= n and every edge target tried at v share their candidates."""

    value: int
    witness: Graph
    nodes_explored: int
    elapsed_ms: float


def ex_exact(n: int, family) -> ExResult:
    """Exact ex(n, family) with a witness.

    For v = 0..n in turn, the family-free classes on v vertices with at
    least `target` edges are grown one vertex at a time up to isomorphism
    (the growth of `generate.graph_levels`), each level kept to its edge
    floor and each new vertex to minimum degree.  The target starts at the
    averaging bound floor(v ex(v-1) / (v-2)) (C(v, 2) for v <= 2) and drops
    by one until the level is nonempty; the edgeless graph is free, so the
    walk ends by target 0.  ex(v) is the largest edge count there, and that
    level holds every extremal class; the witness is the one with the least
    canonical key, in canonical form.  The runs share one memo of the
    candidates built (see `generate._vertex_growth`), so a run rebuilds no
    candidate of an earlier one, and nodes_explored counts each distinct
    candidate once per call.

    family: iterable of Graphs (a GraphFamily works).  Isolated vertices in
    a member count toward its size, as subgraph containment requires.
    """
    if n > 10:
        raise CapacityError("ex_exact enumerates exhaustively only for n <= 10")
    if n < 0:
        raise ParameterError("ex_exact needs n >= 0")
    members = list(family)
    if not members:
        raise ParameterError("ex_exact needs a nonempty family")
    # an edgeless member on m vertices forbids every graph with >= m vertices
    edgeless_min = min((m.n for m in members if m.edge_count() == 0), default=None)
    if edgeless_min is not None and n >= edgeless_min:
        raise ParameterError(
            f"no family-free graphs on {n} vertices: the family has an edgeless "
            f"member on {edgeless_min} vertices"
        )
    # what is left has edges, so every edgeless graph is free
    members = [m for m in members if m.edge_count() > 0]
    t0 = time.perf_counter()
    value = nodes = 0
    memo: Memo = {}
    for v in range(n + 1):
        # every edge of a free graph lies in v - 2 of its free vertex-deleted subgraphs
        target = v * (v - 1) // 2 if v <= 2 else v * value // (v - 2)
        while True:
            floor = [target] * (v + 1)
            for u in range(v, 0, -1):
                floor[u - 1] = floor[u] - 2 * floor[u] // u
            levels, built = _vertex_growth(v, members, floor, memo)
            nodes += built
            if levels[v]:
                break
            target -= 1
        value = max(g.edge_count() for g, _ in levels[v].values())
    key = min(k for k, (g, _) in levels[n].items() if g.edge_count() == value)
    witness = _decode(key)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return ExResult(value, witness, nodes, elapsed)


# -- bounded matching number + maximum degree ----------------------------


@lru_cache(maxsize=8)
def _connected_bounded_classes(nu: int, delta: int) -> tuple[Graph, ...]:
    def keep(g: Graph) -> bool:  # cheapest check first
        return g.max_degree() <= delta and len(connected_components(g)) == 1 and max_matching(g) <= nu

    return tuple(edge_growth_classes(keep))


def max_edges_bounded(nu: int, delta: int) -> tuple[int, list[Graph]]:
    """Exhaustive maximum of e(G) over graphs with nu(G) <= nu and
    Delta(G) <= delta, with all edge-maximum witnesses up to isomorphism.

    Edges and matching number are additive over connected components, so it
    suffices to enumerate connected classes exhaustively (both constraints
    are hereditary and monotone under the growth moves) and compose them
    under the matching budget.  Witnesses come in canonical form, sorted by
    vertex count, then by their sorted component keys joined with "/".

    This search is the oracle of the closed-form f(k-1, k-1) piece that
    `construct.extremal_small_f` builds, and of `formulas.chvatal_hanson`.
    """
    if nu < 0 or delta < 0:
        raise ParameterError("bounds must be nonnegative")
    if nu == 0 or delta == 0:
        return 0, [empty_graph(0)]

    connected = _connected_bounded_classes(nu, delta)
    by_nu: dict[int, list[Graph]] = {}
    for g in connected:
        by_nu.setdefault(max_matching(g), []).append(g)

    # best[r] = (value, all maximizing component multisets) using budget <= r
    best: list[tuple[int, set[tuple[bytes, ...]]]] = [(0, {()})]
    for r in range(1, nu + 1):
        value, multis = best[r - 1][0], set(best[r - 1][1])
        for v in range(1, r + 1):
            for g in by_nu.get(v, []):
                cand = g.edge_count() + best[r - v][0]
                if cand < value:
                    continue
                gk = canonical_key_any(g)
                new = {tuple(sorted(m + (gk,))) for m in best[r - v][1]}
                if cand > value:
                    value, multis = cand, new
                else:
                    multis |= new
        best.append((value, multis))

    value, multis = best[nu]
    unions = [(union_all(map(_decode, multi)), b"/".join(multi)) for multi in multis]
    unions.sort(key=lambda u: (u[0].n, u[1]))
    return value, [canonical_form(g) for g, _ in unions]


def ex_bounded_degree_matching(nu: int, delta: int) -> int:
    """Brute-force value of max{e(G) : nu(G) <= nu, Delta(G) <= delta}."""
    if nu > 3 or delta > 3:
        raise CapacityError("ex_bounded_degree_matching enumerates only for bounds <= 3")
    return max_edges_bounded(nu, delta)[0]


def _star_union(j: int, ell: int) -> Graph:
    k2 = from_edges(2, [(0, 1)])
    return union_all([star_graph(j)] + [k2] * ell)


def partition_premise_patterns(k: int, k1: int) -> list[Graph]:
    """The family {S_{k-l} u l K_2 : 0 <= l <= min(k-k1, k-2) or l = k-1}."""
    ells = set(range(0, min(k - k1, k - 2) + 1)) if min(k - k1, k - 2) >= 0 else set()
    if k - 1 >= 0:
        ells.add(k - 1)
    return [_star_union(k - ell, ell) for ell in sorted(ells) if k - ell >= 1]


def star_matching_max(k: int) -> tuple[int, list[Graph]]:
    """Maximum edges over {S_k, kK_2, S_{k-1} u K_2}-free graphs without
    isolated vertices, with all extremal witnesses up to isomorphism."""
    if k < 2:
        raise ParameterError("star_matching_max needs k >= 2")
    if k > 4:
        raise CapacityError("star_matching_max enumerates only for k <= 4")
    patterns = partition_premise_patterns(k, k - 1)  # S_k, S_{k-1} u K_2, kK_2

    def ok(g: Graph) -> bool:
        return not any(contains_subgraph(g, p) for p in patterns)

    classes = edge_growth_classes(ok)
    best = max(g.edge_count() for g in classes)
    witnesses = [canonical_form(g) for g in classes if g.edge_count() == best]
    witnesses.sort(key=canonical_key)
    return best, witnesses


# -- monochromatic-copy colorings ----------------------------------------


@dataclass(frozen=True)
class EdgeColoring:
    """Red/blue coloring of the complete graph on n vertices, stored as the
    red edge set; every other pair is blue."""

    n: int
    red: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError(f"coloring needs n >= 0, got {self.n}")
        for u, v in self.red:
            if not (0 <= u < v < self.n):
                raise ParameterError(f"bad red edge ({u},{v})")

    def red_graph(self) -> Graph:
        return from_edges(self.n, self.red)

    def blue_graph(self) -> Graph:
        blue = [e for e in combinations(range(self.n), 2) if e not in self.red]
        return from_edges(self.n, blue)


def f2_count_uncovered(coloring: EdgeColoring, h: Graph) -> int:
    """Edges of the colored complete graph lying in no monochromatic copy of
    h; anchored containment per edge inside its own color class."""
    n = coloring.n
    if n > 40:
        raise CapacityError("f2_count_uncovered caps the host at 40 vertices")
    if h.n > n:
        return n * (n - 1) // 2
    count = 0
    for g in (coloring.red_graph(), coloring.blue_graph()):
        if not contains_subgraph(g, h):
            count += g.edge_count()  # no copy in this class at all
            continue
        for e in g.edges():
            if not contains_subgraph(g, h, anchor=e):
                count += 1
    return count


def f2_exact(n: int, h: Graph) -> int:
    """Maximum over all 2-edge-colorings of K_n of the number of edges in no
    monochromatic copy of h.  A coloring is its red graph, and relabelling
    it keeps the count, so the maximum of `f2_count_uncovered` over one red
    graph per isomorphism class on n vertices is exact."""
    if n > 7:
        raise CapacityError("f2_exact enumerates colorings only for n <= 7")
    if n < 0:
        raise ParameterError("f2_exact needs n >= 0")
    return max(f2_count_uncovered(EdgeColoring(n, frozenset(g.edges())), h) for g in graph_levels(n)[n])
