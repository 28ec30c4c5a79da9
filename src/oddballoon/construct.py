"""The claimed extremal graphs, the small embedded extremal pieces, and the
red/blue coloring used for the monochromatic-copy counterexamples."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .balloon import AnalysisReport, BalloonSpec, BipartiteTree, analyze
from .canon import canonical_key
from .decomp import GraphFamily, b_family
from .embed import contains_subgraph
from .graphs import (
    CapacityError,
    Graph,
    ParameterError,
    add_edges,
    empty_graph,
    from_edges,
    vertex_cap,
)


@dataclass(frozen=True)
class LabeledConstruction:
    """A candidate extremal graph with its vertex roles.

    x: the a-1 universal vertices; x1, x2: the two near-equal sides;
    embedded_x1: the x1 vertices carrying the embedded piece; x_edges: the
    edges of the covering-family-free graph placed inside x.
    """

    graph: Graph
    x: tuple[int, ...]
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    embedded_x1: tuple[int, ...]
    x_edges: tuple[tuple[int, int], ...]

    def roles(self) -> dict:
        return {
            "x": list(self.x),
            "x1": list(self.x1),
            "x2": list(self.x2),
            "embedded_x1": list(self.embedded_x1),
            "x_edges": [list(e) for e in self.x_edges],
        }


@dataclass(frozen=True)
class EdgeColoring:
    """Red/blue coloring of the complete graph on n vertices, stored as the
    red edge set; every other pair is blue."""

    n: int
    red: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.red:
            if not (0 <= u < v < self.n):
                raise ParameterError(f"bad red edge ({u},{v})")

    def red_graph(self) -> Graph:
        return from_edges(self.n, self.red)

    def blue_graph(self) -> Graph:
        blue = [e for e in combinations(range(self.n), 2) if e not in self.red]
        return from_edges(self.n, blue)


def extremal_small_f(k: int) -> Graph:
    """An edge-maximum graph with matching number and maximum degree at most
    k-1, found by the bounded oracle search; canonically least witness."""
    from .oracle import max_edges_bounded

    if k < 1:
        raise ParameterError("extremal_small_f needs k >= 1")
    if k > 5:
        raise CapacityError("extremal_small_f enumerates only for k <= 5")
    if k == 1:
        return empty_graph(0)
    _, witnesses = max_edges_bounded(k - 1, k - 1)
    return witnesses[0]


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


def extremal_candidate(
    n: int,
    tree: BipartiteTree,
    spec: BalloonSpec,
    analysis: AnalysisReport | None = None,
) -> LabeledConstruction:
    """The paper-shaped candidate: a-1 universal vertices over a balanced
    complete bipartite graph, with the covering-family-free graph inside the
    universal set and the small extremal piece inside the larger side."""
    rep = analysis if analysis is not None else analyze(tree, spec)
    a, k = rep.a, rep.k
    if a - 1 > 7:
        raise CapacityError("extremal_candidate needs a-1 <= 7")
    if n < a - 1 + 2 * (k - 1) + 2:
        raise ParameterError(f"n={n} too small to host the construction")
    if n > vertex_cap():
        raise CapacityError(f"n={n} exceeds the vertex cap")

    m = n - a + 1
    x = tuple(range(a - 1))
    x1 = tuple(range(a - 1, a - 1 + (m + 1) // 2))  # larger side takes the embedding
    x2 = tuple(range(a - 1 + (m + 1) // 2, n))
    # universal vertices joined to everything outside x; x itself stays empty
    edges: list[tuple[int, int]] = [(u, v) for u in x for v in range(a - 1, n)]
    edges += [(u, v) for u in x1 for v in x2]

    if rep.branch == "k_gt_k1":
        bgraph, _ = max_b_free(a - 1, b_family(tree, spec))
        x_edges = tuple(bgraph.edges())
        edges += list(x_edges)
        piece = None
        embedded: tuple[int, ...] = ()
        if k >= 2:
            if 2 * (k - 1) > len(x1):
                raise ParameterError("side too small for the complete bipartite piece")
            left = x1[: k - 1]
            right = x1[k - 1 : 2 * (k - 1)]
            edges += [(u, v) for u in left for v in right]
            embedded = tuple(left + right)
    else:
        assert a == 1, "the equal-branch arises only for all-triangle stars"
        x_edges = ()
        piece = extremal_small_f(k)
        if piece.n > len(x1):
            raise ParameterError("side too small for the embedded extremal piece")
        offset = x1[0]
        edges += [(offset + u, offset + v) for u, v in piece.edges()]
        embedded = tuple(offset + v for v in range(piece.n))

    graph = from_edges(n, edges)
    return LabeledConstruction(graph, x, x1, x2, embedded, tuple(x_edges))


def coloring_candidate(
    n: int,
    tree: BipartiteTree,
    spec: BalloonSpec,
    analysis: AnalysisReport | None = None,
) -> EdgeColoring:
    """Color the candidate extremal graph red and everything else blue: red
    edges sit in no red copy, and the blue pairs among the universal
    vertices sit in blue components too small to host the ballooning."""
    cand = extremal_candidate(n, tree, spec, analysis)
    red = frozenset(tuple(sorted(e)) for e in cand.graph.edges())
    return EdgeColoring(n, red)
