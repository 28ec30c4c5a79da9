"""The claimed extremal graphs, the small embedded extremal pieces, and the
red/blue coloring used for the monochromatic-copy counterexamples."""
from __future__ import annotations

from dataclasses import dataclass

from .balloon import BalloonSpec, BipartiteTree, analyze
from .formulas import _middle_term, chvatal_hanson
from .graphs import (
    VERTEX_CAP,
    CapacityError,
    Graph,
    ParameterError,
    add_edges,
    complete_bipartite,
    complete_graph,
    empty_graph,
    from_edges,
    join,
    union_all,
)
from .matching import max_matching
from .oracle import EdgeColoring


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


def extremal_small_f(k: int) -> Graph:
    """An edge-maximum graph with matching number and maximum degree at most
    k-1, on the fewest vertices, built in closed form (Chvatal & Hanson,
    JCTB 20, 1976; Balachandran & Khare, Discrete Math. 309, 2009).

    A graph on 2d+1 vertices has matching number at most d, so for d = k-1:
    the empty graph for k = 1, K_2 for k = 2, 2K_k for odd k, and for even
    k >= 4 the circulant C_{2k-1}(1..(k-2)/2) plus every other edge, from
    vertex 0, of the Hamiltonian cycle of distance-(k-1) chords (2k-2
    vertices of degree k-1, one of degree k-2).  The piece is certified
    with `max_matching` and `max_degree` before it is returned;
    `oracle.max_edges_bounded` is its exhaustive oracle for small k.
    """
    if k < 1:
        raise ParameterError("extremal_small_f needs k >= 1")
    if k == 1:
        return empty_graph(0)
    if k == 2:
        piece = from_edges(2, [(0, 1)])
    elif k % 2 == 1:
        piece = union_all([complete_graph(k)] * 2)
    else:
        n = 2 * k - 1
        edges = [(v, (v + j) % n) for v in range(n) for j in range(1, k // 2)]
        cycle = [(i * (k - 1)) % n for i in range(n)]
        edges += [(cycle[i], cycle[i + 1]) for i in range(0, n - 1, 2)]
        piece = from_edges(n, edges)
    d = k - 1
    if max_matching(piece) > d or piece.max_degree() > d or piece.edge_count() != chvatal_hanson(d, d):
        raise RuntimeError(f"closed-form f({d},{d}) piece failed its certificate")
    return piece


def extremal_candidate(n: int, tree: BipartiteTree, spec: BalloonSpec) -> LabeledConstruction:
    """The paper-shaped candidate: a-1 universal vertices joined to a
    balanced complete bipartite graph, with the covering-family-free graph
    inside the universal set and the small extremal piece inside the
    larger side."""
    rep = analyze(tree, spec)
    a, k = rep.a, rep.k
    if n < a - 1 + 2 * (k - 1) + 2:
        raise ParameterError(f"n={n} too small to host the construction")
    if n > VERTEX_CAP:
        raise CapacityError(f"n={n} exceeds the vertex cap")

    m = n - a + 1
    s1 = (m + 1) // 2  # the larger side takes the piece
    if rep.branch == "k_gt_k1":
        # the middle term's witness has a-1 vertices, so the join puts it on x
        x_piece = _middle_term(tree, spec, a).witness
        piece = complete_bipartite(k - 1, k - 1)
        if piece.n > s1:
            raise ParameterError("side too small for the complete bipartite piece")
    else:
        assert a == 1, "the equal-branch arises only for all-triangle stars"
        x_piece = empty_graph(0)
        piece = extremal_small_f(k)
        if piece.n > s1:
            raise ParameterError("side too small for the embedded extremal piece")
    graph = join(x_piece, add_edges(complete_bipartite(s1, m - s1), piece.edges()))
    x1 = tuple(range(a - 1, a - 1 + s1))
    x2 = tuple(range(a - 1 + s1, n))
    return LabeledConstruction(graph, tuple(range(a - 1)), x1, x2, x1[: piece.n], tuple(x_piece.edges()))


def coloring_candidate(n: int, tree: BipartiteTree, spec: BalloonSpec) -> EdgeColoring:
    """Color the candidate extremal graph red and everything else blue: red
    edges sit in no red copy, and the blue pairs among the universal
    vertices sit in blue components too small to host the ballooning."""
    cand = extremal_candidate(n, tree, spec)
    return EdgeColoring(n, frozenset(cand.graph.edges()))
