"""Bitset-backed kernel for small undirected simple graphs.

Vertices are integers 0..n-1 and the adjacency of vertex v is a single
Python int used as a bitmask (bit u set iff uv is an edge).  Graphs are
immutable values; every operation returns a new Graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

VERTEX_CAP = 128


class CapacityError(ValueError):
    """Input exceeds a documented size cap."""


class ParameterError(ValueError):
    """Invalid construction parameters."""


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with per-vertex adjacency bit rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("vertex count must be nonnegative")
        if self.n > VERTEX_CAP:
            raise CapacityError(f"{self.n} vertices exceeds cap {VERTEX_CAP}")
        if len(self.rows) != self.n:
            raise ParameterError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ParameterError(f"row {v} has bits >= n")
            if row >> v & 1:
                raise ParameterError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not self.rows[u] >> v & 1:
                    raise ParameterError(f"adjacency not symmetric at ({v},{u})")

    # -- basic queries -------------------------------------------------

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in bit_indices(self.rows[v]) if v < u]

    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _fast_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Internal factory that skips invariant validation (rows known-good)."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- standard graphs ---------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ParameterError("empty graph needs n >= 0")
    if n > VERTEX_CAP:
        raise CapacityError(f"{n} vertices exceeds cap {VERTEX_CAP}")
    return _fast_graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ParameterError("complete graph needs n >= 0")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    if n < 0:
        raise ParameterError("path needs n >= 0")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(k: int) -> Graph:
    """S_k: a star with k edges on k+1 vertices (center 0)."""
    if k < 0:
        raise ParameterError("star needs k >= 0 edges")
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ParameterError("complete bipartite needs nonnegative sides")
    return join(empty_graph(a), empty_graph(b))


def turan_graph(n: int, p: int) -> Graph:
    """Complete p-partite graph on n vertices with near-equal parts."""
    if n < 0:
        raise ParameterError("turan graph needs n >= 0")
    if p < 1:
        raise ParameterError("turan graph needs p >= 1")
    g = empty_graph(0)
    for i in range(p):
        g = join(g, empty_graph(n // p + (1 if i < n % p else 0)))
    return g


# -- combination and transformation ------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise CapacityError(f"union has {n} vertices, cap is {VERTEX_CAP}")
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return _fast_graph(n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus all cross edges."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise CapacityError(f"join has {n} vertices, cap is {VERTEX_CAP}")
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    rows = [row | hmask for row in g.rows]
    rows += [(row << g.n) | gmask for row in h.rows]
    return _fast_graph(n, tuple(rows))


def union_all(graphs: Iterable[Graph]) -> Graph:
    out = empty_graph(0)
    for g in graphs:
        out = disjoint_union(out, g)
    return out


def induced(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertex bitmask, relabelled to 0..k-1."""
    verts = bit_indices(mask)
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        for u in iter_bits(g.rows[v] & mask):
            rows[pos[v]] |= 1 << pos[u]
    return _fast_graph(len(verts), tuple(rows))


def strip_isolated(g: Graph) -> Graph:
    mask = 0
    for v, row in enumerate(g.rows):
        if row:
            mask |= 1 << v
    if mask == (1 << g.n) - 1:
        return g
    return induced(g, mask)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Relabel so new vertex i is old vertex perm[i]."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        for u in iter_bits(g.rows[v]):
            rows[i] |= 1 << pos[u]
    return _fast_graph(g.n, tuple(rows))


def add_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = list(g.rows)
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _fast_graph(g.n, tuple(rows))


def add_vertex(g: Graph, neighbors_mask: int) -> Graph:
    """Append a new vertex adjacent to the given bitmask of old vertices."""
    if g.n >= VERTEX_CAP:
        raise CapacityError(f"{g.n + 1} vertices exceeds cap {VERTEX_CAP}")
    z = g.n
    rows = [row | (1 << z if neighbors_mask >> v & 1 else 0) for v, row in enumerate(g.rows)]
    rows.append(neighbors_mask)
    return _fast_graph(g.n + 1, tuple(rows))


# -- structure ----------------------------------------------------------


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of connected components (isolated vertices included)."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def bipartition_sides(g: Graph) -> tuple[int, int] | None:
    """Two-color the graph; returns (side0, side1) masks or None if an odd
    cycle exists.  Per-component side choice puts the BFS root in side0."""
    color = [-1] * g.n
    side = [0, 0]
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        side[0] |= 1 << start
        queue = [start]
        while queue:
            v = queue.pop()
            for u in iter_bits(g.rows[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    side[color[u]] |= 1 << u
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return side[0], side[1]


def is_bipartite(g: Graph) -> bool:
    return bipartition_sides(g) is not None


