"""Splitting/peeling calculus: the decomposition family of a ballooning,
its definition-based oracle, and the derived covering family."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .balloon import BalloonSpec, BipartiteTree, bipartition, build_balloon
from .canon import canonical_form, canonical_key, tree_code
from .embed import contains_subgraph
from .graphs import (
    CapacityError,
    Graph,
    ParameterError,
    _fast_graph,
    bit_indices,
    complete_graph,
    connected_components,
    from_edges,
    induced,
    iter_bits,
    strip_isolated,
    vertex_cap,
)
from .matching import min_vertex_cover

Edge = tuple[int, int]


@dataclass
class GraphFamily:
    """Isomorphism-deduplicated set of graphs in canonical labelling, with an
    optional derivation trace per member.  Members are stripped of isolated
    vertices unless added with strip=False."""

    _members: dict[bytes, Graph] = field(default_factory=dict)
    _traces: dict[bytes, str] = field(default_factory=dict)

    def add(self, g: Graph, trace: str | None = None, strip: bool = True) -> None:
        if strip:
            g = strip_isolated(g)
        key = canonical_key(g)
        if key not in self._members:
            self._members[key] = canonical_form(g)
            if trace is not None:
                self._traces[key] = trace

    def members(self) -> list[Graph]:
        return [
            self._members[k]
            for k in sorted(self._members, key=lambda k: (self._members[k].edge_count(), self._members[k].n, k))
        ]

    def trace(self, g: Graph) -> str | None:
        return self._traces.get(canonical_key(strip_isolated(g)))

    def keys(self) -> frozenset[bytes]:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.members())

    def __contains__(self, g: Graph) -> bool:
        return canonical_key(strip_isolated(g)) in self._members

    def iso_equal(self, other: "GraphFamily") -> bool:
        return self.keys() == other.keys()

    def prune_non_minimal(self) -> "GraphFamily":
        """Drop members containing another member as a subgraph."""
        out = GraphFamily()
        members = self.members()
        for key, g in [(canonical_key(g), g) for g in members]:
            minimal = True
            for h in members:
                hk = canonical_key(h)
                if hk == key:
                    continue
                if h.n <= g.n and h.edge_count() <= g.edge_count() and contains_subgraph(g, h):
                    minimal = False
                    break
            if minimal:
                out.add(g, self._traces.get(key))
        return out


def split_vertices(g: Graph, split_set: set[int] | frozenset[int]) -> tuple[Graph, dict[Edge, Edge]]:
    """Replace each vertex of the independent set by one degree-1 vertex per
    incident edge.  Returns the new graph and the edge-origin map sending
    every new-graph edge to the original edge it came from."""
    split = set(split_set)
    split_mask = 0
    for v in split:
        split_mask |= 1 << v
    if any(g.rows[u] & split_mask for u in split):
        raise ParameterError("split set is not independent")
    keep = [v for v in range(g.n) if v not in split]
    new_of = {v: i for i, v in enumerate(keep)}
    nxt = len(keep)
    edges: list[Edge] = []
    origin: dict[Edge, Edge] = {}

    def norm(a: int, b: int) -> Edge:
        return (a, b) if a < b else (b, a)

    for u, v in g.edges():
        src = norm(u, v)
        if u in split:
            a, b = nxt, new_of[v]
            nxt += 1
        elif v in split:
            a, b = new_of[u], nxt
            nxt += 1
        else:
            a, b = new_of[u], new_of[v]
        e = norm(a, b)
        edges.append(e)
        origin[e] = src
    return from_edges(nxt, edges), origin


def peel_edges(
    g: Graph,
    peel: list[Edge],
    origin: dict[Edge, Edge] | None,
    spec: BalloonSpec,
) -> Graph:
    """Re-hang each listed leaf-edge on a fresh vertex (no-op when both ends
    have degree 1).  Each edge, or its origin under splitting, must be of
    type II.  Eligibility is judged on the input graph; the listed peels are
    applied as one batch."""

    def norm(e: Edge) -> Edge:
        return e if e[0] < e[1] else (e[1], e[0])

    degs = g.degrees()
    plan: list[tuple[Edge, int]] = []  # (edge, leaf end) for single-leaf edges
    for e in peel:
        e = norm(e)
        u, v = e
        if not g.has_edge(u, v):
            raise ParameterError(f"edge {e} is not in the graph")
        if degs[u] != 1 and degs[v] != 1:
            raise ParameterError(f"edge {e} is not a leaf-edge")
        src = origin.get(e, e) if origin is not None else e
        if not spec.is_type_two(src):
            raise ParameterError(f"edge {e} fails the type II condition (origin {src})")
        if degs[u] == 1 and degs[v] == 1:
            continue  # peeling an isolated edge does nothing
        leaf = u if degs[u] == 1 else v
        plan.append((e, leaf))

    rows = list(g.rows)
    n = g.n
    for (u, v), leaf in plan:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        rows.append(1 << leaf)
        rows[leaf] |= 1 << n
        n += 1
    return _fast_graph(n, tuple(rows))


def _independent_subsets(g: Graph) -> list[frozenset[int]]:
    out = []
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if g.rows[v] & mask:
                ok = False
                break
        if ok:
            out.append(frozenset(bit_indices(mask)))
    return out


def decomposition_family(tree: BipartiteTree, spec: BalloonSpec) -> GraphFamily:
    """The family obtained by splitting an independent set and then peeling
    leaf-edges whose edge (or its origin) is of type II; deduplicated and
    isolated vertices stripped.

    Peel outcomes are enumerated per component of the split forest F_S
    rather than per subset of the eligible edges, which gives the same
    family:

    - peeling a pendant edge pv with v a leaf makes pv a separate K2 and
      takes one leaf from p; peeling an isolated K2 does nothing, so only
      leaves in components of three or more vertices matter;
    - leaves on the same parent are twins in F_S, so peeling any k of the
      eligible ones at p gives isomorphic results: only the count at each
      parent matters;
    - the result is a forest, and with isolated vertices stripped its
      sorted multiset of component codes (`canon.tree_code`) determines it
      up to isomorphism.

    So each component C contributes one outcome per vector of per-parent
    counts: the code of C minus the peeled leaves (dropped when a single
    vertex is left) plus one K2 code per peeled leaf.  The outcome sets
    are combined by a product deduplicated on the sorted code multiset,
    and only one representative peel set per new multiset is applied and
    added, with its trace.

    Every member has exactly e(T) edges and no isolated vertex, so a member
    containing another is isomorphic to it: the family is already minimal
    and needs no `prune_non_minimal` pass."""
    if len(tree.edges) > 8:
        raise CapacityError("decomposition_family caps at 8 edges (9 vertices)")
    tg = tree.graph()
    fam = GraphFamily()
    seen: set[tuple[bytes, ...]] = set()
    for split_set in _independent_subsets(tg):
        split_g, origin = split_vertices(tg, split_set)
        names = ",".join(tree.names[v] for v in sorted(split_set)) or "-"
        for codes, peel in _peel_outcomes(split_g, origin, spec).items():
            if codes in seen:
                continue
            seen.add(codes)
            result = peel_edges(split_g, peel, origin, spec)
            peeled = ";".join(f"{a}-{b}" for a, b in peel) or "-"
            fam.add(result, trace=f"split {{{names}}} peel {{{peeled}}}")
    e_t = len(tree.edges)
    for m in fam:
        assert m.edge_count() == e_t, "splitting/peeling must preserve edge count"
    return fam


_K2_CODE = tree_code((0b10, 0b01), 0b11)


def _peel_outcomes(
    forest: Graph, origin: dict[Edge, Edge], spec: BalloonSpec
) -> dict[tuple[bytes, ...], list[Edge]]:
    """The distinct results of peeling the forest, each as the sorted codes
    of its components without isolated vertices, mapped to a peel set that
    gives it (see `decomposition_family`)."""
    rows = forest.rows
    outcomes: dict[tuple[bytes, ...], list[Edge]] = {(): []}
    for comp in connected_components(forest):
        groups: dict[int, list[int]] = {}  # parent -> its leaves on type II edges
        if comp.bit_count() > 2:
            for v in iter_bits(comp):
                if rows[v].bit_count() == 1:
                    p = rows[v].bit_length() - 1
                    if spec.is_type_two(origin[(p, v) if p < v else (v, p)]):
                        groups.setdefault(p, []).append(v)
        comp_out: dict[tuple[bytes, ...], list[Edge]] = {}
        for counts in product(*(range(len(leaves) + 1) for leaves in groups.values())):
            peel: list[Edge] = []
            rest = comp
            for (p, leaves), k in zip(groups.items(), counts):
                for v in leaves[:k]:
                    peel.append((p, v) if p < v else (v, p))
                    rest &= ~(1 << v)
            codes = [_K2_CODE] * len(peel)
            if rest.bit_count() > 1:
                codes.append(tree_code(rows, rest))
            comp_out.setdefault(tuple(sorted(codes)), peel)
        merged: dict[tuple[bytes, ...], list[Edge]] = {}
        for codes, peel in outcomes.items():
            for comp_codes, comp_peel in comp_out.items():
                merged.setdefault(tuple(sorted(codes + comp_codes)), peel + comp_peel)
        outcomes = merged
    return outcomes


def _embedding_host(side: int, m: Graph) -> Graph:
    """Balanced complete bipartite host with m planted in one side."""
    n = 2 * side
    x_mask = (1 << side) - 1
    y_mask = ((1 << side) - 1) << side
    rows = []
    for v in range(side):
        row = y_mask
        if v < m.n:
            row |= m.rows[v]
        rows.append(row)
    rows.extend(x_mask for _ in range(side))
    return _fast_graph(n, tuple(rows))


def default_oracle_side(tree: BipartiteTree, spec: BalloonSpec) -> int:
    """Host side size: 4|T_o| when capacity allows, never below the provable
    threshold |T_o| + (largest candidate)."""
    from .balloon import balloon_order

    t_o_n = balloon_order(tree, spec)
    required = t_o_n + 2 * len(tree.edges) + 2
    side = min(4 * t_o_n, vertex_cap() // 2)
    if side < required:
        raise CapacityError(
            f"oracle host side {side} below the required {required}; raise the vertex cap"
        )
    return max(side, required)


def decomposition_oracle(
    tree: BipartiteTree, spec: BalloonSpec, side: int | None = None
) -> GraphFamily:
    """Definition-based oracle: a candidate belongs to the family iff the
    balanced complete bipartite host with the candidate planted in one side
    contains the ballooning; candidates range over all classes with at most
    e(T)+1 edges, the satisfying set is pruned to its minimal members."""
    from .generate import small_edge_classes

    t_o = build_balloon(tree, spec)
    e_t = len(tree.edges)
    required = t_o.n + 2 * e_t + 2
    if side is None:
        side = default_oracle_side(tree, spec)
    elif side < required:
        raise CapacityError(f"oracle side {side} below the required {required}")
    if 2 * side > vertex_cap():
        raise CapacityError(f"oracle host on {2 * side} vertices exceeds the cap")
    fam = GraphFamily()
    for cand in small_edge_classes(e_t + 1, 2 * e_t + 2):
        host = _embedding_host(side, cand)
        if contains_subgraph(host, t_o):
            fam.add(cand, trace="oracle")
    return fam.prune_non_minimal()


def b_family(tree: BipartiteTree, spec: BalloonSpec) -> GraphFamily:
    """Covering family: induced subgraphs of decomposition members on their
    coverings of size below a, or the single K_a when no member has one."""
    side_a, _ = bipartition(tree, spec)
    a = len(side_a)
    fam = decomposition_family(tree, spec)
    if all(min_vertex_cover(m) >= a for m in fam):
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
                # an independent covering below a (possible for balloonings
                # that are not good) gives an edgeless member; keep its
                # vertex count so containment stays faithful
                out.add(sub, trace=f"M[S] with |S|={size}", strip=sub.edge_count() > 0)
    return out


def _is_covering(g: Graph, s_mask: int, full: int) -> bool:
    for v in iter_bits(full & ~s_mask):
        if g.rows[v] & ~s_mask:
            return False
    return True
