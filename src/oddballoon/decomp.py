"""Splitting/peeling calculus: the decomposition family of a ballooning,
its definition-based oracle, and the derived covering family."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .balloon import BalloonSpec, BipartiteTree, _norm, bipartition, build_balloon
from .canon import _decode, _forest_key, canonical_key, tree_code
from .embed import contains_subgraph, planted_host_contains
from .generate import trees_up_to
from .graphs import (
    VERTEX_CAP,
    CapacityError,
    Graph,
    ParameterError,
    _fast_graph,
    complete_graph,
    connected_components,
    from_edges,
    induced,
    iter_bits,
    strip_isolated,
)
from .matching import max_matching

Edge = tuple[int, int]


@dataclass
class GraphFamily:
    """Isomorphism-deduplicated set of graphs in canonical labelling, with an
    optional derivation trace per member.  Members are stripped of isolated
    vertices unless added with strip=False.

    A member is filed under its canonical key and decoded from it on first
    use, so `keys`, `iso_equal`, `len` and `in` never build a member."""

    _members: dict[bytes, Graph | None] = field(default_factory=dict)  # None until decoded
    _traces: dict[bytes, str] = field(default_factory=dict)

    def add(self, g: Graph, trace: str | None = None, strip: bool = True) -> None:
        if strip:
            g = strip_isolated(g)
        key = canonical_key(g)
        if key not in self._members:
            self._insert(key, trace)

    def _insert(self, key: bytes, trace: str | None) -> None:
        """File the class of this canonical key; its canonical form is
        decoded on first use."""
        self._members[key] = None
        if trace is not None:
            self._traces[key] = trace

    def _decoded(self) -> list[tuple[bytes, Graph]]:
        """(key, canonical form) of every member, decoding those not yet built."""
        members = self._members
        for key, g in members.items():
            if g is None:
                members[key] = _decode(key)
        return list(members.items())

    def members(self) -> list[Graph]:
        return [g for *_, g in sorted((g.edge_count(), g.n, k, g) for k, g in self._decoded())]

    def _lookup_key(self, g: Graph) -> bytes:
        """g's own key when a member was filed whole under it, else the key
        of g stripped of isolated vertices."""
        key = canonical_key(g)
        return key if key in self._members else canonical_key(strip_isolated(g))

    def trace(self, g: Graph) -> str | None:
        return self._traces.get(self._lookup_key(g))

    def keys(self) -> frozenset[bytes]:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self.members())

    def __contains__(self, g: Graph) -> bool:
        return self._lookup_key(g) in self._members

    def iso_equal(self, other: "GraphFamily") -> bool:
        return self.keys() == other.keys()

    def __eq__(self, other: object) -> bool:
        # whether a member is decoded yet must not tell two families apart
        if not isinstance(other, GraphFamily):
            return NotImplemented
        return self._members.keys() == other._members.keys() and self._traces == other._traces

    def prune_non_minimal(self) -> "GraphFamily":
        """Drop members containing another member as a subgraph.  A member
        with the same vertex and edge counts is contained only if it is
        isomorphic, so only smaller members are tried."""
        out = GraphFamily()
        sized = sorted((g.edge_count(), g.n, key, g) for key, g in self._decoded())
        for e, n, key, g in sized:
            if not any(
                he <= e and hn <= n and (he, hn) != (e, n) and contains_subgraph(g, h) for he, hn, _, h in sized
            ):
                out._insert(key, self._traces.get(key))
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
    for u, v in g.edges():
        src = _norm((u, v))
        if u in split:
            a, b = nxt, new_of[v]
            nxt += 1
        elif v in split:
            a, b = new_of[u], nxt
            nxt += 1
        else:
            a, b = new_of[u], new_of[v]
        e = _norm((a, b))
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
    degs = g.degrees()
    plan: list[tuple[Edge, int]] = []  # (edge, leaf end) for single-leaf edges
    for e in peel:
        e = _norm(e)
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


def _independent_subsets(g: Graph) -> list[int]:
    """Masks of the independent sets of g, ascending."""
    masks = [0]  # extending by each vertex in turn keeps the masks ascending
    for v, row in enumerate(g.rows):
        masks += [m | 1 << v for m in masks if not row & m]
    return masks


def decomposition_family(tree: BipartiteTree, spec: BalloonSpec) -> GraphFamily:
    """The family obtained by splitting an independent set and then peeling
    leaf-edges whose edge (or its origin) is of type II; deduplicated and
    isolated vertices stripped.

    Every peeled piece is an induced subtree of T, so the family is built
    from codes of vertex sets of T, not from split forests:

    - for a component C of T - S, the component of the split forest F_S
      that holds C is T[C + N(C)], each s in N(C) standing for its copy on
      the edge into C: s has exactly one neighbour in C, as T is a tree;
    - peeling a leaf v of a piece T[R] on three or more vertices leaves
      T[R - v] and a K2; peeling an isolated K2 does nothing;
    - leaves on the same parent are twins, so only the number peeled at
      each parent matters;
    - the result is a forest, and with isolated vertices stripped its
      sorted component codes (`canon.tree_code`) determine it.

    So C contributes one outcome per vector of per-parent counts: the code
    of the unpeeled set R (dropped when one vertex is left) plus one K2
    code per peeled leaf.  Codes are memoised by R and outcome tables by C;
    a split set whose multiset of tables was merged before adds nothing.
    A new member is filed under the forest key of its codes, which the
    family decodes.  Its trace reads `split {S} peel {E}` in the tree's own
    names: S lists the split vertices and E the peeled tree edges.  A tree
    edge names its split copy uniquely, as a split vertex gets one copy per
    incident edge.

    Every member has exactly e(T) edges and no isolated vertex, so a member
    containing another is isomorphic to it: the family is already minimal
    and needs no `prune_non_minimal` pass."""
    if len(tree.edges) > 8:
        raise CapacityError("decomposition_family caps at 8 edges (9 vertices)")
    tg = tree.graph()
    rows = tg.rows
    codes_of: dict[int, bytes] = {}
    tables: dict[int, tuple[int, dict[tuple[bytes, ...], list[Edge]]]] = {}  # C -> (interned id, table)
    table_ids: dict[frozenset[tuple[bytes, ...]], int] = {}
    merged_signatures: set[tuple[int, ...]] = set()
    seen: set[tuple[bytes, ...]] = set()
    fam = GraphFamily()
    for s_mask in _independent_subsets(tg):
        minus_s = _fast_graph(tg.n, tuple(0 if s_mask >> v & 1 else r & ~s_mask for v, r in enumerate(rows)))
        comps = [c for c in connected_components(minus_s) if not c & s_mask]
        for c in comps:
            if c not in tables:
                table = _outcome_table(tg, c, spec, codes_of)
                tables[c] = (table_ids.setdefault(frozenset(table), len(table_ids)), table)
        signature = tuple(sorted(tables[c][0] for c in comps))
        if signature in merged_signatures:
            continue
        merged_signatures.add(signature)
        outcomes: dict[tuple[bytes, ...], list[Edge]] = {(): []}
        for c in comps:
            merged: dict[tuple[bytes, ...], list[Edge]] = {}
            for codes, peel in outcomes.items():
                for c_codes, c_peel in tables[c][1].items():
                    merged.setdefault(tuple(sorted(codes + c_codes)), peel + c_peel)
            outcomes = merged
        for codes, peel in outcomes.items():
            if codes in seen:
                continue
            seen.add(codes)
            names = ",".join(tree.names[v] for v in iter_bits(s_mask)) or "-"
            peeled = ";".join(map(tree.edge_name, peel)) or "-"
            fam._insert(_forest_key(codes), f"split {{{names}}} peel {{{peeled}}}")
    assert all(m.edge_count() == len(tree.edges) for m in fam), "splitting/peeling must preserve edge count"
    return fam


_K2_CODE = tree_code((0b10, 0b01), 0b11)


def _outcome_table(
    tg: Graph, comp: int, spec: BalloonSpec, codes_of: dict[int, bytes]
) -> dict[tuple[bytes, ...], list[Edge]]:
    """The distinct results of peeling the piece T[C + N(C)], each as the
    sorted codes of its components without isolated vertices, mapped to the
    first peel set (edges of T) that gives it, leaves taken in label order."""
    rows = tg.rows
    piece = comp
    for v in iter_bits(comp):
        piece |= rows[v]
    groups: dict[int, list[int]] = {}  # parent -> its leaves on type II edges
    if piece.bit_count() > 2:
        for v in iter_bits(piece):
            nbrs = rows[v] & piece
            if nbrs.bit_count() == 1:
                p = nbrs.bit_length() - 1
                if spec.is_type_two((p, v)):
                    groups.setdefault(p, []).append(v)
    states: list[tuple[int, list[Edge]]] = [(piece, [])]  # (unpeeled set, peel set), count vectors in order
    for p, leaves in groups.items():
        steps: list[tuple[int, list[Edge]]] = [(0, [])]  # the first k leaves at p, k = 0, 1, ...
        for v in leaves:
            steps.append((steps[-1][0] | 1 << v, steps[-1][1] + [_norm((p, v))]))
        states = [(rest & ~mask, peel + edges) for rest, peel in states for mask, edges in steps]
    table: dict[tuple[bytes, ...], list[Edge]] = {}
    for rest, peel in states:
        codes = [_K2_CODE] * len(peel)
        if rest & (rest - 1):
            if rest not in codes_of:
                codes_of[rest] = tree_code(rows, rest)
            codes.append(codes_of[rest])
        table.setdefault(tuple(sorted(codes)), peel)
    return table


def default_oracle_side(tree: BipartiteTree, spec: BalloonSpec) -> int:
    """Host side s0 = 2e(T) + max(1, A), where A is the sum over tree edges
    e of (L_e - 1)/2, past which a larger side changes no answer of the
    oracle.  Raises CapacityError when the host's 2 s0 vertices exceed the
    vertex cap.

    Let the host have sides X and Y of size s >= s0, with M planted in X.

    - The X vertices outside V(M) are adjacent only to Y, and Y only to X,
      so the vertices of T_o that an embedding sends to either set are
      independent in T_o.
    - Every vertex of T_o lies on some cycle C_e, and an independent set
      meets C_e in at most (L_e - 1)/2 vertices, so alpha(T_o) <= A.  The
      edgeless tree, whose T_o is K_1, has A = 0 and alpha = 1: hence the
      max(1, A).
    - The oracle plants M with e(T) edges and no isolated vertex, so
      |V(M)| <= 2e(T) and the s0 host still has max(1, A) spare X vertices
      and as many Y vertices.

    The spare X vertices are pairwise twins, and so are the Y vertices, so
    remapping the used vertices of each class injectively into the s0
    host's class keeps every edge: the s0 host contains T_o whenever the
    larger host does, and the converse holds as the s0 host is a subgraph.
    Containment is therefore the same for every s >= s0."""
    side = 2 * len(tree.edges) + max(1, sum((ln - 1) // 2 for _, ln in spec.lengths))
    if 2 * side > VERTEX_CAP:
        raise CapacityError(f"oracle host on {2 * side} vertices exceeds the cap {VERTEX_CAP}")
    return side


def decomposition_oracle(tree: BipartiteTree, spec: BalloonSpec) -> GraphFamily:
    """Definition-based oracle: the minimal graphs M with at most e(T)+1
    edges such that the balanced complete bipartite host with M planted in
    one side contains the ballooning.  The host side is
    `default_oracle_side`, 2e(T) plus the independence bound
    sum (L_e - 1)/2 of T_o, past which no larger host changes an answer.

    Only forests with exactly e(T) edges and maximum degree at most
    Delta(T) are planted.  First, by parity:

    - the host without M's edges is bipartite, so every odd cycle of the
      host uses an odd number of M-edges;
    - T_o is the edge-disjoint union of e(T) odd cycles and an embedding is
      injective on edges, so a copy of T_o uses at least e(T) M-edges and
      every class with fewer edges is free;
    - if e(M) = e(T)+1 and the host contains T_o, each cycle uses exactly
      one M-edge (three would need e(T)+2), so some M-edge f is unused and
      M - f, stripped of isolated vertices, is already non-free: M is not
      minimal.

    So let e(M) = e(T) and let the host contain T_o.  Then each cycle C_uv
    of T_o (the cycle through the tree edge uv) uses exactly one M-edge,
    and each M-edge is used by exactly one cycle.  A vertex of T_o lies on
    one cycle unless it is a tree vertex t, which lies on deg_T(t) of them.

    - Degree lemma, Delta(M) <= Delta(T): the d >= 2 M-edges at a vertex x
      are used by d distinct cycles, all through the preimage of x, so it
      is a tree vertex t on d cycles and deg_T(t) >= d.
    - Forest lemma, M is a forest: every vertex on a cycle of M has two
      M-edges, so by the above it is the image of a tree vertex.  The only
      edge of C_uv between two tree vertices is uv, so each edge of that
      cycle is the image of a tree edge, and the cycle maps back to a
      cycle in T, which has none.

    The members are therefore exactly these forests, with no isolated
    vertex, whose host contains T_o.  Two of them contain each other only
    if they are isomorphic, so no containment check is needed.  Each host
    is queried through `embed.planted_host_contains`, which reads the
    host's edge count, degree masks and twin classes off the planted
    forest instead of scanning the host, and a member is filed by the key
    `_forests` gives it, so none is decoded unless it is read.

    Two caps stand in for a time budget, and both refuse up front.  Trees
    with more than 8 edges are refused: the cap mirrors
    `decomposition_family`, whose output this oracle checks, and below it
    27- to 31-vertex balloons of 6-vertex trees already take seconds, most
    of it in negative host queries.  Specs with
    2(|T_o| + 2e(T) + 2) > VERTEX_CAP are refused too, although their
    `default_oracle_side` host may fit: past it lie long-cycle specs such
    as the all-7 balloons of 9-vertex trees, whose search has no bound."""
    if len(tree.edges) > 8:
        raise CapacityError("decomposition_oracle caps at 8 edges (9 vertices)")
    t_o = build_balloon(tree, spec)
    if 2 * (t_o.n + 2 * len(tree.edges) + 2) > VERTEX_CAP:
        raise CapacityError(
            f"decomposition_oracle caps at 2(|T_o| + 2e(T) + 2) <= {VERTEX_CAP}; "
            f"here |T_o| = {t_o.n} and e(T) = {len(tree.edges)}"
        )
    side = default_oracle_side(tree, spec)
    fam = GraphFamily()
    for key, cand in _forests(len(tree.edges), tree.graph().max_degree()).items():
        if planted_host_contains(side, cand, t_o):
            fam._insert(key, "oracle")
    return fam


def _forests(edges: int, max_degree: int) -> dict[bytes, Graph]:
    """Every forest with this many edges, no isolated vertex and maximum
    degree at most max_degree, one per multiset of trees from `trees_up_to`
    whose edge counts sum to edges: canonical key -> the disjoint union of
    the trees.  Each pool tree is coded once; a forest is the concatenation
    of its trees' rows, each shifted past the trees before it, keyed by
    `_forest_key` of their codes, so no forest is re-scanned or re-coded.

    The union lists its largest trees first.  The oracle's search tries
    host vertices in label order, so the planted vertices that can carry
    the tree's high-degree vertices are tried first; smallest first makes
    the 29-vertex balloon of a 6-vertex path about ten times slower."""
    pool = [
        (t.n - 1, t.rows, tree_code(t.rows, t.vertices_mask()))
        for level in trees_up_to(edges + 1)[2:]
        for t in level
        if t.max_degree() <= max_degree
    ]
    pool.reverse()  # most edges first
    out: dict[bytes, Graph] = {}

    def extend(start: int, left: int, rows: tuple[int, ...], codes: tuple[bytes, ...]) -> None:
        if not left:
            out[_forest_key(codes)] = _fast_graph(len(rows), rows)
            return
        for i in range(start, len(pool)):
            e, t_rows, code = pool[i]
            if e <= left:
                shift = len(rows)
                extend(i, left - e, rows + tuple(r << shift for r in t_rows), codes + (code,))

    extend(0, edges, (), ())
    return out


def b_family(tree: BipartiteTree, spec: BalloonSpec) -> GraphFamily:
    """Covering family: induced subgraphs of decomposition members on their
    coverings of size below a, or the single K_a when no member has one.

    Members are forests, so by Konig a member's least covering has exactly
    nu(M) vertices: its search starts at size nu(M), and a member with
    nu(M) >= a costs one matching and no subset check.  A member with
    nu(M) < a files at least its least covering, so the pass files nothing
    exactly when no member has a covering below a, and that is when the
    fallback is taken."""
    side_a, _ = bipartition(tree, spec)
    a = len(side_a)
    out = GraphFamily()
    # every member has e(T) >= 1 edges, so for a = 1 none has a covering
    # below a: the family is not built and the fallback is taken
    for m in decomposition_family(tree, spec) if a > 1 else ():
        full = m.vertices_mask()
        for size in range(max_matching(m), a):
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
    if not out:
        # keep K_a whole: for a = 1 it is a single vertex, not the empty graph
        out.add(complete_graph(a), trace="fallback: no covering below a", strip=False)
    return out


def _is_covering(g: Graph, s_mask: int, full: int) -> bool:
    for v in iter_bits(full & ~s_mask):
        if g.rows[v] & ~s_mask:
            return False
    return True
