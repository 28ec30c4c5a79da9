"""Tree-plus-odd-cycle-lengths model: parsing, bipartition, goodness and
the parameters that drive the closed formula."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .graphs import (
    VERTEX_CAP,
    CapacityError,
    Graph,
    add_edges,
    bipartition_sides,
    bit_indices,
    connected_components,
    from_edges,
)
from .matching import max_matching

Edge = tuple[int, int]


class SpecFormatError(ValueError):
    """Unreadable balloon spec input."""


class StructureError(SpecFormatError):
    """Edge list does not form a tree."""


class LengthError(SpecFormatError):
    """A cycle length is even or below 3."""


class CompletenessError(SpecFormatError):
    """Cycle lengths missing, duplicated, or naming unknown edges."""


class GoodnessError(ValueError):
    """Operation requires a good ballooning and the spec is not good."""


@dataclass(frozen=True)
class BipartiteTree:
    """A tree with named vertices; indices follow first appearance."""

    names: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def graph(self) -> Graph:
        return from_edges(self.n, self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def edge_name(self, e: Edge) -> str:
        return f"{self.names[e[0]]}-{self.names[e[1]]}"


@dataclass(frozen=True)
class BalloonSpec:
    """Odd cycle length (>= 3) for each tree edge."""

    lengths: tuple[tuple[Edge, int], ...]

    def length(self, e: Edge) -> int:
        e = _norm(e)
        for edge, ln in self.lengths:
            if edge == e:
                return ln
        raise KeyError(f"no length for edge {e}")

    def is_type_one(self, e: Edge) -> bool:
        return self.length(e) == 3

    def is_type_two(self, e: Edge) -> bool:
        return self.length(e) >= 5


def _norm(e: Edge) -> Edge:
    return (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])


def _check_tree(n: int, edges: list[Edge]) -> None:
    if n == 0:
        raise StructureError("no vertices")
    if len(set(map(_norm, edges))) != len(edges):
        raise StructureError("duplicate edge in tree section")
    if len(edges) != n - 1:
        raise StructureError(f"{len(edges)} edges on {n} vertices is not a tree")
    if len(connected_components(from_edges(n, edges))) != 1:
        raise StructureError("edge set is disconnected (cycle elsewhere)")


def _build(edge_names: list[tuple[str, str]], cycle_items: list[tuple[str, str, int]]):
    names: list[str] = []
    index: dict[str, int] = {}

    def vid(name: str) -> int:
        if not name.isalnum():
            raise SpecFormatError(f"vertex name {name!r} is not alphanumeric")
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    edges = []
    for a, b in edge_names:
        u, v = vid(a), vid(b)
        if u == v:
            raise StructureError(f"self-loop {a}-{b}")
        edges.append(_norm((u, v)))
    _check_tree(len(names), edges)

    lengths: dict[Edge, int] = {}
    for a, b, ln in cycle_items:
        if a not in index or b not in index:
            raise CompletenessError(f"cycle entry {a}-{b} names an unknown vertex")
        e = _norm((index[a], index[b]))
        if e not in edges:
            raise CompletenessError(f"cycle entry {a}-{b} is not a tree edge")
        if e in lengths:
            raise CompletenessError(f"duplicate cycle length for {a}-{b}")
        if ln < 3 or ln % 2 == 0:
            raise LengthError(f"length {ln} for {a}-{b}: need an odd length >= 3")
        lengths[e] = ln
    missing = [e for e in edges if e not in lengths]
    if missing:
        miss = ", ".join(f"{names[u]}-{names[v]}" for u, v in missing)
        raise CompletenessError(f"missing cycle length for: {miss}")

    tree = BipartiteTree(tuple(names), tuple(edges))
    spec = BalloonSpec(tuple(sorted(lengths.items())))
    return tree, spec


def parse_spec(text: str) -> tuple[BipartiteTree, BalloonSpec]:
    """Parse the two-line text format:

        tree: u-v v-w ...
        cycles: u-v:3 v-w:5 ...
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("tree:") or not lines[1].startswith("cycles:"):
        raise SpecFormatError("expected a 'tree:' line followed by a 'cycles:' line")
    edge_names = []
    for tok in lines[0][len("tree:") :].split():
        parts = tok.split("-")
        if len(parts) != 2:
            raise SpecFormatError(f"bad tree edge token {tok!r}")
        edge_names.append((parts[0], parts[1]))
    if not edge_names:
        raise StructureError("tree section is empty")
    cycle_items = []
    for tok in lines[1][len("cycles:") :].split():
        head, sep, ln_s = tok.partition(":")
        parts = head.split("-")
        if not sep or len(parts) != 2:
            raise SpecFormatError(f"bad cycle token {tok!r}")
        try:
            ln = int(ln_s)
        except ValueError:
            raise LengthError(f"non-integer length in {tok!r}") from None
        cycle_items.append((parts[0], parts[1], ln))
    return _build(edge_names, cycle_items)


def parse_spec_json(text: str) -> tuple[BipartiteTree, BalloonSpec]:
    """JSON variant: {"tree": [[u, v], ...], "cycles": {"u-v": L, ...}}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "tree" not in data or "cycles" not in data:
        raise SpecFormatError("JSON spec needs 'tree' and 'cycles' keys")
    if not isinstance(data["tree"], list) or not isinstance(data["cycles"], dict):
        raise SpecFormatError("JSON spec needs 'tree' as a list and 'cycles' as an object")
    edge_names = []
    for pair in data["tree"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecFormatError(f"bad tree entry {pair!r}")
        if any(isinstance(v, bool) or not isinstance(v, (str, int)) for v in pair):
            raise SpecFormatError(f"tree entry {pair!r}: vertices must be strings or integers")
        edge_names.append((str(pair[0]), str(pair[1])))
    cycle_items = []
    for key, ln in data["cycles"].items():
        parts = str(key).split("-")
        if len(parts) != 2:
            raise SpecFormatError(f"bad cycles key {key!r}")
        if isinstance(ln, bool) or not isinstance(ln, int):
            raise LengthError(f"non-integer length for {key!r}")
        cycle_items.append((parts[0], parts[1], ln))
    return _build(edge_names, cycle_items)


def load_spec(path: str | Path) -> tuple[BipartiteTree, BalloonSpec]:
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        return parse_spec_json(text)
    return parse_spec(text)


# -- bipartition and goodness -------------------------------------------


def _good_with_side(tree: BipartiteTree, spec: BalloonSpec, side_a) -> list[tuple[Edge, str]]:
    """Violations of goodness when side_a is taken as A (per-edge reading)."""
    a_set = set(side_a)
    issues = []
    for e in tree.edges:
        if not spec.is_type_one(e):
            continue
        u, v = e
        du, dv = tree.degree(u), tree.degree(v)
        if du > 1 and dv > 1:
            issues.append((e, "type I edge is not a leaf-edge"))
            continue
        if du > 1 and u not in a_set:
            issues.append((e, f"non-leaf endpoint {tree.names[u]} is not in A"))
        elif dv > 1 and v not in a_set:
            issues.append((e, f"non-leaf endpoint {tree.names[v]} is not in A"))
        # both endpoints leaves (the K_2 tree): nothing to check
    return issues


def bipartition(
    tree: BipartiteTree, spec: BalloonSpec | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The unique bipartition as (A, B) with |A| <= |B|.

    Ties (|A| = |B|) go to the side that makes the spec good when one does;
    otherwise to the side holding the lexicographically least vertex name.
    """
    s0, s1 = (tuple(bit_indices(side)) for side in bipartition_sides(tree.graph()))
    if len(s0) < len(s1):
        return s0, s1
    if len(s1) < len(s0):
        return s1, s0
    if spec is not None:
        good0 = not _good_with_side(tree, spec, s0)
        good1 = not _good_with_side(tree, spec, s1)
        if good0 != good1:
            return (s0, s1) if good0 else (s1, s0)
    least = min(range(tree.n), key=lambda v: tree.names[v])
    return (s0, s1) if least in s0 else (s1, s0)


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    violations: tuple[tuple[Edge, str], ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def validate_good(tree: BipartiteTree, spec: BalloonSpec) -> GoodnessReport:
    """Goodness check: every type I edge is a leaf-edge whose non-leaf
    endpoint (when it has one) lies in A.  Violations are data, not errors."""
    side_a, side_b = bipartition(tree, spec)
    issues = _good_with_side(tree, spec, side_a)
    return GoodnessReport(not issues, tuple(issues), side_a, side_b)


@dataclass(frozen=True)
class AnalysisReport:
    a: int
    b_size: int
    k: int
    k1: int
    u: str
    beta: int
    nu: int
    good: bool
    branch: str  # "k_gt_k1" | "k_eq_k1"

    def to_dict(self) -> dict:
        return asdict(self)


def type_one_degree(tree: BipartiteTree, spec: BalloonSpec, v: int) -> int:
    return sum(1 for e in tree.edges if v in e and spec.is_type_one(e))


def _independent_transversal(tree: BipartiteTree) -> int:
    """tau(T) = min over independent S of |S| + e(T - S): the least size of
    an independent set of T_o meeting every cycle of T_o, for any odd
    lengths.

    Proof.  The blocks of T_o are its balloon cycles C_e, one per tree edge
    e, so a set meets every cycle iff it meets every C_e.  Let I be an
    independent set meeting every C_e and S = I & V(T).  S is independent
    in T, and each edge of T - S has a cycle that I meets only in a new
    vertex of that cycle; new vertices lie on one cycle each, so
    |I| >= |S| + e(T - S).  Conversely, for independent S add one new
    vertex of C_e for each edge e = uv of T - S: its neighbours are u, v
    (not in S) and new vertices of C_e, so the set stays independent and
    has |S| + e(T - S) vertices.

    Since S is independent, |S| + e(T - S) = e(T) - sum over S of
    (deg(v) - 1), so tau(T) is e(T) less a maximum-weight independent set,
    found by the usual linear DP on the rooted tree.
    """
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * tree.n
    order = [0]
    for v in order:  # grows while it is read: a breadth-first order from 0
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    take = [len(nbrs) - 1 for nbrs in adj]  # best weight below v with v in S
    skip = [0] * tree.n  # best weight below v with v not in S
    for v in reversed(order[1:]):
        p = parent[v]
        take[p] += skip[v]
        skip[p] += max(take[v], skip[v])
    return len(tree.edges) - max(take[0], skip[0])


def analyze(tree: BipartiteTree, spec: BalloonSpec) -> AnalysisReport:
    """Parameters of the closed formula for a good spec.

    k is the minimum degree over A; u is chosen among the minimum-degree
    A-vertices to minimize its triangle count k1, ties by least index.

    A good spec with tau(T) < a (`_independent_transversal`) is refused with
    `GoodnessError`.  The base construction, a-1 independent universal
    vertices over K_{N,N}, contains T_o iff T_o has an independent set of
    at most a-1 vertices whose removal leaves it bipartite (map that set
    into the universal vertices and the bipartite rest into K_{N,N} for N
    >= |T_o|; conversely the preimage of the universal vertices is such a
    set).  Every cycle of T_o is a balloon cycle, so odd, and T_o minus a
    set is bipartite iff the set meets every cycle; so the base
    construction contains T_o iff tau(T) <= a-1.  S = A gives
    tau(T) <= a, so every returned spec has tau(T) = a.
    """
    report = validate_good(tree, spec)
    if not report.good:
        details = "; ".join(f"{tree.edge_name(e)}: {why}" for e, why in report.violations)
        raise GoodnessError(f"spec is not a good ballooning: {details}")
    side_a = report.side_a
    tau = _independent_transversal(tree)
    if tau < len(side_a):
        raise GoodnessError(
            f"tau(T) = {tau} < a = {len(side_a)}: T_o has an independent odd-cycle "
            f"transversal on {tau} vertices, so the base construction (a-1 universal "
            "vertices over a complete bipartite graph) contains T_o"
        )
    k = min(tree.degree(v) for v in side_a)
    candidates = [v for v in side_a if tree.degree(v) == k]
    u = min(candidates, key=lambda v: (type_one_degree(tree, spec, v), v))
    k1 = type_one_degree(tree, spec, u)
    nu = max_matching(tree.graph())  # T is bipartite, so beta(T) = nu(T) (Konig)
    branch = "k_eq_k1" if k == k1 else "k_gt_k1"
    return AnalysisReport(
        a=len(side_a),
        b_size=len(report.side_b),
        k=k,
        k1=k1,
        u=tree.names[u],
        beta=nu,
        nu=nu,
        good=True,
        branch=branch,
    )


def balloon_order(tree: BipartiteTree, spec: BalloonSpec) -> int:
    return tree.n + sum(ln - 2 for _, ln in spec.lengths)


def build_balloon(tree: BipartiteTree, spec: BalloonSpec) -> Graph:
    """Materialize the ballooning: per tree edge uv, a fresh path closing an
    odd cycle of the specified length through uv."""
    total = balloon_order(tree, spec)
    if total > VERTEX_CAP:
        raise CapacityError(f"ballooning has {total} vertices, cap is {VERTEX_CAP}")
    edges = list(tree.edges)
    nxt = tree.n
    for e, ln in spec.lengths:
        u, v = e
        path = list(range(nxt, nxt + ln - 2))
        nxt += ln - 2
        chain = [u] + path + [v]
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    g = from_edges(total, [])
    return add_edges(g, edges)
