"""Randomized and exhaustive audits of the supporting lemmas.

Each audit draws reproducible samples from an explicit seed, checks the
lemma's statement literally, and returns the counterexamples found (an
empty list certifies the run).  Two checks take one instance each:
`lemma_partition_audit` tests the partitioned-graph inequality on a
`PartitionedGraph`, and `degree_sum_audit` the degree-sum inequality.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .balloon import BalloonSpec, BipartiteTree, bipartition
from .decomp import b_family, decomposition_family, decomposition_oracle, split_vertices
from .embed import contains_subgraph
from .formulas import chvatal_hanson
from .generate import (
    graph_levels,
    random_bipartite_graph,
    random_graph,
    trees_up_to,
)
from .graphs import CapacityError, Graph, ParameterError, complete_graph, induced, is_bipartite, iter_bits
from .matching import hall_violating_set, max_matching, min_vertex_cover
from .oracle import partition_premise_patterns


@dataclass(frozen=True)
class AuditResult:
    name: str
    samples: int
    counterexamples: list
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.counterexamples)} counterexample(s)"
        extra = f" ({self.detail})" if self.detail else ""
        return f"audit {self.name}: samples={self.samples} {verdict}{extra}"


def _tree_from_graph(g: Graph) -> BipartiteTree:
    names = tuple(str(v) for v in range(g.n))
    return BipartiteTree(names, tuple(g.edges()))


def _spec_with_lengths(tree: BipartiteTree, lengths: dict | int) -> BalloonSpec:
    if isinstance(lengths, int):
        return BalloonSpec(tuple((e, lengths) for e in tree.edges))
    return BalloonSpec(tuple(sorted(lengths.items())))


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph with an ordered vertex bipartition (V_0, V_1)."""

    graph: Graph
    v0: tuple[int, ...]
    v1: tuple[int, ...]

    def __post_init__(self) -> None:
        all_v = sorted(self.v0 + self.v1)
        if all_v != list(range(self.graph.n)):
            raise ParameterError("v0, v1 must partition the vertex set")

    def mask(self, i: int) -> int:
        verts = self.v0 if i == 0 else self.v1
        m = 0
        for v in verts:
            m |= 1 << v
        return m

    def side_edges(self, i: int) -> int:
        m = self.mask(i)
        return sum((self.graph.rows[v] & m).bit_count() for v in iter_bits(m)) // 2

    def cross_edges(self) -> int:
        m0 = self.mask(0)
        return sum((self.graph.rows[v] & m0).bit_count() for v in self.v1)


@dataclass(frozen=True)
class PartitionAudit:
    premises_hold: bool
    inequality_holds: bool
    lhs: int
    bound: int


def _side_premises(g: Graph, own: int, other: int, patterns: list[Graph], k: int, k1: int) -> bool:
    """The premises on one side: G[own] is free of every pattern, each own
    vertex v has d_own(v) + nu(G[N_other(v)]) <= k-1, and, when k > k1, an
    own vertex with d_own(v) = k-1 has no other-side edge at N_other(v)."""
    g_own = induced(g, own)
    if any(contains_subgraph(g_own, p) for p in patterns):
        return False
    for v in iter_bits(own):
        d_own = (g.rows[v] & own).bit_count()
        nb = g.rows[v] & other
        if d_own + (max_matching(induced(g, nb)) if nb else 0) > k - 1:
            return False
        if k > k1 and d_own == k - 1 and any(g.rows[u] & other for u in iter_bits(nb)):
            return False
    return True


def lemma_partition_audit(pg: PartitionedGraph, k: int, k1: int) -> PartitionAudit:
    """Check the partitioned-graph inequality: under the freeness, degree and
    isolation premises, e(G_0)+e(G_1) - (|V_0||V_1| - e(G_cr)) stays below
    (k-1)^2 when k > k1 and below f(k-1,k-1) when k = k1."""
    if k < k1:
        raise ParameterError("need k >= k1")
    if pg.graph.n > 20:
        raise CapacityError("lemma_partition_audit caps at 20 vertices")
    g = pg.graph
    masks = (pg.mask(0), pg.mask(1))
    patterns = partition_premise_patterns(k, k1)
    premises = all(_side_premises(g, masks[i], masks[1 - i], patterns, k, k1) for i in (0, 1))
    e0 = pg.side_edges(0)
    e1 = pg.side_edges(1)
    ecr = pg.cross_edges()
    lhs = e0 + e1 - (len(pg.v0) * len(pg.v1) - ecr)
    if k > k1:
        bound = (k - 1) ** 2
    else:
        bound = chvatal_hanson(k - 1, k - 1) if k >= 1 else 0
    return PartitionAudit(premises, lhs <= bound, lhs, bound)


def degree_sum_audit(g: Graph, b: int) -> bool:
    """Check sum_v min{d(v), b} <= nu(G) * (b + delta) at the least delta
    the lemma admits, delta = max(Delta(G), b + 2).  The right side grows
    with delta, so this case implies the lemma for every admissible delta."""
    if b < 0:
        raise ParameterError("b must be nonnegative")
    delta = max(g.max_degree(), b + 2)
    lhs = sum(min(d, b) for d in g.degrees())
    return lhs <= max_matching(g) * (b + delta)


def konig_audit(samples: int, seed: int) -> AuditResult:
    """beta = nu on bipartite graphs: exhaustive on all graphs up to 6
    vertices plus random bipartite graphs up to 14 vertices."""
    rng = random.Random(seed)
    bad = []
    checked = 0
    for level in graph_levels(6):
        for g in level:
            if is_bipartite(g):
                checked += 1
                if min_vertex_cover(g) != max_matching(g):
                    bad.append(g)
    while checked < samples:
        nx = rng.randint(1, 7)
        ny = rng.randint(1, 7)
        g = random_bipartite_graph(rng, nx, ny, rng.uniform(0.1, 0.9))
        checked += 1
        if min_vertex_cover(g) != max_matching(g):
            bad.append(g)
    return AuditResult("konig", checked, bad)


def hall_audit(samples: int, seed: int) -> AuditResult:
    """nu >= |X| iff every S in X has |N(S)| >= |S|, on random bipartite
    graphs with at most 12 vertices."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        nx = rng.randint(1, 6)
        ny = rng.randint(1, 6)
        g = random_bipartite_graph(rng, nx, ny, rng.uniform(0.1, 0.9))
        x_mask = (1 << nx) - 1
        saturates = max_matching(g) >= nx
        hall_holds = hall_violating_set(g, x_mask) is None
        if saturates != hall_holds:
            bad.append(g)
    return AuditResult("hall", samples, bad)


def degree_sum_random_audit(samples: int, seed: int) -> AuditResult:
    """The degree-sum inequality on random graphs up to 14 vertices, with b
    drawn from the lemma's admissible range."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        b = rng.randint(0, max(g.max_degree() - 2, 0))
        if not degree_sum_audit(g, b):
            bad.append((g, b))
    return AuditResult("degree-sum", samples, bad)


def wang_audit() -> AuditResult:
    """Splitting any single vertex of A in a tree with min degree over A at
    least 2 leaves a matching of size at least a-1+k; exhaustive over all
    trees with at most 8 vertices."""
    bad = []
    checked = 0
    for n in range(2, 9):
        for tg in trees_up_to(8)[n]:
            tree = _tree_from_graph(tg)
            side_a, side_b = bipartition(tree)
            orientations = [side_a] if len(side_a) < len(side_b) else [side_a, side_b]
            for side in orientations:
                k = min(tree.degree(v) for v in side)
                if k < 2:
                    continue
                a = len(side)
                for u in side:
                    split_g, _ = split_vertices(tg, {u})
                    checked += 1
                    if max_matching(split_g) < a - 1 + k:
                        bad.append((tree, u))
    return AuditResult("wang", checked, bad)


def covering_audit(seed: int) -> AuditResult:
    """Two statements over all trees with at most 8 vertices, with
    all-triangle, all-pentagon and one random odd-length assignment each:
    the covering family is {K_a} iff beta(T) = a, and min degree over A of
    at least 2 forces beta(T) = a.  The detail counts the specs with
    B = {K_a}, so both sides of the iff are seen to be exercised."""
    rng = random.Random(seed)
    bad = []
    checked = 0
    ka_specs = 0
    for n in range(2, 9):
        for tg in trees_up_to(8)[n]:
            tree = _tree_from_graph(tg)
            assignments = [3, 5]
            random_lengths = {e: rng.choice([3, 5, 7]) for e in tree.edges}
            for lengths in [*assignments, random_lengths]:
                spec = _spec_with_lengths(tree, lengths)
                side_a, _ = bipartition(tree, spec)
                a = len(side_a)
                beta = min_vertex_cover(tg)
                fam = b_family(tree, spec)
                is_ka = len(fam) == 1 and complete_graph(a) in fam
                checked += 1
                ka_specs += is_ka
                if is_ka != (beta == a):
                    bad.append((tree, lengths, "B={K_a} iff beta=a"))
                k = min(tree.degree(v) for v in side_a)
                if k >= 2 and beta != a:
                    bad.append((tree, lengths, "delta(A)>=2 forces beta=a"))
    return AuditResult("covering", checked, bad, detail=f"{ka_specs} with B = {{K_a}}")


def lemma1_audit() -> AuditResult:
    """Splitting/peeling family equals the definition-based oracle family,
    for every tree with at most 4 edges and every assignment of the
    lengths 3 and 5."""
    bad = []
    checked = 0
    for n in range(2, 6):
        for tg in trees_up_to(5)[n]:
            tree = _tree_from_graph(tg)
            for combo in product((3, 5), repeat=len(tree.edges)):
                spec = _spec_with_lengths(tree, dict(zip(tree.edges, combo)))
                fam = decomposition_family(tree, spec)
                orc = decomposition_oracle(tree, spec)
                checked += 1
                if not fam.iso_equal(orc):
                    bad.append((tree, combo))
    return AuditResult("lemma1", checked, bad)


def partition_audit(samples: int, seed: int) -> AuditResult:
    """Random partitioned graphs on at most 12 vertices, with k1 <= k <= 4:
    wherever the premises hold, the partitioned inequality must hold.
    Counterexamples are premise-satisfying violations; the result also
    reports how many samples satisfied the premises."""
    rng = random.Random(seed)
    bad = []
    premise_hits = 0
    for _ in range(samples):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(0, n)
        pg = PartitionedGraph(g, tuple(sorted(verts[:cut])), tuple(sorted(verts[cut:])))
        k1 = rng.randint(0, 4)
        k = rng.randint(k1, 4)
        res = lemma_partition_audit(pg, k, k1)
        if res.premises_hold:
            premise_hits += 1
            if not res.inequality_holds:
                bad.append((g, pg.v0, pg.v1, k, k1))
    return AuditResult("partition", samples, bad, detail=f"{premise_hits} premise-satisfying")


AUDIT_NAMES = ("konig", "hall", "degree-sum", "wang", "covering", "lemma1", "partition")


def run_audit(name: str, samples: int, seed: int) -> AuditResult:
    """Dispatch by name; sampled audits take samples/seed, exhaustive ones
    run over their fixed corpora."""
    if samples < 1:
        raise ParameterError(f"an audit needs samples >= 1, got {samples}")
    if name == "konig":
        return konig_audit(samples, seed)
    if name == "hall":
        return hall_audit(samples, seed)
    if name == "degree-sum":
        return degree_sum_random_audit(samples, seed)
    if name == "wang":
        return wang_audit()
    if name == "covering":
        return covering_audit(seed=seed)
    if name == "lemma1":
        return lemma1_audit()
    if name == "partition":
        return partition_audit(samples, seed)
    raise KeyError(f"unknown audit {name!r}")
