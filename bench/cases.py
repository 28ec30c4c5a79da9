"""The benchmark's three workloads: seeded inputs, one call per case, and the
invariant each answer must satisfy.

A case is what one CLI call does: `decompose --oracle` (lemma-xcheck),
`oracle ex` (ex-enum), `decompose --b`, `turan` + `construct` and
`oracle f2 --coloring` (covering-construct).  The seed relabels tree and
forbidden-graph vertices and draws the random length assignments, so the
program only ever sees the generated inputs.  Larger inputs come first, so
that when a run ends inside its second pass the costly cases, which decide
wall_s, are the ones measured twice.  Invariants are checked
outside the timed region.  Timed calls go through the module attribute
(`decomp.b_family`), so that the tracer's patches see them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable

from oddballoon import construct, decomp, embed, formulas, oracle
from oddballoon.balloon import BalloonSpec, BipartiteTree, bipartition, build_balloon, load_spec
from oddballoon.codec import encode_graph6
from oddballoon.decomp import GraphFamily
from oddballoon.formulas import e_base
from oddballoon.generate import trees_up_to
from oddballoon.graphs import Graph, complete_graph, cycle_graph, relabel, turan_graph
from oddballoon.matching import min_vertex_cover

WORKLOADS = ("lemma-xcheck", "ex-enum", "covering-construct")

# Values of ex(n, F) frozen from the seed commit (C4 values are classical).
EX_FROZEN = {
    "C4": {5: 6, 6: 7, 7: 9, 8: 11},
    "C5": {5: 7, 6: 9, 7: 12},
    "Bw": {5: 7, 6: 10, 7: 13},
}

CORPUS = (
    "k3.spec",
    "c5.spec",
    "bowtie.spec",
    "star2_mixed.spec",
    "friendship3.spec",
    "friendship4.spec",
    "star3_mixed.spec",
    "star3_five.spec",
    "path4_five.spec",
    "path5.spec",
    "spider211.spec",
    "spider221.spec",
    "double_star33.spec",
    "double_star23.spec",
)


@dataclass
class Case:
    """One timed call.  `run` is the timed part; `answer` turns its result
    into a comparable value and `check` returns None or why it is wrong;
    neither is timed."""

    cid: str
    run: Callable[[], Any]
    answer: Callable[[Any], Any]
    check: Callable[[Any], str | None]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def relabel_tree(
    tree: BipartiteTree, spec: BalloonSpec, rng: random.Random
) -> tuple[BipartiteTree, BalloonSpec]:
    """Move vertex v to index perm[v]; names travel with their vertices, so
    name-based tie-breaks give the same answer as the unrelabelled spec."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    names = [""] * tree.n
    for v, name in enumerate(tree.names):
        names[perm[v]] = name
    edges = tuple(sorted(_norm(perm[u], perm[v]) for u, v in tree.edges))
    lengths = tuple(sorted((_norm(perm[u], perm[v]), ln) for (u, v), ln in spec.lengths))
    return BipartiteTree(tuple(names), edges), BalloonSpec(lengths)


def relabel_graph(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _tree(g: Graph) -> BipartiteTree:
    return BipartiteTree(tuple(str(v) for v in range(g.n)), tuple(g.edges()))


def _with_lengths(tree: BipartiteTree, lengths) -> BalloonSpec:
    return BalloonSpec(tuple(zip(tree.edges, lengths)))


def _is_free(g: Graph, family: list[Graph]) -> bool:
    return not any(embed.contains_subgraph(g, m) for m in family)


# -- lemma-xcheck ---------------------------------------------------------


def lemma_cases(rng: random.Random) -> list[Case]:
    """Every tree with 1-4 edges and every {3,5} length assignment: the
    splitting/peeling family against the embedding oracle (70 cases)."""
    cases = []
    trees = trees_up_to(5)
    for n in range(5, 1, -1):
        for i, tg in enumerate(trees[n]):
            base = _tree(tg)
            for combo in product((3, 5), repeat=len(base.edges)):
                tree, spec = relabel_tree(base, _with_lengths(base, combo), rng)
                cid = f"T{n}.{i}:{''.join(map(str, combo))}"
                cases.append(
                    Case(
                        cid,
                        lambda t=tree, s=spec: (decomp.decomposition_family(t, s), decomp.decomposition_oracle(t, s)),
                        lambda r: (r[0].keys(), r[1].keys()),
                        lambda r: None if r[0].iso_equal(r[1]) else "family differs from oracle",
                    )
                )
    return cases


# -- ex-enum --------------------------------------------------------------


def ex_cases(rng: random.Random, specs: Path) -> list[Case]:
    """ex_exact over K3 (n 5-8), K4 (5-7), C4 (5-8), C5 (5-7) and the bowtie
    ballooning (5-7): 17 cases."""
    bowtie = build_balloon(*load_spec(specs / "bowtie.spec"))
    families = (
        ("K3", complete_graph(3), range(5, 9), lambda n: n * n // 4),
        ("K4", complete_graph(4), range(5, 8), lambda n: turan_graph(n, 3).edge_count()),
        ("C4", cycle_graph(4), range(5, 9), EX_FROZEN["C4"].__getitem__),
        ("C5", cycle_graph(5), range(5, 8), EX_FROZEN["C5"].__getitem__),
        ("Bw", bowtie, range(5, 8), EX_FROZEN["Bw"].__getitem__),
    )
    cases = []
    for name, g, ns, expected in families:
        for n in reversed(ns):
            family = [relabel_graph(g, rng)]

            def check(res, n=n, family=family, want=expected(n)) -> str | None:
                if res.value != want:
                    return f"ex = {res.value}, expected {want}"
                if res.witness.n != n or res.witness.edge_count() != want:
                    return "witness has the wrong size"
                if not _is_free(res.witness, family):
                    return "witness contains a forbidden graph"
                return None

            cases.append(
                Case(
                    f"{name}:n{n}",
                    lambda n=n, f=family: oracle.ex_exact(n, f),
                    lambda r: (r.value, encode_graph6(r.witness), r.nodes_explored),
                    check,
                )
            )
    return cases


# -- covering-construct ---------------------------------------------------


def _covering_case(cid: str, tree: BipartiteTree, spec: BalloonSpec) -> Case:
    side_a, _ = bipartition(tree, spec)
    a = len(side_a)
    beta = min_vertex_cover(tree.graph())
    delta_a = min(tree.degree(v) for v in side_a)

    def check(fam: GraphFamily) -> str | None:
        ka = GraphFamily()
        ka.add(complete_graph(a), strip=False)
        if (fam.keys() == ka.keys()) != (beta == a):
            return "B = {K_a} iff beta(T) = a fails"
        if delta_a >= 2 and beta != a:
            return "delta_A >= 2 but beta(T) != a"
        return None

    return Case(cid, lambda: decomp.b_family(tree, spec), lambda r: r.keys(), check)


def _construct_case(cid: str, n: int, tree: BipartiteTree, spec: BalloonSpec) -> Case:
    def run():
        total = formulas.turan_number(n, tree, spec).total
        cand = construct.extremal_candidate(n, tree, spec)
        return total, cand, not embed.contains_subgraph(cand.graph, build_balloon(tree, spec))

    def check(r) -> str | None:
        total, cand, free = r
        if cand.graph.edge_count() != total:
            return f"candidate has {cand.graph.edge_count()} edges, formula {total}"
        return None if free else "candidate contains T_o"

    return Case(cid, run, lambda r: (r[0], encode_graph6(r[1].graph), r[2]), check)


def _coloring_case(cid: str, n: int, tree: BipartiteTree, spec: BalloonSpec) -> Case:
    balloon = build_balloon(tree, spec)
    bound = e_base(n, 3) + 1

    def check(uncovered: int) -> str | None:
        total = formulas.turan_number(n, tree, spec).total
        if not uncovered >= bound > total:
            return f"uncovered {uncovered}, need >= {bound} > {total}"
        return None

    return Case(
        cid,
        lambda: oracle.f2_count_uncovered(construct.coloring_candidate(n, tree, spec), balloon),
        lambda r: r,
        check,
    )


def covering_cases(rng: random.Random, specs: Path) -> list[Case]:
    """b_family over every tree with at most 8 vertices and the length
    assignments all-3, all-5 and seeded random from {3,5,7} (141 cases);
    turan_number + extremal_candidate + freeness certificate for the 14-spec
    corpus at n in {20,30,40} (42 cases); the double_star33 colouring at
    n = 20 (1 case)."""
    cases = []
    trees = trees_up_to(8)
    for n in range(8, 1, -1):
        for i, tg in enumerate(trees[n]):
            base = _tree(tg)
            e = len(base.edges)
            drawn = tuple(rng.choice((3, 5, 7)) for _ in range(e))
            for tag, lengths in (("3", (3,) * e), ("5", (5,) * e), ("r", drawn)):
                tree, spec = relabel_tree(base, _with_lengths(base, lengths), rng)
                cases.append(_covering_case(f"B:T{n}.{i}:{tag}", tree, spec))
    for name in CORPUS:
        base_tree, base_spec = load_spec(specs / name)
        for n in (20, 30, 40):
            tree, spec = relabel_tree(base_tree, base_spec, rng)
            cases.append(_construct_case(f"C:{name}:n{n}", n, tree, spec))
    tree, spec = relabel_tree(*load_spec(specs / "double_star33.spec"), rng)
    cases.append(_coloring_case("F2:double_star33:n20", 20, tree, spec))
    return cases


def build_cases(workload: str, seed: int, specs: Path) -> list[Case]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "lemma-xcheck":
        return lemma_cases(rng)
    if workload == "ex-enum":
        return ex_cases(rng, specs)
    if workload == "covering-construct":
        return covering_cases(rng, specs)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
