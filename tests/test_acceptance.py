"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; every check carries its stated wall-clock budget.
"""
import time
from itertools import product
from pathlib import Path

from oddballoon.audits import (
    _tree_from_graph,
    covering_audit,
    degree_sum_random_audit,
    hall_audit,
    konig_audit,
    partition_audit,
    wang_audit,
)
from oddballoon.balloon import build_balloon, load_spec
from oddballoon.canon import is_isomorphic
from oddballoon.construct import coloring_candidate, extremal_candidate
from oddballoon.decomp import decomposition_family, decomposition_oracle
from oddballoon.embed import contains_subgraph
from oddballoon.formulas import chvatal_hanson, e_base, turan_number
from oddballoon.generate import trees_up_to
from oddballoon.graphs import complete_bipartite, complete_graph, from_edges, star_graph, union_all
from oddballoon.oracle import (
    ex_bounded_degree_matching,
    ex_exact,
    f2_count_uncovered,
    star_matching_max,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
K2 = from_edges(2, [(0, 1)])


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {desc} ({elapsed:.1f}s, budget {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s budget: {elapsed:.1f}s"


def test_criterion_1_chvatal_hanson_cross_check():
    t0 = time.perf_counter()
    ok = all(
        ex_bounded_degree_matching(nu, delta) == chvatal_hanson(nu, delta)
        for nu in range(4)
        for delta in range(4)
    )
    ok = ok and chvatal_hanson(2, 2) == 6 and chvatal_hanson(3, 3) == 10
    _report(1, "formula equals bounded brute force on all 16 cases", ok, time.perf_counter() - t0, 120)


def test_criterion_2_decomposition_lemma():
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for n in range(2, 6):
        for tg in trees_up_to(5)[n]:
            tree = _tree_from_graph(tg)
            if len(tree.edges) > 4:
                continue
            for combo in product((3, 5), repeat=len(tree.edges)):
                from oddballoon.balloon import BalloonSpec

                spec = BalloonSpec(tuple(zip(tree.edges, combo)))
                cases += 1
                if not decomposition_family(tree, spec).iso_equal(
                    decomposition_oracle(tree, spec)
                ):
                    failures.append((tree.edges, combo))
    ok = not failures and cases == 70  # 1,1,2,3 trees with 1..4 edges, lengths {3,5}
    _report(
        2,
        f"splitting/peeling family equals embedding oracle on {cases} cases",
        ok,
        time.perf_counter() - t0,
        600,
    )


def test_criterion_3_friendship_family():
    t0 = time.perf_counter()
    from oddballoon.balloon import BalloonSpec, BipartiteTree
    from oddballoon.canon import canonical_key

    ok = True
    for k in (2, 3, 4):
        names = tuple(["c"] + [f"x{i}" for i in range(k)])
        edges = tuple((0, i) for i in range(1, k + 1))
        tree = BipartiteTree(names, edges)
        spec = BalloonSpec(tuple((e, 3) for e in edges))
        fam = decomposition_family(tree, spec)
        expected = {canonical_key(star_graph(k)), canonical_key(union_all([K2] * k))}
        ok = ok and fam.keys() == expected
    _report(3, "all-triangle stars decompose into {S_k, kK_2} for k=2,3,4", ok, time.perf_counter() - t0, 120)


def test_criterion_4_mantel_oracle():
    t0 = time.perf_counter()
    k3 = complete_graph(3)
    ok = all(ex_exact(n, [k3]).value == n * n // 4 for n in range(3, 9))
    _report(4, "triangle oracle matches n^2/4 for 3 <= n <= 8", ok, time.perf_counter() - t0, 60)


def test_criterion_5_star_matching_lemma():
    t0 = time.perf_counter()
    v3, w3 = star_matching_max(3)
    ok = v3 == 4 and len(w3) == 1 and is_isomorphic(w3[0], complete_bipartite(2, 2))
    v4, w4 = star_matching_max(4)
    ok = ok and v4 == 9 and len(w4) == 2
    ok = ok and any(is_isomorphic(g, complete_bipartite(3, 3)) for g in w4)
    ok = ok and any(is_isomorphic(g, union_all([complete_graph(3)] * 3)) for g in w4)
    _report(5, "star-matching maxima and witnesses exact for k=3,4", ok, time.perf_counter() - t0, 300)


CORPUS = [
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
]


def test_criterion_6_construction_certification():
    t0 = time.perf_counter()
    failures = []
    for name in CORPUS:
        tree, spec = load_spec(SPECS / name)
        balloon = build_balloon(tree, spec)
        for n in (20, 30, 40):
            cand = extremal_candidate(n, tree, spec)
            total = turan_number(n, tree, spec).total
            if cand.graph.edge_count() != total:
                failures.append((name, n, "edge count"))
            if contains_subgraph(cand.graph, balloon):
                failures.append((name, n, "not free"))
    ok = not failures and len(CORPUS) >= 10
    _report(
        6,
        f"{len(CORPUS)} specs x n in (20,30,40): edge counts match, all candidates free",
        ok,
        time.perf_counter() - t0,
        600,
    )
    assert not failures, failures


def test_criterion_7_small_n_oracle_vs_formula():
    t0 = time.perf_counter()
    tree, spec = load_spec(SPECS / "bowtie.spec")
    balloon = build_balloon(tree, spec)
    res = ex_exact(7, [balloon])
    cand = extremal_candidate(7, tree, spec)
    free = not contains_subgraph(cand.graph, balloon)
    ok = res.value >= 13 and cand.graph.edge_count() == 13 and free
    equality = res.value == 13
    _report(
        7,
        f"ex(7, bowtie) = {res.value} >= 13, candidate free with 13 edges "
        f"(formula equality at n=7: {equality})",
        ok,
        time.perf_counter() - t0,
        600,
    )


def test_criterion_8_uncovered_edges_counterexample():
    t0 = time.perf_counter()
    tree, spec = load_spec(SPECS / "double_star33.spec")
    balloon = build_balloon(tree, spec)
    coloring = coloring_candidate(20, tree, spec)
    uncovered = f2_count_uncovered(coloring, balloon)
    total = turan_number(20, tree, spec).total
    ok = uncovered >= e_base(20, 3) + 1 and uncovered > total and total == e_base(20, 3)
    _report(
        8,
        f"double-star coloring leaves {uncovered} uncovered edges "
        f">= {e_base(20, 3) + 1} > formula total {total}",
        ok,
        time.perf_counter() - t0,
        300,
    )


def test_criterion_9_lemma_audits():
    t0 = time.perf_counter()
    per_seed = 2_000  # seeds 0..4 -> 10^4 samples per randomized audit
    results = []
    for seed in range(5):
        results.append(konig_audit(samples=per_seed, seed=seed))
        results.append(hall_audit(samples=per_seed, seed=seed))
        results.append(degree_sum_random_audit(samples=per_seed, seed=seed))
        results.append(partition_audit(samples=per_seed, seed=seed))
    results.append(wang_audit())
    results.append(covering_audit(0))
    ok = all(r.ok for r in results)
    detail = "; ".join(sorted({r.name for r in results}))
    _report(9, f"zero counterexamples across audits ({detail})", ok, time.perf_counter() - t0, 900)
