from oddballoon.audits import (
    covering_audit,
    degree_sum_random_audit,
    hall_audit,
    konig_audit,
    lemma1_audit,
    partition_audit,
    run_audit,
    wang_audit,
)


def test_konig():
    assert konig_audit(samples=800, seed=0).ok


def test_konig_reports_a_wrong_matching(monkeypatch):
    # a wrong nu makes the audit report counterexamples: the cover search
    # does not check itself against max_matching, so nothing raises
    import oddballoon.audits as audits
    import oddballoon.matching as matching

    right = matching.max_matching

    def wrong(g):
        return right(g) + (g.edge_count() > 0)

    monkeypatch.setattr(matching, "max_matching", wrong)
    monkeypatch.setattr(audits, "max_matching", wrong)
    res = konig_audit(samples=50, seed=0)
    assert res.counterexamples and all(g.edge_count() for g in res.counterexamples)


def test_hall():
    assert hall_audit(samples=800, seed=1).ok


def test_degree_sum():
    assert degree_sum_random_audit(samples=800, seed=2).ok


def test_wang_exhaustive_small():
    res = wang_audit()
    assert res.ok and res.samples == 33


def test_covering_small():
    res = covering_audit(0)
    assert res.ok and res.samples == 141
    assert res.detail == "120 with B = {K_a}"


def test_lemma1_small():
    res = lemma1_audit()
    assert res.ok
    assert res.samples == 2 + 4 + 2 * 8 + 3 * 16  # trees with 1..4 edges, lengths {3,5}


def test_partition():
    res = partition_audit(samples=800, seed=3)
    assert res.ok
    assert "premise-satisfying" in res.detail


def test_run_audit_dispatches_each_name(monkeypatch):
    # each name reaches its own audit, with samples and seed passed on to
    # the sampled ones and seed to the covering audit
    import oddballoon.audits as audits

    audit_of = {
        "konig": "konig_audit",
        "hall": "hall_audit",
        "degree-sum": "degree_sum_random_audit",
        "wang": "wang_audit",
        "covering": "covering_audit",
        "lemma1": "lemma1_audit",
        "partition": "partition_audit",
    }
    calls = []
    for attr in audit_of.values():
        monkeypatch.setattr(audits, attr, lambda *a, attr=attr, **kw: calls.append((attr, a, kw)) or attr)
    assert {name: run_audit(name, samples=7, seed=2) for name in audits.AUDIT_NAMES} == audit_of
    assert calls == [
        ("konig_audit", (7, 2), {}),
        ("hall_audit", (7, 2), {}),
        ("degree_sum_random_audit", (7, 2), {}),
        ("wang_audit", (), {}),
        ("covering_audit", (), {"seed": 2}),
        ("lemma1_audit", (), {}),
        ("partition_audit", (7, 2), {}),
    ]


def test_run_audit_dispatch():
    res = run_audit("hall", samples=100, seed=0)
    assert res.name == "hall" and res.ok
    import pytest

    with pytest.raises(KeyError):
        run_audit("nope", samples=10, seed=0)
