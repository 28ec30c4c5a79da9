import pytest

from helpers import abbott_value
from oddballoon.balloon import parse_spec
from oddballoon.formulas import chvatal_hanson, e_base, turan_number
from oddballoon.graphs import ParameterError


def test_chvatal_hanson_values():
    assert chvatal_hanson(1, 1) == 1
    assert chvatal_hanson(2, 2) == 6
    assert chvatal_hanson(3, 3) == 10
    # frozen from the bounded oracle (see test_acceptance criterion 1)
    assert chvatal_hanson(2, 3) == 7
    assert chvatal_hanson(0, 5) == 0
    assert chvatal_hanson(5, 0) == 0
    with pytest.raises(ParameterError):
        chvatal_hanson(-1, 2)


def test_chvatal_hanson_upper_bound():
    for nu in range(11):
        for delta in range(11):
            assert chvatal_hanson(nu, delta) <= nu * (delta + 1)


def test_abbott_piecewise_agrees():
    for k in range(2, 11):
        assert chvatal_hanson(k - 1, k - 1) == abbott_value(k)
    assert abbott_value(3) == 6
    assert abbott_value(4) == 10


def test_tail_branches_consistent():
    # f(k-1,k-1) >= (k-1)^2
    for k in range(1, 12):
        assert chvatal_hanson(k - 1, k - 1) >= (k - 1) ** 2


def test_e_base():
    assert e_base(10, 1) == 25
    assert e_base(10, 2) == 9 + 20
    assert e_base(12, 3) == 2 * 10 + 25
    with pytest.raises(ParameterError):
        e_base(2, 3)


def test_turan_number_star_all_triangles():
    tree, spec = parse_spec("tree: c-a c-b c-d\ncycles: c-a:3 c-b:3 c-d:3")
    rep = turan_number(100, tree, spec)
    assert rep.total == 100 * 100 // 4 + chvatal_hanson(2, 2) == 2506
    assert rep.branch == "k_eq_k1"
    assert rep.tail == chvatal_hanson(2, 2)
    assert rep.total == rep.base + rep.middle + rep.tail


def test_turan_number_double_star():
    tree, spec = parse_spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    rep = turan_number(20, tree, spec)
    assert rep.total == e_base(20, 3) == 117
    assert rep.middle == 0 and rep.tail == 0


def test_turan_number_single_triangle():
    tree, spec = parse_spec("tree: a-b\ncycles: a-b:3")
    for n in (9, 20, 101):
        rep = turan_number(n, tree, spec)
        assert rep.total == n * n // 4


def test_turan_report_middle_bound_and_json():
    tree, spec = parse_spec("tree: u-v u-a u-b v-c v-d\ncycles: u-v:5 u-a:3 u-b:3 v-c:5 v-d:5")
    rep = turan_number(25, tree, spec)
    a = rep.a
    assert rep.middle <= (a - 1) * (a - 2) // 2
    d = rep.to_dict()
    assert d["total"] == rep.total and d["large_n_only"] is True
    assert "f(" not in rep.render() or rep.branch == "k_eq_k1"
