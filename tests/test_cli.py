import json
from pathlib import Path

import pytest

from oddballoon.balloon import load_spec
from oddballoon.canon import is_isomorphic
from oddballoon.cli import main
from oddballoon.codec import decode_graph6, encode_graph6
from oddballoon.graphs import complete_graph, turan_graph

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", str(SPECS / "friendship3.spec"))
    assert code == 0
    assert "a = 1" in out and "branch = k_eq_k1" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", str(SPECS / "double_star33.spec"), "--json")
    assert code == 0
    assert out == (
        '{"a": 3, "b_size": 3, "k": 1, "k1": 0, "u": "c", "beta": 2, "nu": 2, "good": true, "branch": "k_gt_k1"}\n'
    )


def test_analyze_not_good(capsys):
    code, out, _ = run(capsys, "analyze", str(SPECS / "notgood_path4.spec"))
    assert code == 1
    assert "NOT good" in out


def test_analyze_json_spec_variant(capsys):
    code_a, out_a, _ = run(capsys, "analyze", str(SPECS / "double_star33.spec"), "--json")
    code_b, out_b, _ = run(capsys, "analyze", str(SPECS / "double_star33.json"), "--json")
    assert code_a == code_b == 0
    assert json.loads(out_a) == json.loads(out_b)


def test_decompose_friendship(capsys):
    code, out, _ = run(capsys, "decompose", str(SPECS / "friendship3.spec"))
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 2  # S_3 and 3K_2 as graph6
    assert lines == sorted(lines)


def test_decompose_oracle_and_b(capsys):
    code, out, _ = run(capsys, "decompose", str(SPECS / "bowtie.spec"), "--oracle", "--b")
    assert code == 0
    assert "oracle agreement: True" in out
    assert "B family:" in out


def test_decompose_oracle_disagreement(capsys, monkeypatch):
    # a disagreeing oracle fails the command and prints its family on stderr
    import oddballoon.cli as cli
    from oddballoon.decomp import GraphFamily

    orc = GraphFamily()
    orc.add(complete_graph(3))
    monkeypatch.setattr(cli, "decomposition_oracle", lambda tree, spec: orc)
    code, out, err = run(capsys, "decompose", str(SPECS / "bowtie.spec"), "--oracle")
    assert code == 1
    assert "oracle agreement: False" in out
    assert err == f"oracle family:\n{encode_graph6(complete_graph(3))}\n"


def test_turan(capsys):
    code, out, _ = run(capsys, "turan", str(SPECS / "friendship3.spec"), "-n", "100")
    assert code == 0
    assert "total             = 2506" in out


def test_turan_json(capsys):
    code, out, _ = run(capsys, "turan", str(SPECS / "bowtie.spec"), "-n", "20", "--json")
    assert code == 0
    assert out == (
        '{"n": 20, "a": 1, "k": 2, "k1": 2, "branch": "k_eq_k1", "base": 100, "middle": 0, '
        '"tail": 1, "total": 101, "large_n_only": true}\n'
    )


def test_construct_verify_roundtrip(capsys, tmp_path):
    # verify reads the .json file that construct -o writes
    for spec, n in (("friendship3.spec", "16"), ("k3.spec", "20")):
        out_file = tmp_path / "cand.json"
        code, out, _ = run(capsys, "construct", str(SPECS / spec), "-n", n, "-o", str(out_file))
        assert code == 0
        assert "T_o not contained" in out
        code, out, _ = run(capsys, "verify", str(out_file), str(SPECS / spec))
        assert code == 0
        assert out == "T_o not contained\n"


def test_construct_verify_past_62_vertices(capsys, tmp_path):
    # graph6 writes and reads hosts up to the vertex cap, not only n <= 62
    out_file = tmp_path / "cand.json"
    code, out, _ = run(capsys, "construct", str(SPECS / "k3.spec"), "-n", "70", "-o", str(out_file))
    assert code == 0
    assert decode_graph6(json.loads(out_file.read_text())["graph6"]).n == 70
    code, out, _ = run(capsys, "verify", str(out_file), str(SPECS / "k3.spec"))
    assert code == 0
    assert out == "T_o not contained\n"


def test_verify_60_vertex_graph6_host(capsys, tmp_path):
    # the size byte of a 60-vertex graph6 string is "{", as a JSON object's
    # first byte is; the .g6 suffix still reads it as graph6
    out_file = tmp_path / "cand.json"
    code, _, _ = run(capsys, "construct", str(SPECS / "k3.spec"), "-n", "60", "-o", str(out_file))
    assert code == 0
    host_file = tmp_path / "cand.g6"
    host_file.write_text(json.loads(out_file.read_text())["graph6"])
    assert host_file.read_text().startswith("{")
    code, out, _ = run(capsys, "verify", str(host_file), str(SPECS / "k3.spec"))
    assert code == 0
    assert out == "T_o not contained\n"


@pytest.mark.parametrize("text", ["[]", '{"graph6": 5}', '{"edge_count": 3}'], ids=["list", "int", "missing"])
def test_verify_json_host_needs_graph6_field(capsys, tmp_path, text):
    host_file = tmp_path / "cand.json"
    host_file.write_text(text)
    code, out, err = run(capsys, "verify", str(host_file), str(SPECS / "k3.spec"))
    assert code == 1 and out == ""
    assert 'string "graph6" field' in err


def test_construct_five_triangle_friendship(capsys, tmp_path):
    # k = 5: the f(4, 4) piece is built in closed form, not searched for
    spec = tmp_path / "friendship5.spec"
    spec.write_text("tree: c-a c-b c-d c-e c-f\ncycles: c-a:3 c-b:3 c-d:3 c-e:3 c-f:3\n")
    code, out, _ = run(capsys, "construct", str(spec), "-n", "24")
    assert code == 0
    payload, _ = json.JSONDecoder().raw_decode(out)
    assert payload["balloon_free"] is True
    code, out, _ = run(capsys, "turan", str(spec), "-n", "24", "--json")
    assert code == 0
    assert payload["edge_count"] == json.loads(out)["total"]


def test_construct_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "construct", str(SPECS / "k3.spec"), "-n", "8", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("graph G {")


def test_verify_containing_host(capsys, tmp_path):
    # K_7 contains the bowtie
    from oddballoon.codec import encode_graph6
    from oddballoon.graphs import complete_graph

    host_file = tmp_path / "k7.g6"
    host_file.write_text(encode_graph6(complete_graph(7)))
    code, out, _ = run(capsys, "verify", str(host_file), str(SPECS / "bowtie.spec"))
    assert code == 0
    assert "T_o contained" in out


def test_oracle_ex(capsys):
    code, out, _ = run(capsys, "oracle", "ex", "-n", "6", "--forbid", "Bw")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 9
    assert data["nodes_explored"] > 0 and data["elapsed_ms"] >= 0


def test_oracle_ex_witness(capsys):
    k4 = encode_graph6(complete_graph(4))
    code, out, _ = run(capsys, "oracle", "ex", "-n", "8", "--forbid", k4)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 21
    assert is_isomorphic(decode_graph6(data["witness_graph6"]), turan_graph(8, 3))


def test_oracle_ex_bounded(capsys):
    code, out, _ = run(capsys, "oracle", "ex", "--nu", "2", "--delta", "2")
    assert code == 0
    assert json.loads(out)["value"] == 6


def test_oracle_f2_spec_and_coloring(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "f2", str(SPECS / "k3.spec"), "-n", "5")
    assert code == 0
    assert json.loads(out)["value"] == 10

    coloring = {"n": 4, "red": [[0, 1], [1, 2], [0, 2], [0, 3], [1, 3], [2, 3]]}
    cfile = tmp_path / "col.json"
    cfile.write_text(json.dumps(coloring))
    code, out, _ = run(capsys, "oracle", "f2", "Bw", "--coloring", str(cfile))
    assert code == 0
    assert json.loads(out)["uncovered"] == 0


@pytest.mark.parametrize(
    "coloring",
    [
        {"n": 4},
        [[0, 1]],
        {"n": 4, "red": [[0, 1, 2]]},
        {"n": True, "red": []},
        {"n": 4, "red": [[True, False]]},
        {"n": -3, "red": []},
    ],
    ids=["missing-red", "not-an-object", "three-element-edge", "boolean-n", "boolean-endpoints", "negative-n"],
)
def test_oracle_f2_malformed_coloring(capsys, tmp_path, coloring):
    cfile = tmp_path / "col.json"
    cfile.write_text(json.dumps(coloring))
    code, _, err = run(capsys, "oracle", "f2", "Bw", "--coloring", str(cfile))
    assert code == 1
    assert err.startswith("error: coloring")


def test_construct_coloring_roundtrip(capsys, tmp_path):
    cfile = tmp_path / "ds.json"
    code, out, _ = run(
        capsys,
        "construct",
        str(SPECS / "double_star33.spec"),
        "-n",
        "20",
        "--coloring-out",
        str(cfile),
    )
    assert code == 0
    payload, _ = json.JSONDecoder().raw_decode(out)
    red = {tuple(e) for e in json.loads(cfile.read_text())["red"]}
    assert red == set(decode_graph6(payload["graph6"]).edges())
    code, out, _ = run(
        capsys, "oracle", "f2", str(SPECS / "double_star33.spec"), "--coloring", str(cfile)
    )
    assert code == 0
    assert json.loads(out)["uncovered"] >= 118


def test_construct_coloring_out_builds_the_candidate_once(capsys, tmp_path, monkeypatch):
    import oddballoon.cli as cli
    import oddballoon.construct as construct

    tree, spec = load_spec(SPECS / "double_star33.spec")
    red = sorted(construct.coloring_candidate(20, tree, spec).red)
    calls = []
    built = construct.extremal_candidate

    def counted(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(cli, "extremal_candidate", counted)
    monkeypatch.setattr(construct, "extremal_candidate", counted)
    cfile = tmp_path / "ds.json"
    code, _, _ = run(
        capsys, "construct", str(SPECS / "double_star33.spec"), "-n", "20", "--coloring-out", str(cfile)
    )
    assert code == 0
    assert len(calls) == 1
    assert cfile.read_text() == json.dumps({"n": 20, "red": [list(e) for e in red]}) + "\n"


def test_audit_cli(capsys):
    code, out, _ = run(capsys, "audit", "hall", "--samples", "200", "--seed", "3")
    assert code == 0
    assert "audit hall" in out and "ok" in out


@pytest.mark.parametrize(
    "argv", [["hall", "--samples", "0"], ["partition", "--samples", "-3"]], ids=["zero", "negative"]
)
def test_audit_cli_needs_samples(capsys, argv):
    code, out, err = run(capsys, "audit", *argv)
    assert code == 1 and out == ""
    assert "samples >= 1" in err


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("tree: a-b b-c c-a\ncycles: a-b:3 b-c:3 c-a:3\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "not a tree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{missing}.spec"],
        ["verify", "{missing}.g6", str(SPECS / "k3.spec")],
        ["oracle", "f2", str(SPECS / "k3.spec"), "--coloring", "{missing}.json"],
    ],
    ids=["analyze-spec", "verify-host", "f2-coloring"],
)
def test_missing_input_file(capsys, tmp_path, argv):
    missing = tmp_path / "nope"
    code, _, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and "nope" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
