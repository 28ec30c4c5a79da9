import random

import pytest

from helpers import petersen
from oddballoon.codec import Graph6Error, decode_graph6, encode_graph6, export_dot
from oddballoon.generate import random_graph
from oddballoon.graphs import (
    VERTEX_CAP,
    CapacityError,
    complete_graph,
    cycle_graph,
    empty_graph,
    star_graph,
)


def test_hand_encoded_values():
    # worked out by hand from the format: n+63, then column-major triangle bits
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(empty_graph(1)) == "@"


def test_round_trip():
    for g in [petersen(), cycle_graph(7), star_graph(5), empty_graph(0), complete_graph(9)]:
        assert decode_graph6(encode_graph6(g)) == g


def test_header_tolerated():
    assert decode_graph6(">>graph6<<Bw") == complete_graph(3)


def test_capacity():
    # past 62 vertices the size is "~" and three 6-bit digits: 129 = 2 * 64 + 1
    with pytest.raises(CapacityError):
        decode_graph6("~?A@")
    with pytest.raises(CapacityError):  # the 8-byte size form (n > 258047)
        decode_graph6("~~??????")
    assert decode_graph6(encode_graph6(empty_graph(VERTEX_CAP))) == empty_graph(VERTEX_CAP)


@pytest.mark.parametrize("n", [63, 100, VERTEX_CAP])
def test_four_byte_size_form_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    g = random_graph(random.Random(n), n, 0.3)
    text = encode_graph6(g)
    assert text[0] == "~"
    ref = nx.empty_graph(n)
    ref.add_edges_from(g.edges())
    assert text.encode() == nx.to_graph6_bytes(ref, header=False).strip()
    assert decode_graph6(text) == g


def test_malformed_inputs_report_offsets():
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("B")  # truncated: K_3 size needs one data byte
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("B" + chr(20))  # data byte below the printable range
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("~?A")  # four-byte size form cut short
    assert exc.value.offset == 3
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("~?" + chr(20) + "~")  # size digit below the printable range
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error):
        decode_graph6("@@")  # trailing junk after a 1-vertex graph


def test_nonzero_padding_rejected():
    # E_2 needs one data byte with a single leading bit; force padding bits on
    with pytest.raises(Graph6Error):
        decode_graph6("A" + chr(63 + 0b011111))


def test_dot_export():
    dot = export_dot(star_graph(2))
    assert dot.startswith("graph G {\n  0;\n  1;\n  2;\n") and dot.endswith("}\n")
    assert "0 -- 1;" in dot and "0 -- 2;" in dot
