"""graph6 (header-less, up to the vertex cap) and DOT serialization."""
from __future__ import annotations

from .graphs import VERTEX_CAP, CapacityError, Graph, _fast_graph


class Graph6Error(ValueError):
    """Malformed graph6 input; .offset is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _triangle_bits(g: Graph) -> list[int]:
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    return bits


def encode_graph6(g: Graph) -> str:
    # the size is one byte for n <= 62, else "~" and three 6-bit digits
    out = [chr(63 + g.n) if g.n <= 62 else "~" + "".join(chr(63 + (g.n >> k & 63)) for k in (12, 6, 0))]
    bits = _triangle_bits(g)
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    wide = s[0] == "~"
    head = 4 if wide else 1
    if len(s) < head:
        raise Graph6Error("truncated size", len(s))
    n = 0
    for pos in range(wide, head):
        if not 63 <= ord(s[pos]) <= 126:
            raise Graph6Error(f"invalid size byte {s[pos]!r}", pos)
        n = n << 6 | ord(s[pos]) - 63
    if n > VERTEX_CAP:  # _fast_graph does not check the cap
        raise CapacityError(f"graph6 input has more than {VERTEX_CAP} vertices")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) != head + nchars:
        raise Graph6Error(
            f"expected {head + nchars} bytes for n={n}, got {len(s)}", min(len(s), head + nchars)
        )
    bits: list[int] = []
    for pos, ch in enumerate(s[head:], start=head):
        o = ord(ch)
        if not 63 <= o <= 126:
            raise Graph6Error(f"invalid data byte {ch!r}", pos)
        val = o - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    for k in range(nbits, len(bits)):
        if bits[k]:
            raise Graph6Error("nonzero padding bits", head + k // 6)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return _fast_graph(n, tuple(rows))


def export_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
