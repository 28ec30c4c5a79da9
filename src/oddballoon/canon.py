"""Canonical keys, canonical forms and automorphism generators.

A key is a tag byte, the vertex count in two bytes, and a body; the tag
names one of two routes, and the routes never key isomorphic graphs:

- ``T``, forests: the sorted center-rooted subtree codes of the
  components (linear time, exact);
- ``G``, every other graph, connected or not (and the empty graph): the
  rows of the copy relabelled by one individualization-refinement search
  of the whole graph (McKay & Piperno, *Practical graph isomorphism II*,
  J. Symb. Comput. 60, 2014).

A key spells out one graph of its class, and that graph is the canonical
form: `canonical_form` decodes the key, so keys and forms come from one
labelling.

The search tree.  A node is an ordered partition of the vertices: the
degree partition after individualizing a sequence of vertices (the
node's prefix), each step followed by equitable refinement.  Refinement
is driven by a queue of splitter cells: a cell that splits re-enters the
queue as all its fragments if it was queued, else as all but one largest
fragment, so only changed cells are used again; a single-vertex splitter
splits each cell by one mask AND; and it stops once the partition is
discrete.  Every choice depends on cell positions and neighbour counts,
never on labels, so refinement commutes with relabelling.  A node's
children individualize the vertices of its first non-singleton cell; a
leaf is a discrete partition, read as a vertex order.  The key is the
least relabelled adjacency over all leaves.  The tree of a relabelled
graph is the relabelled tree, so the key is an invariant; and it is the
adjacency of a relabelled copy, so equal keys mean isomorphic.

Pruning keeps the least leaf.  An automorphism g that fixes a node's
prefix pointwise maps the node's partition to itself and the subtree of
child v onto the subtree of child g(v), each leaf to a leaf with the same
relabelled adjacency.  So a node visits one child per orbit of any group
of such automorphisms.  Two sources supply them:

- Twins (equal open or equal closed neighbourhoods): transposing two
  twins is an automorphism, and it fixes the prefix when neither is
  individualized.  So the target cell is walked one twin class at a time.
- Equal leaves: two leaves with equal relabelled adjacency give the
  automorphism that maps one vertex order onto the other.  It fixes the
  prefix of their deepest common ancestor pointwise (individualized
  vertices keep their positions under refinement) and maps the child
  towards the earlier leaf to the child towards the later one.  The
  earlier child's subtree is finished, so the search returns to the
  common ancestor at once.  Each leaf is compared with the first leaf
  and with the best leaf so far, as nauty does.

At each node the orbits come from the twin transpositions inside the
target cell and the found automorphisms that fix the node's prefix
pointwise.  The search returns the automorphisms it found; with the twin
transpositions they generate a subgroup of Aut(G), which is what
`generate` needs to grow one child per orbit.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .graphs import (
    CapacityError,
    Graph,
    _fast_graph,
    bit_indices,
    connected_components,
    iter_bits,
)

CANON_VERTEX_CAP = 16

Perm = tuple[int, ...]  # perm[v] is the image of vertex v


def tree_code(rows: tuple[int, ...], mask: int) -> bytes:
    """Code of the tree induced on the vertex mask of the adjacency rows.

    Leaves are stripped layer by layer until one or two centers remain; a
    vertex's code is "(" + its sorted child codes + ")", children being
    the neighbours stripped before it, and the tree's code is the least
    center-rooted one.  Equal for two trees iff they are isomorphic; a
    forest's key is its sorted component codes, so the code multiset of a
    forest without isolated vertices determines it up to isomorphism."""
    kids: dict[int, list[bytes]] = {v: [] for v in iter_bits(mask)}
    alive = mask
    while alive.bit_count() > 2:
        layer = [v for v in iter_bits(alive) if (rows[v] & alive).bit_count() == 1]
        for v in layer:
            alive ^= 1 << v
        for v in layer:
            kids[(rows[v] & alive).bit_length() - 1].append(b"(" + b"".join(sorted(kids[v])) + b")")
    if alive & (alive - 1) == 0:
        return b"(" + b"".join(sorted(kids[alive.bit_length() - 1])) + b")"
    a, b = bit_indices(alive)
    return min(
        b"(" + b"".join(sorted(kids[u] + [b"(" + b"".join(sorted(kids[w])) + b")"])) + b")"
        for u, w in ((a, b), (b, a))
    )


def _forest_key(codes: Iterable[bytes]) -> bytes:
    """Key of the forest with these component codes, isolated vertices included."""
    ordered = sorted(codes)
    return b"T" + (sum(map(len, ordered)) // 2).to_bytes(2, "big") + b"|".join(ordered)


def _twin_masks(rows: tuple[int, ...]) -> tuple[int, ...]:
    """For each vertex, the mask of its open twins and its closed twins
    (itself included); a vertex never has both kinds."""
    opened: dict[int, int] = {}  # open neighbourhood -> its vertices
    closed: dict[int, int] = {}  # closed neighbourhood -> its vertices
    for v, row in enumerate(rows):
        b = 1 << v
        opened[row] = opened.get(row, 0) | b
        closed[row | b] = closed.get(row | b, 0) | b
    return tuple(opened[row] | closed[row | 1 << v] for v, row in enumerate(rows))


def _twin_transpositions(twins: tuple[int, ...]) -> list[Perm]:
    """Transpositions that generate the symmetric group of every twin class."""
    n = len(twins)
    out = []
    done = 0
    for v, cls in enumerate(twins):
        if done >> v & 1:
            continue
        done |= cls
        for w in iter_bits(cls ^ 1 << v):
            perm = list(range(n))
            perm[v], perm[w] = w, v
            out.append(tuple(perm))
    return out


def _requeue(queue: list[int], cell: int, frags: list[int]) -> None:
    if cell in queue:
        i = queue.index(cell)
        queue[i : i + 1] = frags
        return
    skip = 0
    for i in range(1, len(frags)):
        if frags[i].bit_count() > frags[skip].bit_count():
            skip = i
    queue.extend(frags[:skip] + frags[skip + 1 :])


def _refine(rows: tuple[int, ...], cells: list[int], queue: list[int] | None = None) -> list[int]:
    """Equitable refinement of the ordered partition `cells` of range(len(rows)),
    done in place; returns `cells`.

    Splitters come from `queue` (default: every cell); the partition must
    already be equitable with respect to every cell not in it.  A split
    cell is replaced in place by its fragments, ordered by their neighbour
    count into the splitter.  Deterministic and isomorphism-equivariant.
    """
    queue = list(cells) if queue is None else queue
    n = len(rows)
    while queue and len(cells) < n:
        s = queue.pop(0)
        i = 0
        if s & (s - 1) == 0:
            nb = rows[s.bit_length() - 1]
            while i < len(cells):
                c = cells[i]
                hit = c & nb
                if hit and hit != c:
                    frags = [c ^ hit, hit]
                    cells[i : i + 1] = frags
                    _requeue(queue, c, frags)
                    i += 1
                i += 1
            continue
        while i < len(cells):
            c = cells[i]
            if c & (c - 1):
                buckets: dict[int, int] = {}
                m = c
                while m:
                    b = m & -m
                    m ^= b
                    k = (rows[b.bit_length() - 1] & s).bit_count()
                    buckets[k] = buckets.get(k, 0) | b
                if len(buckets) > 1:
                    frags = [buckets[k] for k in sorted(buckets)]
                    cells[i : i + 1] = frags
                    _requeue(queue, c, frags)
                    i += len(frags) - 1
            i += 1
    return cells


_NO_JUMP = 1 << 30


def _ir_search(g: Graph) -> tuple[tuple[int, ...], list[Perm], tuple[int, ...]]:
    """The least relabelled adjacency over the leaves (the rows of the
    canonical copy), the automorphisms found at leaves, and the twin masks
    (empty when the refined degree partition is discrete, as then no vertex
    has a twin)."""
    n = g.n
    rows = g.rows
    nbrs = [bit_indices(row) for row in rows]
    twins: tuple[int, ...] = ()
    found: list[Perm] = []
    path: list[int] = []
    first: tuple[tuple[int, ...], list[int], tuple[int, ...]] | None = None
    best = first

    def leaf(cells: list[int]) -> int:
        """Record a leaf; return the depth to jump back to."""
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        bit = [0] * n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        key = tuple([sum(map(bit.__getitem__, nbrs[v])) for v in order])
        if first is None or best is None:
            first = best = (key, order, tuple(path))
            return _NO_JUMP
        for ref_key, ref_order, ref_path in (first, best):
            if key == ref_key:
                perm = [0] * n
                for a, b in zip(ref_order, order):
                    perm[a] = b
                found.append(tuple(perm))
                depth = 0
                while ref_path[depth] == path[depth]:
                    depth += 1
                return depth
        if key < best[0]:
            best = (key, order, tuple(path))
        return _NO_JUMP

    def descend(cells: list[int]) -> int:
        """Visit the subtree of a node; return the depth to jump back to."""
        nonlocal twins
        for t, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            return leaf(cells)
        if not twins:
            twins = _twin_masks(rows)
        depth = len(path)
        head, tail = cells[:t], cells[t + 1 :]
        explored = done = 0
        perms: list[Perm] = []
        seen_found = 0
        while True:
            rest = cell & ~done
            if not rest:
                return _NO_JUMP
            b = rest & -rest
            path.append(b.bit_length() - 1)
            back = descend(_refine(rows, head + [b, cell ^ b] + tail, [b]))
            path.pop()
            if back < depth:
                return back
            explored |= b
            if len(found) > seen_found:
                perms += [p for p in found[seen_found:] if all(p[x] == x for x in path)]
                seen_found = len(found)
            # close the explored vertices under twins and prefix-fixing perms
            done = 0
            stack = bit_indices(explored)
            while stack:
                x = stack.pop()
                if done >> x & 1:
                    continue
                done |= twins[x] & cell
                for p in perms:
                    if not done >> p[x] & 1:
                        stack.append(p[x])

    if n:
        descend(_refine(rows, [(1 << n) - 1]))
    return (best[0] if best else ()), found, twins


def _ir_key(n: int, lab: tuple[int, ...]) -> bytes:
    width = (n + 7) // 8
    return b"G" + n.to_bytes(2, "big") + b"".join(r.to_bytes(width, "big") for r in lab)


@lru_cache(maxsize=1 << 18)
def canonical_key_any(g: Graph) -> bytes:
    """Canonical key without the public vertex cap (internal use): a
    forest's `T` key, else the `G` key of one refinement search of the
    whole graph.  Cached: enumeration workloads key the same graphs
    constantly."""
    comps = connected_components(g)
    if g.n and g.edge_count() == g.n - len(comps):
        return _forest_key(tree_code(g.rows, comp) for comp in comps)
    return _ir_key(g.n, _ir_search(g)[0])


def canonical_key(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic (n <= 16)."""
    if g.n > CANON_VERTEX_CAP:
        raise CapacityError(f"canonical_key supports n <= {CANON_VERTEX_CAP}")
    return canonical_key_any(g)


def canonical_key_and_generators(g: Graph) -> tuple[bytes, tuple[Perm, ...]]:
    """canonical_key(g) and automorphisms of g.  A forest gets its `T` key
    and the twin transpositions; any other graph gets one refinement
    search, whose rows give the key and whose automorphisms, with the twin
    transpositions, are the generators.  They generate a subgroup of
    Aut(g), not always all of it."""
    if g.n > CANON_VERTEX_CAP:
        raise CapacityError(f"canonical_key supports n <= {CANON_VERTEX_CAP}")
    comps = connected_components(g)
    if g.n and g.edge_count() == g.n - len(comps):  # a forest
        return canonical_key_any(g), tuple(_twin_transpositions(_twin_masks(g.rows)))
    lab, found, twins = _ir_search(g)
    return _ir_key(g.n, lab), (*found, *_twin_transpositions(twins))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_key(g) == canonical_key(h)


def _forest_from_codes(codes: Iterable[bytes]) -> Graph:
    """The canonical form of the forest with these component codes:
    components by (order, code), each vertex followed by its subtrees in
    code order.  A code spells its vertices in exactly that preorder, so
    each "(" is the next vertex, a child of the innermost open one."""
    rows: list[int] = []
    stack: list[int] = []
    for code in sorted(codes, key=lambda c: (len(c), c)):
        for ch in code:
            if ch == 40:  # "("
                v = len(rows)
                if stack:
                    rows[stack[-1]] |= 1 << v
                    rows.append(1 << stack[-1])
                else:
                    rows.append(0)
                stack.append(v)
            else:
                stack.pop()
    return _fast_graph(len(rows), tuple(rows))


def _decode(key: bytes) -> Graph:
    """The graph a canonical key spells out: a forest from its codes, any
    other graph from its rows."""
    tag, n, body = key[:1], int.from_bytes(key[1:3], "big"), key[3:]
    if tag == b"T":
        return _forest_from_codes(body.split(b"|"))
    w = (n + 7) // 8
    return _fast_graph(n, tuple(int.from_bytes(body[i * w : (i + 1) * w], "big") for i in range(n)))


def canonical_form(g: Graph) -> Graph:
    """Canonically labelled copy: isomorphic inputs yield identical outputs.

    It is the graph that g's canonical key spells out, so a forest's
    components come by (order, code) and any other graph is the copy
    relabelled by its refinement search.
    """
    return _decode(canonical_key_any(g))
