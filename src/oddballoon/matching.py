"""Exact matching and vertex-cover computations for small graphs."""
from __future__ import annotations

from .graphs import (
    CapacityError,
    Graph,
    bit_indices,
    is_bipartite,
    iter_bits,
)


def _blossom_augment(rows: list[int], match: list[int], root: int, n: int) -> bool:
    """Grow an alternating tree from root, contracting blossoms; augment if an
    exposed vertex is reached (Edmonds)."""
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = [root]
    qi = 0

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, stop: int, child: int, blossom: list[bool]) -> None:
        while base[v] != stop:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for to in bit_indices(rows[v]):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                stop = lca(v, to)
                blossom = [False] * n
                mark_path(v, stop, to, blossom)
                mark_path(to, stop, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = stop
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        pv = parent[to]
                        nxt = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = nxt
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def max_matching(g: Graph) -> int:
    """Exact maximum matching size (general graphs, blossom contraction)."""
    n = g.n
    rows = list(g.rows)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in iter_bits(rows[v]):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1 and rows[v]:
            _blossom_augment(rows, match, v, n)
    return sum(1 for v in range(n) if match[v] != -1) // 2


def _greedy_matching_size(rows: list[int], alive: int) -> int:
    size = 0
    mask = alive
    while True:
        v = -1
        for w in iter_bits(mask):
            if rows[w] & mask:
                v = w
                break
        if v == -1:
            return size
        u = (rows[v] & mask & -(rows[v] & mask)).bit_length() - 1
        mask &= ~((1 << v) | (1 << u))
        size += 1


def min_vertex_cover(g: Graph) -> int:
    """Exact minimum vertex cover via branch and bound.  Non-bipartite inputs
    are capped at 24 vertices."""
    if g.n > 24 and not is_bipartite(g):
        raise CapacityError("min_vertex_cover: non-bipartite input over 24 vertices")
    rows = list(g.rows)
    full = g.vertices_mask()
    best = [2 * _greedy_matching_size(rows, full)]  # both ends of a maximal matching

    def solve(alive: int, local_rows: list[int], count: int) -> None:
        # reduce: drop isolated vertices, take the neighbor of any pendant
        while True:
            changed = False
            maxd = 0
            maxv = -1
            for v in iter_bits(alive):
                row = local_rows[v] & alive
                d = row.bit_count()
                if d == 0:
                    alive &= ~(1 << v)
                elif d == 1:
                    w = row.bit_length() - 1
                    count += 1
                    alive &= ~((1 << v) | (1 << w))
                    changed = True
                    break
                elif d > maxd:
                    maxd = d
                    maxv = v
            if not changed:
                break
        if count >= best[0]:
            return
        if maxv == -1:
            best[0] = count
            return
        if count + _greedy_matching_size(local_rows, alive) >= best[0]:
            return
        nb = local_rows[maxv] & alive
        # branch: maxv in the cover, or all its neighbors are
        solve(alive & ~(1 << maxv), local_rows, count + 1)
        solve(alive & ~nb & ~(1 << maxv), local_rows, count + nb.bit_count())

    solve(full, rows, 0)
    return best[0]


def neighborhood_mask(g: Graph, subset: int) -> int:
    out = 0
    for v in iter_bits(subset):
        out |= g.rows[v]
    return out


def hall_violating_set(g: Graph, x_mask: int) -> int | None:
    """A subset S of x_mask with |N(S)| < |S|, or None if Hall's condition
    holds.  Exhaustive over subsets; keep |x_mask| small (<= ~16)."""
    verts = bit_indices(x_mask)
    if len(verts) > 20:
        raise CapacityError("hall check: side too large for subset enumeration")
    for sub in range(1, 1 << len(verts)):
        s_mask = 0
        for i in iter_bits(sub):
            s_mask |= 1 << verts[i]
        if neighborhood_mask(g, s_mask).bit_count() < s_mask.bit_count():
            return s_mask
    return None

