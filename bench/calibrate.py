"""Machine-speed calibration.

On a machine shared with other tenants, CPU speed drifts by 10-25% over
tens of seconds (measured on a 2-core x86 VM), which swamps the run-to-run
differences a benchmark must resolve.  A fixed kernel, owned by the
benchmark and never by the program, is timed between cases; each case time
is rescaled to the speed at which the kernel takes REFERENCE_S:

    adjusted = measured * REFERENCE_S / kernel time around the case

The kernel does what the program's hot loops do - backtracking over
adjacency bitmasks, small-int arithmetic, bytes keys in a set - so the two
slow down together.  On that VM, over the same ten runs of each workload,
the spread (IQR / median) of wall_s was 0.23-0.30 unadjusted and 0.05-0.12
rescaled (bench/baseline.json keeps both).  Set-up times are not rescaled:
the kernel does not track them (see run.py).
"""
from __future__ import annotations

import time

REFERENCE_S = 0.008
_N = 14


def _graph() -> list[int]:
    rows = [0] * _N
    x = 12345
    for u in range(_N):
        for v in range(u + 1, _N):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 5 < 2:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


_ROWS = _graph()


def kernel() -> int:
    """Enumerate every 5-vertex path of a fixed 14-vertex graph."""
    rows = _ROWS
    seen: set[bytes] = set()
    count = 0

    def rec(path: list[int], used: int) -> None:
        nonlocal count
        count += 1
        if len(path) == 5:
            seen.add(bytes(sorted(path)))
            return
        m = rows[path[-1]] & ~used
        while m:
            b = m & -m
            m ^= b
            path.append(b.bit_length() - 1)
            rec(path, used | b)
            path.pop()

    for s in range(_N):
        rec([s], 1 << s)
    return count + len(seen)


def sample() -> float:
    """Kernel time now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
