import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the bench tracer looks up decomp.peel_edges, GraphFamily.add and
    # GraphFamily.prune_non_minimal by name and the self-test pins the known
    # functools caches, so renaming or dropping one of them fails here
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
