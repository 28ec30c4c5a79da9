"""Self-test of the benchmark's tracing:

- cache discovery finds the package's functools caches;
- patching replaces every binding of every wrapped function, in every
  oddballoon module, and unpatching restores them all;
- traced answers equal untraced answers on a few cases of each workload;
- two traced executions of those cases give the same exact counts.

    python3 bench/selftest.py      (from the root of a source checkout)
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cases import build_cases  # noqa: E402
from layers import COUNTS, layer_metrics  # noqa: E402
from tracer import Tracer, find_caches, import_package  # noqa: E402

KNOWN_CACHES = {
    "canon.canonical_key_any",
    "embed._host_degrees",
    "generate.small_edge_classes",
    "generate.trees_up_to",
    "oracle._connected_bounded_classes",
}
# a few cheap cases per workload, by case id
SAMPLE = {
    "lemma-xcheck": ("T2.0:3", "T3.0:55", "T4.1:353"),
    "ex-enum": ("K3:n5", "C4:n6", "Bw:n5"),
    "covering-construct": ("B:T5.1:r", "B:T6.3:5", "C:bowtie.spec:n20", "C:friendship3.spec:n30",
                           "F2:double_star33:n20"),
}


def _bound_originals(modules, tracer: Tracer) -> list[str]:
    originals = {id(orig) for _, _, orig, _ in tracer.bindings}
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in [*modules, *{owner for owner, *_ in tracer.bindings if isinstance(owner, type)}]
        for attr, obj in vars(owner).items()
        if id(obj) in originals
    ]


def main() -> int:
    modules = import_package()
    caches = find_caches(modules)
    assert caches, "no functools cache found"
    assert KNOWN_CACHES <= set(caches), f"missing caches: {KNOWN_CACHES - set(caches)}"

    tracer = Tracer(modules)
    assert len(tracer.bindings) > len(tracer.fn_names), "expected re-exported bindings"
    tracer.patch()
    try:
        left = _bound_originals(modules, tracer)
    finally:
        tracer.unpatch()
    assert not left, f"bindings left unpatched: {left}"
    assert len(_bound_originals(modules, tracer)) == len(tracer.bindings), "unpatch did not restore every binding"

    def cold(case):
        for c in caches.values():
            c.cache_clear()
        return case.run()

    for workload, ids in SAMPLE.items():
        cases = {c.cid: c for c in build_cases(workload, 7, ROOT / "specs")}
        runs = []
        for attempt in range(2):
            for k, cid in enumerate(ids):
                case = cases[cid]
                plain = cold(case)
                assert case.check(plain) is None, f"{workload} {cid}: {case.check(plain)}"
                lo = len(tracer)
                tracer.patch()
                try:
                    traced = cold(case)
                finally:
                    tracer.unpatch()
                assert case.answer(traced) == case.answer(plain), f"{workload} {cid}: traced answer differs"
                info = caches["canon.canonical_key_any"].cache_info()
                runs.append({"case": k, "lo": lo, "hi": len(tracer), "wall": 1.0, "plain": 1.0,
                             "canon_hits": info.hits, "canon_misses": info.misses})
        figures, consistent = layer_metrics(tracer, runs, len(ids))
        assert consistent, f"{workload}: exact counts differ between two traced executions"
        assert figures["embed.calls"] > 0 and figures["canon.calls"] > 0, figures
        print(f"{workload}: {len(ids)} cases, traced == untraced, counts repeat: "
              + ", ".join(f"{k}={figures[k]}" for k in COUNTS if figures[k]))
        tracer.clear()
    print(f"ok: {len(tracer.bindings)} bindings of {len(tracer.fn_names)} functions patched; "
          f"caches: {', '.join(caches)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
