"""Per-layer metrics from the traced spans.

Each traced case execution gives one row of figures.  A case's figure is
the median over its executions; the workload's figure sums the cases (or
takes their maximum, for the *_ms maxima), so it estimates one pass over
the workload.  Exact counts must repeat across executions of one case.
Times are net of the tracer's cost in the callers (Tracer.arrays), and a
layer's self-time share is taken against the untraced time of the same
cases.
"""
from __future__ import annotations

import numpy as np

from tracer import LAYERS, Tracer

# exact counts, by what they count; every name is reported on every workload
COUNTS = {
    "embed.calls": "layer entries into embed",
    "embed.neg_calls": "embed entries answering no",
    "canon.calls": "layer entries into canon",
    "canon.misses": "canonical_key_any cache misses",
    "oracle.calls": "layer entries into oracle",
    "oracle.ex_nodes": "sum of ExResult.nodes_explored",
    "generate.classes": "classes returned by generate entries",
    "decomp.family_calls": "decomposition_family calls",
    "decomp.peel_calls": "peel_edges calls",
    "decomp.add_calls": "GraphFamily.add calls",
    "decomp.members": "members of families returned by decomp entries",
    "matching.calls": "layer entries into matching",
    "construct.calls": "layer entries into construct",
}
TIMES = ("embed.neg_s", "embed.pos_s", "embed.self_s", "canon.self_s", "trace_overhead_s")
MAXIMA = ("embed.max_ms", "canon.max_ms")
SELF_S = tuple(f"{layer}.self_s" for layer in LAYERS)
SHARES = tuple(f"{layer}.self_share" for layer in LAYERS)


def _per_run(tracer: Tracer, runs: list[dict]) -> dict[str, np.ndarray]:
    s = tracer.arrays()
    n_runs = len(runs)
    run = np.full(len(tracer), -1, dtype=np.int64)
    for r, tr in enumerate(runs):
        run[tr["lo"] : tr["hi"]] = r
    keep = run >= 0
    run, fid, layer, entry = run[keep], s["fid"][keep], s["layer"][keep], s["entry"][keep]
    dur, self_t, value = s["dur"][keep], s["self"][keep], s["value"][keep]
    fn_index = {name: i for i, name in enumerate(tracer.fn_names)}

    def calls_of(name: str) -> np.ndarray:
        return fid == fn_index[name]

    def total(mask, weights=None) -> np.ndarray:
        w = None if weights is None else weights[mask]
        return np.bincount(run[mask], weights=w, minlength=n_runs)

    def peak(mask) -> np.ndarray:
        out = np.zeros(n_runs)
        np.maximum.at(out, run[mask], dur[mask])
        return out

    lid = {name: i for i, name in enumerate(LAYERS)}
    emb = entry & (layer == lid["embed"])
    can = entry & (layer == lid["canon"])
    out = {
        "embed.calls": total(emb),
        "embed.neg_calls": total(emb & (value == 0)),
        "canon.calls": total(can),
        "canon.misses": np.array([tr["canon_misses"] for tr in runs], dtype=float),
        "canon.hits": np.array([tr["canon_hits"] for tr in runs], dtype=float),
        "oracle.calls": total(entry & (layer == lid["oracle"])),
        "oracle.ex_nodes": total(calls_of("oracle.ex_exact"), value),
        "generate.classes": total(entry & (layer == lid["generate"]), value),
        "decomp.family_calls": total(calls_of("decomp.decomposition_family")),
        "decomp.peel_calls": total(calls_of("decomp.peel_edges")),
        "decomp.add_calls": total(calls_of("decomp.GraphFamily.add")),
        "decomp.members": total(entry & (layer == lid["decomp"]), value),
        "matching.calls": total(entry & (layer == lid["matching"])),
        "construct.calls": total(entry & (layer == lid["construct"])),
        "embed.neg_s": total(emb & (value == 0), dur),
        "embed.pos_s": total(emb & (value != 0), dur),
        "embed.max_ms": peak(emb) * 1e3,
        "canon.max_ms": peak(can) * 1e3,
        "decomp.prune_s": total(calls_of("decomp.GraphFamily.prune_non_minimal"), dur),
        "plain_s": np.array([tr["plain"] for tr in runs]),
        "trace_overhead_s": np.array([tr["wall"] - tr["plain"] for tr in runs]),
    }
    for name, i in lid.items():
        out[f"{name}.self_s"] = total(layer == i, self_t)
    return out


def layer_metrics(tracer: Tracer, runs: list[dict], n_cases: int) -> tuple[dict[str, float], bool]:
    """Per-pass layer figures, and whether every exact count repeated."""
    per_run = _per_run(tracer, runs)
    case_of = np.array([tr["case"] for tr in runs], dtype=np.int64)
    consistent = True
    per_case: dict[str, np.ndarray] = {}
    for key, vals in per_run.items():
        meds = np.zeros(n_cases)
        for k in range(n_cases):
            v = vals[case_of == k]
            if len(v) == 0:
                continue
            if (key in COUNTS or key == "canon.hits") and np.any(v != v[0]):
                consistent = False
            meds[k] = np.median(v)
        per_case[key] = meds
    out: dict[str, float] = {}
    for key, meds in per_case.items():
        out[key] = float(meds.max() if key in MAXIMA else meds.sum())
    lookups = out.pop("canon.hits") + out["canon.misses"]
    out["canon.hit_ratio"] = 1.0 - out["canon.misses"] / lookups if lookups else 0.0
    plain = out.pop("plain_s")
    for layer in LAYERS:
        out[f"{layer}.self_share"] = 100.0 * out[f"{layer}.self_s"] / plain
    for key in COUNTS:
        out[key] = int(round(out[key]))
    return out, consistent
