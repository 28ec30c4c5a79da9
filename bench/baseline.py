"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/baseline.py

Runs every workload of BENCHMARK.json RUNS times untraced, with seeds
1..RUNS, and twice traced with TRACE_SEED.  Records each end-to-end
metric's median, quartiles, sample count and spread (IQR / median), the
same for the unadjusted figures (before the calibration rescale), and the
traced run's exact counts (which must match between the two traced runs),
layer self times and shares.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACE_SEED = 1

LOAD = (
    "closed loop, one client: one single-threaded process per run runs the workload's cases "
    "one after another, caches cleared before each case, for run_seconds (at least one full pass)"
)
DESIGN = {
    "lemma-xcheck": {
        "cases": "every tree with 1-4 edges x every {3,5} length assignment (70): decomposition_family "
                 "and decomposition_oracle, answers must be iso_equal",
        "loads": "embed: negative containment queries against the planted K_{s,s} host",
        "bypasses": "oracle, matching, construct, formulas; decomp and canon are minor",
    },
    "ex-enum": {
        "cases": "ex_exact for K3 (n 5-8), K4 (5-7), C4 (5-8), C5 (5-7), bowtie T_o (5-7) (17)",
        "loads": "canon (general refinement route, almost all cache misses), embed "
                 "(incremental creates_copy_with_vertex), oracle enumeration loop and memory",
        "bypasses": "decomp, generate, matching, construct, formulas",
    },
    "covering-construct": {
        "cases": "b_family over every tree with <= 8 vertices x {all 3, all 5, seeded random from "
                 "{3,5,7}} (141); turan_number + extremal_candidate + freeness certificate for the "
                 "14-spec corpus at n in {20,30,40} (42); double_star33 colouring at n = 20 (1)",
        "loads": "decomp peel enumeration and GraphFamily.add, canon on the forest route",
        "bypasses": "embed negative-query search is minor (certificates on dense join hosts); "
                    "canon's general refinement route",
    },
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result, and the unadjusted figures (untraced runs only)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("unadjusted ")]
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return result, raw[0] if raw else {}


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    out = {"load": LOAD, "run_seconds": seconds, "units": units, "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = [_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        e2e = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r, _ in runs]) for m in bench["end_to_end"]}
        unadjusted = {k: _summary([raw[k] for _, raw in runs]) for k in runs[0][1]}
        traced = [_run(name, TRACE_SEED, seconds, 1)[0]["metrics"] for _ in range(2)]
        counts = {k: v["value"] for k, v in traced[0].items() if v["unit"] == "count"}
        repeat = counts == {k: v["value"] for k, v in traced[1].items() if v["unit"] == "count"}
        out["workloads"][name] = {
            **DESIGN[name],
            "end_to_end": e2e,
            "unadjusted": unadjusted,
            "traced_seed": TRACE_SEED,
            "exact_counts": counts,
            "exact_counts_repeat": repeat,
            "self_share_pct": {k.split(".")[0]: v["value"] for k, v in traced[0].items() if k.endswith(".self_share")},
            "traced": {k: v["value"] for k, v in traced[0].items() if v["unit"] != "count"},
        }
        if not repeat:
            print(f"{name}: exact counts differ between two traced runs", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["exact_counts_repeat"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
