"""oddballoon benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src.  Each run is one single-threaded process (a fresh interpreter)
that runs the workload's cases in a closed loop with one client, one case
after another, for --seconds (at least one full pass).  Every answer is
checked; a wrong answer or an exception counts as failed and makes the
command exit 1.

Case times are rescaled to a reference machine speed by a calibration
kernel timed between cases (calibrate.py); the unadjusted figures are
printed as a JSON line of their own before the result.

--trace 0 prints the end-to-end metrics:
  wall_s        one pass: the sum over cases of the case's median time
  case_p50_ms   median over cases of the case's median time
  case_tail_ms  the highest percentile of case times with at least 10
                cases beyond it (the slowest case when there are fewer
                than 20 cases)
  setup_s       interpreter start to first case (import, spec parsing,
                seeded inputs): the fastest of SETUP_PROBES fresh
                interpreters, half started before the measured worker and
                half after it, unadjusted.  Within one run they vary by up
                to 1.5x and their minimum varies least; the kernel does
                not track set-up (import, spawn, page faults): in five
                runs, rescaling by it raised the spread from 0.12 to 0.69
  peak_rss_mb   maximum resident set size of the measuring process
--trace 1 wraps each layer's public functions from outside (tracer.py),
runs every case untraced and traced, and prints the per-layer metrics
(layers.py), in unadjusted seconds net of the tracer's own cost; spans
are written to .bench_out/.  A layer a workload bypasses reads 0 in its
counts and shares; its self time in seconds is printed, not returned,
because it would read 0.0 on every run.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 16  # half before the measured worker, half after it
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TB_MAX_VERTICES", None)
    return env


def _spawn(args: argparse.Namespace, seconds: float, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; return it with the
    time from spawn to ready."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, ready


def _case_metrics(medians: list[float]) -> tuple[dict[str, float], str]:
    """wall_s, case_p50_ms and case_tail_ms from the per-case median times,
    and what case_tail_ms is."""
    ordered = sorted(medians)
    n = len(ordered)
    if n == 0:
        return dict.fromkeys(("wall_s", "case_p50_ms", "case_tail_ms"), 0.0), "no cases"
    if n < 20:
        tail, label = ordered[-1], f"max of {n} cases"
    else:
        tail, label = ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} cases"
    return {"wall_s": sum(ordered), "case_p50_ms": statistics.median(ordered) * 1e3, "case_tail_ms": tail * 1e3}, label


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "oddballoon" / "__init__.py").is_file():
        print(f"no oddballoon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    setups: list[float] = []

    def probe_setup() -> None:
        for _ in range(SETUP_PROBES // 2):
            proc, ready = _spawn(args, 0, ["--setup-only"])
            proc.communicate(timeout=60)
            setups.append(ready)

    extra = []
    if args.trace:
        extra = ["--spans-out", str(ROOT / ".bench_out" / f"{args.workload}-spans.npz")]
    else:
        probe_setup()
    probing = time.perf_counter() - started  # the probes after the worker take as long again
    proc, _ = _spawn(args, args.seconds - 2 * probing, extra)
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - probing - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("worker exceeded the run time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        probe_setup()

    medians = [statistics.median(d) for d in res["durations"] if d]
    failed = len(res["failures"])
    attempted = res["attempted"]
    for line in res["failures"][:20]:
        print(f"FAILED {line}")
    complete = len(medians) == len(res["cases"])
    print(f"workload {args.workload} seed {args.seed}: {attempted} cases attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}), "
          f"{len(res['cases'])} distinct cases, caches cleared per case: {', '.join(res['caches'])}")
    if args.trace:
        metrics = {}
        layers = res["layers"]
        from layers import COUNTS, MAXIMA, SELF_S, SHARES, TIMES

        for key in (*COUNTS, "canon.hit_ratio"):
            metrics[key] = {"value": layers[key], "unit": "ratio" if key == "canon.hit_ratio" else "count"}
        for key in TIMES:
            metrics[key] = {"value": layers[key], "unit": "s"}
        for key in MAXIMA:
            metrics[key] = {"value": layers[key], "unit": "ms"}
        for key in SHARES:
            metrics[key] = {"value": layers[key], "unit": "%"}
        print(f"{res['spans']} spans; layer self time per pass (s): "
              + ", ".join(f"{k}={layers[k]:.4f}" for k in SELF_S) + f", decomp.prune_s={layers['decomp.prune_s']:.4f}")
        print("self-time share of untraced time: " + ", ".join(f"{k.split('.')[0]} {layers[k]:.1f}%" for k in SHARES)
              + f", rest {100 - sum(layers[k] for k in SHARES):.1f}% (unwrapped callers, less the tracer cost "
              + "the wrappers cannot time: their call and return, and garbage collection)")
        if not res["consistent"]:
            print("exact counts differ between executions of one case")
            failed += 1
    else:
        values, tail_label = _case_metrics(medians)
        values["setup_s"] = min(setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        raw, _ = _case_metrics([statistics.median(d) for d in res["raw_durations"] if d])
        raw["setup_s_median"] = statistics.median(setups)
        print(f"case_tail_ms is the {tail_label}; setup_s is the fastest of {len(setups)} interpreters; "
              f"kernel at {res['kernel_s'] * 1e3:.3f} ms (reference {calibrate.REFERENCE_S * 1e3:.1f} ms)")
        print("unadjusted " + json.dumps(raw))
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
