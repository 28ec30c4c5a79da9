"""One benchmark process: import oddballoon, build the seeded cases, print
`ready`, then run the cases in a closed loop with one client until the
time is up (always at least one full pass).  The last stdout line is a
JSON object with the per-case times, unadjusted and rescaled to the
reference machine speed (see calibrate.py).

Before every case each functools cache of the package is cleared, so a
case costs what a fresh CLI call costs and case order does not matter.
With --trace 1 every case runs twice back to back, untraced and traced
(alternating which goes first), and the two answers must agree.
"""
from __future__ import annotations

import argparse
import bisect
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAL_EVERY_S = 0.5


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", help="write the traced spans to this .npz file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    import calibrate
    from cases import build_cases
    from tracer import Tracer, find_caches, import_package

    modules = import_package()
    src = (ROOT / "src").resolve()
    if src not in Path(modules[0].__file__).resolve().parents:
        print(f"oddballoon imported from {modules[0].__file__}, not from {src}", file=sys.stderr)
        return 2
    caches = find_caches(modules)
    if not caches:
        print("no functools cache found in the oddballoon modules", file=sys.stderr)
        return 2
    cases = build_cases(args.workload, args.seed, ROOT / "specs")
    tracer = Tracer(modules) if args.trace else None
    print("ready", flush=True)
    if args.setup_only:
        return 0

    canon_cache = caches["canon.canonical_key_any"]
    clock = time.perf_counter

    def cold_run(case):
        for c in caches.values():
            c.cache_clear()
        t0 = clock()
        got = case.run()
        return got, clock() - t0

    def traced_run(case):
        lo = len(tracer)
        tracer.patch()
        try:
            got, dt = cold_run(case)
        finally:
            tracer.unpatch()
        return (lo, len(tracer)), got, dt, canon_cache.cache_info()

    cal_t: list[float] = []
    cal_v: list[float] = []

    def calib() -> None:
        cal_t.append(clock())
        cal_v.append(calibrate.sample())

    n_cases = len(cases)
    timed: list[tuple[int, float, float]] = []  # (case, start, seconds) of verified runs
    traced_runs: list[dict] = []  # one per traced execution
    failures: list[str] = []
    attempted = 0
    deadline = clock() + args.seconds
    calib()
    i = 0
    while i < n_cases or clock() < deadline:
        k = i % n_cases
        case = cases[k]
        i += 1
        attempted += 1
        try:
            if tracer is not None and i % 2 == 0:
                span_range, got_traced, dt_traced, info = traced_run(case)
            t_start = clock()
            got, dt = cold_run(case)
            if tracer is not None and i % 2 == 1:
                span_range, got_traced, dt_traced, info = traced_run(case)
            why = case.check(got)
            if tracer is not None and why is None:
                if case.answer(got_traced) != case.answer(got):
                    why = "traced answer differs from untraced answer"
                else:
                    traced_runs.append(
                        {"case": k, "lo": span_range[0], "hi": span_range[1], "wall": dt_traced, "plain": dt,
                         "canon_hits": info.hits, "canon_misses": info.misses}
                    )
        except Exception:  # a failing case is counted, the loop goes on
            why = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if why is None:
            timed.append((k, t_start, dt))
        else:
            failures.append(f"{case.cid}: {why}")
        if clock() - cal_t[-1] >= CAL_EVERY_S:
            calib()
    calib()

    # rescale each case by the kernel samples on either side of it
    durations: list[list[float]] = [[] for _ in cases]
    raw_durations: list[list[float]] = [[] for _ in cases]
    for k, t_start, dt in timed:
        j = bisect.bisect_right(cal_t, t_start)
        durations[k].append(dt * calibrate.REFERENCE_S * 2 / (cal_v[j - 1] + cal_v[j]))
        raw_durations[k].append(dt)

    result = {
        "cases": [c.cid for c in cases],
        "durations": durations,
        "raw_durations": raw_durations,
        "kernel_s": sorted(cal_v)[len(cal_v) // 2],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "caches": sorted(caches),
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"], result["consistent"] = layer_metrics(tracer, traced_runs, n_cases)
        result["spans"] = len(tracer)
        if args.spans_out:
            import numpy as np

            spans = tracer.arrays()
            run = np.full(len(tracer), -1, dtype=np.int64)
            for r, tr in enumerate(traced_runs):
                run[tr["lo"] : tr["hi"]] = r
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            np.savez(
                args.spans_out,
                fid=spans["fid"].astype(np.int32), parent=spans["parent"].astype(np.int32),
                start=spans["start"], end=spans["end"], value=spans["value"], run=run.astype(np.int32),
                run_case=np.array([tr["case"] for tr in traced_runs], dtype=np.int32),
                fn_names=np.array(tracer.fn_names), case_ids=np.array([c.cid for c in cases]),
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
