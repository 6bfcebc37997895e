"""Measure how the host's speed drifts while the program does fixed work.

    python3 bench/drift.py [--seconds 120] [--window 10]

Repeats the round of the scalar-series workload back to back, timing the
calibration loop of run.py before each round, and prints per window the
median round time, raw and scaled by the calibration loop as run.py scales
its timings (there from the median of four loops around each timing).
The spread of the raw window medians is what the benchmark
would see between runs without the scaling; the spread of the scaled ones is
what is left with it.
"""

from __future__ import annotations

import argparse
import statistics
import time

import run


def quartile_spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=120.0)
    ap.add_argument("--window", type=float, default=10.0)
    args = ap.parse_args()

    mods, ops, _ = run.setup(run.WORKLOADS["scalar-series"])
    run_case = mods["identities"].run_case
    ops = [op for op in ops if op.params is not None]
    raw, scaled = [], []
    window, w0 = [], time.perf_counter()
    end = w0 + args.seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        run._calibration_loop()
        loop = time.perf_counter() - t0
        t0 = time.perf_counter()
        for op in ops:
            run_case(op.case, op.params)
        window.append((time.perf_counter() - t0, loop))
        if time.perf_counter() - w0 >= args.window:
            raw.append(statistics.median(r for r, _ in window))
            scaled.append(statistics.median(r * run.REFERENCE_LOOP_S / c for r, c in window))
            print(f"window {len(raw):3d}: rounds={len(window)} "
                  f"median={raw[-1] * 1e3:.1f}ms scaled={scaled[-1] * 1e3:.1f}ms "
                  f"loop={statistics.median(c for _, c in window) * 1e3:.2f}ms", flush=True)
            window, w0 = [], time.perf_counter()
    if len(raw) >= 2:
        for name, xs in (("raw", raw), ("scaled", scaled)):
            print(f"{name} window medians: {min(xs) * 1e3:.1f}-{max(xs) * 1e3:.1f}ms, "
                  f"quartile spread {quartile_spread(xs):.1%}")


if __name__ == "__main__":
    main()
