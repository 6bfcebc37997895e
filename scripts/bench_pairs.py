"""Alternating benchmark pairs of two source trees.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload registry-serial --pairs 10

Runs PARENT/bench/run.py and CHANGE/bench/run.py in turn, the parent first in
odd pairs and the change first in even ones; both runs of pair k use seed
FIRST_SEED + k - 1 and the same --seconds.  It then prints, for each
end-to-end metric of CHANGE/BENCHMARK.json (or --benchmark), each side's
median and quartiles, the relative move of the median, in how many pairs
the change was better in the metric's direction, and a verdict against the
metric's bound (see verdict); then each side's `failed` counts and whether
every run was `correct`, and whether a gain counts (see gains_count).

With --layers it then makes one traced run per tree (--trace 1, the first
seed, the same --seconds) and prints each per-layer metric of
BENCHMARK.json whose unit is `count` with the parent's value, the change's
value and the move (see layer_lines).  Its counts are exact, but one traced
run is no timing evidence: its self times and rates carry the tracer's
overhead and the host's noise (untouched layers move by several percent
between two such runs), so reading one needs several traced runs per tree.

Standard library only.  The script writes nothing; each bench/run.py writes
its own bench/out/ in its tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_line(tree, workload, seed, seconds, trace=False):
    """The result line (the last line of standard output) of one run of
    tree/bench/run.py, traced with trace."""
    cmd = [sys.executable, str(Path(tree) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _beats(c, p, better):
    """Whether value c is better than value p in the metric's direction."""
    return c < p if better == "lower" else c > p


def verdict(pv, cv, better, bound):
    """The verdict on one metric's paired values (pv[k] and cv[k] of pair k),
    by the first rule that holds:
      regression   the change's median is worse than the parent's by more
                   than bound * |parent median|;
      unresolved   the parent's quartile distance exceeds bound * |parent
                   median|, and not every change run beats every parent run;
      gain         the change wins at least 9/10 of the pairs (ties count
                   for neither), and |median difference| exceeds the parent's
                   quartile distance;
      within bound otherwise."""
    pm, cm = statistics.median(pv), statistics.median(cv)
    p1, p3 = quartiles(pv)
    if _beats(pm, cm, better) and abs(cm - pm) > bound * abs(pm):
        return "regression"
    spread = p3 - p1 > bound * abs(pm)
    if spread and not all(_beats(c, p, better) for c in cv for p in pv):
        return "unresolved"
    wins = sum(_beats(c, p, better) for p, c in zip(pv, cv))
    if 10 * wins >= 9 * len(pv) and abs(cm - pm) > p3 - p1:
        return "gain"
    return "within bound"


def gains_count(parent, change):
    """The last summary line: a gain counts only when the change fails no
    larger share of its operations than the parent and every run of both
    sides is correct."""
    shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
              for runs in (parent, change)]
    void = []
    if shares[1] > shares[0]:
        void.append(f"the change fails {shares[1]:.2%} of its operations, "
                    f"the parent {shares[0]:.2%}")
    if not all(r["correct"] for r in parent + change):
        void.append("a run is not correct")
    return "gains count" if not void else "gains do not count: " + "; ".join(void)


def summarize(parent_lines, change_lines, end_to_end):
    """Summary lines of paired result lines (pair k is parent_lines[k] and
    change_lines[k]), for the end-to-end metric entries of BENCHMARK.json."""
    parent = [json.loads(line) for line in parent_lines]
    change = [json.loads(line) for line in change_lines]
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change results")
    out = [f"{len(parent)} pairs; medians [quartiles]; won = pairs where the change "
           "is better"]
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        pv = [r["metrics"][name]["value"] for r in parent]
        cv = [r["metrics"][name]["value"] for r in change]
        wins = sum(_beats(c, p, better) for p, c in zip(pv, cv))
        pm, cm = statistics.median(pv), statistics.median(cv)
        (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
        move = (cm - pm) / abs(pm) if pm else float("nan")
        out.append(f"{name} ({better} is better): parent {pm:.4g} [{p1:.4g}, {p3:.4g}]"
                   f" -> change {cm:.4g} [{c1:.4g}, {c3:.4g}], {move:+.1%};"
                   f" won {wins}/{len(pv)}; |median difference| {abs(cm - pm):.4g}"
                   f" vs parent quartile distance {p3 - p1:.4g}")
        out.append("  pairs: " + ", ".join(f"{p:.4g}->{c:.4g}" for p, c in zip(pv, cv)))
        out.append(f"  verdict: {verdict(pv, cv, better, metric['bound'])}"
                   f" (bound {metric['bound']:.0%})")
    for side, runs in (("parent", parent), ("change", change)):
        out.append(f"{side}: failed {[r['failed'] for r in runs]} of "
                   f"{[r['attempted'] for r in runs]}, correct "
                   f"{all(r['correct'] for r in runs)}")
    out.append(gains_count(parent, change))
    return out


def layer_lines(parent_line, change_line, per_layer):
    """One line per per-layer metric entry of BENCHMARK.json whose unit is
    `count` (see the module docstring): its value in the parent's and the
    change's traced result line and the relative move of the change's value;
    a metric missing from a line reads "-"."""
    parent, change = (json.loads(line)["metrics"] for line in (parent_line, change_line))
    out = ["per-layer counts of one traced run per tree: parent -> change, move"]
    for metric in per_layer:
        if metric["unit"] != "count":
            continue
        name = metric["name"]
        pv, cv = (side.get(name, {}).get("value") for side in (parent, change))
        if pv is None or cv is None:
            move = "-"
        elif pv:
            move = f"{(cv - pv) / abs(pv):+.1%}"
        else:
            move = "+0.0%" if cv == pv else "new"
        pt, ct = ("-" if v is None else str(v) for v in (pv, cv))
        out.append(f"{name} ({metric['better']} is better): {pt} -> {ct}, {move}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--benchmark", help="BENCHMARK.json (default: the change's)")
    ap.add_argument("--layers", action="store_true",
                    help="then one traced run per tree, per-layer counts side by side")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = json.loads(Path(args.benchmark or Path(args.change) / "BENCHMARK.json")
                       .read_text())
    parent_lines, change_lines = [], []
    for k in range(1, args.pairs + 1):
        seed = args.first_seed + k - 1
        order = [("parent", args.parent), ("change", args.change)]
        for side, tree in order if k % 2 else order[::-1]:
            line = bench_line(tree, args.workload, seed, args.seconds)
            (parent_lines if side == "parent" else change_lines).append(line)
            print(f"pair {k} {side} seed {seed}: {line}", flush=True)
    print("\n".join(summarize(parent_lines, change_lines, bench["end_to_end"])), flush=True)
    if args.layers:
        traced = [bench_line(tree, args.workload, args.first_seed, args.seconds, trace=True)
                  for tree in (args.parent, args.change)]
        print("\n".join(layer_lines(*traced, bench["per_layer"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
