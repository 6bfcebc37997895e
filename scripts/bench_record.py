#!/usr/bin/env python3
"""Record this tree's benchmark figures in BENCH_<N>.json at the root.

    python3 scripts/bench_record.py --pr N

The file holds:
  commit      the git commit of the tree (HEAD) and the paths that differ
              from it (`git status --porcelain`);
  host        CPU count, Python version, mpmath version and backend;
  workloads   per workload of BENCHMARK.json, RUNS untraced runs of
              bench/run.py (bench_pairs.bench_line) at seeds 1..RUNS, each
              BENCHMARK.json's run_seconds long: each run's seed, `correct`,
              `attempted` and `failed`, and per end-to-end metric its unit,
              every run's value, the median and the quartiles;
  registry    per precision mode, ms per sample of each case and the
              full-registry wall time in seconds: `cli.run` batches of
              SAMPLES samples from seed 0, serial, each the best of REPEATS
              (the full registry as one batch of every case, as
              scripts/run_full_suite.py times it);
  tier1       the wall time of the tier-1 test command of ROADMAP.md and
              pytest's summary line;
  accuracy    scripts/accuracy.py's table.

The bench/run.py figures are those of its own host calibration; the other
times are raw wall times of this host.  Standard library only, besides the
package, imported from this tree's src/, and mpmath, which the package's
high-precision runs load and whose version and backend host() reads.  It
takes about six minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

import accuracy  # noqa: E402
from bench_pairs import bench_line, quartiles  # noqa: E402
from qident import cli  # noqa: E402
from qident.identities import CASES  # noqa: E402

#: Untraced runs per workload, at seeds 1..RUNS.
RUNS = 3
#: Samples per case of each registry batch, from seed 0.
SAMPLES = 20
#: Each registry batch is timed this often, and its best time kept.
REPEATS = 3


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def host():
    import mpmath

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def workload(name, end_to_end, seconds):
    """RUNS untraced runs of workload name, summarized (see the docstring)."""
    results = [json.loads(bench_line(ROOT, name, seed, seconds))
               for seed in range(1, RUNS + 1)]
    metrics = {}
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        metrics[metric["name"]] = {"unit": metric["unit"], "values": values,
                                   "median": statistics.median(values),
                                   "quartiles": list(quartiles(values))}
    runs = [{"seed": seed, **{k: r[k] for k in ("correct", "attempted", "failed")}}
            for seed, r in enumerate(results, 1)]
    return {"seconds": seconds, "runs": runs, "metrics": metrics}


def best_batch_s(case_ids, precision):
    """The best of REPEATS wall times of one serial cli.run batch of SAMPLES
    samples of each case of case_ids."""
    configs = [cli.CaseConfig(case_id=c, seed=0, samples=SAMPLES) for c in case_ids]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cli.run(configs, precision=precision)
        times.append(time.perf_counter() - t0)
    return min(times)


def registry(precision):
    cli.run([cli.CaseConfig(case_id=c) for c in CASES], precision=precision)  # warm-up
    return {"samples": SAMPLES, "seed": 0,
            "ms_per_sample": {c: 1e3 * best_batch_s([c], precision) / SAMPLES
                              for c in CASES},
            "full_registry_s": best_batch_s(list(CASES), precision)}


def tier1():
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = [line for line in done.stdout.splitlines() if " passed" in line]
    return {"command": "python -m pytest -q --continue-on-collection-errors",
            "wall_s": wall, "exit_code": done.returncode,
            "summary": summary[-1].strip("= ") if summary else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="N of BENCH_<N>.json")
    args = ap.parse_args(argv)
    if args.pr < 0:
        ap.error("--pr must be >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "pr": args.pr,
        "commit": {"head": git("rev-parse", "HEAD"),
                   "dirty": git("status", "--porcelain").splitlines()},
        "host": host(),
        "workloads": {w["name"]: workload(w["name"], bench["end_to_end"],
                                          bench["run_seconds"])
                      for w in bench["workloads"]},
        "registry": {mode: registry(mode) for mode in ("double", "high")},
        "tier1": tier1(),
        "accuracy": accuracy.table(),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    cli.write_text(str(path), json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
