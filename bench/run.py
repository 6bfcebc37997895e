"""Benchmark of the qident harness: runs one workload and prints its metrics.

    python3 bench/run.py --workload scalar-series --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`.  The package is
imported from `src/` next to this directory.  bench/README.md describes the
workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker  # imports mpmath, so no timed operation pays for it
from tracing import ALL_CASES, Tracer, per_layer_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-up is repeated this often per run, spread evenly over the rounds so
#: that its median is not one moment of a host whose speed drifts;
#: setup_s is the median.
SETUP_REPEATS = 21

#: Worker count of every registry-serial request.  At 2, cli.run's thread
#: pool made a rank-1 sample cost 0.4-4.8 ms where the serial path cost
#: 0.3-0.7 ms over the same two and a half minutes, so no run length could
#: steady it.
REQUEST_PARALLELISM = 1

#: op_tail_ms has this many operations beyond it.
TAIL_BEYOND = 10

#: The calibration loop is timed again after this many seconds of timed work.
CALIBRATE_EVERY_S = 0.25

#: Timings are reported as on a host where the calibration loop takes this
#: many seconds; on the 2-core Intel Xeon virtual machine the reference
#: figures come from, its run medians ranged from 7 to 12 ms.
REFERENCE_LOOP_S = 0.0100


@dataclass(frozen=True)
class Workload:
    """A fixed round of operations, repeated a whole number of times."""

    ops: tuple  # (case id, sample seed), or (case id, first seed) of a request
    round_s: float  # wall seconds of one untraced round on the reference host
    request_k: int = 0  # > 0: one operation is a cli.run request of k samples


def _grid(cases, seeds):
    return tuple((case, seed) for case in cases for seed in seeds)


# Rank-1 cases; only qcore and series run.
SCALAR_CASES = ("jackson8phi7", "bailey10phi9", "bailey6psi6", "ramanujan1psi1",
                "c1macdonald", "flippedsummand", "bilateralfinite", "3psi3delta0",
                "3psi3delta1", "summandinvariance")
# W functions and partition enumerations; series is never called.
W_CASES = ("multijackson", "simplifiedjackson", "duality", "flip", "weyldegree")

WORKLOADS = {
    "scalar-series": Workload(_grid(SCALAR_CASES, range(60)), 0.4),
    "w-branching": Workload(_grid(W_CASES, range(100)), 0.65),
    # Requests of 2 samples; the first seeds 0, 8, ..., 56 cycle over all cases.
    "registry-serial": Workload(tuple((case, s0) for s0 in range(0, 57, 8)
                                      for case in ALL_CASES), 2.4, request_k=2),
}


@dataclass
class Op:
    """One serial operation: run_case on parameters drawn in set-up."""

    case: str
    seed: int
    params: dict | None
    draw_error: str = ""


def import_qident():
    """Import the package from ROOT/src afresh; returns its modules by name."""
    for name in [m for m in sys.modules if m == "qident" or m.startswith("qident.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    try:
        import qident
        import qident.cli
        import qident.identities
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import qident from {src}: {exc}")

    origin = Path(qident.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"qident was imported from {origin}, not from {ROOT / 'src'}")
    return {"qident": qident, "cli": qident.cli, "identities": qident.identities,
            "qcore": qident.qcore, "series": qident.series,
            "partitions": qident.partitions, "wfunc": qident.wfunc,
            "policy": qident.policy, "errors": qident.errors}


def build_ops(wl: Workload, mods):
    """The round's operations: drawn parameters, or registry configs."""
    if wl.request_k:
        make = mods["cli"].CaseConfig
        return [make(case_id=case, seed=s0, samples=wl.request_k) for case, s0 in wl.ops]
    ops = []
    for case, seed in wl.ops:
        try:
            ops.append(Op(case, seed, mods["identities"].sample_params(case, seed)))
        except Exception as exc:  # kept as a failing operation
            ops.append(Op(case, seed, None, f"{type(exc).__name__}: {exc}"))
    return ops


def _calibration_step(z, w):
    return z * 0.999 + w / (1.0 + abs(w))


def _calibration_loop():
    """Fixed pure-Python work that shares no code with qident but is of its
    kind: complex arithmetic, calls, and dict and list churn."""
    z = 0j
    seen = {}
    for i in range(12_000):
        w = complex(i % 17, i % 5) * 0.5
        z = _calibration_step(z, w)
        seen[i & 511] = (z, i)
        if i % 64 == 0:
            seen[-1] = [z] * 8
    return z


class HostClock:
    """Scales timings by the host's speed at the moment they were taken.

    The host's speed drifts by a fifth or more over minutes, in wall and in
    CPU time alike, so a run's timings move with the moment it ran.  The
    calibration loop is timed before the first timed operation, at the
    start of each round, around each set-up, after every CALIBRATE_EVERY_S
    of timed work and at the end.  A timing is multiplied by
    REFERENCE_LOOP_S over the median of the two loop times before it and
    the two after it (the median, because a single loop of about 10 ms is
    now and then interrupted).  A change to qident moves the scaled timings
    as it moves the raw ones; a slow spell of the host moves both the timing
    and the loop.
    """

    def __init__(self):
        self.loops = []  # seconds of each calibration loop
        self.since = 0.0  # timed seconds since the last calibration
        self.calibrate()

    def calibrate(self):
        t0 = time.perf_counter()
        _calibration_loop()
        self.loops.append(time.perf_counter() - t0)
        self.since = 0.0

    def segment(self):
        """Index of the calibration before a timing taken now."""
        return len(self.loops) - 1

    def spent(self, seconds):
        self.since += seconds
        if self.since >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, seg):
        """Factor for timings taken between calibrations seg and seg + 1."""
        return REFERENCE_LOOP_S / statistics.median(self.loops[max(0, seg - 1):seg + 3])


def setup(wl: Workload):
    """Import qident afresh and build the round; returns the modules, the
    ops and the seconds taken."""
    gc.collect()
    t0 = time.perf_counter()
    mods = import_qident()
    ops = build_ops(wl, mods)
    return mods, ops, time.perf_counter() - t0


class Tally:
    """Latencies, counts and failures of the timed operations.

    Each operation is summarised by its median latency over the rounds,
    scaled by the host's speed (HostClock).  The host has fast spells as
    well as slow ones, so the fastest of several repeats moves with the rare
    fast moments; the median does not.
    """

    def __init__(self, checker: Checker, clock: HostClock):
        self.checker = checker
        self.clock = clock
        self.latencies = {}  # op index -> (latency (s), clock segment) per round
        self.samples = {}  # op index -> samples one execution finishes
        self.timed_s = 0.0  # all latencies of all rounds
        self.attempted = 0
        self.failed = {}  # label -> [count, reason]
        self.worst_resid = 0.0
        self.first = {}  # op index -> outcome in the first round

    def fail(self, label, reason):
        rec = self.failed.setdefault(label, [0, reason])
        rec[0] += 1

    def timed(self, index, seconds):
        self.timed_s += seconds
        self.latencies.setdefault(index, []).append((seconds, self.clock.segment()))
        self.clock.spent(seconds)

    def typical(self, scaled=True):
        """Each timed operation's median latency over the rounds (s), scaled
        to the reference host's speed or raw.  Call after the last
        calibration."""
        scale = self.clock.scale if scaled else (lambda seg: 1.0)
        return {i: statistics.median(s * scale(seg) for s, seg in xs)
                for i, xs in self.latencies.items()}

    def reports(self, index, reps):
        self.samples[index] = len(reps)
        for rep in reps:
            if not (cmath.isnan(rep.lhs) or cmath.isnan(rep.rhs)):
                self.worst_resid = max(self.worst_resid, rep.rel_residual)

    def outcome(self, index, key, label, reps):
        """Keep the first round's reports for the checks; later rounds must
        reproduce the first round's outcome."""
        if index not in self.first:
            self.first[index] = (key, label, reps)
        elif self.first[index][0] != key:
            self.checker.fail(f"{label}: outcome differs between rounds")


def _outcome_key(reps):
    return tuple((r.status, repr(r.lhs), repr(r.rhs)) for r in reps)


def run_serial(ops, rounds, rng, mods, tally: Tally, before_round):
    ident = mods["identities"]
    perf = time.perf_counter
    order = list(range(len(ops)))
    for r in range(rounds):
        before_round(r)
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            label = f"{op.case}/{op.seed}"
            tally.attempted += 1
            if op.params is None:
                tally.fail(label, op.draw_error)
                continue
            t0 = perf()
            try:
                rep = ident.run_case(op.case, op.params)
            except Exception as exc:  # an escaped crash fails the operation
                tally.timed(i, perf() - t0)
                tally.fail(label, f"{type(exc).__name__}: {exc}")
                continue
            tally.timed(i, perf() - t0)
            tally.reports(i, [rep])
            if rep.status != "pass":
                tally.fail(label, f"{rep.status}, rel residual {rep.rel_residual:.3g}")
            tally.outcome(i, _outcome_key([rep]), label, [rep])


def run_requests(ops, rounds, rng, mods, tally: Tally, before_round, csv_path: Path):
    cli = mods["cli"]
    perf = time.perf_counter
    order = list(range(len(ops)))
    for r in range(rounds):
        before_round(r)
        rng.shuffle(order)
        for i in order:
            cfg = ops[i]
            label = f"{cfg.case_id}/{cfg.seed}+{cfg.samples}"
            tally.attempted += 1
            t0 = perf()
            try:
                rset = cli.run([cfg], parallelism=REQUEST_PARALLELISM, precision="double")
                text = cli.report_json(rset)
                cli.write_csv(rset, str(csv_path))
            except Exception as exc:  # an escaped crash fails the request
                tally.timed(i, perf() - t0)
                tally.fail(label, f"{type(exc).__name__}: {exc}")
                continue
            tally.timed(i, perf() - t0)
            tally.reports(i, rset.runs)
            bad = rset.summary["fail"] + rset.summary["error"]
            if bad:
                tally.fail(label, f"{bad} of {cfg.samples} samples not passing")
            if i not in tally.first:
                _check_writers(text, csv_path, rset, label, tally.checker)
            tally.outcome(i, tuple(r.status for r in rset.runs), label, rset.runs)


def _check_writers(text, csv_path, rset, label, checker):
    """The JSON report and the CSV hold one entry per sample."""
    doc = json.loads(text)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if doc["summary"] != rset.summary or len(doc["runs"]) != len(rset.runs) \
            or len(rows) != len(rset.runs):
        checker.fail(f"{label}: JSON or CSV report does not match the run")


def tail_ms(latencies):
    """(percentile, ms): the highest percentile with TAIL_BEYOND operations
    beyond it; the median when there are fewer than four times as many."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 4 * TAIL_BEYOND:
        return 50.0, statistics.median(xs) * 1e3
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1] * 1e3


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="order of the operations in each round")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="nominal run length; sets the number of whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    wl = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / wl.round_s))
    OUT.mkdir(exist_ok=True)
    clock = HostClock()
    setup_times = []  # scaled, as the latencies are

    def timed_setup():
        clock.calibrate()
        seg = clock.segment()
        mods, ops, seconds = setup(wl)
        clock.calibrate()
        setup_times.append(seconds * clock.scale(seg))
        return mods, ops

    mods, ops = timed_setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
        ops = build_ops(wl, mods)  # draw again so sample_params is traced
        extra_setups = []
    else:
        extra_setups = [j * rounds // (SETUP_REPEATS - 1) for j in range(SETUP_REPEATS - 1)]

    def before_round(r):
        # Later set-ups import fresh module objects; the timed operations keep
        # using the first ones.
        for _ in range(extra_setups.count(r)):
            timed_setup()
        gc.collect()
        clock.calibrate()

    tally = Tally(Checker(mods["wfunc"]), clock)
    rng = random.Random(args.seed)
    if wl.request_k:
        run_requests(ops, rounds, rng, mods, tally, before_round,
                     OUT / f"{args.workload}.csv")
    else:
        run_serial(ops, rounds, rng, mods, tally, before_round)
    clock.calibrate()
    samples = sum(tally.samples.values())
    typical = list(tally.typical().values())
    samples_per_s = samples / sum(typical)
    raw = list(tally.typical(scaled=False).values())
    rss = peak_rss_mb()
    if tracer is not None:
        layer_metrics = tracer.metrics(samples_per_s)

    for _, label, reps in tally.first.values():
        for rep in reps:
            tally.checker.report(rep, label)

    failed = sum(c for c, _ in tally.failed.values())
    level, tail = tail_ms(typical)
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"ops/round={len(ops)} attempted={tally.attempted} failed={failed} "
          f"timed_s={tally.timed_s:.3f} tail=p{level:.4g} of {len(typical)} "
          f"setups={len(setup_times)}")
    loops = clock.loops
    print(f"unscaled samples_per_s={samples / sum(raw):.4g} "
          f"op_p50_ms={statistics.median(raw) * 1e3:.4g} "
          f"op_tail_ms={tail_ms(raw)[1]:.4g}; calibration loop "
          f"{statistics.median(loops) * 1e3:.3g} ms median of {len(loops)}, "
          f"{min(loops) * 1e3:.3g}-{max(loops) * 1e3:.3g} ms")
    for label, (count, reason) in sorted(tally.failed.items()):
        print(f"failed {label} x{count}: {reason}")
    print("checks " + json.dumps(tally.checker.counts, sort_keys=True))
    for what in tally.checker.failures:
        print(f"CHECK FAILED {what}")

    if tracer is not None:
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "rounds": rounds, "metrics": metrics}, indent=1))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "samples_per_s": {"value": samples_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "resid_digits": {"value": -math.log10(max(tally.worst_resid, 1e-300)),
                             "unit": "digits"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": not tally.checker.failures,
                      "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
