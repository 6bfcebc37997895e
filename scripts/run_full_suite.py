#!/usr/bin/env python3
"""Run every registry case and write JSON + CSV reports.

Usage:
  python3 scripts/run_full_suite.py [--seed S] [--samples K]
      [--out FILE] [--csv FILE] [--compare BASE.json]

The cases run one after another, each over K samples from seed S, as one
serial `cli.run` batch.  The `wrote ...` line ends with the batch's wall
time (the `cli.run` call, without the report writers), in seconds.

With --compare, the new JSON report is compared with BASE.json (an earlier
report of this script), meta.timestamp aside: every run entry
(case_id, sample_index) that differs, or is on one side only, is printed with
its status in BASE.json and now, the relative change of its lhs and of its
rhs, and its rel_residual in BASE.json and now.  Then one line per case
gives its number of changed runs and of status changes, the largest relative
change of lhs and of rhs, and the worst rel_residual in BASE.json and now.
The new JSON text is also compared with BASE.json's text, each with its
meta.timestamp value masked: when the parsed reports agree but the texts do
not, that is one difference, "report text" (a change of layout or number
formatting that parsing cannot see).  The exit code is 1 if anything
differs and 0 if nothing does.  Without
--compare the exit code is that of `qident run` (1 if any run fails or
errors).  A --seed or --samples that `qident run` refuses, an --out or --csv
path that cannot be written, and a --compare file that cannot be read, is
not JSON (or is nested too deep to decode) or is not such a report, are one
`config error:` line on stderr and exit code 2, before any sample runs.  The
package is imported from the `src/` of this script's tree, not from an
installed copy.
"""

import argparse
import json
import re
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

from qident import cli  # noqa: E402
from qident.errors import ConfigError  # noqa: E402
from qident.identities import CASES  # noqa: E402


def change(new, old):
    """|new - old| / max(|new|, |old|) of two encoded report values
    ([re, im], or None for NaN); 0 when both are None, None when one is."""
    if new is None or old is None:
        return 0.0 if new is old else None
    a, b = complex(*new), complex(*old)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def relative_change(new, old):
    """change(new, old), formatted; "n/a" when only one value is None."""
    c = change(new, old)
    return "n/a" if c is None else f"{c:.3g}"


def _format(r):
    return "null" if r is None else f"{r:.3g}"


def residual(run):
    """A run entry's rel_residual, formatted (null for NaN)."""
    return _format(run["rel_residual"])


def worst_residual(runs):
    """The largest rel_residual of some run entries, formatted; null when
    none has one."""
    values = [r["rel_residual"] for r in runs if r and r["rel_residual"] is not None]
    return _format(max(values, default=None))


def run_difference(run, base_run):
    """Status pair, lhs/rhs relative changes and rel_residual pair of a
    differing run entry; a side without the entry shows status "absent"."""
    status = f"{(base_run or {}).get('status', 'absent')} -> " \
             f"{(run or {}).get('status', 'absent')}"
    if run is None or base_run is None:
        return f"status {status}"
    return (f"status {status}, relative change"
            f" lhs {relative_change(run['lhs'], base_run['lhs'])}"
            f" rhs {relative_change(run['rhs'], base_run['rhs'])},"
            f" rel_residual {residual(base_run)} -> {residual(run)}")


def report_differences(doc, base):
    """Labels of what differs between two report documents, ignoring
    meta.timestamp: "meta.<key>", "summary", and
    "<case_id> <sample_index>: <run_difference>" for each run entry, in the
    base report's order."""
    out = []
    meta, base_meta = dict(doc["meta"]), dict(base["meta"])
    for m in (meta, base_meta):
        m.pop("timestamp", None)
    for key in sorted(set(meta) | set(base_meta)):
        if meta.get(key) != base_meta.get(key):
            out.append(f"meta.{key}")
    if doc["summary"] != base["summary"]:
        out.append("summary")
    runs = {(r["case_id"], r["sample_index"]): r for r in doc["runs"]}
    base_runs = {(r["case_id"], r["sample_index"]): r for r in base["runs"]}
    for key in list(base_runs) + [k for k in runs if k not in base_runs]:
        run, base_run = runs.get(key), base_runs.get(key)
        if run != base_run:
            out.append(f"{key[0]} {key[1]}: {run_difference(run, base_run)}")
    return out


def case_summaries(doc, base):
    """One line per case (in the base report's order, then new cases): its
    changed runs and status changes, the largest relative change of lhs and
    of rhs over runs on both sides (n/a if one side alone is NaN), and its
    worst rel_residual in base and in doc."""
    cases = {}  # case_id -> sample_index -> [run in doc, run in base]
    for index, d in ((1, base), (0, doc)):
        for r in d["runs"]:
            pair = cases.setdefault(r["case_id"], {}).setdefault(r["sample_index"],
                                                                 [None, None])
            pair[index] = r
    out = []
    for case_id, pairs in cases.items():
        changed = [(run, b) for run, b in pairs.values() if run != b]
        statuses = sum((run or {}).get("status") != (b or {}).get("status")
                       for run, b in changed)
        moves = {}
        for side in ("lhs", "rhs"):
            values = [change(run[side], b[side]) for run, b in changed if run and b]
            moves[side] = ("n/a" if None in values
                           else f"{max(values, default=0.0):.3g}")
        out.append(f"case {case_id}: {len(changed)} of {len(pairs)} runs changed, "
                   f"{statuses} status changes, largest relative change "
                   f"lhs {moves['lhs']} rhs {moves['rhs']}, worst rel_residual "
                   f"{worst_residual(b for _, b in pairs.values())} -> "
                   f"{worst_residual(run for run, _ in pairs.values())}")
    return out


_TIMESTAMP = re.compile(r'"timestamp": "(?:[^"\\]|\\.)*"')


def masked(text):
    """A report's JSON text with the value of its first "timestamp" key,
    meta's, replaced by the empty string."""
    return _TIMESTAMP.sub('"timestamp": ""', text, count=1)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_run(run):
    """Whether run is a report run entry that --compare can read: an object
    with a string case_id, an integer sample_index, a status, lhs and rhs
    each [re, im] or null, and a numeric or null rel_residual."""
    keys = ("case_id", "sample_index", "status", "lhs", "rhs", "rel_residual")
    return (isinstance(run, dict) and all(k in run for k in keys)
            and isinstance(run["case_id"], str) and isinstance(run["sample_index"], int)
            and all(v is None or (isinstance(v, list) and len(v) == 2
                                  and all(map(_number, v)))
                    for v in (run["lhs"], run["rhs"]))
            and (run["rel_residual"] is None or _number(run["rel_residual"])))


def read_report(path):
    """The report document in the JSON file path and the file's text, for
    --compare; ConfigError when the file cannot be read, is not UTF-8 JSON
    or is not a report: an object with a meta object, a summary and a list
    of runs (is_run)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"--compare {path}: cannot read: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise ConfigError(f"--compare {path}: malformed JSON: {exc}") from None
    if not (isinstance(doc, dict) and {"meta", "summary", "runs"} <= doc.keys()
            and isinstance(doc["meta"], dict) and isinstance(doc["runs"], list)
            and all(map(is_run, doc["runs"]))):
        raise ConfigError(f"--compare {path}: not a report of this script")
    return doc, text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--out", default="full_suite_report.json")
    ap.add_argument("--csv", default="full_suite_report.csv")
    ap.add_argument("--compare", metavar="BASE.json",
                    help="compare the JSON report with this earlier one")
    args = ap.parse_args(argv)
    try:
        configs = [cli._validate_config({"case_id": cid, "seed": args.seed,
                                         "samples": args.samples})
                   for cid in CASES]
        for option, path in (("--out", args.out), ("--csv", args.csv)):
            cli.check_writable(option, path)
        compare = None if args.compare is None else read_report(args.compare)
        start = time.perf_counter()
        rset = cli.run(configs)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = cli.report_json(rset)
    cli.write_text(args.out, text + "\n")
    cli.write_csv(rset, args.csv)
    s = rset.summary
    print(f"wrote {args.out} and {args.csv}: "
          f"pass={s['pass']} fail={s['fail']} error={s['error']} in {wall:.3f} s")
    if compare is None:
        return cli.exit_code(rset)
    base, base_text = compare
    doc = json.loads(text)
    diffs = report_differences(doc, base)
    if not diffs and masked(text + "\n") != masked(base_text):
        diffs.append("report text")
    for label in diffs:
        print(f"differs: {label}")
    for line in case_summaries(doc, base):
        print(line)
    print(f"{len(diffs)} differences from {args.compare}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
