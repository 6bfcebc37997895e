#!/usr/bin/env python3
"""Accuracy table of the registry cases.

Usage:
  python3 scripts/accuracy.py [--out FILE] [--compare BASE.json]

For every case it prints (or writes to --out) one JSON row:
  high_floor  the worst rel_residual of the reports at QIDENT_PRECISION=high
              over seeds 0-19 (judge takes it in working precision);
  fails       in double mode over seeds 0-999, the seeds whose run fails;
  errors      the seeds of that sweep whose run is an error report;
  band        the count of runs of that sweep with tol/10 < rel_residual <= tol.

With --compare, the table is then compared with BASE.json (an earlier table of
this script): it prints each case whose high_floor moved by more than 10x and
each seed that crossed tol (pass <-> fail) or became or stopped being an
error, and exits 1 if it printed anything, 0 otherwise.  An --out path that
cannot be written, or a --compare file that cannot be read, is not JSON (or is
nested too deep to decode) or is not such a table, is one `config error:` line
on stderr and exit code 2, before any case runs.  Standard library and mpmath
only; the package is imported from the `src/` of this script's tree.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

from qident import cli  # noqa: E402
from qident.errors import ConfigError  # noqa: E402
from qident.identities import CASES  # noqa: E402

HIGH_SEEDS = 20
DOUBLE_SEEDS = 1000
#: A high_floor move by more than this factor is printed by --compare.
FLOOR_MOVE = 10.0


def high_floor(case_id):
    """The worst rel_residual of case_id's reports at high precision over
    seeds 0 .. HIGH_SEEDS - 1 (0.0 when every run is an error)."""
    rset = cli.run([cli.CaseConfig(case_id=case_id, seed=0, samples=HIGH_SEEDS)],
                   precision="high")
    return max((r.rel_residual for r in rset.runs if r.status != "error"), default=0.0)


def table():
    """One row per registry case, in registry order."""
    rows = []
    for case_id, case in CASES.items():
        rset = cli.run([cli.CaseConfig(case_id=case_id, seed=0, samples=DOUBLE_SEEDS)],
                       precision="double")
        tol = case.default_tol
        rows.append({
            "case_id": case_id,
            "tol": tol,
            "high_floor": high_floor(case_id),
            "fails": [seed for seed, r in enumerate(rset.runs) if r.status == "fail"],
            "errors": [seed for seed, r in enumerate(rset.runs) if r.status == "error"],
            "band": sum(tol / 10 < r.rel_residual <= tol for r in rset.runs),
        })
    return rows


def dumps(rows):
    """The table as JSON text, one row per line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def differences(rows, base_rows):
    """Lines naming each case whose high_floor moved by more than FLOOR_MOVE
    and each seed whose outcome moved between pass, fail and error."""
    base = {row["case_id"]: row for row in base_rows}
    out = []
    for row in rows:
        old = base.get(row["case_id"])
        if old is None:
            out.append(f"{row['case_id']}: not in the base table")
            continue
        hi, lo = sorted([max(row["high_floor"], 1e-300), max(old["high_floor"], 1e-300)],
                        reverse=True)
        if hi > FLOOR_MOVE * lo:
            out.append(f"{row['case_id']}: high_floor {old['high_floor']:.2g} -> "
                       f"{row['high_floor']:.2g}")
        for kind in ("fails", "errors"):
            for seed in sorted(set(row[kind]) ^ set(old[kind])):
                moved = "now" if seed in row[kind] else "no longer"
                out.append(f"{row['case_id']} seed {seed}: {moved} in {kind}")
    return out


def read_base(path):
    """The table in the JSON file path, for --compare; ConfigError when the
    file cannot be read, is not JSON or is not a list of rows that
    differences() can read (a string case_id, a numeric high_floor, and fails
    and errors lists of integer seeds)."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"--compare {path}: cannot read a JSON table: {exc}") from None
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and isinstance(row.get("case_id"), str)
            and type(row.get("high_floor")) in (int, float)
            and all(isinstance(row.get(kind), list)
                    and all(type(seed) is int for seed in row[kind])
                    for kind in ("fails", "errors"))
            for row in rows)):
        raise ConfigError(f"--compare {path}: not a table of this script")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the table to this file (default: stdout)")
    ap.add_argument("--compare", metavar="BASE.json",
                    help="compare the table with this earlier one")
    args = ap.parse_args(argv)
    try:
        cli.check_writable("--out", args.out)
        base = None if args.compare is None else read_base(args.compare)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = dumps(table())
    if args.out is None:
        sys.stdout.write(text)
    else:
        cli.write_text(args.out, text)
    if base is None:
        return 0
    diffs = differences(json.loads(text), base)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences from {args.compare}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
