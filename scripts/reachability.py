#!/usr/bin/env python3
"""Count the statements of the qident package that a registry run never runs.

Usage:
  python3 scripts/reachability.py [--seed S] [--samples K] [--high-samples H]

Every registry case runs through `qident run --config` (`cli.main`, so config
decoding and the JSON and CSV writers count too), serially, with K samples
per case (default 200) in double precision and then H samples per case
(default 10) in high precision, under a line tracer (sys.settrace).  The
config and the reports go to a temporary directory, and QIDENT_PRECISION is
set for each mode and restored afterwards.  The tracer starts before the
package is imported, so code that runs at import counts too.  A negative
count, or 0 in both modes, is a usage error (exit 2) before any tracing.

For each module of the package one row is printed: the number of statements
inside functions, how many of them never ran, and the first line of each of
those.  A statement counts as run when the tracer saw a line event anywhere
in its line span; docstrings, `global` and `nonlocal` statements (which run
no code) are not counted.  Module-level statements are not counted either.

Only the standard library is used.  Rows name modules only.  The package is
imported from the `src/` of this script's tree, not from an installed copy.
"""

import argparse
import ast
import json
import os
import sys
import tempfile
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The src/ directory of this script's tree.
SRC = Path(__file__).resolve().parent.parent / "src"


def _compiles_to_nothing(stmt):
    """A docstring (any bare string statement), `global` or `nonlocal`."""
    return isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str))


def _body_statements(node):
    """The statements nested in node, at any depth, but not those inside a
    nested function: each function's body is counted once, as its own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, FUNCTIONS):
                yield from _body_statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _body_statements(child)


def function_statements(text):
    """(first line, last line) of each statement inside a function of the
    module source text, leaving out statements that compile to nothing."""
    return sorted({(stmt.lineno, stmt.end_lineno)
                   for fn in ast.walk(ast.parse(text)) if isinstance(fn, FUNCTIONS)
                   for stmt in _body_statements(fn) if not _compiles_to_nothing(stmt)})


def compress(lines):
    """'3, 7-9, 12' for the sorted line numbers [3, 7, 8, 9, 12]."""
    runs = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--high-samples", type=int, default=10)
    args = ap.parse_args(argv)
    if min(args.samples, args.high_samples) < 0:
        ap.error("--samples and --high-samples must be >= 0")
    if not (args.samples or args.high_samples):
        ap.error("--samples and --high-samples are both 0: nothing would run")

    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = SRC / "qident"
    modules = {str(path): path.stem for path in sorted(package.glob("*.py"))}
    hits = {path: set() for path in modules}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hits else None

    saved = os.environ.get("QIDENT_PRECISION")
    sys.settrace(trace_calls)
    try:
        from qident import cli
        from qident.identities import CASES

        with tempfile.TemporaryDirectory() as tmp:
            config, out, csv = (os.path.join(tmp, name)
                                for name in ("config.json", "report.json", "report.csv"))
            for precision, samples in (("double", args.samples), ("high", args.high_samples)):
                if samples:
                    cli.write_text(config, json.dumps(
                        [{"case_id": cid, "seed": args.seed, "samples": samples}
                         for cid in CASES]))
                    os.environ["QIDENT_PRECISION"] = precision
                    if cli.main(["run", "--config", config, "--out", out, "--csv", csv]) == 2:
                        raise SystemExit(f"qident run refused the {precision} config")
    finally:
        sys.settrace(None)
        if saved is None:
            os.environ.pop("QIDENT_PRECISION", None)
        else:
            os.environ["QIDENT_PRECISION"] = saved

    print(f"registry: {args.samples} double and {args.high_samples} high samples "
          f"per case from seed {args.seed}")
    print(f"{'module':<12} {'statements':>10} {'unreached':>9}  lines")
    total = unreached_total = 0
    for path, name in modules.items():
        spans = function_statements(Path(path).read_text(encoding="utf-8"))
        ran = hits[path]
        unreached = [a for a, b in spans if not any(a <= n <= b for n in ran)]
        total += len(spans)
        unreached_total += len(unreached)
        print(f"{name:<12} {len(spans):>10} {len(unreached):>9}  {compress(unreached)}")
    print(f"{'total':<12} {total:>10} {unreached_total:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
