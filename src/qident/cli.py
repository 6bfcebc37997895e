"""Command-line runner.

Invocation:
  qident list
  qident run --config FILE [--out FILE] [--csv FILE]
  qident run --case ID --seed S --samples K --tol T [--param name=value]...

Environment: QIDENT_PRECISION=double|high selects the scalar backend.
Exit codes: 0 all pass, 1 any fail or error, 2 configuration/usage error.

Config files are JSON: either a list of case configs or {"cases": [...]}
with no other key; each case config is {"case_id": str, "seed": int,
"samples": int, "tol": float, "params": {...}}.  A parameter's schema kind
(`qident list` names the parameters) is an integer kind -- int, order
(>= 0), rank (>= 1), delta (0 or 1) or sign (+1 or -1) -- or scalar, tagged
(a scalar or an exact q-power tag), partition (at most rank parts) or vector
(rank scalar entries); a value outside its kind's domain ends as an error
run.  Complex values are written as [re, im] pairs, partitions as lists
[3,1] or bracketed strings "[3,1]", exact q-power tags as {"qpow": m}.
`run --case` builds a config entry from its options, each --param value
written as JSON, and validates it as a file entry is validated.

A batch runs its samples one after another, in config order, so for fixed
seeds its report is the same up to the timestamp.  Reports are emitted as
JSON (source of truth) and optionally flattened to CSV; NaN and infinities
never appear in reports (they are null: error runs carry null sides).  A
scalar parameter must be finite.  Report files are overwritten in place,
with no truncate to zero first (write_text): on ext4 that truncate makes
close start writeback, which cost more than writing a small report.  The
write is not atomic, and open(path, "w") was not either.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from . import __version__
from .errors import ConfigError, NotAPartition, QidentError
from .identities import (CASES, HIGH_DPS, INT_KINDS, IdentityReport, error_report,
                         mp_context, run_case, sample_params)
from .partitions import parse_partition
from .policy import QPower


@dataclass(frozen=True)
class CaseConfig:
    """One requested batch of runs for a registry case."""

    case_id: str
    params: dict = field(default_factory=dict)
    tol: Optional[float] = None
    seed: int = 0
    samples: int = 1


@dataclass
class ReportSet:
    """All runs of one invocation plus summary counts and metadata."""

    runs: List[IdentityReport]
    summary: dict
    meta: dict
    run_dicts: List[dict]  # the serialized runs, in report order


# ---------------------------------------------------------------------------
# Value encoding/decoding.
# ---------------------------------------------------------------------------

def _decode_value(kind, raw):
    if kind in INT_KINDS:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"expected integer, got {raw!r}")
        return raw
    if kind == "partition":
        if isinstance(raw, (list, tuple)):
            raw = "[" + ",".join(str(x) for x in raw) + "]"
        if not isinstance(raw, str):
            raise ConfigError(f"expected partition, got {raw!r}")
        try:
            return parse_partition(raw)
        except NotAPartition as exc:
            raise ConfigError(f"bad partition: {exc}") from None
    if kind in ("scalar", "tagged"):
        return _decode_scalar(raw)
    if kind == "vector":
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"expected vector (list), got {raw!r}")
        return tuple(_decode_scalar(v) for v in raw)
    raise ConfigError(f"unknown schema kind {kind!r}")


def _float(v):
    """float(v) of a JSON number; an integer too large for a float becomes
    the infinity of its sign, as json decodes 1e400."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _decode_scalar(raw):
    if isinstance(raw, bool):
        raise ConfigError(f"expected scalar, got {raw!r}")
    if isinstance(raw, (int, float)):
        return _float(raw)
    if isinstance(raw, dict) and set(raw) == {"qpow"}:
        if not isinstance(raw["qpow"], int):
            raise ConfigError("qpow tag must hold an integer")
        return QPower(raw["qpow"])
    if isinstance(raw, (list, tuple)) and len(raw) == 2 \
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        return complex(_float(raw[0]), _float(raw[1]))
    raise ConfigError(f"cannot interpret scalar value {raw!r}")


def _encode_value(v):
    """The JSON form of a report value: an int (a bool too), a float or a
    complex, each non-finite one None; a QPower tag; a tuple of these; or an
    mpmath number, written as its complex()."""
    if isinstance(v, QPower):
        return {"qpow": v.exponent}
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, complex):
        return [v.real, v.imag] if cmath.isfinite(v) else None
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    return _encode_value(complex(v))


def _report_to_dict(rep: IdentityReport, sample_index: int, seed: int):
    return {
        "case_id": rep.case_id,
        "sample_index": sample_index,
        "seed": seed,
        "status": rep.status,
        "lhs": _encode_value(rep.lhs),
        "rhs": _encode_value(rep.rhs),
        "abs_residual": _encode_value(rep.abs_residual),
        "rel_residual": _encode_value(rep.rel_residual),
        "terms_used": rep.terms_used,
        "message": rep.message,
        "params": {k: _encode_value(v) for k, v in sorted(rep.params.items())},
    }


# ---------------------------------------------------------------------------
# Config handling.
# ---------------------------------------------------------------------------

def _validate_config(entry: dict) -> CaseConfig:
    if not isinstance(entry, dict):
        raise ConfigError(f"config entry must be an object, got {entry!r}")
    unknown = set(entry) - {"case_id", "params", "tol", "seed", "samples"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    case_id = entry.get("case_id")
    if case_id not in CASES:
        raise ConfigError(f"unknown case id: {case_id!r}")
    schema = CASES[case_id].schema
    raw_params = entry.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params must be an object")
    params = {}
    for name, raw in raw_params.items():
        if name not in schema:
            raise ConfigError(f"{case_id}: unknown parameter {name!r}")
        params[name] = _decode_value(schema[name], raw)
    tol, seed, samples = entry.get("tol"), entry.get("seed", 0), entry.get("samples", 1)
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, (int, float))
                            or not 0 < _float(tol) < math.inf):
        raise ConfigError("tol must be a positive finite number")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ConfigError("samples must be a positive integer")
    return CaseConfig(case_id=case_id, params=params,
                      tol=None if tol is None else float(tol),
                      seed=seed, samples=samples)


def load_configs(path: str) -> List[CaseConfig]:
    """Read and validate a JSON config file (raises ConfigError on any
    malformed entry, on a key beside "cases", or on a list without entries,
    before any evaluation starts)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in config file: {exc}")
    if isinstance(doc, dict) and "cases" in doc:
        unknown = set(doc) - {"cases"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        doc = doc["cases"]
    if not isinstance(doc, list):
        raise ConfigError("config must be a list of case configs or {'cases': [...]}")
    if not doc:
        raise ConfigError("config lists no cases")
    return [_validate_config(entry) for entry in doc]


def _parse_param_option(text: str):
    """(name, JSON-decoded value) of a `--param name=value` option; the value
    is checked against the schema with the rest of the entry
    (_validate_config)."""
    if "=" not in text:
        raise ConfigError(f"--param needs name=value, got {text!r}")
    name, raw = text.split("=", 1)
    try:
        return name, json.loads(raw)
    except json.JSONDecodeError:
        raise ConfigError(f"cannot parse value for {name!r}: {raw!r}")


# ---------------------------------------------------------------------------
# Precision backend.
# ---------------------------------------------------------------------------

def _precision_mode() -> str:
    mode = os.environ.get("QIDENT_PRECISION", "double").lower()
    if mode not in ("double", "high"):
        raise ConfigError("QIDENT_PRECISION must be 'double' or 'high'")
    return mode


def _promote_params(params: dict, schema: dict):
    """Promote the scalar-valued parameters to HIGH_DPS-digit mpmath values.
    Each carries mp_context(HIGH_DPS), so the evaluation runs at HIGH_DPS
    digits without touching mpmath's process-global precision."""
    ctx = mp_context(HIGH_DPS)

    def up(v):
        if isinstance(v, QPower):
            return v
        return ctx.mpmathify(complex(v))

    out = dict(params)
    for name, kind in schema.items():
        if kind in ("scalar", "tagged"):
            out[name] = up(out[name])
        elif kind == "vector":
            out[name] = tuple(up(v) for v in out[name])
    return out


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

def run(configs: List[CaseConfig], parallelism: int = 1,
        precision: Optional[str] = None) -> ReportSet:
    """Execute every config in order, each sample in turn; the report is
    deterministic for fixed seeds.  parallelism must be 1, else ConfigError:
    the parameter stays only because bench/run.py passes it by keyword and
    bench/tracing.py's cli.run wrapper by position, and the change to bench/
    that drops both deletes it (ROADMAP, "Names that bench/ binds")."""
    if parallelism != 1:
        raise ConfigError("parallelism must be 1: batches run serially")
    mode = precision if precision is not None else _precision_mode()
    runs, run_dicts = [], []
    counts = {"pass": 0, "fail": 0, "error": 0}
    for cfg in configs:
        for si in range(cfg.samples):
            seed = cfg.seed + si
            try:
                params = sample_params(cfg.case_id, seed)
            except ConfigError:  # unknown case id: a usage error, not a sample's
                raise
            except QidentError as exc:  # e.g. the sampler found no admissible draw
                rep = error_report(cfg.case_id, dict(cfg.params), cfg.tol, exc)
            else:
                params.update(cfg.params)
                if mode == "high":
                    params = _promote_params(params, CASES[cfg.case_id].schema)
                rep = run_case(cfg.case_id, params, cfg.tol)
            runs.append(rep)
            counts[rep.status] += 1
            run_dicts.append(_report_to_dict(rep, si, seed))
    meta = {
        "tool": "qident",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "precision": mode,
        "seeds": [cfg.seed for cfg in configs],
    }
    return ReportSet(runs=runs, summary=counts, meta=meta, run_dicts=run_dicts)


def exit_code(rset: ReportSet) -> int:
    """Exit code as a pure function of the summary counts."""
    if rset.summary["fail"] or rset.summary["error"]:
        return 1
    return 0


def report_json(rset: ReportSet) -> str:
    doc = {"meta": rset.meta, "summary": rset.summary, "runs": rset.run_dicts}
    return json.dumps(doc, indent=2, allow_nan=False, sort_keys=False)


_CSV_FIELDS = ["case_id", "sample_index", "seed", "status", "lhs_re", "lhs_im",
               "rhs_re", "rhs_im", "abs_residual", "rel_residual",
               "terms_used", "message", "params"]


def write_text(path: str, text: str) -> None:
    """Write text (UTF-8, newlines as given) to path, overwriting the file in
    place: open it without O_TRUNC, write, then truncate at the written
    length.  Truncating a non-empty ext4 file to zero and rewriting it makes
    ext4 start writeback at close (its auto_da_alloc heuristic).  Only a
    regular file is truncated: a tty, a pipe or /dev/null cannot be, and
    O_TRUNC did nothing on them.  Neither this nor open(path, "w") is
    atomic: a reader can see a partly written file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def check_writable(option: str, path) -> None:
    """Raise ConfigError unless path (None: no file), given to option, is a
    writable file or can be made in a writable folder; checked before a batch."""
    folder = os.path.dirname(path or "") or "."
    if path and (os.path.isdir(path) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK)):
        raise ConfigError(f"{option} {path}: not a writable file")


def write_csv(rset: ReportSet, path: str) -> None:
    """Flatten one report per row (JSON remains the source of truth)."""
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
    w.writeheader()
    for rd in rset.run_dicts:
        lhs = rd["lhs"] or [None, None]
        rhs = rd["rhs"] or [None, None]
        w.writerow({
            "case_id": rd["case_id"],
            "sample_index": rd["sample_index"],
            "seed": rd["seed"],
            "status": rd["status"],
            "lhs_re": lhs[0], "lhs_im": lhs[1],
            "rhs_re": rhs[0], "rhs_im": rhs[1],
            "abs_residual": rd["abs_residual"],
            "rel_residual": rd["rel_residual"],
            "terms_used": rd["terms_used"],
            "message": rd["message"],
            "params": json.dumps(rd["params"], allow_nan=False),
        })
    write_text(path, buf.getvalue())


def list_cases():
    """All registry cases as (case_id, description, schema), stable order."""
    return [(c.case_id, c.description, dict(c.schema)) for c in CASES.values()]


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(prog="qident",
                                 description="Numerical identity verification for "
                                             "q-series and BC_n-symmetric W functions.")
    sub = ap.add_subparsers(dest="command")
    sub.add_parser("list", help="list registry cases")
    rp = sub.add_parser("run", help="run identity checks")
    rp.add_argument("--config", help="JSON config file")
    rp.add_argument("--case", help="single case id")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--samples", type=int, default=1)
    rp.add_argument("--tol", type=float, default=None)
    rp.add_argument("--param", action="append", default=[],
                    help="explicit parameter name=value (JSON value syntax)")
    rp.add_argument("--out", help="write JSON report to this file")
    rp.add_argument("--csv", help="write CSV report to this file")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "list":
        for case_id, desc, schema in list_cases():
            names = ",".join(schema)
            print(f"{case_id:22s} {desc}  [params: {names}]")
        return 0
    if args.command != "run":
        ap.print_usage(sys.stderr)
        return 2
    try:
        if args.config and args.case:
            raise ConfigError("--config and --case are mutually exclusive")
        if args.config:
            configs = load_configs(args.config)
        elif args.case:
            params = dict(_parse_param_option(p) for p in args.param)
            configs = [_validate_config({"case_id": args.case, "seed": args.seed,
                                         "samples": args.samples, "tol": args.tol,
                                         "params": params})]
        else:
            raise ConfigError("run requires --config or --case")
        for option, path in (("--out", args.out), ("--csv", args.csv)):
            check_writable(option, path)
        rset = run(configs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = report_json(rset)
    if args.out:
        write_text(args.out, text + "\n")
    else:
        print(text)
    if args.csv:
        write_csv(rset, args.csv)
    s = rset.summary
    print(f"pass={s['pass']} fail={s['fail']} error={s['error']}", file=sys.stderr)
    return exit_code(rset)


if __name__ == "__main__":
    sys.exit(main())
