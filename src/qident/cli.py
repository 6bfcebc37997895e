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
run.  Complex values are written as [re, im] pairs, a partition as a JSON
list of integers [3,1] or a string holding that JSON text "[3,1]", exact
q-power tags as {"qpow": m}.
`run --case` builds a config entry from its options, each --param value
written as JSON, and validates it as a file entry is validated; `run
--config` takes none of them.  Text that json cannot decode, nesting too
deep included, is a configuration error wherever it is read.

A batch runs its samples one after another, in config order, so for fixed
seeds its report is the same up to the timestamp.  Reports are emitted as
JSON (source of truth) and optionally flattened to CSV; NaN and infinities
never appear in reports (they are null: error runs carry null sides).  A
scalar parameter must be finite.

The JSON report has the layout of json.dumps(doc, indent=2,
allow_nan=False), written directly (_json_text), and the tests hold it to
the stdlib's bytes: json.dumps takes its pure-Python encoder whenever it
indents.  CSV rows are joined as csv.writer joins them (_csv_field), the
params column by json's C encoder, built once.  Report files are written as
bytes with os.write and overwritten in place, with no truncate to zero
first (write_text): on ext4 that truncate makes close start writeback,
which cost more than writing a small report.  The write is not atomic, and
open(path, "w") was not either.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from . import __version__
from .errors import ConfigError, NotAPartition, QidentError, excerpt
from .identities import (CASES, HIGH_DPS, INT_KINDS, IdentityReport, error_report,
                         mp_context, run_case, sample_params)
from .partitions import check_partition
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
            raise ConfigError(f"expected integer, got {excerpt(raw)}")
        return raw
    if kind == "partition":
        try:  # a string holds the JSON text of a list of integers
            parts = json.loads(raw) if isinstance(raw, str) else raw
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            parts = None
        if not isinstance(parts, (list, tuple)):
            raise ConfigError(f"bad partition: malformed partition text: {excerpt(raw)}"
                              if isinstance(raw, str) else
                              f"expected partition, got {excerpt(raw)}")
        try:
            return check_partition(parts)
        except NotAPartition as exc:
            raise ConfigError(f"bad partition: {exc}") from None
    if kind in ("scalar", "tagged"):
        return _decode_scalar(raw)
    if kind == "vector":
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"expected vector (list), got {excerpt(raw)}")
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
        raise ConfigError(f"expected scalar, got {excerpt(raw)}")
    if isinstance(raw, (int, float)):
        return _float(raw)
    if isinstance(raw, dict) and set(raw) == {"qpow"}:
        if not isinstance(raw["qpow"], int) or isinstance(raw["qpow"], bool):
            raise ConfigError("qpow tag must hold an integer")
        return QPower(raw["qpow"])
    if isinstance(raw, (list, tuple)) and len(raw) == 2 \
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        return complex(_float(raw[0]), _float(raw[1]))
    raise ConfigError(f"cannot interpret scalar value {excerpt(raw)}")


def _encode_value(v):
    """The JSON form of a report value, most common first: a complex, a float
    or an int (a bool too), each non-finite one None; a QPower tag; a tuple
    of these; or an mpmath number, written as its complex()."""
    if isinstance(v, complex):
        return [v.real, v.imag] if cmath.isfinite(v) else None
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, int):
        return v
    if isinstance(v, QPower):
        return {"qpow": v.exponent}
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
        "params": {k: _encode_value(rep.params[k]) for k in sorted(rep.params)},
    }


# ---------------------------------------------------------------------------
# Config handling.
# ---------------------------------------------------------------------------

def _validate_config(entry: dict) -> CaseConfig:
    if not isinstance(entry, dict):
        raise ConfigError(f"config entry must be an object, got {excerpt(entry)}")
    unknown = set(entry) - {"case_id", "params", "tol", "seed", "samples"}
    if unknown:
        raise ConfigError(f"unknown config fields: {excerpt(sorted(unknown))}")
    case_id = entry.get("case_id")
    if case_id not in CASES:
        raise ConfigError(f"unknown case id: {excerpt(case_id)}")
    schema = CASES[case_id].schema
    raw_params = entry.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params must be an object")
    params = {}
    for name, raw in raw_params.items():
        if name not in schema:
            raise ConfigError(f"{case_id}: unknown parameter {excerpt(name)}")
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
    """Read and validate a JSON config file (raises ConfigError on a file
    that is not UTF-8 JSON, on any malformed entry, on a key beside "cases",
    or on a list without entries, before any evaluation starts)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise ConfigError(f"malformed JSON in config file: {exc}")
    if isinstance(doc, dict) and "cases" in doc:
        unknown = set(doc) - {"cases"}
        if unknown:
            raise ConfigError(f"unknown config fields: {excerpt(sorted(unknown))}")
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
        raise ConfigError(f"--param needs name=value, got {excerpt(text)}")
    name, raw = text.split("=", 1)
    try:
        return name, json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, or nested too deep
        raise ConfigError(f"cannot parse value for {excerpt(name)}: {excerpt(raw)}")


# ---------------------------------------------------------------------------
# Precision backend.
# ---------------------------------------------------------------------------

def _precision_mode() -> str:
    mode = os.environ.get("QIDENT_PRECISION", "double").lower()
    if mode not in ("double", "high"):
        raise ConfigError("QIDENT_PRECISION must be 'double' or 'high'")
    return mode


def _promote_params(params: dict):
    """params with each float or complex value, alone or in a tuple, made an
    mpmath complex of mp_context(HIGH_DPS), whose arithmetic runs at HIGH_DPS
    digits; integers, partitions and QPower tags stay as they are."""
    ctx = mp_context(HIGH_DPS)

    def up(v):
        if isinstance(v, tuple):
            return tuple(map(up, v))
        return ctx.mpmathify(complex(v)) if isinstance(v, (float, complex)) else v

    return {name: up(v) for name, v in params.items()}


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
                    params = _promote_params(params)
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


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(o, pad: str) -> str:
    """o in the layout of json.dumps(o, indent=2, allow_nan=False), its
    inner lines indented past pad.  The commonest types come first: a finite
    float, an [re, im] pair of them and an int by exact type, a string, a
    dict, a list or tuple.  A float is written by float.__repr__ and a string
    (a key too: keys are strings) by encode_basestring_ascii.  Anything else
    (None, a bool, an int or float subclass, a non-finite float, another
    type) goes to json.dumps(o, indent=2, allow_nan=False), which writes it
    or refuses it with its ValueError or TypeError."""
    t = type(o)
    if t is float and o - o == 0.0:
        return float.__repr__(o)
    if t is list and len(o) == 2 and type(o[0]) is type(o[1]) is float \
            and o[0] - o[0] == o[1] - o[1] == 0.0:
        i = pad + "  "
        return f"[\n{i}{float.__repr__(o[0])},\n{i}{float.__repr__(o[1])}\n{pad}]"
    if t is int:
        return int.__repr__(o)
    if isinstance(o, str):
        return _encode_str(o)
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in o.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_json_text(v, inner) for v in o]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    return json.dumps(o, indent=2, allow_nan=False)


def report_json(rset: ReportSet) -> str:
    """The JSON report, in the layout of json.dumps(doc, indent=2,
    allow_nan=False)."""
    doc = {"meta": rset.meta, "summary": rset.summary, "runs": rset.run_dicts}
    return _json_text(doc, "")


_CSV_HEADER = ("case_id,sample_index,seed,status,lhs_re,lhs_im,rhs_re,rhs_im,"
               "abs_residual,rel_residual,terms_used,message,params\r\n")

#: json.dumps(o, allow_nan=False)'s C encoder, built once rather than on every
#: call, and without the circular-reference check, which no report value needs.
_params_encoder = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _encode_str, None, ": ", ", ", False, False, False)


def _csv_field(v) -> str:
    """v as csv.writer writes a field of a row of several (excel dialect)."""
    v = "" if v is None else v if isinstance(v, str) else str(v)
    if '"' in v or "," in v or "\n" in v or "\r" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def write_text(path: str, text: str) -> None:
    """Write text (UTF-8, newlines as given) to path, overwriting the file in
    place: open it without O_TRUNC, write, then truncate at the written
    length.  Truncating a non-empty ext4 file to zero and rewriting it makes
    ext4 start writeback at close (its auto_da_alloc heuristic).  Only a
    regular file is truncated: a tty, a pipe or /dev/null cannot be, and
    O_TRUNC did nothing on them.  Neither this nor open(path, "w") is
    atomic: a reader can see a partly written file."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def check_writable(option: str, path) -> None:
    """Raise ConfigError unless path (None: no file), given to option, is a
    writable file or can be made in a writable folder; checked before a batch."""
    folder = os.path.dirname(path or "") or "."
    if path and (os.path.isdir(path) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK)):
        raise ConfigError(f"{option} {path}: not a writable file")


def write_csv(rset: ReportSet, path: str) -> None:
    """Flatten one report per row (JSON remains the source of truth), as
    csv.writer writes the rows."""
    lines = [_CSV_HEADER]
    for rd in rset.run_dicts:
        lhs = rd["lhs"] or (None, None)
        rhs = rd["rhs"] or (None, None)
        row = (rd["case_id"], rd["sample_index"], rd["seed"], rd["status"],
               lhs[0], lhs[1], rhs[0], rhs[1], rd["abs_residual"], rd["rel_residual"],
               rd["terms_used"], rd["message"], "".join(_params_encoder(rd["params"], 0)))
        lines.append(",".join(map(_csv_field, row)) + "\r\n")
    write_text(path, "".join(lines))


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
    # Per-case options without a default: args holds only those given.
    rp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    rp.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    rp.add_argument("--tol", type=float, default=argparse.SUPPRESS)
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
        options = {k: v for k, v in vars(args).items() if k in ("seed", "samples", "tol")}
        if args.config:
            if options or args.param:
                raise ConfigError("--config takes no --param, --seed, --samples or --tol")
            configs = load_configs(args.config)
        elif args.case:
            params = dict(_parse_param_option(p) for p in args.param)
            configs = [_validate_config({"case_id": args.case, "params": params, **options})]
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
