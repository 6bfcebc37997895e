"""The schema of the committed BENCH_<N>.json files that
scripts/bench_record.py writes.  Nothing is timed: the files are read as
committed, and the newest one is checked against this tree's BENCHMARK.json,
registry and accuracy table layout."""

import json
import re
import statistics
from pathlib import Path

import pytest

from qident.identities import CASES

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"),
                 key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ACCURACY_KEYS = {"case_id", "tol", "high_floor", "fails", "errors", "band"}


def _positive(v):
    return type(v) in (int, float) and v > 0


def schema_problems(record, pr):
    """Each way record (a BENCH_<pr>.json) departs from the schema."""
    out = []
    if record.get("pr") != pr:
        out.append(f"pr {record.get('pr')!r} is not {pr}")
    commit = record["commit"]
    if not re.fullmatch(r"[0-9a-f]{40}", commit["head"]) or not isinstance(
            commit["dirty"], list):
        out.append(f"commit {commit}")
    host = record["host"]
    if not (type(host["cpu_count"]) is int and all(
            isinstance(host[k], str) for k in ("python", "mpmath", "mpmath_backend"))):
        out.append(f"host {host}")
    for name, w in record["workloads"].items():
        runs = w["runs"]
        if len(runs) < 3 or not all(type(r["correct"]) is bool and type(r["failed"]) is int
                                    and type(r["attempted"]) is int for r in runs):
            out.append(f"{name}: runs {runs}")
        for metric, m in w["metrics"].items():
            values, (q1, q3) = m["values"], m["quartiles"]
            if len(values) != len(runs) or m["median"] != statistics.median(values) \
                    or not min(values) <= q1 <= m["median"] <= q3 <= max(values):
                out.append(f"{name} {metric}: {m}")
    for mode in ("double", "high"):
        reg = record["registry"][mode]
        if not (_positive(reg["full_registry_s"]) and reg["samples"] > 0
                and all(map(_positive, reg["ms_per_sample"].values()))):
            out.append(f"registry {mode}: {reg}")
    tier1 = record["tier1"]
    if not (_positive(tier1["wall_s"]) and "passed" in (tier1["summary"] or "")):
        out.append(f"tier1 {tier1}")
    if not all(set(row) == ACCURACY_KEYS for row in record["accuracy"]):
        out.append("accuracy rows")
    return out


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    pr = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])
    assert schema_problems(json.loads(path.read_text(encoding="utf-8")), pr) == []


def test_newest_record_covers_this_tree():
    record = json.loads(RECORDS[-1].read_text(encoding="utf-8"))
    assert list(record["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for w in record["workloads"].values():
        assert list(w["metrics"]) == names
    for mode in ("double", "high"):
        assert list(record["registry"][mode]["ms_per_sample"]) == list(CASES)
    assert [row["case_id"] for row in record["accuracy"]] == list(CASES)


def test_schema_check_finds_a_fault():
    # The check reads what it names: a median that is not its values' median,
    # a missing run and a wrong pr are each reported.
    record = json.loads(RECORDS[-1].read_text(encoding="utf-8"))
    pr = record["pr"]
    name = next(iter(record["workloads"]))
    w = record["workloads"][name]
    metric = next(iter(w["metrics"]))
    w["metrics"][metric]["median"] = max(w["metrics"][metric]["values"]) + 1
    w["runs"].pop()
    problems = schema_problems(record, pr + 1)
    assert any(p.startswith("pr ") for p in problems)
    assert any(p.startswith(f"{name}: runs") for p in problems)
    assert any(p.startswith(f"{name} {metric}:") for p in problems)
