"""Quick self-test of the benchmark at its smallest size (one round).

    python3 bench/selftest.py

Runs every workload once untraced and one workload traced, and checks that
the last line is the result object, that every metric named in
BENCHMARK.json is emitted with its unit (end-to-end metrics above 0,
per-layer metrics at least 0), and that the attempted and failed counts are
whole numbers.  It also checks that the benchmark refuses to run, without a
result line, when the program's sources are missing.  Takes under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seed=0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, metric_spec, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: checks failed\n{proc.stdout}"
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and result[key] >= 0, (label, key)
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in metric_spec}, \
        f"{label}: metric names differ from BENCHMARK.json"
    for m in metric_spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])
        value = got["value"]
        assert isinstance(value, (int, float)), (label, m["name"], value)
        if "bound" in m:
            assert value > 0, f"{label}: {m['name']} = {value}"
        else:
            assert value >= 0, f"{label}: {m['name']} = {value}"
    print(f"ok {label}: attempted={result['attempted']} failed={result['failed']}")


def check_refuses_without_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "a result was printed without sources"
    print("ok refuses to run without src/")


def main():
    for w in SPEC["workloads"]:
        check_result(run(ROOT, w["name"], 0), SPEC["end_to_end"], w["name"])
    first = SPEC["workloads"][0]["name"]
    check_result(run(ROOT, first, 1), SPEC["per_layer"], f"{first} traced")
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
