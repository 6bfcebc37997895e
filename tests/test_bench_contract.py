"""The names the benchmark harness in bench/ reads from the package.

bench/tracing.py wraps functions by (layer, name) from outside the package,
bench/checks.py calls the W function directly, and bench/run.py imports the
modules, draws samples, runs cases and runs registry requests through
cli.run and the report writers, so deleting or renaming one of them breaks
`python3 bench/run.py` without failing any other test.  TIMED is read from
bench/tracing.py itself, so this test follows the harness."""

import cmath
import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _timed():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TIMED


def test_traced_names_resolve():
    timed = _timed()
    assert timed
    for layer, names in timed.items():
        mod = importlib.import_module(f"qident.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"qident.{layer}.{name}"


def test_checked_w_function_is_callable_as_the_harness_calls_it():
    wfunc = importlib.import_module("qident.wfunc")
    assert issubclass(wfunc.PoleCancellationError, Exception)
    wp = wfunc.WParams(0.3, 0.0, 0.45, 0.2 + 0.1j, 0.5)
    # Variables, partition, the empty skew partition, params, memo keyword.
    v = wfunc.w_multi((0.7, 0.4), (1,), (), wp, memo={})
    assert v == wfunc.w_multi((0.7, 0.4), (1,), (), wp)


def test_registry_request_runs_as_the_harness_runs_it(tmp_path):
    # bench/run.py: cli.run([CaseConfig(case_id=, seed=, samples=)],
    # parallelism=1, precision="double"), then report_json and write_csv;
    # bench/tracing.py's wrapper passes parallelism by position.
    cli = importlib.import_module("qident.cli")
    configs = [cli.CaseConfig(case_id="c1macdonald", seed=0, samples=2)]
    by_position = cli.run(configs, 1, precision="double")
    by_keyword = cli.run(configs, parallelism=1, precision="double")
    for rset in (by_position, by_keyword):
        assert rset.summary == {"pass": 2, "fail": 0, "error": 0}
        assert [r.status for r in rset.runs] == ["pass", "pass"]
        assert len(json.loads(cli.report_json(rset))["runs"]) == 2
    csv_path = tmp_path / "requests.csv"
    cli.write_csv(by_keyword, str(csv_path))
    assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 3


def test_case_runs_as_the_harness_runs_it():
    # bench/run.py and bench/drift.py: sample_params(case, seed), then
    # run_case(case, params), reading status, lhs, rhs and rel_residual.
    identities = importlib.import_module("qident.identities")
    rep = identities.run_case("c1macdonald", identities.sample_params("c1macdonald", 0))
    assert rep.status == "pass"
    assert not (cmath.isnan(rep.lhs) or cmath.isnan(rep.rhs))
    assert rep.rel_residual >= 0


def test_imported_modules_are_package_attributes():
    # bench/run.py's import_qident imports qident, qident.cli and
    # qident.identities, and reads the other modules as attributes of qident.
    qident = importlib.import_module("qident")
    importlib.import_module("qident.cli")
    importlib.import_module("qident.identities")
    for name in ("cli", "identities", "qcore", "series", "partitions", "wfunc",
                 "policy", "errors"):
        assert getattr(qident, name).__name__ == f"qident.{name}"
