"""CLI and batch-runner tests: config parsing, determinism, parallelism
independence, report formats, precision backend, and exit codes."""

import csv
import functools
import importlib.util
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qident.identities as identities
from qident.cli import (
    CaseConfig,
    _parse_param_option,
    _validate_config,
    exit_code,
    list_cases,
    load_configs,
    main,
    report_json,
    run,
    write_csv,
    write_text,
)
from qident.errors import ConfigError
from qident.identities import run_case, sample_params
from qident.policy import QPower


def _strip_timing(text):
    doc = json.loads(text)
    doc["meta"].pop("timestamp", None)
    return doc


# ---------------------------------------------------------------------------
# registry listing and samplers
# ---------------------------------------------------------------------------

def test_list_cases_complete():
    cases = list_cases()
    assert len(cases) == 17
    ids = [cid for cid, _, _ in cases]
    assert "3psi3delta1" in ids and "jackson8phi7" in ids
    for cid, desc, schema in cases:
        assert desc and schema


def test_sample_params_deterministic():
    assert sample_params("jackson8phi7", 7) == sample_params("jackson8phi7", 7)
    assert sample_params("jackson8phi7", 7) != sample_params("jackson8phi7", 8)


def test_sample_params_unknown_case():
    with pytest.raises(ConfigError):
        sample_params("nosuchcase", 0)


def test_sampled_6psi6_respects_convergence_gate():
    # the sampler must only emit draws inside the convergence region
    for seed in range(30):
        p = sample_params("bailey6psi6", seed)
        x = p["q"] * p["a"] ** 2 / (p["b"] * p["c"] * p["d"] * p["e"])
        assert abs(x) <= 0.5


# ---------------------------------------------------------------------------
# run() and determinism
# ---------------------------------------------------------------------------

def test_run_empty_config_list():
    rset = run([])
    assert rset.runs == []
    assert rset.summary == {"pass": 0, "fail": 0, "error": 0}
    assert exit_code(rset) == 0


def test_run_parallelism_invariance():
    configs = [CaseConfig(case_id=cid, seed=3, samples=2)
               for cid in ("jackson8phi7", "c1macdonald", "ramanujan1psi1",
                           "bilateralfinite", "flippedsummand")]
    # Elliptic W draws (p = 0.1, nonempty partition at these seeds): each
    # worker thread's run_case has its own theta memo.
    configs += [CaseConfig(case_id=cid, seed=seed, samples=2)
                for cid, seed in (("multijackson", 56), ("simplifiedjackson", 56),
                                  ("flip", 52))]
    for c in configs[5:]:
        for seed in (c.seed, c.seed + 1):
            assert sample_params(c.case_id, seed)["p"] != 0
            assert sample_params(c.case_id, seed)["lam"]
    r1 = run(configs, parallelism=1)
    r8 = run(configs, parallelism=8)
    assert _strip_timing(report_json(r1)) == _strip_timing(report_json(r8))


def test_run_invalid_parallelism():
    with pytest.raises(ConfigError):
        run([], parallelism=0)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_validate_config_errors():
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "nosuchcase"})
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "jackson8phi7", "bogus": 1})
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "jackson8phi7", "tol": -1})
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "jackson8phi7", "seed": -1})
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "jackson8phi7", "samples": 0})
    with pytest.raises(ConfigError):
        _validate_config({"case_id": "jackson8phi7", "params": {"zz": 1}})


def test_validate_config_rejects_booleans():
    # JSON true/false decode to bool, a subclass of int: never a seed, a
    # sample count or a tolerance.
    for name in ("seed", "samples", "tol"):
        for value in (True, False):
            with pytest.raises(ConfigError):
                _validate_config({"case_id": "c1macdonald", name: value})


def test_main_boolean_config_values_exit_2(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text('[{"case_id": "c1macdonald", "seed": true, "samples": true, '
                    '"tol": true}]')
    assert main(["run", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_main_bad_partition_exits_2(tmp_path, capsys):
    # A partition that is not weakly decreasing, or has a part that is not an
    # integer, is a configuration error on both input paths.
    for text in ("[1,2]", "[1.5]"):
        assert main(["run", "--case", "weyldegree", "--param", f"mu={text}"]) == 2
        assert "config error:" in capsys.readouterr().err
    for raw in ("[1,2]", [1, 2], "[1.5]", [1.5]):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps([{"case_id": "weyldegree", "params": {"mu": raw}}]))
        assert main(["run", "--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err


def test_main_rejects_nonfinite_tol_in_both_paths(tmp_path, capsys):
    assert main(["run", "--case", "c1macdonald", "--tol", "inf"]) == 2
    assert "config error:" in capsys.readouterr().err
    path = tmp_path / "inf.json"
    path.write_text('[{"case_id": "c1macdonald", "tol": Infinity}]')
    assert main(["run", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_main_case_path_checks_samples_tol_and_seed(capsys):
    # run --case goes through the checks of a config entry.
    for flags in (["--samples", "0"], ["--tol", "-1"], ["--seed", "-3"]):
        assert main(["run", "--case", "c1macdonald", *flags]) == 2, flags
        assert "config error:" in capsys.readouterr().err


def test_integer_kinds_decode_as_int_and_reject_booleans():
    # order, rank, delta and sign decode as int does; a domain is checked in
    # run_case, not here.
    for case_id, name in (("jackson8phi7", "n"), ("multilateral3psi3", "n"),
                          ("multilateral3psi3", "delta"), ("summandinvariance", "sign")):
        cfg = _validate_config({"case_id": case_id, "params": {name: 3}})
        assert cfg.params[name] == 3
        for raw in (True, 1.0, "1"):
            with pytest.raises(ConfigError, match="expected integer"):
                _validate_config({"case_id": case_id, "params": {name: raw}})


def test_3psi3_delta_is_fixed_by_the_case_id(capsys):
    assert main(["run", "--case", "3psi3delta0", "--param", "delta=1"]) == 2
    assert "config error: 3psi3delta0: unknown parameter 'delta'" in capsys.readouterr().err
    rep = run_case("3psi3delta1", sample_params("3psi3delta1", 0))
    assert rep.status == "pass" and rep.params["delta"] == 1


def test_validate_config_decodes_values():
    cfg = _validate_config({
        "case_id": "multijackson",
        "params": {"lam": "[2,1]", "a": [0.7, 0.1], "q": 0.3},
        "tol": 1e-8, "seed": 5, "samples": 2,
    })
    assert cfg.params["lam"] == (2, 1)
    assert cfg.params["a"] == complex(0.7, 0.1)
    assert cfg.params["q"] == 0.3
    assert cfg.tol == 1e-8 and cfg.seed == 5 and cfg.samples == 2
    cfg = _validate_config({"case_id": "bailey6psi6", "params": {"b": {"qpow": -2}}})
    assert cfg.params["b"] == QPower(-2)


def test_load_configs_forms(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps([{"case_id": "c1macdonald", "samples": 2}]))
    assert len(load_configs(str(p))) == 1
    p.write_text(json.dumps({"cases": [{"case_id": "c1macdonald"},
                                       {"case_id": "jackson8phi7"}]}))
    assert len(load_configs(str(p))) == 2
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_configs(str(p))
    with pytest.raises(ConfigError):
        load_configs(str(tmp_path / "missing.json"))
    p.write_text(json.dumps({"nothing": []}))
    with pytest.raises(ConfigError):
        load_configs(str(p))


def test_example_config_runs_and_passes():
    # The example config of the README: a schema change that breaks it
    # fails here, not only in the documentation.
    path = Path(__file__).resolve().parent.parent / "scripts" / "example_config.json"
    rset = run(load_configs(str(path)), parallelism=1)
    assert len(rset.runs) == 28
    assert rset.summary == {"pass": 28, "fail": 0, "error": 0}


def test_parse_param_option():
    # --param only splits name=value and decodes the value as JSON; the
    # schema check is _validate_config's, as for a config file entry.
    assert _parse_param_option("a=0.5") == ("a", 0.5)
    assert _parse_param_option("a=[0.5, 0.1]") == ("a", [0.5, 0.1])
    assert _parse_param_option('b={"qpow": -2}') == ("b", {"qpow": -2})
    assert _parse_param_option("lam=[2,1]") == ("lam", [2, 1])
    assert _parse_param_option('lam="[2,1]"') == ("lam", "[2,1]")
    assert _parse_param_option("zz=1") == ("zz", 1)
    with pytest.raises(ConfigError):
        _parse_param_option("a")
    with pytest.raises(ConfigError):
        _parse_param_option("a=not-json")


def test_main_case_options_are_validated_as_a_config_entry(tmp_path, capsys):
    # Both partition spellings decode; an unknown case, an unknown parameter
    # and flippedsummand's dropped delta are config errors, as in a file.
    for text in ("[2,1]", '"[2,1]"'):
        out_p = tmp_path / "r.json"
        assert main(["run", "--case", "multijackson", "--param", f"lam={text}",
                     "--out", str(out_p)]) == 0
        assert json.loads(out_p.read_text())["runs"][0]["params"]["lam"] == [2, 1]
    for argv, msg in ((["--case", "nosuchcase"], "unknown case id: 'nosuchcase'"),
                      (["--case", "jackson8phi7", "--param", "zz=1"],
                       "jackson8phi7: unknown parameter 'zz'"),
                      (["--case", "flippedsummand", "--param", "delta=0"],
                       "flippedsummand: unknown parameter 'delta'")):
        capsys.readouterr()
        assert main(["run", *argv]) == 2
        assert f"config error: {msg}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# main() end to end
# ---------------------------------------------------------------------------

def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 17


def test_main_run_case_with_out_and_csv(tmp_path):
    out_p, csv_p = tmp_path / "rep.json", tmp_path / "rep.csv"
    rc = main(["run", "--case", "c1macdonald", "--seed", "1", "--samples", "3",
               "--out", str(out_p), "--csv", str(csv_p)])
    assert rc == 0
    doc = json.loads(out_p.read_text())
    assert doc["summary"] == {"pass": 3, "fail": 0, "error": 0}
    assert len(doc["runs"]) == 3
    assert doc["runs"][0]["case_id"] == "c1macdonald"
    assert doc["runs"][1]["seed"] == 2  # base seed 1 + sample index 1
    assert "NaN" not in out_p.read_text()
    with open(csv_p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(r["status"] == "pass" for r in rows)


def test_main_run_param_override(tmp_path):
    out_p = tmp_path / "rep.json"
    rc = main(["run", "--case", "c1macdonald", "--param", "x=2.5",
               "--out", str(out_p)])
    assert rc == 0
    doc = json.loads(out_p.read_text())
    assert doc["runs"][0]["params"]["x"] == 2.5


def test_main_usage_errors(capsys):
    assert main(["run"]) == 2
    assert main(["run", "--case", "nosuchcase"]) == 2
    assert main(["run", "--config", "/nonexistent.json"]) == 2
    assert main(["run", "--config", "x.json", "--case", "c1macdonald"]) == 2
    capsys.readouterr()


def test_main_failing_tolerance_exits_1(tmp_path, capsys):
    # precondition: the case genuinely has a nonzero floating-point residual
    params = sample_params("jackson8phi7", 0)
    rep = run_case("jackson8phi7", params)
    assert rep.status == "pass" and rep.rel_residual > 0
    rc = main(["run", "--case", "jackson8phi7", "--seed", "0", "--samples", "1",
               "--tol", "1e-30", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    capsys.readouterr()


def test_main_sampler_failure_is_an_error_report(tmp_path, capsys, monkeypatch):
    # with a budget of 500 draws the sampler finds no admissible draw at this
    # seed (its first is draw 643); the batch must still finish and report the
    # sample as an error
    monkeypatch.setattr(identities, "_retry", functools.partial(identities._retry, tries=500))
    out_p = tmp_path / "rep.json"
    rc = main(["run", "--case", "3psi3delta0", "--seed", "56", "--out", str(out_p)])
    assert rc == 1
    doc = json.loads(out_p.read_text())
    assert doc["summary"] == {"pass": 0, "fail": 0, "error": 1}
    (run_d,) = doc["runs"]
    assert run_d["status"] == "error" and "DomainError" in run_d["message"]
    # The report is named as run_case names one: the case id, and tol by the
    # same default rule.
    assert run_d["case_id"] == "3psi3delta0"
    assert run_d["params"] == {"tol": identities.CASES["3psi3delta0"].default_tol}
    rc = main(["run", "--case", "3psi3delta0", "--seed", "56", "--tol", "0.001",
               "--out", str(out_p)])
    assert json.loads(out_p.read_text())["runs"][0]["params"] == {"tol": 0.001}
    capsys.readouterr()


@pytest.mark.parametrize("case_id, param", [
    ("bilateralfinite", "sigma=NaN"),
    ("ramanujan1psi1", "q=Infinity"),
    ("bailey6psi6", "q=-Infinity"),
    ("multilateral3psi3", "x=[0.5, Infinity]"),
])
def test_main_non_finite_scalar_is_an_error_run(case_id, param, capsys):
    # json.loads accepts NaN and Infinity.  Unchecked, the first passed with
    # NaN sides and the second ended in a ValueError traceback; a report
    # holding an infinity could not be written (null now, as NaN was).
    assert main(["run", "--case", case_id, "--seed", "0", "--param", param]) == 1
    out, err = capsys.readouterr()
    (run_d,) = json.loads(out)["runs"]
    name = param.split("=")[0]
    assert run_d["status"] == "error"
    assert run_d["message"].startswith(f"DomainError: {case_id} requires {name} to be "
                                       "a finite number, got ")
    assert run_d["params"][name] is None
    assert err == "pass=0 fail=0 error=1\n"


def test_main_non_finite_side_is_an_error_run(capsys):
    # sigma = 1e-300 is finite, but the product side overflows to NaN.  The
    # three-way check took its worst residual with max(), and max(0.0, nan)
    # is 0.0: the run passed with a null rhs and exit 0.
    assert main(["run", "--case", "bilateralfinite", "--seed", "0",
                 "--param", "sigma=1e-300"]) == 1
    out, err = capsys.readouterr()
    (run_d,) = json.loads(out)["runs"]
    assert run_d["status"] == "error"
    assert run_d["message"].startswith("NonFiniteSide: ")
    assert run_d["lhs"] is None and run_d["rhs"] is None
    assert err == "pass=0 fail=0 error=1\n"


def test_writers_overwrite_a_longer_file_to_the_bytes_of_a_fresh_write(tmp_path):
    # Report files are rewritten in place, then truncated at the written
    # length: a shorter report over a longer one leaves no stale tail.
    long_set = run([CaseConfig(case_id="c1macdonald", seed=0, samples=6)])
    short_set = run([CaseConfig(case_id="c1macdonald", seed=0, samples=1)])
    reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
    write_csv(long_set, str(reused))
    long_size = reused.stat().st_size
    write_csv(short_set, str(reused))
    write_csv(short_set, str(fresh))
    assert reused.read_bytes() == fresh.read_bytes()
    assert 0 < reused.stat().st_size < long_size


def test_main_out_overwrites_a_longer_report_to_the_bytes_of_a_fresh_write(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "2000-01-01T00:00:00Z")
    reused, fresh = tmp_path / "reused.json", tmp_path / "fresh.json"
    for samples, path in (("5", reused), ("1", reused), ("1", fresh)):
        assert main(["run", "--case", "c1macdonald", "--samples", samples,
                     "--out", str(path)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert len(json.loads(reused.read_text())["runs"]) == 1
    capsys.readouterr()


def test_write_text_creates_a_new_file_as_open_w_did(tmp_path):
    text = "case,\u03c8\r\nrow,1\n"
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    write_text(str(new), text)
    with open(old, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert new.read_bytes() == old.read_bytes() == text.encode("utf-8")
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(old.stat().st_mode)


def test_writers_accept_a_file_that_cannot_be_truncated():
    # /dev/null is not a regular file: it is written but not truncated.
    write_text(os.devnull, "x" * 100)
    write_csv(run([CaseConfig(case_id="c1macdonald")]), os.devnull)


def test_precision_high_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("QIDENT_PRECISION", "high")
    out_p = tmp_path / "rep.json"
    rc = main(["run", "--case", "jackson8phi7", "--seed", "2", "--samples", "2",
               "--out", str(out_p)])
    assert rc == 0
    doc = json.loads(out_p.read_text())
    assert doc["meta"]["precision"] == "high"
    assert doc["summary"]["pass"] == 2


def test_precision_high_bilateral_finite_reports():
    # The unilateral sum is an mpmath mpc in high precision; its message
    # formatting raised TypeError and aborted the batch.
    rset = run([CaseConfig(case_id="bilateralfinite", seed=0, samples=2)],
               precision="high")
    assert [r.status for r in rset.runs] == ["pass", "pass"]
    double = run([CaseConfig(case_id="bilateralfinite", seed=0, samples=2)],
                 precision="double")
    assert [r.message for r in rset.runs] == [r.message for r in double.runs]


def test_precision_high_reaches_bailey_10phi9_series(monkeypatch):
    # verify_bailey_10phi9 works at the 50 digits of high mode when it runs
    # under them.  In double mode a well-conditioned draw (seed 3) evaluates
    # in double only, and in an ill-conditioned one (seed 12) only the left
    # series, whose own gate fails, is evaluated again at 40 digits.  Each
    # series' working precision is that of the context of its arguments.
    import mpmath

    from qident import identities

    seen = []
    original = identities.eval_phi

    def spy(spec, policy):
        seen.append(spec.q.context.dps if hasattr(spec.q, "context") else "double")
        return original(spec, policy)

    monkeypatch.setattr(identities, "eval_phi", spy)
    run([CaseConfig(case_id="bailey10phi9", seed=0, samples=1)], precision="high")
    assert seen == [50, 50]
    seen.clear()
    run([CaseConfig(case_id="bailey10phi9", seed=3, samples=1)], precision="double")
    assert seen == ["double", "double"]
    seen.clear()
    run([CaseConfig(case_id="bailey10phi9", seed=12, samples=1)], precision="double")
    assert seen == ["double", 40, "double"]


def test_double_mode_escalation_leaves_global_mpmath_precision_alone(monkeypatch):
    # Double arguments escalate in a 40-digit context of their own, never by
    # setting the process-global mpmath.mp.dps, which cli.run's worker
    # threads would share.  The batch makes that context afresh, with more
    # workers than a small host has cores and a short switch interval, and
    # must match the serial batch.
    import mpmath

    from qident import identities

    def refuse(*args, **kwargs):
        raise AssertionError("double mode changed the global mpmath precision")

    dps = mpmath.mp.dps
    monkeypatch.setattr(mpmath, "workdps", refuse)
    rep = run_case("bailey10phi9", sample_params("bailey10phi9", 12))
    assert rep.status == "pass" and rep.lhs != 0
    configs = [CaseConfig(case_id="bailey10phi9", seed=0, samples=60)]
    monkeypatch.setattr(identities, "_CONTEXTS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(configs, parallelism=4, precision="double")
    finally:
        sys.setswitchinterval(interval)
    assert mpmath.mp.dps == dps
    serial = run(configs, parallelism=1, precision="double")
    assert _strip_timing(report_json(parallel)) == _strip_timing(report_json(serial))


def test_high_mode_overlapping_tasks_keep_50_digits(monkeypatch):
    # High-mode parameters carry a 50-digit mpmath context of their own.  Two
    # high-mode tasks are made to overlap on the thread pool; the one that
    # started first returns first, and the other waits up to 0.2 s for it.
    # Each task's parameters hold 50 digits before and after its run, and
    # mpmath's process-global precision is never changed: with a
    # workdps(50) per task, the first task's exit restored the caller's
    # precision while the second still computed.
    import threading

    import mpmath

    from qident import cli

    dps = mpmath.mp.dps
    started, seen = [], []
    lock = threading.Lock()
    barrier = threading.Barrier(2, timeout=10)
    first_done = threading.Event()
    promote, run_one = cli._promote_params, cli.run_case

    def promote_in_order(params, schema):
        with lock:
            started.append(threading.get_ident())
        return promote(params, schema)

    def overlapping(case_id, params, tol):
        barrier.wait()
        first = threading.get_ident() == started[0]
        if not first:
            first_done.wait(0.2)
        seen.append((params["x"].context.dps, mpmath.mp.dps))
        rep = run_one(case_id, params, tol)
        seen.append((params["x"].context.dps, mpmath.mp.dps))
        if first:
            first_done.set()
        return rep

    monkeypatch.setattr(cli, "_promote_params", promote_in_order)
    monkeypatch.setattr(cli, "run_case", overlapping)
    rset = run([CaseConfig(case_id="c1macdonald", seed=0, samples=2)],
               parallelism=2, precision="high")
    assert len(started) == 2 and rset.summary["pass"] == 2
    assert first_done.is_set()
    assert seen == [(50, dps)] * 4
    assert mpmath.mp.dps == dps


def test_precision_invalid_value(monkeypatch, capsys):
    monkeypatch.setenv("QIDENT_PRECISION", "quadruple")
    assert main(["run", "--case", "c1macdonald"]) == 2
    capsys.readouterr()


def test_full_suite_compare(tmp_path):
    root = Path(__file__).resolve().parent.parent
    # No PYTHONPATH: the script imports the package from its own tree.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def suite(name, *extra):
        cmd = [sys.executable, str(root / "scripts" / "run_full_suite.py"),
               "--samples", "1", "--parallelism", "1",
               "--out", str(tmp_path / f"{name}.json"),
               "--csv", str(tmp_path / f"{name}.csv"), *extra]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    suite("base")
    base = tmp_path / "base.json"
    same = suite("same", "--compare", str(base))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 differences" in same.stdout
    doc = json.loads(base.read_text())
    doc["meta"]["timestamp"] = "1970-01-01T00:00:00Z"  # ignored
    entry = doc["runs"][3]
    entry["message"] += " (doctored)"
    moved = doc["runs"][0]  # lhs moved by 1e-6 relative, status flipped
    moved_status = moved["status"]
    moved["status"] = "fail" if moved_status != "fail" else "pass"
    moved["lhs"] = [v * (1 + 1e-6) for v in moved["lhs"]]
    dropped = doc["runs"].pop(5)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    diff = suite("diff", "--compare", str(doctored))
    assert diff.returncode == 1
    assert diff.stdout.count("differs:") == 3
    assert (f"differs: {entry['case_id']} {entry['sample_index']}: status "
            f"{entry['status']} -> {entry['status']}, relative change lhs 0 rhs 0"
            in diff.stdout)
    assert (f"differs: {moved['case_id']} {moved['sample_index']}: status "
            f"{moved['status']} -> {moved_status}, relative change lhs 1e-06 rhs 0"
            in diff.stdout)
    assert (f"differs: {dropped['case_id']} {dropped['sample_index']}: status "
            f"absent -> {dropped['status']}\n" in diff.stdout)


def _result_line(tail_ms, samples_per_s, failed=0, correct=True):
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {"op_tail_ms": {"value": tail_ms, "unit": "ms"},
                                   "samples_per_s": {"value": samples_per_s,
                                                     "unit": "1/s"}}})


def test_bench_pairs_summary_counts_wins_in_each_metric_direction():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  root / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [_result_line(t, s) for t, s in [(6.0, 900), (6.4, 950), (6.2, 1000)]]
    change = [_result_line(5.0, 950), _result_line(6.5, 940, failed=2),
              _result_line(4.8, 1100, correct=False)]
    end_to_end = [{"name": "op_tail_ms", "better": "lower"},
                  {"name": "samples_per_s", "better": "higher"}]
    lines = bench_pairs.summarize(parent, change, end_to_end)
    assert lines[0].startswith("3 pairs;")
    assert lines[1].startswith("op_tail_ms (lower is better): parent 6.2 ")
    assert "-> change 5 " in lines[1] and "-19.4%" in lines[1] and "won 2/3" in lines[1]
    assert lines[2] == "  pairs: 6->5, 6.4->6.5, 6.2->4.8"
    assert lines[3].startswith("samples_per_s (higher is better): parent 950 ")
    assert "won 2/3" in lines[3]
    assert lines[5:] == ["parent: failed [0, 0, 0] of [100, 100, 100], correct True",
                         "change: failed [0, 2, 0] of [100, 100, 100], correct False"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change[:2], end_to_end)


def test_reachability_script_prints_a_row_per_module():
    root = Path(__file__).resolve().parent.parent
    # No PYTHONPATH: the script imports the package from its own tree.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(root / "scripts" / "reachability.py"),
           "--samples", "1", "--high-samples", "0"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = {line.split()[0]: line.split()[1:3] for line in done.stdout.splitlines()[2:]}
    for module in ("qcore", "series", "wfunc", "identities", "partitions"):
        statements, unreached = map(int, rows[module])
        assert 0 <= unreached < statements
