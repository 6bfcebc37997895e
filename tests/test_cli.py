"""CLI and batch-runner tests: config parsing, determinism, independence
of how configs are batched, report formats, precision backend, and exit
codes."""

import csv
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
    run,
    write_csv,
    write_text,
)
from qident.errors import ConfigError
from qident.identities import run_case, sample_params
from qident.policy import QPower


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
    # run_case has its own theta memo, so no config reads a theta that an
    # earlier one left.
    configs += [CaseConfig(case_id=cid, seed=seed, samples=2)
                for cid, seed in (("multijackson", 56), ("simplifiedjackson", 56),
                                  ("flip", 52))]
    for c in configs[5:]:
        for seed in (c.seed, c.seed + 1):
            assert sample_params(c.case_id, seed)["p"] != 0
            assert sample_params(c.case_id, seed)["lam"]
    # One batch of all eight configs, and one batch per config, give the
    # same run entries.
    whole = run(configs)
    apart = [entry for c in configs for entry in run([c]).run_dicts]
    assert len(whole.run_dicts) == 16
    assert whole.run_dicts == apart


def test_run_invalid_parallelism(monkeypatch):
    # Batches run serially: any parallelism but 1, by keyword or by position,
    # is a config error before any sample is drawn.
    drawn = []
    monkeypatch.setattr("qident.cli.sample_params", lambda *a: drawn.append(a))
    configs = [CaseConfig(case_id="c1macdonald")]
    for parallelism in (0, 2):
        with pytest.raises(ConfigError, match="^parallelism must be 1"):
            run(configs, parallelism=parallelism)
        with pytest.raises(ConfigError, match="^parallelism must be 1"):
            run(configs, parallelism)
    assert drawn == []


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


def test_main_empty_config_exits_2(tmp_path, capsys, monkeypatch):
    # It printed pass=0 fail=0 error=0 and exited 0, as if it had passed.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    path = tmp_path / "empty.json"
    for text in ("[]", '{"cases": []}'):
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config lists no cases\n"
    assert ran == []


def test_main_rejects_nonfinite_tol_in_both_paths(tmp_path, capsys):
    assert main(["run", "--case", "c1macdonald", "--tol", "inf"]) == 2
    assert "config error:" in capsys.readouterr().err
    path = tmp_path / "inf.json"
    # An integer too large for a float is an infinity, as 1e400 is; it
    # crashed with OverflowError.
    for tol in ("Infinity", "1" + "0" * 400, "1e400"):
        path.write_text('[{"case_id": "c1macdonald", "tol": %s}]' % tol)
        assert main(["run", "--config", str(path)]) == 2
        assert "config error: tol must be a positive finite number" \
            in capsys.readouterr().err
    assert main(["run", "--case", "c1macdonald", "--tol", "1" + "0" * 400]) == 2
    assert "config error: tol must be a positive finite number" in capsys.readouterr().err


def test_main_unwritable_report_path_exits_2_before_the_batch(
        tmp_path, capsys, monkeypatch):
    # A missing directory or a directory path, for --out or for --csv, is a
    # one-line usage error before any sample runs.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    for option in ("--out", "--csv"):
        for path in (tmp_path / "missing" / "x.json", tmp_path):
            assert main(["run", "--case", "c1macdonald", option, str(path)]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: {option} {path}: not a writable file\n"
    assert ran == []


def test_main_report_paths_to_dev_null_still_work(capsys):
    assert main(["run", "--case", "c1macdonald", "--out", os.devnull,
                 "--csv", os.devnull]) == 0
    assert capsys.readouterr().err == "pass=1 fail=0 error=0\n"


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
    # A misspelt key beside "cases" was ignored, and the batch ran.
    p.write_text(json.dumps({"cases": [{"case_id": "c1macdonald", "samples": 1}],
                             "paralelism": 4}))
    with pytest.raises(ConfigError, match=r"^unknown config fields: \['paralelism'\]$"):
        load_configs(str(p))
    # A list without entries ran nothing and passed.
    for empty in ([], {"cases": []}):
        p.write_text(json.dumps(empty))
        with pytest.raises(ConfigError, match="^config lists no cases$"):
            load_configs(str(p))


@pytest.mark.parametrize("doc, message", [
    pytest.param([1], "config entry must be an object, got 1", id="entry-not-object"),
    pytest.param({"cases": [{"case_id": "c1macdonald"}], "paralelism": 4},
                 "unknown config fields: ['paralelism']", id="top-level-key"),
    pytest.param([{"case_id": "c1macdonald", "params": [["x", 0.5]]}],
                 "params must be an object", id="params-not-object"),
    pytest.param([{"case_id": "weyldegree", "params": {"mu": 3}}],
                 "expected partition, got 3", id="partition-number"),
    pytest.param([{"case_id": "multijackson", "params": {"z": 0.5}}],
                 "expected vector (list), got 0.5", id="vector-number"),
    pytest.param([{"case_id": "c1macdonald", "params": {"x": True}}],
                 "expected scalar, got True", id="scalar-boolean"),
    pytest.param([{"case_id": "bailey6psi6", "params": {"b": {"qpow": 1.5}}}],
                 "qpow tag must hold an integer", id="qpow-float"),
    pytest.param([{"case_id": "c1macdonald", "params": {"x": "x"}}],
                 "cannot interpret scalar value 'x'", id="scalar-string"),
    pytest.param([{"case_id": "c1macdonald", "params": {"x": [1, 2, 3]}}],
                 "cannot interpret scalar value [1, 2, 3]", id="scalar-triple"),
])
def test_main_malformed_config_exits_2(doc, message, tmp_path, capsys, monkeypatch):
    # Each malformed config file is one config error line, before any run.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert ran == []


def test_example_config_runs_and_passes():
    # The example config of the README: a schema change that breaks it
    # fails here, not only in the documentation.
    path = Path(__file__).resolve().parent.parent / "scripts" / "example_config.json"
    rset = run(load_configs(str(path)))
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
    # No subcommand: the usage line on stderr.
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qident ")
    # Batches run serially; --parallelism is not an option.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "c1macdonald", "--parallelism", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err


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
    monkeypatch.setattr(identities, "SAMPLE_TRIES", 500)
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
    pytest.param("c1macdonald", "x=1" + "0" * 400, id="c1macdonald-x=10**400"),
    pytest.param("c1macdonald", "x=-1" + "0" * 400, id="c1macdonald-x=-10**400"),
    pytest.param("ramanujan1psi1", "x=[0.5, 1" + "0" * 400 + "]",
                 id="ramanujan1psi1-x=[0.5, 10**400]"),
    pytest.param("multijackson", "z=[0.5, 0.6, 1" + "0" * 400 + "]",
                 id="multijackson-z=[0.5, 0.6, 10**400]"),
])
def test_main_non_finite_scalar_is_an_error_run(case_id, param, capsys):
    # json.loads accepts NaN and Infinity.  Unchecked, the first passed with
    # NaN sides and the second ended in a ValueError traceback; a report
    # holding an infinity could not be written (null now, as NaN was).  An
    # integer too large for a float (in a scalar, an [re, im] pair or a
    # vector entry) is decoded as 1e400 is; it crashed with OverflowError.
    assert main(["run", "--case", case_id, "--seed", "0", "--param", param]) == 1
    out, err = capsys.readouterr()
    (run_d,) = json.loads(out)["runs"]
    name = param.split("=")[0]
    assert run_d["status"] == "error"
    assert run_d["message"].startswith(f"DomainError: {case_id} requires {name} to be "
                                       "a finite number, got ")
    stored = run_d["params"][name]
    if case_id == "multijackson":  # a vector: its last entry is the bad one
        stored = stored[-1]
    assert stored is None
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

    def spy(spec):
        seen.append(spec.q.context.dps if hasattr(spec.q, "context") else "double")
        return original(spec)

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
    # setting the process-global mpmath.mp.dps.  The batch makes that context
    # afresh and leaves mpmath.mp.dps as it found it.
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
    rset = run(configs, precision="double")
    assert mpmath.mp.dps == dps
    assert identities._CONTEXTS[40].dps == 40
    assert rset.summary["error"] == 0


def test_high_mode_overlapping_tasks_keep_50_digits(monkeypatch):
    # High-mode parameters carry a 50-digit mpmath context of their own, and
    # mpmath's process-global precision is never changed: with a workdps(50)
    # per task, the exit of one task's scope restored the caller's precision
    # while another task still computed.  In a high-mode batch each task's
    # parameters hold 50 digits before and after its run.
    import mpmath

    from qident import cli

    def refuse(*args, **kwargs):
        raise AssertionError("high mode changed the global mpmath precision")

    dps = mpmath.mp.dps
    seen = []
    run_one = cli.run_case

    def watched(case_id, params, tol):
        seen.append((params["x"].context.dps, mpmath.mp.dps))
        rep = run_one(case_id, params, tol)
        seen.append((params["x"].context.dps, mpmath.mp.dps))
        return rep

    monkeypatch.setattr(mpmath, "workdps", refuse)
    monkeypatch.setattr(cli, "run_case", watched)
    rset = run([CaseConfig(case_id="c1macdonald", seed=0, samples=2)],
               precision="high")
    assert rset.summary["pass"] == 2
    assert seen == [(50, dps)] * 4
    assert mpmath.mp.dps == dps


@pytest.mark.parametrize("precision", ["double", "high"])
def test_main_qpow_tag_is_written_back(precision, monkeypatch, capsys):
    # A {"qpow": m} parameter stays a tag in both modes (high mode promotes
    # only numbers) and is written back into the report as it was given.
    monkeypatch.setenv("QIDENT_PRECISION", precision)
    assert main(["run", "--case", "bailey6psi6", "--param", 'b={"qpow": -2}']) == 0
    (run_d,) = json.loads(capsys.readouterr().out)["runs"]
    assert run_d["params"]["b"] == {"qpow": -2}


def test_high_mode_promotes_vectors_and_tagged_parameters(monkeypatch):
    # Every entry of a vector, and a tagged parameter that is a number, reach
    # run_case as 50-digit mpmath values; a QPower tag stays a tag.
    from qident import cli

    seen = {}
    run_one = cli.run_case

    def capture(case_id, params, tol):
        seen[case_id] = params
        return run_one(case_id, params, tol)

    monkeypatch.setattr(cli, "run_case", capture)
    configs = [CaseConfig(case_id="multijackson"), CaseConfig(case_id="flip"),
               CaseConfig(case_id="ramanujan1psi1", params={"b": QPower(2)})]
    rset = run(configs, precision="high")
    assert rset.summary == {"pass": 3, "fail": 0, "error": 0}
    for case_id, name in (("multijackson", "z"), ("flip", "xs")):
        vector = seen[case_id][name]
        assert isinstance(vector, tuple) and len(vector) > 1
        assert all(v.context.dps == 50 for v in vector)
    assert seen["ramanujan1psi1"]["a"].context.dps == 50
    assert seen["ramanujan1psi1"]["b"] == QPower(2)


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
               "--samples", "1",
               "--out", str(tmp_path / f"{name}.json"),
               "--csv", str(tmp_path / f"{name}.csv"), *extra]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    suite("base")
    base = tmp_path / "base.json"
    same = suite("same", "--compare", str(base))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 differences" in same.stdout
    assert same.stdout.count(" 0 of 1 runs changed, 0 status changes, largest "
                             "relative change lhs 0 rhs 0, worst rel_residual") == 17
    doc = json.loads(base.read_text())
    doc["meta"]["timestamp"] = "1970-01-01T00:00:00Z"  # ignored
    entry = doc["runs"][3]
    entry["message"] += " (doctored)"
    moved = doc["runs"][0]  # lhs moved by 1e-6 relative, status flipped
    moved_status = moved["status"]
    moved["status"] = "fail" if moved_status != "fail" else "pass"
    moved["lhs"] = [v * (1 + 1e-6) for v in moved["lhs"]]
    moved_residual, moved["rel_residual"] = moved["rel_residual"], 0.5
    none = doc["runs"][7]  # a NaN residual is written as null
    none["rel_residual"] = None
    dropped = doc["runs"].pop(5)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    diff = suite("diff", "--compare", str(doctored))
    assert diff.returncode == 1
    assert diff.stdout.count("differs:") == 4
    assert (f"differs: {none['case_id']} {none['sample_index']}: status "
            f"{none['status']} -> {none['status']}, relative change lhs 0 rhs 0, "
            f"rel_residual null -> " in diff.stdout)
    residual = f"{entry['rel_residual']:.3g}"
    assert (f"differs: {entry['case_id']} {entry['sample_index']}: status "
            f"{entry['status']} -> {entry['status']}, relative change lhs 0 rhs 0, "
            f"rel_residual {residual} -> {residual}\n" in diff.stdout)
    assert (f"differs: {moved['case_id']} {moved['sample_index']}: status "
            f"{moved['status']} -> {moved_status}, relative change lhs 1e-06 rhs 0, "
            f"rel_residual 0.5 -> {moved_residual:.3g}\n" in diff.stdout)
    assert (f"differs: {dropped['case_id']} {dropped['sample_index']}: status "
            f"absent -> {dropped['status']}\n" in diff.stdout)
    # After the run lines, one line per case: a case without the sample in
    # the base report comes last.
    lines = diff.stdout.splitlines()
    cases = [line for line in lines if line.startswith("case ")]
    assert len(cases) == 17 and lines.index(cases[0]) > lines.index(
        [line for line in lines if line.startswith("differs:")][-1])
    assert cases[-1] == (
        f"case {dropped['case_id']}: 1 of 1 runs changed, 1 status changes, "
        f"largest relative change lhs 0 rhs 0, worst rel_residual null -> "
        f"{dropped['rel_residual']:.3g}")
    assert (f"case {moved['case_id']}: 1 of 1 runs changed, 1 status changes, "
            f"largest relative change lhs 1e-06 rhs 0, worst rel_residual 0.5 -> "
            f"{moved_residual:.3g}") in cases
    assert (f"case {entry['case_id']}: 1 of 1 runs changed, 0 status changes, "
            f"largest relative change lhs 0 rhs 0, worst rel_residual "
            f"{residual} -> {residual}") in cases
    assert sum(" 0 of 1 runs changed, 0 status changes," in line
               for line in cases) == 13


def test_full_suite_bad_paths_exit_2_before_the_batch(tmp_path, capsys, monkeypatch):
    # A report path that cannot be written, and a --compare file that cannot
    # be read or parsed, are one config error line before any sample runs;
    # they crashed with a traceback after the whole batch.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("run_full_suite",
                                                  root / "scripts" / "run_full_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    ran = []
    monkeypatch.setattr(suite.cli, "run", lambda *a, **k: ran.append(a))
    ok = ["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    for option in ("--out", "--csv"):
        for path in (tmp_path / "missing" / "x.json", tmp_path):
            assert suite.main([*ok, option, str(path)]) == 2
            assert capsys.readouterr().err == \
                f"config error: {option} {path}: not a writable file\n"
    missing = tmp_path / "missing.json"
    assert suite.main([*ok, "--compare", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: --compare {missing}: cannot read: ")
    run = {"case_id": "c1macdonald", "sample_index": 0, "status": "pass",
           "lhs": [1.0, 0.0], "rhs": [1.0, 0.0], "rel_residual": 0.0}
    # A malformed run entry crashed with a TypeError after the whole batch.
    malformed = [{"meta": {}, "summary": {}, "runs": runs}
                 for runs in ([1], {}, [{k: v for k, v in run.items() if k != "lhs"}],
                              [{**run, "case_id": ["c1macdonald"]}],
                              [{**run, "sample_index": "0"}], [{**run, "rhs": [1.0]}],
                              [{**run, "lhs": "1"}], [{**run, "rel_residual": "0"}])]
    malformed.append({"meta": 1, "summary": {}, "runs": [run]})
    for text, reason in (("{", "malformed JSON: "), ("[]", "not a report of this script"),
                         *((json.dumps(doc), "not a report of this script")
                           for doc in malformed)):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert suite.main([*ok, "--compare", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --compare {bad}: {reason}")
        assert err.count("\n") == 1
    assert ran == []


def test_full_suite_bad_counts_exit_2_before_the_batch(tmp_path, capsys, monkeypatch):
    # --samples 0 ran nothing and exited 0; it is now one config error line,
    # as in `qident run`, before any sample is drawn or any report written.
    # --parallelism is gone: batches run serially.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("run_full_suite",
                                                  root / "scripts" / "run_full_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    drawn = []
    monkeypatch.setattr(suite.cli, "sample_params", lambda *a: drawn.append(a))
    ok = ["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    assert suite.main([*ok, "--samples", "0"]) == 2
    assert capsys.readouterr().err == "config error: samples must be a positive integer\n"
    with pytest.raises(SystemExit) as exc:
        suite.main([*ok, "--parallelism", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallelism" in capsys.readouterr().err
    assert drawn == [] and list(tmp_path.iterdir()) == []


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
    end_to_end = [{"name": "op_tail_ms", "better": "lower", "bound": 0.25},
                  {"name": "samples_per_s", "better": "higher", "bound": 0.25}]
    lines = bench_pairs.summarize(parent, change, end_to_end)
    assert lines[0].startswith("3 pairs;")
    assert lines[1].startswith("op_tail_ms (lower is better): parent 6.2 ")
    assert "-> change 5 " in lines[1] and "-19.4%" in lines[1] and "won 2/3" in lines[1]
    assert lines[2] == "  pairs: 6->5, 6.4->6.5, 6.2->4.8"
    # 2 of 3 wins is no gain
    assert lines[3] == "  verdict: within bound (bound 25%)"
    assert lines[4].startswith("samples_per_s (higher is better): parent 950 ")
    assert "won 2/3" in lines[4]
    assert lines[6] == "  verdict: within bound (bound 25%)"
    assert lines[7:] == ["parent: failed [0, 0, 0] of [100, 100, 100], correct True",
                         "change: failed [0, 2, 0] of [100, 100, 100], correct False"]
    # At a 1% bound the parent's quartile distances (0.4 ms, 100/s) exceed
    # the bound, and the runs overlap.
    tight = [{**metric, "bound": 0.01} for metric in end_to_end]
    lines = bench_pairs.summarize(parent, change, tight)
    assert lines[3] == lines[6] == "  verdict: unresolved (bound 1%)"
    # Every pair won by more than the parent's spread is a gain; a median
    # 40% worse is a regression, in either direction.
    parent = [_result_line(t, s) for t, s in [(6.0, 1000), (6.1, 1010), (6.2, 1020)]]
    change = [_result_line(t, s) for t, s in [(5.0, 600), (5.1, 610), (5.2, 620)]]
    lines = bench_pairs.summarize(parent, change, end_to_end)
    assert lines[3] == "  verdict: gain (bound 25%)"
    assert lines[6] == "  verdict: regression (bound 25%)"
    lines = bench_pairs.summarize(change, parent, end_to_end)
    assert lines[3] == "  verdict: within bound (bound 25%)"  # 5.1 -> 6.1 is +19.6%
    assert lines[6] == "  verdict: gain (bound 25%)"
    slower = [_result_line(t, 1000) for t in (8.0, 8.1, 8.2)]
    assert bench_pairs.summarize(parent, slower, end_to_end)[3] == \
        "  verdict: regression (bound 25%)"
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
