"""CLI and batch-runner tests: config parsing, determinism, independence
of how configs are batched, report formats, precision backend, and exit
codes."""

import csv
import importlib.util
import io
import json
import math
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
    # integer, is a configuration error on both input paths.  So is a list of
    # strings, and a string that is not the JSON text of a list of integers
    # (a digit separator, a sign, a leading zero, a non-ASCII digit).
    for raw in ("[1,2]", [1, 2], "[1.5]", [1.5], ["3", "1"], ["3,1"], "[3_0]", "[+3]",
                "[03]", "[\u0663]"):
        assert main(["run", "--case", "weyldegree", "--param", f"mu={json.dumps(raw)}"]) == 2
        assert "config error:" in capsys.readouterr().err
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
    pytest.param([{"case_id": "bailey6psi6", "params": {"b": {"qpow": True}}}],
                 "qpow tag must hold an integer", id="qpow-boolean"),
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


def test_main_config_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    # A config file of bytes that are not UTF-8 escaped load_configs as a
    # UnicodeDecodeError traceback; it is one config error line and exit 2.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed JSON in config file: ")
    assert err.count("\n") == 1
    assert ran == []


def test_main_over_deep_json_exits_2(tmp_path, capsys, monkeypatch):
    # JSON nested deeper than the decoder recurses ended `qident run` as a
    # RecursionError traceback and exit 1, in a config file and in a --param
    # value (a partition string was already refused); each is one config
    # error line and exit 2.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    deep = "[" * 5000 + "]" * 5000
    for argv, prefix in (
            (["--config", str(path)], "malformed JSON in config file: "),
            (["--case", "weyldegree", "--param", f"mu={deep}"], "cannot parse value for 'mu': "),
            (["--case", "weyldegree", "--param", f"s={deep}"], "cannot parse value for 's': ")):
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix}")
        assert err.count("\n") == 1
    assert ran == []


def test_main_config_refuses_per_case_options(capsys, monkeypatch):
    # `run --config` ran the file's entries and dropped each of these
    # options unread; the file sets them, so each is a config error.
    ran = []
    monkeypatch.setattr("qident.cli.run", lambda *a, **k: ran.append(a))
    path = Path(__file__).resolve().parent.parent / "scripts" / "example_config.json"
    for option in (["--param", "a=0.5"], ["--seed", "7"], ["--seed", "0"],
                   ["--samples", "3"], ["--tol", "1e-3"]):
        assert main(["run", "--config", str(path), *option]) == 2
        assert capsys.readouterr().err == \
            "config error: --config takes no --param, --seed, --samples or --tol\n"
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


_LONG = "[" + "1.5, " * 20000 + "1.5]"


@pytest.mark.parametrize("argv", [
    ["--case", "weyldegree", "--param", "mu=" + "[" * 5000 + "]" * 5000],
    ["--case", "weyldegree", "--param", "mu=" + json.dumps([1.5] * 100000)],
    ["--case", "weyldegree", "--param", "mu=" + json.dumps([[1] * 50000])],
    ["--case", "weyldegree", "--param", "mu=" + json.dumps(list(range(50000)))],
    ["--case", "weyldegree", "--param", "mu=" + json.dumps(_LONG[:-1])],
    ["--case", "weyldegree", "--param", "mu=" + json.dumps({"x": "y" * 50000})],
    ["--case", "weyldegree", "--param", "n=" + _LONG],
    ["--case", "weyldegree", "--param", "s=" + _LONG],
    ["--case", "weyldegree", "--param", "s=" + _LONG[:-1]],
    ["--case", "flip", "--param", "xs=" + json.dumps("x" * 100000)],
    ["--case", "flip", "--param", "xs=" + json.dumps([_LONG])],
    ["--case", "weyldegree", "--param", "z" * 100000 + "=1"],
    ["--case", "weyldegree", "--param", "z" * 100000],
    ["--case", "z" * 100000],
], ids=["deep-partition", "float-parts", "list-part", "increasing", "partition-text",
        "partition-dict", "integer", "scalar", "unparsed", "vector", "vector-entry",
        "name", "no-value", "case-id"])
def test_main_config_error_names_a_long_input_by_an_excerpt(argv, capsys):
    assert main(["run", *argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert len(lines[0]) <= 200, lines[0][:300]


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


def _writer_report_sets():
    """Report sets for the writer tests: every case at seeds 0-9, two
    high-precision batches, an error run (null sides), a {"qpow": -2} tag
    given as --param, an empty batch, a hand-built run whose message
    holds a quote, a backslash, a control character, non-ASCII text, a
    comma and a newline, real-parameter runs (sides with -0.0), and run
    dicts off the fixed run layout: a key added, the keys reordered, and
    sides that are not float pairs."""
    sets = [run([CaseConfig(case_id=cid, seed=0, samples=10)
                 for cid in identities.CASES])]
    sets += [run([CaseConfig(case_id=cid, seed=2, samples=2)], precision="high")
             for cid in ("jackson8phi7", "ramanujan1psi1")]
    errors = run([CaseConfig(case_id="bilateralfinite", params={"sigma": 1e-300}),
                  CaseConfig(case_id="ramanujan1psi1", params={"q": math.inf})])
    assert errors.summary["error"] == 2
    assert all(rd["lhs"] is None and rd["rhs"] is None for rd in errors.run_dicts)
    sets.append(errors)
    tagged = dict([_parse_param_option('b={"qpow": -2}')])
    sets.append(run([_validate_config({"case_id": "bailey6psi6", "params": tagged})]))
    assert sets[-1].run_dicts[0]["params"]["b"] == {"qpow": -2}
    sets.append(run([]))
    odd = run([CaseConfig(case_id="c1macdonald", samples=2)])
    odd.run_dicts[0]["message"] = 'a "quoted", back\\slash\x01\t \u03c8\u00e9 \U0001d53c'
    odd.run_dicts[1]["message"] = "comma, \"quote\"\nnew line\r\n"
    sets.append(odd)
    real = run([CaseConfig(case_id="jackson8phi7",
                           params=dict(a=0.5, b=0.3, c=0.7, d=0.6, n=3, q=0.4)),
                CaseConfig(case_id="ramanujan1psi1", params=dict(a=0.5, b=0.2, x=0.6, q=0.4))])
    assert real.run_dicts[0]["rhs"][1] == 0.0 and str(real.run_dicts[0]["rhs"][1]) == "-0.0"
    sets.append(real)
    off = run([CaseConfig(case_id="multijackson", samples=4)])
    off.run_dicts[0]["extra"] = [1, "two", None, True, {"x": [False]}]
    off.run_dicts[1] = dict(reversed(off.run_dicts[1].items()))
    off.run_dicts[2]["lhs"], off.run_dicts[2]["rhs"] = [1, 2.5], [0.5, True]
    off.run_dicts[3]["lhs"], off.run_dicts[3]["rhs"] = (0.25, -0.0), [0.5, -1.5, 2.0]
    sets.append(off)
    return sets


def _stdlib_report_json(rset):
    """The JSON report as the stdlib's indent path writes it."""
    return json.dumps({"meta": rset.meta, "summary": rset.summary,
                       "runs": rset.run_dicts}, indent=2, allow_nan=False)


def test_report_json_is_the_stdlib_indent_layout():
    from qident.cli import report_json

    for rset in _writer_report_sets():
        assert report_json(rset) == _stdlib_report_json(rset)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_json_refuses_a_non_finite_float_as_the_stdlib(value):
    from qident.cli import report_json

    rset = run([CaseConfig(case_id="c1macdonald")])
    rset.run_dicts[0]["lhs"] = [1.0, value]
    with pytest.raises(ValueError, match="Out of range float values") as want:
        _stdlib_report_json(rset)
    with pytest.raises(ValueError) as got:
        report_json(rset)
    assert str(got.value) == str(want.value)  # the value's repr included


@pytest.mark.parametrize("value", [object(), 1 + 2j, {1.5}, b"bytes"])
def test_writers_refuse_an_unsupported_params_value_as_the_stdlib(value, tmp_path):
    from qident.cli import report_json

    rset = run([CaseConfig(case_id="c1macdonald")])
    rset.run_dicts[0]["params"]["x"] = [0.5, value]
    # the stdlib's JSON report and params column (_dict_writer_csv), then ours
    for write in (_stdlib_report_json,
                  lambda r: json.dumps(r.run_dicts[0]["params"], allow_nan=False),
                  report_json, lambda r: write_csv(r, str(tmp_path / "r.csv"))):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write(rset)


def _dict_writer_csv(rset):
    """The CSV report as csv.DictWriter wrote it, one dict per row."""
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=["case_id", "sample_index", "seed", "status",
                                        "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                                        "abs_residual", "rel_residual", "terms_used",
                                        "message", "params"])
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
    return buf.getvalue()


def test_write_csv_is_the_dict_writer_layout(tmp_path):
    path = tmp_path / "report.csv"
    for rset in _writer_report_sets():
        write_csv(rset, str(path))
        assert path.read_bytes() == _dict_writer_csv(rset).encode("utf-8")


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
    # The texts are compared too, meta.timestamp masked: another timestamp
    # is no difference, and the same report in another layout is one.
    doc = json.loads(base.read_text())
    stamped = tmp_path / "stamped.json"
    stamped.write_text(base.read_text().replace(doc["meta"]["timestamp"],
                                                "1970-01-01T00:00:00Z"))
    restamped = suite("restamped", "--compare", str(stamped))
    assert restamped.returncode == 0, restamped.stdout + restamped.stderr
    assert "0 differences" in restamped.stdout
    relaid = tmp_path / "relaid.json"
    relaid.write_text(json.dumps(doc, indent=1) + "\n")
    layout = suite("layout", "--compare", str(relaid))
    assert layout.returncode == 1
    assert "differs: report text\n" in layout.stdout
    assert f"1 differences from {relaid}" in layout.stdout
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
    # JSON nested too deep to decode ended as a RecursionError traceback.
    for text, reason in (("{", "malformed JSON: "), ("[" * 100_000 + "]" * 100_000,
                                                     "malformed JSON: "),
                         ("[]", "not a report of this script"),
                         *((json.dumps(doc), "not a report of this script")
                           for doc in malformed)):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert suite.main([*ok, "--compare", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --compare {bad}: {reason}")
        assert err.count("\n") == 1
    assert ran == []


def test_full_suite_compare_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    # A --compare file of bytes that are not UTF-8 escaped read_report as a
    # UnicodeDecodeError traceback; it is one config error line and exit 2,
    # before the batch.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("run_full_suite",
                                                  root / "scripts" / "run_full_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    ran = []
    monkeypatch.setattr(suite.cli, "run", lambda *a, **k: ran.append(a))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert suite.main(["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"),
                       "--compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --compare {bad}: malformed JSON: ")
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
                         "change: failed [0, 2, 0] of [100, 100, 100], correct False",
                         "gains do not count: the change fails 0.67% of its operations, "
                         "the parent 0.00%; a run is not correct"]
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
    assert lines[-1] == "gains count"
    # A failed share no larger than the parent's leaves a gain counting; a
    # larger one, or one run not correct on either side, voids it.
    fails = [_result_line(6.0, 1000, failed=1)] * 3
    assert bench_pairs.summarize(fails, change, end_to_end)[-1] == "gains count"
    assert bench_pairs.summarize(parent, fails, end_to_end)[-1] == \
        "gains do not count: the change fails 1.00% of its operations, the parent 0.00%"
    wrong = parent[:2] + [_result_line(6.2, 1020, correct=False)]
    assert bench_pairs.summarize(wrong, change, end_to_end)[-1] == \
        "gains do not count: a run is not correct"
    lines = bench_pairs.summarize(change, parent, end_to_end)
    assert lines[3] == "  verdict: within bound (bound 25%)"  # 5.1 -> 6.1 is +19.6%
    assert lines[6] == "  verdict: gain (bound 25%)"
    slower = [_result_line(t, 1000) for t in (8.0, 8.1, 8.2)]
    assert bench_pairs.summarize(parent, slower, end_to_end)[3] == \
        "  verdict: regression (bound 25%)"
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change[:2], end_to_end)


def test_bench_pairs_layer_lines_compare_one_traced_run_per_tree():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  root / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def traced(**values):
        return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
            name.replace("__", "."): {"value": v, "unit": "count"}
            for name, v in values.items()}})

    parent = traced(qcore__poch_inf__calls=1298610, wfunc__zw_multi__calls=40,
                    wfunc__zw_multi__self_ms=40.0, wfunc__zw_multi_reg__calls=0,
                    wfunc__theta_quotient__args=0, trace__samples_per_s=2180.0)
    change = traced(qcore__poch_inf__calls=1298610, wfunc__zw_multi__calls=30,
                    wfunc__zw_multi__self_ms=30.5, wfunc__zw_multi_reg__calls=0,
                    wfunc__theta_quotient__args=12, trace__samples_per_s=2229.0)
    per_layer = [{"name": name, "unit": unit, "better": better} for name, unit, better in (
        ("qcore.poch_inf.calls", "count", "lower"), ("wfunc.zw_multi.calls", "count", "lower"),
        ("wfunc.zw_multi.self_ms", "ms", "lower"), ("wfunc.zw_multi_reg.calls", "count", "lower"),
        ("wfunc.theta_quotient.args", "count", "lower"),
        ("wfunc.zw_multi_reg.fallbacks", "count", "lower"),
        ("trace.samples_per_s", "1/s", "higher"))]
    # Only the counts are printed: one traced run's self times and rates are
    # no timing evidence.
    assert bench_pairs.layer_lines(parent, change, per_layer) == [
        "per-layer counts of one traced run per tree: parent -> change, move",
        "qcore.poch_inf.calls (lower is better): 1298610 -> 1298610, +0.0%",
        "wfunc.zw_multi.calls (lower is better): 40 -> 30, -25.0%",
        "wfunc.zw_multi_reg.calls (lower is better): 0 -> 0, +0.0%",
        "wfunc.theta_quotient.args (lower is better): 0 -> 12, new",
        "wfunc.zw_multi_reg.fallbacks (lower is better): - -> -, -"]


def test_reachability_script_prints_a_row_per_module():
    root = Path(__file__).resolve().parent.parent
    # No PYTHONPATH: the script imports the package from its own tree.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(root / "scripts" / "reachability.py"),
           "--samples", "1", "--high-samples", "0"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = {line.split()[0]: line.split()[1:3] for line in done.stdout.splitlines()[2:]}
    for module in ("qcore", "series", "wfunc", "identities", "partitions", "cli"):
        statements, unreached = map(int, rows[module])
        assert 0 <= unreached < statements
    # The registry runs through `qident run --config`, so config loading,
    # main and the JSON and CSV writers run: most of cli is reached.
    statements, unreached = map(int, rows["cli"])
    assert unreached < statements / 2


@pytest.mark.parametrize("counts, message", [
    (("--samples", "0", "--high-samples", "0"), "both 0: nothing would run"),
    (("--samples", "-1", "--high-samples", "1"), "must be >= 0"),
])
def test_reachability_script_refuses_a_run_of_no_samples(counts, message):
    # A run with no samples would report nearly every statement unreached; a
    # negative count used to be read as 0.  Both are usage errors, before any
    # tracing starts.
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, str(root / "scripts" / "reachability.py"), *counts]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stdout == "" and message in done.stderr
