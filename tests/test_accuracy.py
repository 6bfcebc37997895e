"""scripts/accuracy.py without its timed table: the --compare rule
(differences) and main's exit codes, with `table` replaced by a fixed table."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("accuracy", ROOT / "scripts" / "accuracy.py")
accuracy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(accuracy)  # puts this tree's src/ first on sys.path

ROWS = [
    {"case_id": "jackson8phi7", "tol": 1e-09, "high_floor": 1e-48, "fails": [],
     "errors": [], "band": 0},
    {"case_id": "flip", "tol": 1e-08, "high_floor": 3e-19, "fails": [4, 17],
     "errors": [9], "band": 2},
]


def moved(**changes):
    """ROWS with the flip row changed."""
    return [ROWS[0], {**ROWS[1], **changes}]


def test_differences_print_floor_moves_beyond_ten_times_either_way():
    assert accuracy.differences(ROWS, ROWS) == []
    assert accuracy.differences(moved(high_floor=2.9e-18), ROWS) == []
    assert accuracy.differences(moved(high_floor=3.1e-20), ROWS) == []
    assert accuracy.differences(moved(high_floor=4e-18), ROWS) == [
        "flip: high_floor 3e-19 -> 4e-18"]
    assert accuracy.differences(moved(high_floor=2e-20), ROWS) == [
        "flip: high_floor 3e-19 -> 2e-20"]
    # A floor of 0.0 counts as 1e-300.
    assert accuracy.differences(moved(high_floor=0.0), ROWS) == [
        "flip: high_floor 3e-19 -> 0"]


def test_differences_print_seeds_entering_or_leaving_fails_and_errors():
    assert accuracy.differences(moved(fails=[4, 5, 17], errors=[]), ROWS) == [
        "flip seed 5: now in fails", "flip seed 9: no longer in errors"]
    assert accuracy.differences(moved(fails=[4]), ROWS) == [
        "flip seed 17: no longer in fails"]
    # band is not compared.
    assert accuracy.differences(moved(band=7), ROWS) == []


def test_differences_print_a_case_missing_from_the_base():
    assert accuracy.differences(ROWS, ROWS[1:]) == [
        "jackson8phi7: not in the base table"]


@pytest.fixture
def no_run(monkeypatch):
    """cli.run replaced by a recorder of its calls."""
    calls = []
    monkeypatch.setattr(accuracy.cli, "run", lambda *a, **k: calls.append(a))
    return calls


def test_compare_exits_0_on_the_same_table_and_1_on_a_moved_row(
        tmp_path, monkeypatch, capsys, no_run):
    monkeypatch.setattr(accuracy, "table", lambda: ROWS)
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(accuracy.dumps(ROWS), encoding="utf-8")
    other.write_text(accuracy.dumps(moved(fails=[4])), encoding="utf-8")
    assert accuracy.main(["--compare", str(same)]) == 0
    out = capsys.readouterr().out
    assert out == accuracy.dumps(ROWS) + f"0 differences from {same}\n"
    assert accuracy.main(["--compare", str(other)]) == 1
    assert capsys.readouterr().out.endswith(
        f"flip seed 17: now in fails\n1 differences from {other}\n")
    assert no_run == []


@pytest.mark.parametrize("content, message", [
    (None, "cannot read a JSON table"),
    (b"[{\"case_id\": ", "cannot read a JSON table"),
    (b"\xff\xfe", "cannot read a JSON table"),
    (b"[" * 100_000 + b"]" * 100_000, "cannot read a JSON table"),
    (json.dumps({"rows": ROWS}).encode(), "not a table of this script"),
    (json.dumps([{**ROWS[0], "high_floor": "1e-48"}]).encode(),
     "not a table of this script"),
    (json.dumps([{**ROWS[0], "fails": [1.5]}]).encode(), "not a table of this script"),
    (json.dumps([{k: v for k, v in ROWS[0].items() if k != "errors"}]).encode(),
     "not a table of this script"),
], ids=["missing", "truncated", "not-utf8", "too-deep", "object", "string-floor", "float-seed",
        "no-errors"])
def test_compare_with_a_bad_base_is_a_config_error_before_any_run(
        tmp_path, capsys, no_run, content, message):
    base = tmp_path / "base.json"
    if content is not None:
        base.write_bytes(content)
    assert accuracy.main(["--compare", str(base)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --compare {base}: {message}")
    assert len(captured.err.splitlines()) == 1
    assert no_run == []


def test_an_out_path_that_cannot_be_written_is_a_config_error_before_any_run(
        tmp_path, monkeypatch, capsys):
    # It used to run the whole table and then end in a FileNotFoundError.
    def table():
        raise AssertionError("table ran")

    monkeypatch.setattr(accuracy, "table", table)
    out = tmp_path / "no_such_dir" / "t.json"
    assert accuracy.main(["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --out {out}: not a writable file\n"
