"""Committed reference reports: the registry's report text at fixed seeds.

tests/reference/ holds the JSON reports of every registry case, seed 0, in
double mode at 5 samples per case (`scripts/run_full_suite.py --seed 0
--samples 5`) and at QIDENT_PRECISION=high at 3 samples per case, each with
its meta.timestamp value masked (`run_full_suite.masked`).  The test rebuilds
both in process and compares the text, so a change that moves any report
value, status or byte fails tier-1.  On a mismatch it prints the per-run and
per-case lines of `run_full_suite.py --compare`, and the CPython and mpmath
versions: values can differ across libm builds.

A change that moves report values on purpose regenerates both files with

    python3 tests/test_reference_reports.py

and lists the moved runs in CHANGES.md.
"""

import importlib.util
import json
import platform
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"

_spec = importlib.util.spec_from_file_location("run_full_suite",
                                               ROOT / "scripts" / "run_full_suite.py")
suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite)  # puts this tree's src/ first on sys.path

#: (file name, precision, samples per case); every case starts at seed 0.
REPORTS = (("full_suite_double_seed0_samples5.json", "double", 5),
           ("full_suite_high_seed0_samples3.json", "high", 3))


def report_text(precision, samples):
    """The masked JSON report text (with its final newline) of every
    registry case at seed 0, as run_full_suite.py writes it."""
    configs = [suite.cli._validate_config({"case_id": cid, "seed": 0, "samples": samples})
               for cid in suite.CASES]
    rset = suite.cli.run(configs, precision=precision)
    return suite.masked(suite.cli.report_json(rset) + "\n")


@pytest.mark.parametrize("name, precision, samples", REPORTS)
def test_reports_match_the_committed_reference(name, precision, samples):
    base_text = (REFERENCE / name).read_text(encoding="utf-8")
    text = report_text(precision, samples)
    if text == base_text:
        return
    doc, base = json.loads(text), json.loads(base_text)
    lines = [f"differs: {label}"
             for label in suite.report_differences(doc, base) or ["report text"]]
    lines += suite.case_summaries(doc, base)
    pytest.fail(f"the report differs from tests/reference/{name} (CPython "
                f"{platform.python_version()}, mpmath {mpmath.__version__}); a "
                f"change that moves values on purpose regenerates it with `python3 "
                f"tests/test_reference_reports.py`:\n" + "\n".join(lines))


if __name__ == "__main__":
    for name, precision, samples in REPORTS:
        suite.cli.write_text(str(REFERENCE / name), report_text(precision, samples))
        print(f"wrote tests/reference/{name}")
