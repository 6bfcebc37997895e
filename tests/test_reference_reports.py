"""Committed reference reports: the registry's report text at fixed seeds.

tests/reference/ holds the JSON reports of every registry case, seed 0, in
double mode at 5 samples per case (`scripts/run_full_suite.py --seed 0
--samples 5`) and at QIDENT_PRECISION=high at 3 samples per case, each with
its meta.timestamp value masked (`run_full_suite.masked`).  The test rebuilds
both in process and compares the text, so a change that moves any report
value, status or byte fails tier-1.  On a mismatch it prints the per-run and
per-case lines of `run_full_suite.py --compare`, and the CPython and mpmath
versions: values can differ across libm builds.

The real-parameter references (the *_real.json files) hold the same draws,
seeds 0 to samples - 1 of every case, with each complex parameter, alone or
in a vector, replaced by its real part and passed as an explicit parameter,
one run per draw.  Real operands make the double kernels mix float and
complex arithmetic, and the reports then print signed zeros (-0.0) that the
complex draws never reach: a kernel change that turns a float into a
complex, or the reverse, can flip such a sign, and these files catch it.

The draw digests (draws_seed0_199.json) pin the samplers beyond the seeds
the reports reach: one sha256 per case of the newline-joined
repr(sample_params(case, seed)) for seeds 0 to 199.  A sampler change that
keeps every draw leaves them matching; one that moves a draw fails here and
the test names the case.

The ledger digests (ledgers_seed0_19.json) pin the W kernel's recording: per
W-ledger case (test_wfunc._W_LEDGER_CASES) and precision, one sha256 of the
newline-joined repr((num, den, q, p)) of every ledger that
wfunc.theta_quotient receives while run_case evaluates seeds 0 to 19 in
double mode and seeds 0 to 2 in high mode.  A kernel change that records the
same runs leaves them matching; one that moves a run base, key or bound by
a bit fails here and the test names the case and the precision, though the
settled value may still round to the same report.

A change that moves report values or draws on purpose regenerates every file
with

    python3 tests/test_reference_reports.py

and lists the moved runs in CHANGES.md.  A change that means to keep every
value (a speed-up) regenerates nothing.
"""

import hashlib
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

import qident.wfunc as wfunc  # noqa: E402
from qident.identities import run_case, sample_params  # noqa: E402
from test_wfunc import _W_LEDGER_CASES  # noqa: E402

#: (file name, precision, samples per case, real parameters); every case
#: starts at seed 0.
REPORTS = (("full_suite_double_seed0_samples5.json", "double", 5, False),
           ("full_suite_high_seed0_samples3.json", "high", 3, False),
           ("full_suite_double_seed0_samples5_real.json", "double", 5, True),
           ("full_suite_high_seed0_samples3_real.json", "high", 3, True))

DRAWS = "draws_seed0_199.json"
DRAW_SEEDS = range(200)

LEDGERS = "ledgers_seed0_19.json"
#: precision -> the seeds whose ledgers are digested.
LEDGER_SEEDS = {"double": range(20), "high": range(3)}


def real_part(v):
    """v with each complex value, alone or in a tuple, replaced by its real
    part; other values as they are."""
    if isinstance(v, tuple):
        return tuple(map(real_part, v))
    return v.real if isinstance(v, complex) else v


def configs(samples, real):
    """The configs of every registry case at seeds 0 .. samples - 1: one
    sampled batch per case, or with real, one run per draw whose parameters
    are the draw's real parts."""
    validate = suite.cli._validate_config
    if not real:
        return [validate({"case_id": cid, "seed": 0, "samples": samples})
                for cid in suite.CASES]
    return [validate({"case_id": cid, "seed": seed, "samples": 1,
                      "params": {k: real_part(v)
                                 for k, v in sample_params(cid, seed).items()}})
            for cid in suite.CASES for seed in range(samples)]


def report_text(precision, samples, real=False):
    """The masked JSON report text (with its final newline) of configs(samples,
    real), as run_full_suite.py writes it."""
    rset = suite.cli.run(configs(samples, real), precision=precision)
    return suite.masked(suite.cli.report_json(rset) + "\n")


@pytest.mark.parametrize("name, precision, samples, real", REPORTS,
                         ids=[f"{n}-{p}-{k}" for n, p, k, _ in REPORTS])
def test_reports_match_the_committed_reference(name, precision, samples, real):
    base_text = (REFERENCE / name).read_text(encoding="utf-8")
    text = report_text(precision, samples, real)
    if text == base_text:
        return
    doc, base = json.loads(text), json.loads(base_text)
    if real:  # every run is sample 0 of its own draw: name each by its seed
        labels = [f"{r['case_id']} seed {r['seed']}: {suite.run_difference(r, b)}"
                  for r, b in zip(doc["runs"], base["runs"]) if r != b]
        summaries = []
    else:
        labels = suite.report_differences(doc, base)
        summaries = suite.case_summaries(doc, base)
    lines = [f"differs: {label}" for label in labels or ["report text"]] + summaries
    pytest.fail(f"the report differs from tests/reference/{name} (CPython "
                f"{platform.python_version()}, mpmath {mpmath.__version__}); a "
                f"change that moves values on purpose regenerates it with `python3 "
                f"tests/test_reference_reports.py`:\n" + "\n".join(lines))


def draw_digests():
    """Per registry case, the sha256 of its draws at DRAW_SEEDS: each draw's
    repr, joined by newlines."""
    return {cid: hashlib.sha256("\n".join(repr(sample_params(cid, seed))
                                          for seed in DRAW_SEEDS).encode()).hexdigest()
            for cid in suite.CASES}


def test_draws_match_the_committed_digests():
    base = json.loads((REFERENCE / DRAWS).read_text(encoding="utf-8"))
    digests = draw_digests()
    moved = [cid for cid in {**base, **digests} if base.get(cid) != digests.get(cid)]
    assert not moved, (f"the draws of {', '.join(moved)} differ from tests/reference/"
                       f"{DRAWS}; a change that moves draws on purpose regenerates it "
                       f"with `python3 tests/test_reference_reports.py`")


def ledger_digests():
    """Per W-ledger case and precision ("case/precision"), the sha256 of the
    ledgers that theta_quotient receives at LEDGER_SEEDS: each (num, den, q,
    p) as repr, joined by newlines."""
    digests, sink = {}, []
    original = wfunc.theta_quotient

    def recorded(num, den, q, p):
        sink.append(repr((num, den, q, p)))
        return original(num, den, q, p)

    wfunc.theta_quotient = recorded
    try:
        for cid in _W_LEDGER_CASES:
            for precision, seeds in LEDGER_SEEDS.items():
                del sink[:]
                for seed in seeds:
                    params = sample_params(cid, seed)
                    if precision == "high":
                        params = suite.cli._promote_params(params)
                    run_case(cid, params)
                digests[f"{cid}/{precision}"] = hashlib.sha256(
                    "\n".join(sink).encode()).hexdigest()
    finally:
        wfunc.theta_quotient = original
    return digests


def test_ledgers_match_the_committed_digests():
    base = json.loads((REFERENCE / LEDGERS).read_text(encoding="utf-8"))
    digests = ledger_digests()
    moved = [key for key in {**base, **digests} if base.get(key) != digests.get(key)]
    assert not moved, (f"the W ledgers of {', '.join(moved)} differ from tests/"
                       f"reference/{LEDGERS}; a change that moves ledgers on purpose "
                       f"regenerates it with `python3 tests/test_reference_reports.py`")


if __name__ == "__main__":
    for name, precision, samples, real in REPORTS:
        suite.cli.write_text(str(REFERENCE / name), report_text(precision, samples, real))
        print(f"wrote tests/reference/{name}")
    suite.cli.write_text(str(REFERENCE / DRAWS),
                         json.dumps(draw_digests(), indent=1) + "\n")
    print(f"wrote tests/reference/{DRAWS}")
    suite.cli.write_text(str(REFERENCE / LEDGERS),
                         json.dumps(ledger_digests(), indent=1) + "\n")
    print(f"wrote tests/reference/{LEDGERS}")
