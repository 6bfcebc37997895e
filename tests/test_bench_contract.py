"""The names the benchmark harness in bench/ reads from the package.

bench/tracing.py wraps functions by (layer, name) from outside the package,
and bench/checks.py calls the W function directly, so deleting or renaming
one of them breaks `python3 bench/run.py --trace 1` without failing any
other test.  TIMED is read from bench/tracing.py itself, so this test follows
the harness."""

import importlib
import importlib.util
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
