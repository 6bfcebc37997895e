"""Acceptance suite: every top-level verification target at its stated
tolerance and runtime budget.  Each test prints a single PASS/FAIL line."""

import itertools
import json
import random
import time

from qident import cli
from qident.identities import CASES, run_case, sample_params
from qident.partitions import is_horizontal_strip, normalize
from qident.wfunc import WParams, w_multi, w_skew_single

from conftest import rel


def _finish(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {label}{detail}")
    assert ok, f"{label}{detail}"


def _batch(case_id, seeds, tol, transform=None):
    """Run a case over the given seeds; returns (worst residual, reports)."""
    worst = 0.0
    for seed in seeds:
        params = sample_params(case_id, seed)
        if transform:
            params = transform(params)
        rep = run_case(case_id, params, tol=tol)
        assert rep.status == "pass", (case_id, seed, rep.status, rep.message)
        worst = max(worst, rep.rel_residual)
    return worst


def _filtered_seeds(case_id, predicate, count, start=0):
    """First `count` seeds whose sampled draw satisfies `predicate`."""
    out, seed = [], start
    while len(out) < count:
        if predicate(sample_params(case_id, seed)):
            out.append(seed)
        seed += 1
    return out


def test_terminating_8phi7_summation():
    t0 = time.monotonic()
    worst = _batch("jackson8phi7", range(100), 1e-9)
    dt = time.monotonic() - t0
    _finish("8phi7 summation, 100 draws",
            worst <= 1e-9 and dt < 2.0,
            f" (worst {worst:.2e}, {dt:.2f}s)")


def test_10phi9_transformation():
    t0 = time.monotonic()
    worst = _batch("bailey10phi9", range(50), 1e-9)
    dt = time.monotonic() - t0
    _finish("10phi9 transformation, 50 draws",
            worst <= 1e-9 and dt < 5.0,
            f" (worst {worst:.2e}, {dt:.2f}s)")


def test_bilateral_summations_6psi6_1psi1():
    t0 = time.monotonic()
    w6 = _batch("bailey6psi6", range(50), 1e-8)
    w1 = _batch("ramanujan1psi1", range(50), 1e-8)
    dt = time.monotonic() - t0
    _finish("6psi6 and 1psi1 summations, 50 draws each",
            max(w6, w1) <= 1e-8 and dt < 30.0,
            f" (worst {max(w6, w1):.2e}, {dt:.2f}s)")


def test_rank1_pipeline():
    t0 = time.monotonic()
    worst_finite = max(
        _batch("flippedsummand", range(50), 1e-9),
        _batch("c1macdonald", range(50), 1e-9),
        _batch("bilateralfinite", range(50), 1e-9),
    )
    worst_bilateral = max(
        _batch("3psi3delta0", range(50), 1e-8),
        _batch("3psi3delta1", range(50), 1e-8),
    )
    dt = time.monotonic() - t0
    _finish("rank-1 pipeline, 50 draws per stage",
            worst_finite <= 1e-9 and worst_bilateral <= 1e-8 and dt < 60.0,
            f" (finite {worst_finite:.2e}, bilateral {worst_bilateral:.2e},"
            f" {dt:.2f}s)")


def test_summand_sign_reflection_invariance():
    seen_k = set()

    def note(params):
        seen_k.add(params["k"])
        return params

    worst = _batch("summandinvariance", range(20), 1e-9, transform=note)
    ok = worst <= 1e-9 and min(seen_k) < 0 < max(seen_k)
    _finish("summand reflection invariance, 20 draws",
            ok, f" (worst {worst:.2e}, k range {min(seen_k)}..{max(seen_k)})")


def test_w_function_suite():
    t0 = time.monotonic()

    # structural vanishing off horizontal strips, exhaustive for parts <= 3
    box = []
    for tup in itertools.product(range(4), repeat=3):
        if tup[0] >= tup[1] >= tup[2]:
            p = normalize(tup)
            if p not in box:
                box.append(p)
    vanish_ok = True
    for p in (0.0, 0.1):
        wp = WParams(0.3, p, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
        for lam in box:
            for mu in box:
                if not is_horizontal_strip(lam, mu):
                    vanish_ok &= w_skew_single(1.1 + 0.3j, lam, mu, wp) == 0

    # variable-permutation symmetry
    rng = random.Random(97)
    worst_sym = 0.0
    for p in (0.0, 0.1):
        for _ in range(10):
            q = rng.uniform(0.15, 0.45)
            t = rng.uniform(0.2, 0.6)
            wp = WParams(q, p, t,
                         complex(rng.uniform(0.4, 0.9), rng.uniform(-0.2, 0.2)),
                         complex(rng.uniform(0.4, 0.9), rng.uniform(-0.2, 0.2)))
            z1 = complex(rng.uniform(0.5, 1.3), rng.uniform(-0.3, 0.3))
            z2 = complex(rng.uniform(0.5, 1.3), rng.uniform(-0.3, 0.3))
            v12 = w_multi((z1, z2), (2, 1), (), wp, memo={})
            v21 = w_multi((z2, z1), (2, 1), (), wp, memo={})
            worst_sym = max(worst_sym, rel(v12, v21))

    worst_flip = _batch("flip", range(20), 1e-9)
    worst_dual = _batch("duality", range(20), 1e-9)
    worst_deg = _batch("weyldegree", range(20), 1e-9)
    dt = time.monotonic() - t0
    ok = (vanish_ok and worst_sym <= 1e-10
          and max(worst_flip, worst_dual, worst_deg) <= 1e-9 and dt < 120.0)
    _finish("W-function suite (vanishing/symmetry/flip/duality/degree)",
            ok, f" (sym {worst_sym:.2e}, flip {worst_flip:.2e},"
                f" dual {worst_dual:.2e}, deg {worst_deg:.2e}, {dt:.2f}s)")


def test_multiple_jackson_summations():
    t0 = time.monotonic()
    worst = 0.0
    for case_id in ("multijackson", "simplifiedjackson"):
        seeds2 = _filtered_seeds(case_id, lambda p: p["n"] == 2, 20)
        worst = max(worst, _batch(case_id, seeds2, 1e-7))
        seeds3 = _filtered_seeds(case_id, lambda p: p["n"] == 3, 5)
        worst = max(worst, _batch(case_id, seeds3, 1e-7))
    dt = time.monotonic() - t0
    _finish("multiple Jackson summations, n=2 (20 draws) and n=3 (5 draws)",
            worst <= 1e-7 and dt < 180.0,
            f" (worst {worst:.2e}, {dt:.2f}s)")


def test_multilateral_finite_identity():
    # the verifier also spot-checks summand vanishing at 5 lattice points
    # outside the support window on every run (violations become errors)
    t0 = time.monotonic()
    worst = 0.0
    for delta in (0, 1):
        seeds = _filtered_seeds("multilateralfinite",
                                lambda p: p["n"] == 2, 10, start=1000 * delta)
        worst = max(worst, _batch("multilateralfinite", seeds, 1e-7,
                                  transform=lambda p: {**p, "delta": delta}))
    dt = time.monotonic() - t0
    _finish("multilateral finite identity, n=2, both deltas, 20 draws",
            worst <= 1e-7, f" (worst {worst:.2e}, {dt:.2f}s)")


def test_multilateral_3psi3():
    t0 = time.monotonic()
    # n = 1 reduction onto the rank-1 bilateral sum
    worst_red = 0.0
    seeds1 = _filtered_seeds("multilateral3psi3", lambda p: p["n"] == 1, 5)
    for seed in seeds1:
        p = sample_params("multilateral3psi3", seed)
        r1 = run_case("multilateral3psi3", p)
        assert r1.status == "pass"
        sig = p["q"] ** (p["delta"] + 1) / (p["a"] * p["s"])
        r2 = run_case(f"3psi3delta{p['delta']}",
                      dict(sigma=sig, rho=1 / p["x"], gamma=p["a"] * p["x"], q=p["q"]))
        # both sides scale by the same rank-1 normalization constant
        worst_red = max(worst_red, rel(r1.lhs / r1.rhs, r2.lhs / r2.rhs))
    # n = 2, both deltas
    worst2 = 0.0
    for delta in (0, 1):
        seeds = _filtered_seeds("multilateral3psi3",
                                lambda p: p["n"] == 2, 5, start=1000 * delta)
        worst2 = max(worst2, _batch("multilateral3psi3", seeds, 1e-6,
                                    transform=lambda p: {**p, "delta": delta}))
    dt = time.monotonic() - t0
    _finish("multilateral bilateral sum: n=1 reduction and n=2 draws",
            worst_red <= 1e-8 and worst2 <= 1e-6 and dt < 180.0,
            f" (reduction {worst_red:.2e}, n=2 {worst2:.2e}, {dt:.2f}s)")


def test_full_suite_determinism():
    configs = [cli.CaseConfig(case_id=cid, seed=11, samples=2)
               for cid in CASES]
    r1 = cli.run(configs, parallelism=4)
    r2 = cli.run(configs, parallelism=1)
    d1, d2 = json.loads(cli.report_json(r1)), json.loads(cli.report_json(r2))
    d1["meta"].pop("timestamp"), d2["meta"].pop("timestamp")
    ok = d1 == d2 and r1.summary["fail"] == 0 and r1.summary["error"] == 0
    _finish("full-suite determinism (byte-identical modulo timing)", ok)
