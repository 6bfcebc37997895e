"""Identity registry tests: every registered verification case, its trivial
and seeded examples, cross-case reduction oracles, and term-level pipeline
consistency."""

import itertools
import random
import time

import pytest

import qident.identities as identities
from qident.errors import DomainError, QidentError
from qident.identities import (
    CASES,
    _f_bilateral,
    _mlat_3psi3_sum,
    bilateral_finite_spec,
    flipped_summand_structured,
    jackson_delta_product,
    mlat_3psi3_summand,
    mlat_finite_summand,
    mlat_norm,
    multiple_jackson_rhs,
    run_case,
    sample_params,
    simplified_jackson_rhs,
    verify_3psi3,
    verify_bailey_6psi6,
    verify_bailey_10phi9,
    verify_bilateral_finite,
    verify_c1_macdonald,
    verify_duality,
    verify_flip,
    verify_flipped_summand,
    verify_jackson_8phi7,
    verify_multilateral_3psi3,
    verify_multilateral_finite,
    verify_multiple_jackson,
    verify_ramanujan_1psi1,
    verify_simplified_jackson,
    verify_summand_invariance,
    verify_weyl_degree,
    vwp_jackson_term,
)
from qident.partitions import lattice_window
from qident.policy import DEFAULT_POLICY, QPower, scalar_value
from qident.qcore import poch_int

from conftest import rel


# ---------------------------------------------------------------------------
# terminating 8phi7 summation
# ---------------------------------------------------------------------------

def test_jackson_n0_trivial():
    r = verify_jackson_8phi7(0.5 + 0.1j, 0.3, 0.7, 0.2, 0, 0.4)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-14 and abs(r.rhs - 1) < 1e-14


def test_jackson_seeded_example():
    r = verify_jackson_8phi7(0.5, 0.3, 0.7, 0.6, 3, 0.4)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-10


def test_jackson_rhs_symmetric_in_bcd():
    a, q, n = 0.5 + 0.1j, 0.35, 3
    b, c, d = 0.31 + 0.05j, 0.72 - 0.1j, 0.23 + 0.18j
    base = verify_jackson_8phi7(a, b, c, d, n, q).rhs
    for perm in itertools.permutations((b, c, d)):
        r = verify_jackson_8phi7(a, *perm, n, q)
        assert rel(r.rhs, base) < 1e-12


def test_report_tolerance_recorded_and_consistent():
    r = verify_jackson_8phi7(0.5, 0.3, 0.7, 0.6, 3, 0.4, tol=1e-10)
    assert r.params["tol"] == 1e-10
    assert (r.status == "pass") == (r.rel_residual <= 1e-10)


# ---------------------------------------------------------------------------
# 10phi9 transformation
# ---------------------------------------------------------------------------

def test_bailey10_n0_trivial():
    r = verify_bailey_10phi9(0.5, 0.3, 0.7, 0.2, 0.6, 0.4, 0, 0.3)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_bailey10_seeded_example():
    p = sample_params("bailey10phi9", 2)
    p["n"] = 2
    r = run_case("bailey10phi9", p, tol=1e-9)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-9


def test_bailey10_identity_map_when_bcd_equals_qa():
    # lambda = q a^2 / (bcd) = a, making the transformation the identity map
    a, b, c, q, n = 0.5 + 0.1j, 0.3 - 0.05j, 0.7 + 0.1j, 0.3, 3
    d = q * a / (b * c)
    r = verify_bailey_10phi9(a, b, c, d, 0.61 + 0.1j, 0.43 - 0.2j, n, q)
    assert r.status == "pass"
    assert r.rel_residual < 1e-12


# ---------------------------------------------------------------------------
# 6psi6 summation
# ---------------------------------------------------------------------------

def test_bailey6_seeded_example():
    r = verify_bailey_6psi6(0.81, 0.9, 0.8, 0.7, 0.6, 0.2)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_bailey6_structural_termination_tag():
    # the tagged numerator parameter q^{-2} cuts the upper half of the
    # bilateral sum structurally at index 2 (the lower half still converges
    # numerically, so the sum as a whole is not marked terminated)
    r = verify_bailey_6psi6(0.81, QPower(-2), 0.8, 0.7, 0.6, 0.2)
    assert r.status == "pass"
    assert "window=" in r.message and r.message.rstrip().endswith("2)")


def test_bailey6_rhs_symmetric_in_bcde():
    a, q = 0.81, 0.2
    vals = (0.9, 0.8, 0.7, 0.6)
    base = verify_bailey_6psi6(a, *vals, q).rhs
    for perm in itertools.permutations(vals):
        assert rel(verify_bailey_6psi6(a, *perm, q).rhs, base) < 1e-12


# ---------------------------------------------------------------------------
# 1psi1 summation
# ---------------------------------------------------------------------------

def test_1psi1_b_equals_q_reduces_to_q_binomial():
    r = verify_ramanujan_1psi1(0.6, QPower(1), 0.7, 0.3, tol=1e-10)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-10


def test_1psi1_seeded_example():
    r = verify_ramanujan_1psi1(0.9, 0.2, 0.5, 0.3)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_1psi1_convergence_gate():
    # |x| outside (|b/a|, 1) must be reported as an error, not evaluated
    rep = run_case("ramanujan1psi1", dict(a=0.9, b=0.2, x=1.5, q=0.3))
    assert rep.status == "error"
    rep = run_case("ramanujan1psi1", dict(a=0.9, b=0.8, x=0.5, q=0.3))
    assert rep.status == "error"


# ---------------------------------------------------------------------------
# rank-1 C-type identity
# ---------------------------------------------------------------------------

def test_c1_exact_algebra():
    r = verify_c1_macdonald(0.5)
    assert r.status == "pass"
    assert abs(r.rhs - 1) < 1e-15  # 4/3 - 1/3 = 1


def test_c1_complex_point():
    r = verify_c1_macdonald(2 + 1j)
    assert r.status == "pass"
    assert r.abs_residual <= 1e-14


def test_c1_pole_reported_as_error():
    assert run_case("c1macdonald", dict(x=1.0)).status == "error"


# ---------------------------------------------------------------------------
# flipped summand
# ---------------------------------------------------------------------------

def test_flipped_summand_k0_at_weight_point():
    # at z = delta/2 the product form is evaluated in factored form (exact
    # zero factors counted separately); at k = 0 it must equal the lhs term 1
    for delta in (0, 1):
        z = delta / 2.0
        sig, rho, gam, q, n = 0.3 + 0.1j, 0.7 - 0.2j, 0.2 + 0.05j, 0.35, 4
        zeros, value = flipped_summand_structured(z, z, sig, rho, gam, n, q)
        lhs = vwp_jackson_term(0, q ** (2 * z), sig, rho, gam, n, q)
        assert zeros == 0
        assert abs(lhs - 1) < 1e-14
        assert rel(value, 1.0) < 1e-12


def test_flipped_summand_seeded_example():
    # z is a free parameter of the two-sided check; any generic value works
    r = verify_flipped_summand(0.3, 0.7, 0.2, 0.35, 4, 0, 0.3, 2)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_flipped_summand_sign_reflection_invariance():
    # replacing (z+k) by -(z+k) leaves the product form unchanged at the
    # weight-lattice point z = delta/2
    rng = random.Random(43)
    for delta in (0, 1):
        z = delta / 2.0
        for _ in range(5):
            sig = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            rho = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            gam = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            q, n, k = rng.uniform(0.2, 0.5), rng.randint(2, 5), rng.randint(1, 3)
            u = z + k
            z1, v1 = flipped_summand_structured(u, z, sig, rho, gam, n, q)
            z2, v2 = flipped_summand_structured(-u, z, sig, rho, gam, n, q)
            assert z1 == z2
            assert rel(v1, v2) < 1e-10


# ---------------------------------------------------------------------------
# finite bilateral three-way check
# ---------------------------------------------------------------------------

def test_bilateral_finite_n0_trivial():
    r = verify_bilateral_finite(0.4 + 0.1j, 0.6 - 0.2j, 0.3, 0.3, 0, 0)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_bilateral_finite_seeded_both_deltas():
    sig, rho, gam, q = 0.37 + 0.21j, 0.81 - 0.13j, 0.29 + 0.4j, 0.3
    for delta in (0, 1):
        r = verify_bilateral_finite(sig, rho, gam, q, 3, delta)
        assert r.status == "pass"
        assert r.rel_residual <= 1e-9  # max pairwise residual of all three


def test_pipeline_term_level_regrouping():
    # each one-sided term equals f(delta) times the pair of bilateral terms
    # {k, -delta-k}; for delta = 0 the k = 0 term stands alone
    rng = random.Random(47)
    for _ in range(5):
        sig = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
        rho = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
        gam = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
        q, n = rng.uniform(0.15, 0.5), rng.randint(1, 4)
        for delta in (0, 1):
            spec = bilateral_finite_spec(sig, rho, gam, n, delta, q)
            nums = [scalar_value(v, q) for v in spec.numerator]
            dens = [scalar_value(v, q) for v in spec.denominator]

            def bil(k):
                val = q**k
                for v in nums:
                    val *= poch_int(v, q, k)
                for v in dens:
                    val /= poch_int(v, q, k)
                return val

            f = _f_bilateral(delta, q)
            b = q**delta
            for k in range(n + 1):
                uni = vwp_jackson_term(k, b, sig, rho, gam, n, q)
                if delta == 0 and k == 0:
                    paired = f * bil(0)
                else:
                    paired = f * (bil(k) + bil(-delta - k))
                assert rel(uni, paired) < 1e-10


# ---------------------------------------------------------------------------
# bilateral 3psi3
# ---------------------------------------------------------------------------

def test_3psi3_seeded_both_deltas():
    for delta in (0, 1):
        r = verify_3psi3(0.9, 0.8, 0.7, 0.2, delta)
        assert r.status == "pass"
        assert r.rel_residual <= 1e-8


def test_3psi3_sigma_rho_swap_invariance():
    for delta in (0, 1):
        r1 = verify_3psi3(0.9, 0.8, 0.7, 0.2, delta)
        r2 = verify_3psi3(0.8, 0.9, 0.7, 0.2, delta)
        assert rel(r1.lhs, r2.lhs) < 1e-12
        assert rel(r1.rhs, r2.rhs) < 1e-12


# ---------------------------------------------------------------------------
# multiple Jackson summation and its principal-argument form
# ---------------------------------------------------------------------------

def test_multijackson_empty_partition():
    r = verify_multiple_jackson((), 2, (1.2 + 0.3j, 0.8 - 0.2j), 0.3, 0.0,
                                0.45, 0.7 + 0.1j, 0.5 - 0.2j, 1.1)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_multijackson_seeded_p0():
    r = verify_multiple_jackson((2, 1), 2, (1.2 + 0.3j, 0.8 - 0.2j), 0.3, 0.0,
                                0.45, 0.7 + 0.1j, 0.5 - 0.2j, 1.1)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_multijackson_seeded_elliptic():
    r = verify_multiple_jackson((1, 1), 2, (1.2 + 0.3j, 0.8 - 0.2j), 0.3, 0.1,
                                0.45, 0.7 + 0.1j, 0.5 - 0.2j, 1.1)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-7


def test_simplified_jackson_empty_partition():
    r = verify_simplified_jackson((), 2, 1.4 + 0.2j, 0.3, 0.0, 0.45,
                                  0.7 + 0.1j, 0.5 - 0.2j, 1.1)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_simplified_jackson_seeded_p0():
    r = verify_simplified_jackson((2, 1), 2, 1.4 + 0.2j, 0.3, 0.0, 0.45,
                                  0.7 + 0.1j, 0.5 - 0.2j, 1.1)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_simplified_vs_multiple_cross_case_oracle():
    # The two summation displays are linked by the parameter dictionary
    # a' = a s^2 t^{n+1}, b' = b s t, s' = s with argument (x/s) t^{staircase}.
    # Under it the ratio of the two right-hand sides is a constant in x (the
    # principal-specialization constant), which is the substantive cross-case
    # content; the constant itself depends on the index partition.
    q, p, t = 0.32, 0.0, 0.57
    a, b, s = 0.83 + 0.1j, 0.44 - 0.2j, 1.31
    for (n, lam) in [(2, (2, 1)), (2, (1,)), (3, (2, 1, 1))]:
        aw, bw = a * s * s * t ** (n + 1), b * s * t
        ratios = []
        for x in (1.72 + 0.3j, 0.9 - 0.4j, 2.3 + 1.1j):
            z = tuple((x / s) * t ** (n - 1 - i) for i in range(n))
            r1 = multiple_jackson_rhs(z, lam, n, q, p, t, aw, bw, s)
            r2 = simplified_jackson_rhs(x, lam, n, q, p, t, a, b, s)
            ratios.append(r1 / r2)
        assert rel(ratios[0], ratios[1]) < 1e-10
        assert rel(ratios[0], ratios[2]) < 1e-10


# ---------------------------------------------------------------------------
# duality, flip, degree formula
# ---------------------------------------------------------------------------

def test_duality_empty():
    r = verify_duality((), (), 2, 0.7 + 0.1j, 0.6 - 0.2j, 0.5, 0.3, 0.45)
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12


def test_duality_symmetric_point():
    r = verify_duality((1,), (1,), 2, 0.7 + 0.1j, 0.7 + 0.1j, 0.5, 0.3, 0.45)
    assert r.status == "pass"
    assert r.abs_residual <= 1e-13


def test_duality_seeded_example():
    r = verify_duality((1,), (2,), 2, 0.7 + 0.1j, 0.6 - 0.2j, 0.5 + 0.05j,
                       0.3, 0.45)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-9


def test_flip_examples():
    r = verify_flip((), (1.2,), 0.3, 0.0, 0.45, 0.7 + 0.1j, 0.5 - 0.2j)
    assert r.status == "pass" and abs(r.lhs - 1) < 1e-12
    r = verify_flip((2,), (1.2 + 0.3j,), 0.3, 0.0, 0.45, 0.7 + 0.1j, 0.5 - 0.2j)
    assert r.status == "pass" and r.rel_residual <= 1e-9
    r = verify_flip((2, 1), (1.2 + 0.3j, 0.8 - 0.2j), 0.3, 0.0, 0.45,
                    0.7 + 0.1j, 0.5 - 0.2j)
    assert r.status == "pass" and r.rel_residual <= 1e-9


def test_weyl_degree_examples():
    r = verify_weyl_degree((), 2, 2, 0.3 + 0.1j, 0, 0.4)
    assert r.status == "pass" and abs(r.lhs - 1) < 1e-12
    r = verify_weyl_degree((1,), 2, 2, 0.3, 0, 0.4)
    assert r.status == "pass" and r.rel_residual <= 1e-9


# ---------------------------------------------------------------------------
# multilateral finite identity
# ---------------------------------------------------------------------------

def test_multilateral_finite_empty_partition():
    r = verify_multilateral_finite((), 2, 1.37 + 0.2j, 0.45 + 0.1j,
                                   0.7 - 0.2j, 0.3, 0)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-7


def test_multilateral_finite_rank1_reduction():
    # at n = 1 the identity is the rank-1 three-way finite bilateral check
    # under sigma = q^{delta+1}/(a s), rho = 1/x, gamma = a x, n = lam_1
    q, x, s, a = 0.3, 1.37 + 0.2j, 0.45 + 0.1j, 0.7 - 0.2j
    for delta in (0, 1):
        for m in (0, 1, 2, 3):
            lam = (m,) if m else ()
            r_ml = verify_multilateral_finite(lam, 1, x, s, a, q, delta)
            sig, rho, gam = q ** (delta + 1) / (a * s), 1 / x, a * x
            r_bf = verify_bilateral_finite(sig, rho, gam, q, m, delta)
            assert r_ml.status == "pass" and r_bf.status == "pass"
            assert rel(r_ml.lhs, r_bf.rhs) < 1e-9


def test_multilateral_finite_seeded_rank2():
    for delta in (0, 1):
        r = verify_multilateral_finite((2, 1), 2, 1.37 + 0.2j, 0.45 + 0.1j,
                                       0.7 - 0.2j, 0.3, delta)
        assert r.status == "pass"
        assert r.rel_residual <= 1e-7


def _memoless(monkeypatch, fn, *args):
    """fn(*args) with every mlat_finite_summand call made without a memo."""
    original = identities.mlat_finite_summand
    with monkeypatch.context() as mp:
        mp.setattr(identities, "mlat_finite_summand", lambda *a: original(*a[:8]))
        return fn(*args)


def test_multilateral_finite_shared_memo_is_bit_identical(monkeypatch):
    draws = [sample_params("multilateralfinite", seed) for seed in range(16)]
    draws += [dict(lam=(2, 1), n=2, x=1.37 + 0.2j, s=0.45 + 0.1j, a=0.7 - 0.2j,
                   q=0.3, delta=delta) for delta in (0, 1)]
    for p in draws:
        shared = run_case("multilateralfinite", p)
        alone = _memoless(monkeypatch, run_case, "multilateralfinite", p)
        assert (repr(shared.lhs), repr(shared.rhs)) == (repr(alone.lhs), repr(alone.rhs))
        assert shared.status == alone.status and shared.message == alone.message
    # The per-point sum, written out with no memo at all:
    p = draws[-1]
    args = (p["n"], p["delta"], p["q"], p["s"], p["a"], p["x"])
    upper, lower = identities.mlat_finite_window(p["lam"], p["n"], p["delta"])
    total = 0.0 + 0j
    for mu in lattice_window(upper, lower):
        total += mlat_finite_summand(mu, p["lam"], *args)
    assert repr(mlat_norm(p["n"], p["delta"], p["q"]) * total) == repr(shared.rhs)


# ---------------------------------------------------------------------------
# multilateral 3psi3 analogue
# ---------------------------------------------------------------------------

def test_multilateral_3psi3_rank1_reduction():
    # n = 1 reduces to the bilateral 3psi3 under the same dictionary; the
    # rank-1 case carries an extra normalization f(delta)
    q, x, s, a = 0.3, 1.37 + 0.2j, 0.45 + 0.1j, 0.7 - 0.2j
    for delta in (0, 1):
        r1 = verify_multilateral_3psi3(1, delta, x, s, a, q)
        sig, rho, gam = q ** (delta + 1) / (a * s), 1 / x, a * x
        r2 = verify_3psi3(sig, rho, gam, q, delta)
        assert r1.status == "pass" and r2.status == "pass"
        norm = mlat_norm(1, delta, q)
        assert rel(r1.lhs, r2.lhs / norm) < 1e-8
        assert rel(r1.rhs, r2.rhs / norm) < 1e-8


def test_multilateral_3psi3_seeded_rank2():
    for delta in (0, 1):
        r = verify_multilateral_3psi3(2, delta, 1.7, 0.25, 0.6, 0.3)
        assert r.status == "pass"
        assert r.rel_residual <= 1e-6


def test_multilateral_3psi3_convergence_gate():
    with pytest.raises(DomainError):
        verify_multilateral_3psi3(2, 0, 1.7, 0.8, 0.6, 0.3)


def _mlat_sweep(n, delta, q, s, a, x, policy=DEFAULT_POLICY):
    """Brute-force lattice sum: every point of each hypercube shell in
    product order, each dominant summand rebuilt by mlat_3psi3_summand (the
    others are 0), with the shell tail test, the lattice budget and the window
    cap of _mlat_3psi3_sum."""
    total, nterms, covered, below = 0.0 + 0j, 0, -1, 0
    m = max(policy.window_step, 4)
    while True:
        new = 0.0 + 0j
        for mu in itertools.product(range(-m, m + 1), repeat=n):
            if max(abs(c) for c in mu) <= covered:
                continue
            if all(mu[i] >= mu[i + 1] for i in range(n - 1)):
                new += mlat_3psi3_summand(mu, n, delta, q, s, a, x)
            nterms += 1
            if nterms > identities.MAX_LATTICE_TERMS:
                raise identities.NoConvergence("multilateral sum: lattice budget exhausted")
        total += new
        if abs(new) <= policy.series_tol * max(abs(total), 1e-300):
            below += 1
            if below >= 2:
                return total, nterms, (-m, m)
        else:
            below = 0
        covered = m
        m += policy.window_step
        if m > 200:
            raise identities.NoConvergence("multilateral sum: window cap reached")


def _sum_outcome(fn, *args):
    try:
        return fn(*args)
    except QidentError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("n, s", [(1, 0.45 + 0.1j), (2, 0.1 - 0.05j), (3, 1e-4 + 5e-5j)])
@pytest.mark.parametrize("delta", [0, 1])
def test_multilateral_3psi3_sum_against_brute_force(n, s, delta):
    q, a, x = 0.3, 0.7 - 0.2j, 1.37 + 0.2j
    total, nterms, window = _mlat_3psi3_sum(n, delta, q, s, a, x, DEFAULT_POLICY)
    m = window[1]
    assert window == (-m, m) and nterms == (2 * m + 1) ** n
    brute, ref_terms, ref_window = _mlat_sweep(n, delta, q, s, a, x)
    assert (nterms, window) == (ref_terms, ref_window)
    assert rel(total, brute) <= 1e-13


def test_dominant_shells_and_ranks_follow_the_sweep():
    for n in (1, 2, 3):
        covered = -1
        for m in (4, 8, 10):
            sweep = [mu for mu in itertools.product(range(-m, m + 1), repeat=n)
                     if max(abs(c) for c in mu) > covered]
            dominant = [mu for mu in sweep
                        if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
            shell = list(identities._dominant_shell(n, m, covered))
            assert sorted(shell) == dominant
            for k, mu in enumerate(sweep):
                assert identities._shell_rank(mu, m, covered) == k
            covered = m


# Draws whose pair ratios meet a vanishing reciprocal factor, with budgets
# around the point where the sweep meets it.  q = 1/2; a s = q^{-k} makes
# coordinate i's pair_poch_ratio denominator vanish from mu_i = k + i on, and
# x = q^k its reciprocal from mu_i = k + 1 - i down.
_A = 0.7 - 0.2j
_DEN = "DivisionByVanishingFactor: pair_poch_ratio: denominator vanishes"
_RECIP = "DivisionByVanishingFactor: pair_poch_ratio: reciprocal vanishes"
_BUDGET = "NoConvergence: multilateral sum: lattice budget exhausted"
_VANISHING = {
    # shell m = 8, first failing point (7, -8), 174 points into the shell
    "denominator": ((2, 1, 0.5, 64 / _A, _A, 0.75 + 0.25j), range(75, 300, 6),
                    {_DEN, _BUDGET}),
    # shell m = 4, first failing point (-4, -4), the first point of the sweep
    "reciprocal": ((2, 1, 0.5, 0.1 + 0.05j, 0.75 - 0.5j, 4.0), (0, 1, 80, 81, 10**5),
                   {_RECIP}),
    # shell m = 4, first failing point (4, -4, -4), 648 points into the shell
    "rank3": ((3, 1, 0.5, 8 / _A, _A, 0.75 + 0.25j), range(600, 740, 8),
              {_DEN, _BUDGET}),
}


@pytest.mark.parametrize("draw", sorted(_VANISHING))
def test_multilateral_3psi3_sum_vanishing_factor_as_sweep(draw, monkeypatch):
    # The sweep meets the failing summand, or the lattice budget, first; the
    # tabulated sum must raise the same error at every budget.
    args, budgets, expected = _VANISHING[draw]
    args = args + (DEFAULT_POLICY,)
    outcomes = set()
    for budget in budgets:
        monkeypatch.setattr(identities, "MAX_LATTICE_TERMS", budget)
        got = _sum_outcome(_mlat_3psi3_sum, *args)
        assert got == _sum_outcome(_mlat_sweep, *args), budget
        outcomes.add(got)
    assert outcomes == expected


def test_multilateral_3psi3_vanishing_factor_is_an_error_report():
    # x = q^{-2}: coordinate 1's reciprocal factor vanishes from mu_1 = -2
    # down, while the product side stays finite
    params = dict(n=2, delta=1, x=4.0, s=0.1 + 0.05j, a=0.75 - 0.5j, q=0.5)
    rep = run_case("multilateral3psi3", params)
    assert rep.status == "error"
    assert rep.message == _RECIP


def test_multilateral_3psi3_budget_exhausted_as_sweep(monkeypatch):
    # A rank-3 draw that exhausts the real budget (at m = 32), and smaller
    # budgets that end in the first and second shells.
    args = (3, 1, 0.3, 0.03, 0.6 - 0.2j, 1.37 + 0.2j, DEFAULT_POLICY)
    assert _sum_outcome(_mlat_3psi3_sum, *args) == _BUDGET
    for budget in (100, 729, 730, 4000):
        monkeypatch.setattr(identities, "MAX_LATTICE_TERMS", budget)
        assert _sum_outcome(_mlat_3psi3_sum, *args) == _sum_outcome(_mlat_sweep, *args)


def test_multilateral_3psi3_small_q_draw_passes():
    # In the gate (|s| < 0.9 q); the window reaches 192.  Rebuilding each
    # summand from its separate factors overflowed q^{sm} in the Delta factor
    # and escaped run_case as an OverflowError.
    params = dict(n=2, delta=0, x=0.5, s=0.085, a=0.5, q=0.1)
    rep = run_case("multilateral3psi3", params)
    assert rep.status == "pass", rep.message
    assert rep.message == "window=(-192, 192)"


def test_multilateral_3psi3_slow_in_gate_draw_reports_quickly():
    # In the gate (|s| < 0.9 q), but the series tolerance needs a window past
    # the cap of 200: the partial sum there is within ~1.6e-11 of the product.
    params = dict(n=2, delta=0, x=0.5, s=0.265, a=0.5, q=0.3)
    t0 = time.perf_counter()
    rep = run_case("multilateral3psi3", params)
    assert time.perf_counter() - t0 < 5.0
    assert rep.status == "error"
    assert rep.message == "NoConvergence: multilateral sum: window cap reached"


# ---------------------------------------------------------------------------
# summand invariance at the weight-lattice point
# ---------------------------------------------------------------------------

def test_summand_invariance_identity_map_exact():
    r = verify_summand_invariance(0.4 + 0.1j, 0.7 - 0.2j, 0.3, 0.35, 4, 0, 2, 1)
    assert r.status == "pass"
    assert r.abs_residual == 0.0


def test_summand_invariance_seeded_examples():
    r = verify_summand_invariance(0.4 + 0.1j, 0.7 - 0.2j, 0.3, 0.35, 5, 0, 3, -1)
    assert r.status == "pass" and r.rel_residual <= 1e-9
    r = verify_summand_invariance(0.4 + 0.1j, 0.7 - 0.2j, 0.3, 0.35, 5, 1, 2, -1)
    assert r.status == "pass" and r.rel_residual <= 1e-9


# ---------------------------------------------------------------------------
# registry plumbing
# ---------------------------------------------------------------------------

def test_registry_has_all_cases():
    assert len(CASES) == 17
    for case_id, case in CASES.items():
        assert case.case_id == case_id
        assert case.schema and case.default_tol > 0


def test_every_case_passes_on_sampled_draws():
    for case_id in CASES:
        for seed in (0, 1):
            rep = run_case(case_id, sample_params(case_id, seed))
            assert rep.status == "pass", (case_id, seed, rep.message)
