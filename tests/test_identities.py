"""Identity registry tests: every registered verification case, its trivial
and seeded examples, cross-case reduction oracles, and term-level pipeline
consistency."""

import cmath
import collections
import dataclasses
import inspect
import itertools
import math
import random
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident.identities as identities
import qident.qcore as qcore
from qident.errors import (ConfigError, DomainError, NonFiniteSide,
                           PoleCancellationError, QidentError, excerpt)
from qident.identities import (
    CASES,
    _mlat_3psi3_sum,
    mp_context,
    bilateral_finite_spec,
    flipped_summand_structured,
    mlat_3psi3_summand,
    mlat_finite_summand,
    mlat_norm,
    multiple_jackson_rhs,
    run_case,
    sample_params,
    simplified_jackson_rhs,
    verify_summand_invariance,
    vwp_jackson_terms,
)
from qident.identities import SERIES_TOL, SHELL_CAP, SHELL_STEP
from qident.policy import QPower, scalar_value
from qident.qcore import PRODUCT_TOL, poch_int, poch_multi, units
from qident.wfunc import WParams, w_multi, w_skew_single, zw_multi

from conftest import rel


# ---------------------------------------------------------------------------
# terminating 8phi7 summation
# ---------------------------------------------------------------------------

def test_jackson_n0_trivial():
    r = run_case("jackson8phi7", dict(a=0.5 + 0.1j, b=0.3, c=0.7, d=0.2, n=0, q=0.4))
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-14 and abs(r.rhs - 1) < 1e-14


def test_jackson_seeded_example():
    r = run_case("jackson8phi7", dict(a=0.5, b=0.3, c=0.7, d=0.6, n=3, q=0.4))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-10


def test_jackson_rhs_symmetric_in_bcd():
    a, q, n = 0.5 + 0.1j, 0.35, 3
    b, c, d = 0.31 + 0.05j, 0.72 - 0.1j, 0.23 + 0.18j
    base = run_case("jackson8phi7", dict(a=a, b=b, c=c, d=d, n=n, q=q)).rhs
    for perm in itertools.permutations((b, c, d)):
        r = run_case("jackson8phi7", dict(zip("bcd", perm), a=a, n=n, q=q))
        assert rel(r.rhs, base) < 1e-12


def _poch_int_jackson_draw(seed):
    """sample_params("jackson8phi7", seed) as drawn by the sampler whose
    conditioning gate rebuilt the 8phi7 terms from poch_int."""
    rng = random.Random(seed)
    q = identities._mod(rng, 0.1, 0.6)
    n = rng.randint(0, 6)
    for _ in range(5000):
        a, b, c, d = (identities._cscalar(rng) for _ in range(4))
        e = q ** (1 + n) * a * a / (b * c * d)
        bases = [a * q / b, a * q / c, a * q / d, a * q / e, a * q ** (n + 1),
                 a * q / (b * c * d), q]
        if not identities._away(bases, q, kmax=n + 2):
            continue
        total, peak = 0.0 + 0j, 0.0
        for k in range(n + 1):
            t = (1 - a * q ** (2 * k)) / (1 - a) * q**k
            for v in (a, b, c, d, e, q**-n):
                t *= poch_int(v, q, k)
            for v in (q, a * q / b, a * q / c, a * q / d, a * q / e,
                      a * q ** (n + 1)):
                t /= poch_int(v, q, k)
            total += t
            peak = max(peak, abs(t))
        if abs(total) >= 1e-4 * peak:
            return dict(a=a, b=b, c=c, d=d, n=n, q=q)
    raise DomainError("rejection sampling failed to find admissible parameters")


def test_jackson_draws_equal_those_of_the_poch_int_gate():
    # The sampler's conditioning gate sums vwp_jackson_terms, the verifiers'
    # own transcription of the 8phi7 terms; it admits the same draws.
    for seed in range(500):
        assert sample_params("jackson8phi7", seed) == _poch_int_jackson_draw(seed), seed


def _poch_int_jackson_term(k, b, sig, rho, gam, n, q):
    """The k-th 8phi7 term as one product of poch_int symbols, the form
    vwp_jackson_terms tabulates."""
    if k == 0:
        return units(q)[1]
    head = (units(q)[0] - b * q ** (2 * k)) * poch_int(b * q, q, k - 1)
    num = poch_multi([q**-n, sig, rho, gam, b * b * q ** (1 + n) / (sig * rho * gam)], q, k)
    den = poch_multi([q, b * q ** (1 + n), q * b / sig, q * b / rho, q * b / gam,
                      sig * rho * gam * q ** (-n) / b], q, k)
    return head * num / den * q**k


def test_jackson_terms_are_the_poch_int_terms_bit_for_bit():
    # Real and complex bases (q = 1 and |q| > 1 too), b a power of q (a
    # vanishing factor), kmax below, at and above n, n negative, and an
    # mpmath base: the prefix tables multiply poch_int's factors in its order.
    rng = random.Random(11)
    ctx = mp_context(30)
    for trial in range(3000):
        n, kmax = rng.randint(-2, 7), rng.randint(0, 8)
        q = rng.choice([rng.uniform(0.05, 0.95), 1.0, 2.0,
                        complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))])
        b, sig, rho, gam = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        if trial % 5 == 0:
            b = q ** -rng.randint(0, 4)
        if trial % 50 == 0:
            q, b, sig, rho, gam = map(ctx.mpmathify, (q, b, sig, rho, gam))
        try:
            want = [_poch_int_jackson_term(k, b, sig, rho, gam, n, q) for k in range(kmax + 1)]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                vwp_jackson_terms(b, sig, rho, gam, n, q, kmax)
            continue
        got = vwp_jackson_terms(b, sig, rho, gam, n, q, kmax)
        assert repr(got) == repr(want), (n, kmax, q, b, sig, rho, gam)


def test_report_tolerance_recorded_and_consistent():
    r = run_case("jackson8phi7", dict(a=0.5, b=0.3, c=0.7, d=0.6, n=3, q=0.4), tol=1e-10)
    assert r.params["tol"] == 1e-10
    assert (r.status == "pass") == (r.rel_residual <= 1e-10)


# ---------------------------------------------------------------------------
# 10phi9 transformation
# ---------------------------------------------------------------------------

def test_bailey10_n0_trivial():
    r = run_case("bailey10phi9",
                 dict(a=0.5, b=0.3, c=0.7, d=0.2, e=0.6, f=0.4, n=0, q=0.3))
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
    r = run_case("bailey10phi9",
                 dict(a=a, b=b, c=c, d=d, e=0.61 + 0.1j, f=0.43 - 0.2j, n=n, q=q))
    assert r.status == "pass"
    assert r.rel_residual < 1e-12


def _bailey10_side(side, p, dps=None):
    """Value of one side of a sampled 10phi9 draw and whether its double
    series passes its own gate: in double, or at dps digits under the global
    mpmath precision (not the context the verifier escalates in)."""
    args = [p[k] for k in "abcdef"]
    if dps is None:
        value, sv = side(*args, p["n"], p["q"])
        bound = identities.phi_rounding_bound(sv.terms_used, 10, 9, sv.condition)
        return complex(value), bound <= identities.DOUBLE_GATE * 1e-9
    with mpmath.workdps(dps):
        value, _ = side(*(mpmath.mpmathify(complex(v)) for v in args), p["n"],
                        mpmath.mpmathify(complex(p["q"])))
        return complex(value), None


def _bailey10_mpmath_run(p):
    return run_case("bailey10phi9", {
        k: mpmath.mpmathify(v) if k in "abcdefq" else v for k, v in p.items()})


def _check_bailey10_escalation(seed, left_escalates, right_escalates):
    # Each side is gated on its own: a side whose double series passes its
    # gate is reported as the double value, bit for bit, and a side that
    # fails it as the 40-digit value, bit for bit.
    p = sample_params("bailey10phi9", seed)
    rep = run_case("bailey10phi9", p)
    sides = ((identities._bailey_10phi9_left, left_escalates, rep.lhs),
             (identities._bailey_10phi9_right, right_escalates, rep.rhs))
    for side, escalates, reported in sides:
        double, kept = _bailey10_side(side, p)
        assert kept is not escalates
        assert reported == (_bailey10_side(side, p, 40)[0] if escalates else double)
    assert rep.status == "pass"
    assert rep.rel_residual <= identities.DOUBLE_GATE * rep.params["tol"]
    return p, rep


def test_bailey10_ill_conditioned_draw_escalates_to_40_digits():
    # Seed 12 (n = 4): the left series sums with condition ~1e5, so its double
    # value is off by ~3e-11 and is evaluated again at 40 digits; the right
    # series passes its gate and keeps its double value.  mpmath arguments
    # evaluate both sides at 40 digits, so their left side is the same.
    p, rep = _check_bailey10_escalation(12, True, False)
    direct = _bailey10_mpmath_run(p)
    assert rep.lhs == direct.lhs and rep.rhs != direct.rhs


@pytest.mark.parametrize("seed, left, right", [(40, False, True), (0, True, True)])
def test_bailey10_escalates_only_the_side_that_fails_its_gate(seed, left, right):
    # Seed 40 fails only the right gate (the prefactor goes with the right
    # series), seed 0 fails both; a draw failing both reports what mpmath
    # arguments report.
    p, rep = _check_bailey10_escalation(seed, left, right)
    if left and right:
        direct = _bailey10_mpmath_run(p)
        assert repr(rep) == repr(dataclasses.replace(direct, params=rep.params))


def test_bailey10_evaluates_mpmath_arguments_at_their_own_values(monkeypatch):
    # An mpmath argument was cut to a double before its 40+-digit evaluation,
    # while the report listed its full value: a 60-digit a perturbed by 1e-20
    # was evaluated as its double rounding.
    ctx = mp_context(60)
    p = {k: ctx.mpmathify(v) if k in "abcdefq" else v
         for k, v in sample_params("bailey10phi9", 0).items()}
    p["a"] += ctx.mpf("1e-20")
    seen = []
    original = identities._bailey_10phi9_left

    def spy(a, *rest):
        seen.append(a)
        return original(a, *rest)

    monkeypatch.setattr(identities, "_bailey_10phi9_left", spy)
    rep = run_case("bailey10phi9", p)
    assert rep.params["a"] == p["a"]
    assert seen == [p["a"]] and seen[0].context is ctx


def test_bailey10_draws_pass_a_thousand_times_below_tol(monkeypatch):
    # A double series is reported only where its rounding bound is at most
    # DOUBLE_GATE * tol, so no draw may report a larger residual; most draws
    # must be evaluated in double only (eval_phi never sees an mpmath q), and
    # only a series that fails its own gate is evaluated again at 40 digits.
    seen = []
    original = identities.eval_phi

    def spy(spec):
        seen.append(isinstance(spec.q, float))
        return original(spec)

    monkeypatch.setattr(identities, "eval_phi", spy)
    doubles = escalated = 0
    for seed in range(200):
        seen.clear()
        rep = run_case("bailey10phi9", sample_params("bailey10phi9", seed))
        assert rep.status == "pass", seed
        assert rep.rel_residual <= identities.DOUBLE_GATE * rep.params["tol"], seed
        doubles += seen == [True, True]
        escalated += seen.count(False)
    assert doubles >= 140
    assert escalated == 57


# ---------------------------------------------------------------------------
# 6psi6 summation
# ---------------------------------------------------------------------------

def test_bailey6_seeded_example():
    r = run_case("bailey6psi6", dict(a=0.81, b=0.9, c=0.8, d=0.7, e=0.6, q=0.2))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_bailey6_structural_termination_tag():
    # the tagged numerator parameter q^{-2} cuts the upper half of the
    # bilateral sum structurally at index 2 (the lower half still converges
    # numerically, so the sum as a whole is not marked terminated)
    r = run_case("bailey6psi6", dict(a=0.81, b=QPower(-2), c=0.8, d=0.7, e=0.6, q=0.2))
    assert r.status == "pass"
    assert "window=" in r.message and r.message.rstrip().endswith("2)")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the cancelled lhs (about -1.1e-15) "
                   "and the rhs (about 1.4e-42) pass through the BOTH_ZERO_EPS floor")
def test_bailey6_cancelled_lhs_draw_is_not_a_pass():
    # Both sides are below BOTH_ZERO_EPS, so judge passes the draw at a
    # relative residual of 1.0.  Item 6's scale from sum |t| makes it a fail
    # or a typed error, and then this test XPASSes and its mark must go.
    r = run_case("bailey6psi6", dict(a=0.5 + 0.1j, b=4e11, c=4.4e11, d=3.6e11,
                                     e=1e-44, q=1e-10))
    assert r.status in ("fail", "error")


def test_bailey6_rhs_symmetric_in_bcde():
    a, q = 0.81, 0.2
    vals = (0.9, 0.8, 0.7, 0.6)
    base = run_case("bailey6psi6", dict(zip("bcde", vals), a=a, q=q)).rhs
    for perm in itertools.permutations(vals):
        r = run_case("bailey6psi6", dict(zip("bcde", perm), a=a, q=q))
        assert rel(r.rhs, base) < 1e-12


# ---------------------------------------------------------------------------
# 1psi1 summation
# ---------------------------------------------------------------------------

def test_1psi1_b_equals_q_reduces_to_q_binomial():
    r = run_case("ramanujan1psi1", dict(a=0.6, b=QPower(1), x=0.7, q=0.3), tol=1e-10)
    assert r.status == "pass"
    assert r.rel_residual <= 1e-10


def test_1psi1_seeded_example():
    r = run_case("ramanujan1psi1", dict(a=0.9, b=0.2, x=0.5, q=0.3))
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
    r = run_case("c1macdonald", dict(x=0.5))
    assert r.status == "pass"
    assert abs(r.rhs - 1) < 1e-15  # 4/3 - 1/3 = 1


def test_c1_complex_point():
    r = run_case("c1macdonald", dict(x=2 + 1j))
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
        lhs = vwp_jackson_terms(q ** (2 * z), sig, rho, gam, n, q, 0)[0]
        assert zeros == 0
        assert abs(lhs - 1) < 1e-14
        assert rel(value, 1.0) < 1e-12


def test_flipped_summand_seeded_example():
    # z is a free parameter of the two-sided check; any generic value works
    r = run_case("flippedsummand", dict(sigma=0.3, rho=0.7, gamma=0.2, q=0.35, n=4,
                                        z=0.3, k=2))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_flipped_summand_positive_zero_count_is_exact_zero():
    # sigma = 1 puts the factor 1 - sigma into (sigma;q)_k for k >= 1, and
    # into the product form's numerator, whose net zero count is then positive
    p = {**sample_params("flippedsummand", 0), "sigma": 1.0}
    for k in range(1, p["n"] + 1):
        u, z = p["z"] + k, p["z"]
        zeros, _ = flipped_summand_structured(u, z, 1.0, p["rho"], p["gamma"],
                                              p["n"], p["q"])
        assert zeros > 0
        r = run_case("flippedsummand", {**p, "k": k})
        assert r.status == "pass"
        assert r.lhs == 0 and r.rhs == 0


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
    r = run_case("bilateralfinite", dict(sigma=0.4 + 0.1j, rho=0.6 - 0.2j, gamma=0.3,
                                         q=0.3, n=0, delta=0))
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_bilateral_finite_seeded_both_deltas():
    sig, rho, gam, q = 0.37 + 0.21j, 0.81 - 0.13j, 0.29 + 0.4j, 0.3
    for delta in (0, 1):
        r = run_case("bilateralfinite",
                     dict(sigma=sig, rho=rho, gamma=gam, q=q, n=3, delta=delta))
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

            f = mlat_norm(1, delta, q)
            b = q**delta
            for k, uni in enumerate(vwp_jackson_terms(b, sig, rho, gam, n, q, n)):
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
        r = run_case(f"3psi3delta{delta}", dict(sigma=0.9, rho=0.8, gamma=0.7, q=0.2))
        assert r.status == "pass"
        assert r.rel_residual <= 1e-8


def test_3psi3_sigma_rho_swap_invariance():
    for delta in (0, 1):
        r1 = run_case(f"3psi3delta{delta}", dict(sigma=0.9, rho=0.8, gamma=0.7, q=0.2))
        r2 = run_case(f"3psi3delta{delta}", dict(sigma=0.8, rho=0.9, gamma=0.7, q=0.2))
        assert rel(r1.lhs, r2.lhs) < 1e-12
        assert rel(r1.rhs, r2.rhs) < 1e-12


# ---------------------------------------------------------------------------
# multiple Jackson summation and its principal-argument form
# ---------------------------------------------------------------------------

_JACKSON_W = dict(n=2, q=0.3, p=0.0, t=0.45, a=0.7 + 0.1j, b=0.5 - 0.2j, s=1.1)
_MULTIJACKSON = dict(_JACKSON_W, z=(1.2 + 0.3j, 0.8 - 0.2j))
_SIMPLIFIED = dict(_JACKSON_W, x=1.4 + 0.2j)


def test_multijackson_empty_partition():
    r = run_case("multijackson", dict(_MULTIJACKSON, lam=()))
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_multijackson_seeded_p0():
    r = run_case("multijackson", dict(_MULTIJACKSON, lam=(2, 1)))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_multijackson_seeded_elliptic():
    r = run_case("multijackson", dict(_MULTIJACKSON, lam=(1, 1), p=0.1))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-7


def test_simplified_jackson_empty_partition():
    r = run_case("simplifiedjackson", dict(_SIMPLIFIED, lam=()))
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12 and abs(r.rhs - 1) < 1e-12


def test_simplified_jackson_seeded_p0():
    r = run_case("simplifiedjackson", dict(_SIMPLIFIED, lam=(2, 1)))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-8


def test_simplified_vs_multiple_cross_case_oracle():
    # The two summation displays are linked by the parameter dictionary
    # a' = a s^2 t^{n+1}, b' = b s t, s' = s with argument z_i = (x/s) t^{n-i}.
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
    r = run_case("duality", dict(lam=(), nu=(), n=2,
                                 a=0.7 + 0.1j, aprime=0.6 - 0.2j, b=0.5, q=0.3, t=0.45))
    assert r.status == "pass"
    assert abs(r.lhs - 1) < 1e-12


def test_duality_symmetric_point():
    r = run_case("duality", dict(lam=(1,), nu=(1,), n=2,
                                 a=0.7 + 0.1j, aprime=0.7 + 0.1j, b=0.5, q=0.3, t=0.45))
    assert r.status == "pass"
    assert r.abs_residual <= 1e-13


def test_duality_seeded_example():
    r = run_case("duality", dict(lam=(1,), nu=(2,), n=2, a=0.7 + 0.1j,
                                 aprime=0.6 - 0.2j, b=0.5 + 0.05j, q=0.3, t=0.45))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-9


def test_flip_examples():
    r = run_case("flip", dict(lam=(), xs=(1.2,),
                              q=0.3, p=0.0, t=0.45, a=0.7 + 0.1j, b=0.5 - 0.2j))
    assert r.status == "pass" and abs(r.lhs - 1) < 1e-12
    r = run_case("flip", dict(lam=(2,), xs=(1.2 + 0.3j,),
                              q=0.3, p=0.0, t=0.45, a=0.7 + 0.1j, b=0.5 - 0.2j))
    assert r.status == "pass" and r.rel_residual <= 1e-9
    r = run_case("flip", dict(lam=(2, 1), xs=(1.2 + 0.3j, 0.8 - 0.2j),
                              q=0.3, p=0.0, t=0.45, a=0.7 + 0.1j, b=0.5 - 0.2j))
    assert r.status == "pass" and r.rel_residual <= 1e-9


def test_weyl_degree_examples():
    r = run_case("weyldegree", dict(mu=(), N=2, n=2, s=0.3 + 0.1j, delta=0, q=0.4))
    assert r.status == "pass" and abs(r.lhs - 1) < 1e-12
    r = run_case("weyldegree", dict(mu=(1,), N=2, n=2, s=0.3, delta=0, q=0.4))
    assert r.status == "pass" and r.rel_residual <= 1e-9


class _NoThetaMemo:
    """Stands in for qcore.THETA_MEMO in identities: run_case sets no memo."""

    def set(self, value):
        return None

    def reset(self, token):
        pass


class _RecordingMemo(dict):
    """A theta memo that records the key of each value stored in it and of
    each value read back from it."""

    def __init__(self):
        super().__init__()
        self.stored, self.read = [], []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)

    def get(self, key, default=None):
        if key in self:
            self.read.append(key)
        return super().get(key, default)


class _RecordedThetaMemo:
    """Stands in for qcore.THETA_MEMO in identities: each memo that run_case
    sets is a _RecordingMemo, kept in memos in call order."""

    def __init__(self):
        self.memos = []

    def set(self, value):
        assert value == {}
        self.memos.append(_RecordingMemo())
        return qcore.THETA_MEMO.set(self.memos[-1])

    def reset(self, token):
        qcore.THETA_MEMO.reset(token)


def _theta_keys(memo):
    return [key for key in memo if key[0] not in ("plan", "split")]


def test_run_case_theta_memo_is_per_call_and_changes_no_value(monkeypatch):
    # Observed at the memo itself: each theta key and each plan key is stored
    # once, and thetas are read back; a stored theta is the kernel's fresh
    # value; there is one plan per (p, type) and none other; p = 0 stores no
    # theta; and each run_case call starts a new memo that it drops on return.
    # Each stored theta runs its two products once, and without a memo the
    # products run more often.
    recorded = _RecordedThetaMemo()
    monkeypatch.setattr(identities, "THETA_MEMO", recorded)
    calls = []
    original = qcore._inf_product

    def counting(a, q, plan):
        calls.append(a)
        return original(a, q, plan)

    monkeypatch.setattr(qcore, "_inf_product", counting)
    params = sample_params("multijackson", 5)
    assert params["p"] != 0 and params["lam"] == (3, 3)
    counts = []
    for _ in range(2):
        del calls[:]
        run_case("multijackson", params)
        counts.append(len(calls))
        assert qcore.THETA_MEMO.get() is None
    first, second = recorded.memos
    # The second call recomputes every theta: no memo outlives a run_case.
    assert first.stored == second.stored and first.read == second.read
    assert counts[0] == counts[1] == 2 * len(_theta_keys(first))
    with monkeypatch.context() as m:
        m.setattr(identities, "THETA_MEMO", _NoThetaMemo())
        del calls[:]
        run_case("multijackson", params)
        assert len(calls) > counts[0]
    assert len(first.stored) == len(set(first.stored)) == len(first)
    thetas = _theta_keys(first)
    assert thetas and all(key[1] for key in thetas)
    assert [key for key in first.read if key in thetas]
    assert {key for key in first if key[0] == "plan"} == {
        ("plan", p, tp) for _, p, _, tp in thetas}
    for key in thetas:
        assert repr(first[key]) == repr(qcore.theta(key[0], key[1]))
    # A p = 0 draw evaluates its thetas (1 - x) and memoizes none.
    seed = next(s for s in range(100) if sample_params("multijackson", s)["p"] == 0)
    assert run_case("multijackson", sample_params("multijackson", seed)).status == "pass"
    assert _theta_keys(recorded.memos[-1]) == []
    monkeypatch.undo()
    for case_id in ("multijackson", "simplifiedjackson", "duality", "flip",
                    "weyldegree"):
        for seed in range(100):
            params = sample_params(case_id, seed)
            scoped = run_case(case_id, params)
            with monkeypatch.context() as m:
                m.setattr(identities, "THETA_MEMO", _NoThetaMemo())
                unscoped = run_case(case_id, params)
            assert repr(scoped) == repr(unscoped)


def test_run_case_missing_parameters_is_a_config_error():
    with pytest.raises(ConfigError, match=r"missing parameters \['N', 'n', 's', 'delta', 'q'\]"):
        run_case("weyldegree", {"mu": (1,)})


def test_run_case_unknown_parameters_is_a_config_error():
    params = {**sample_params("jackson8phi7", 0), "bogus": 1, "another": 2}
    with pytest.raises(ConfigError, match=r"unknown parameters \['another', 'bogus'\]"):
        run_case("jackson8phi7", params)
    # 3psi3delta0 has no delta: it is fixed by the case id
    with pytest.raises(ConfigError, match=r"unknown parameters \['delta'\]"):
        run_case("3psi3delta0", {**sample_params("3psi3delta0", 0), "delta": 1})


@pytest.mark.parametrize("case_id, change, message", [
    ("jackson8phi7", dict(n=-3), "requires n >= 0"),
    ("bailey10phi9", dict(n=-3), "requires n >= 0"),
    ("multijackson", dict(n=2, z=(0.5, 0.6, 0.7)), "requires n = 2 variables z, got 3"),
    ("weyldegree", dict(n=1, mu=(1, 1)), "requires at most n = 1 parts"),
    ("multilateralfinite", dict(n=1, lam=(2, 1)), "requires at most n = 1 parts"),
    ("simplifiedjackson", dict(n=0), "requires n >= 1"),
    ("multijackson", dict(n=1, z=(0.5,), lam=(2, 1)), "requires at most n = 1 parts"),
    ("simplifiedjackson", dict(n=1, lam=(2, 1)), "requires at most n = 1 parts"),
    ("duality", dict(n=1, lam=(2, 1)), "requires at most n = 1 parts"),
    ("duality", dict(n=2, nu=(1, 1, 1)), "requires at most n = 2 parts"),
    ("multilateral3psi3", dict(n=0), "requires n >= 1"),
    ("summandinvariance", dict(n=-1), "requires n >= 0"),
    ("flip", dict(xs=()), "requires n >= 1"),
    ("flip", dict(xs=(0.5, 0.6), lam=(2, 1, 1)), "requires at most n = 2 parts"),
    ("bilateralfinite", dict(delta=2), "requires delta = 0 or 1, got delta = 2"),
    ("multilateral3psi3", dict(delta=2), "requires delta = 0 or 1, got delta = 2"),
    ("multilateralfinite", dict(delta=2), "requires delta = 0 or 1, got delta = 2"),
    ("multilateralfinite", dict(delta=-1), "requires delta = 0 or 1, got delta = -1"),
    ("bilateralfinite", dict(n=-1), "requires n >= 0, got n = -1"),
    ("summandinvariance", dict(sign=0), "requires sign = 1 or -1, got sign = 0"),
    ("weyldegree", dict(n=0), "weyldegree requires n >= 1, got n = 0"),
    ("duality", dict(n=0), "duality requires n >= 1, got n = 0"),
    ("flippedsummand", dict(k=-1), "requires k >= 0, got k = -1"),
    ("summandinvariance", dict(sign=2), "requires sign = 1 or -1, got sign = 2"),
    ("multijackson", dict(n=0), "multijackson requires n >= 1, got n = 0"),
    ("multilateralfinite", dict(n=0), "multilateralfinite requires n >= 1, got n = 0"),
    # n = None: the rank is checked before the partitions measured against
    # it (it used to escape as a bare TypeError from len(v) > n).
    ("multijackson", dict(n=None), "multijackson requires n to be an integer, got None"),
    ("weyldegree", dict(n=None), "weyldegree requires n to be an integer, got None"),
    ("simplifiedjackson", dict(n=None), "requires n to be an integer, got None"),
    ("duality", dict(n=None), "duality requires n to be an integer, got None"),
    ("multilateralfinite", dict(n=None), "requires n to be an integer, got None"),
    # delta < 0: the sides of the degree formula differ there (see below).
    ("weyldegree", dict(delta=-1), "requires delta >= 0, got delta = -1"),
])
def test_out_of_domain_parameters_are_error_reports(case_id, change, message):
    # Each parameter is checked in run_case against the domain of its schema
    # kind.  Unchecked, these used to be a fail with an empty message (or, at a
    # delta that mlat_norm does not cover, with rel 0.2-1.1), a pass on a
    # truncated partition or with 0 = 0 on both sides, a vanishing-factor
    # error, or an uncaught IndexError/ValueError.
    r = run_case(case_id, {**sample_params(case_id, 0), **change})
    assert (r.case_id, r.status) == (case_id, "error")
    assert r.message.startswith("DomainError: ") and message in r.message


@pytest.mark.parametrize("mu", [(2,), (3, 1)])
def test_weyldegree_below_delta_zero_is_an_error_report(mu):
    # At delta < 0 both sides cancel the exact zeros 1 - q^0 of the Delta rows,
    # each by its own convention, and the two differ: these draws failed at
    # rel 1.41 and 1.34.  An exact grid found delta >= 0 exact everywhere.
    r = run_case("weyldegree", dict(mu=mu, N=1, n=2, s=0.31 + 0.07j, delta=-1, q=0.37))
    assert r.status == "error"
    assert r.message == "DomainError: weyldegree requires delta >= 0, got delta = -1"


def test_the_rank_is_checked_once(monkeypatch):
    # The rank is checked first, as n; the schema loop skips its "rank"
    # kind instead of checking it a second time.
    calls = []
    original = identities._check_int

    def recorded(case_id, name, kind, v):
        calls.append((name, kind))
        return original(case_id, name, kind, v)

    monkeypatch.setattr(identities, "_check_int", recorded)
    r = run_case("multijackson", sample_params("multijackson", 0))
    assert r.status == "pass"
    assert calls[0] == ("n", "rank")
    assert [c for c in calls if c[1] == "rank"] == [("n", "rank")]


def test_long_raw_values_are_named_by_an_excerpt():
    # A too-long partition, a non-int integer parameter and a non-finite
    # scalar each name the raw value by errors.excerpt: a 100,000-part mu
    # was echoed whole, a 300,058-character message.
    base = sample_params("weyldegree", 0)
    mu, big_n, q = (1,) * 100000, [7] * 1000, "0.5" * 1000
    for change, tail in ((dict(mu=mu, n=1), f"at most n = 1 parts, got {excerpt(mu)}"),
                         (dict(N=big_n), f"N to be an integer, got {excerpt(big_n)}"),
                         (dict(q=q), f"q to be a finite number, got {excerpt(q)}")):
        r = run_case("weyldegree", {**base, **change})
        assert r.status == "error" and len(r.message) < 200, change.keys()
        assert r.message.endswith(tail)


#: Values that no scalar parameter or vector entry admits: NaN, infinities
#: and a string (one that complex() would parse).
_NOT_FINITE = [float("nan"), float("inf"), float("-inf"), complex(0.5, float("inf")),
               mpmath.mpf("nan"), "0.5"]


def _substitutions(case_id, values):
    """(name, value, params) for each of values put in turn in every scalar,
    every tagged parameter and every vector entry of case_id's seed-0 draw:
    value is the one put in, params the draw with it."""
    base = sample_params(case_id, 0)
    slots = [(name, None) for name, kind in CASES[case_id].schema.items()
             if kind in ("scalar", "tagged")]
    slots += [(name, i) for name, kind in CASES[case_id].schema.items()
              if kind == "vector" for i in range(len(base[name]))]
    assert slots
    for name, i in slots:
        for v in values:
            put = v if i is None else base[name][:i] + (v,) + base[name][i + 1:]
            yield name, v, {**base, name: put}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_non_finite_scalars_are_error_reports(case_id):
    # Each in turn for every scalar and every vector entry of the case.
    # Unchecked, sigma = NaN passed bilateralfinite with NaN sides, and q = inf
    # escaped run_case as a ValueError from ramanujan1psi1's series.
    for name, bad, params in _substitutions(case_id, _NOT_FINITE):
        r = run_case(case_id, params)
        assert (r.case_id, r.status) == (case_id, "error")
        assert r.message == (f"DomainError: {case_id} requires {name} to be a "
                             f"finite number, got {bad!r}")


def test_q_power_tags_outside_tagged_parameters_are_error_reports():
    # Only the tagged parameters (bailey6psi6's a-e, ramanujan1psi1's a, b)
    # resolve a q-power tag.  Unchecked, a tag anywhere else escaped run_case
    # as a TypeError, e.g. bailey10phi9 with q = {"qpow": 1}.
    tagged = 0
    for case_id in sorted(CASES):
        schema = CASES[case_id].schema
        for name, tag, params in _substitutions(case_id, [QPower(1)]):
            r = run_case(case_id, params)
            assert r.case_id == case_id, (case_id, name)
            if schema[name] == "tagged":
                tagged += 1
                continue
            assert r.status == "error", (case_id, name)
            assert r.message == (f"DomainError: {case_id} requires {name} to be a "
                                 f"finite number, got {tag!r}")
    assert tagged == 7


def test_finite_edge_values_never_judge_a_non_finite_side():
    # Finite inputs that overflow or underflow a side: judge refuses a NaN or
    # an infinity (NonFiniteSide).  Without that, 6 bilateralfinite draws
    # passed on a NaN side (unilateral NaN at sigma = 1e300, product NaN at
    # 1e-300) and 47 reports of other cases failed on a NaN side, e.g.
    # jackson8phi7 a = 1e300 and multijackson z = 1e-300.
    start = time.perf_counter()
    judged = errors = 0
    for case_id in sorted(CASES):
        for name, v, params in _substitutions(case_id, [1e-300, 1e300, 1.5, 1j, -1.0]):
            r = run_case(case_id, params)
            assert isinstance(r, identities.IdentityReport), (case_id, name, v)
            if r.status == "error":
                errors += 1
                continue
            judged += 1
            assert cmath.isfinite(r.lhs) and cmath.isfinite(r.rhs), (case_id, name, v)
            assert math.isfinite(r.rel_residual), (case_id, name, v)
    assert judged and errors
    assert time.perf_counter() - start < 2.0


def test_judge_takes_the_worst_pair_of_three_sides():
    rep = identities.judge((1.0, 1.0, 1.5), 1e-9, 7, message="m", e=2)
    assert (rep.lhs, rep.rhs, rep.abs_residual) == (1, 1, 0.0)
    assert rep.rel_residual == 0.5 / 1.5 and rep.status == "fail"
    assert (rep.terms_used, rep.message, rep.params) == (7, "m", {"e": 2})
    # Below BOTH_ZERO_EPS on every side the worst absolute difference decides.
    tiny = identities.BOTH_ZERO_EPS / 10
    assert identities.judge((tiny, 0.0), 1e-9).status == "pass"
    assert identities.judge((tiny, 0.0, 1.0), 1e-9).status == "fail"
    for bad in (float("nan"), complex(1, float("inf")), mpmath.mpf("inf")):
        with pytest.raises(NonFiniteSide, match="side 3 of 3 is "):
            identities.judge((1.0, 1.0, bad), 1e-9)
    # A zero count goes with a value: equal values with unequal counts fail.
    rep = identities.judge(((1, 2.0), (1, 2.0)), 1e-9)
    assert (rep.lhs, rep.status) == (2, "pass")
    rep = identities.judge(((1, 2.0), (0, 2.0)), 1e-9, message="m")
    assert (rep.rel_residual, rep.status, rep.message) == (0.0, "fail", "m (mismatch)")


def _complex_rule(sides):
    """abs_residual and rel_residual as judge took them before it measured
    in the sides' own arithmetic: each side rounded with complex() first."""
    values = [complex(s[1] if isinstance(s, tuple) else s) for s in sides]
    absr, relr = [], 0.0
    for i, u in enumerate(values):
        for v in values[:i]:
            absr.append(abs(v - u))
            relr = max(relr, absr[-1] / max(abs(v), abs(u), 1e-300))
    return absr[0], relr


_PART = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-13, 1.0, 1e300]),
                  st.floats(min_value=-1e300, max_value=1e300))
_DOUBLE_SIDE = st.one_of(_PART, st.builds(complex, _PART, _PART))


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOUBLE_SIDE, min_size=2, max_size=3))
def test_judge_residuals_of_double_sides_are_the_complex_rule(sides):
    # On float and complex sides, taking the residuals in the sides' own
    # arithmetic changes no bit of them.
    rep = identities.judge(sides, 1e-9)
    assert (repr(rep.abs_residual), repr(rep.rel_residual)) == \
        tuple(map(repr, _complex_rule(sides)))


def test_judge_measures_mpmath_sides_at_their_precision():
    ctx = mp_context(50)
    a = ctx.mpc("0.3", "-0.7")
    b = a * (1 + ctx.mpf("1e-45"))
    assert _complex_rule((a, b)) == (0.0, 0.0)
    rep = identities.judge((a, b), 1e-40)
    assert rel(rep.rel_residual, 1e-45) < 1e-6
    assert rel(rep.abs_residual, 1e-45 * abs(complex(a))) < 1e-6
    assert (rep.lhs, rep.rhs, rep.status) == (complex(a), complex(b), "pass")
    assert type(rep.abs_residual) is float and type(rep.rel_residual) is float
    assert identities.judge((a, b), 1e-46).status == "fail"
    # A (count, value) pair of mpmath values: the same residual, and equal
    # values with unequal counts still fail.
    rep = identities.judge(((1, a), (1, b)), 1e-40)
    assert rel(rep.rel_residual, 1e-45) < 1e-6 and rep.status == "pass"
    rep = identities.judge(((1, a), (0, a)), 1e-40)
    assert (rep.rel_residual, rep.status, rep.message) == (0.0, "fail", " (mismatch)")


def test_judge_measures_a_mixed_pair_at_the_mpmath_sides_precision():
    # A double side against a 40-digit side: the difference is the double's
    # own rounding error, in either order; complex() of both sides is equal.
    ctx = mp_context(40)
    third = ctx.mpf(1) / 3
    error = float(abs(third - 1 / 3) / third)
    assert _complex_rule((1 / 3, third)) == (0.0, 0.0) and 1e-17 < error < 1e-16
    for sides in ((1 / 3, third), (third, 1 / 3)):
        rep = identities.judge(sides, 1e-15)
        assert rep.rel_residual == error and rep.status == "pass"
        assert rep.lhs == rep.rhs == 1 / 3
    assert identities.judge((1 / 3, third), 1e-17).status == "fail"


def test_judge_keeps_both_zero_and_non_finite_rules_on_mpmath_sides():
    ctx = mp_context(50)
    tiny = ctx.mpf(identities.BOTH_ZERO_EPS) / 10
    rep = identities.judge((tiny, ctx.mpf(0)), 1e-9)
    assert rep.rel_residual == 1.0 and rep.status == "pass"
    assert identities.judge((tiny, 0.0, ctx.mpf(1)), 1e-9).status == "fail"
    # complex() of the side decides what is finite: 1e400 is finite to mpmath.
    for bad in (ctx.mpf("1e400"), ctx.mpc(1, "-1e400"), ctx.mpf("nan")):
        with pytest.raises(NonFiniteSide, match="side 2 of 2 is "):
            identities.judge((ctx.mpf(1), bad), 1e-9)


def test_bilateral_finite_nan_side_is_an_error_report():
    # The unilateral sum overflows to NaN at sigma = 1e300 while the bilateral
    # and product sides agree; the three-way max() check passed it.
    p = {**sample_params("bilateralfinite", 0), "sigma": 1e300}
    r = run_case("bilateralfinite", p)
    assert r.status == "error" and r.message.startswith("NonFiniteSide: side 3 of 3 is ")


def test_multilateral_finite_exterior_check_is_a_no_convergence_error():
    # At q = i the summand at (2, 2), outside the finite window, is 1, not 0:
    # the window sum is not the identity's sum.  W's keys in q are wrong where
    # q^4 = 1, so the principal W point refuses |q| = 1 before any sum (the
    # exterior check reported it before; keyed without the gate, it passed).
    # The error report has null sides (NaN), not the finite sides that the
    # check once kept.
    p = {**sample_params("multilateralfinite", 0), "q": 1j}
    r = run_case("multilateralfinite", p)
    assert r.status == "error"
    assert r.message == "DomainError: principal W point needs |q| clear of 1, got q = 1j"
    assert cmath.isnan(r.lhs) and cmath.isnan(r.rhs) and math.isnan(r.rel_residual)
    # At s = 1e-300 three exterior summands are NaN, which `>= 1e-12` let
    # through: the run failed on finite sides that the check had not vouched for.
    r = run_case("multilateralfinite", {**sample_params("multilateralfinite", 0), "s": 1e-300})
    assert r.status == "error"
    assert r.message == "NoConvergence: nonvanishing summand outside window at (1, 1): |nan|"


def test_summand_invariance_zero_count_mismatch_fails(monkeypatch):
    # Equal regular values with unequal structural zero counts are not the
    # same summand: judge fails the pair.
    calls = iter([(1, 0.5 + 0j), (0, 0.5 + 0j)])
    monkeypatch.setattr(identities, "flipped_summand_structured",
                        lambda *args, **kwargs: next(calls))
    r = run_case("summandinvariance", sample_params("summandinvariance", 0))
    assert (r.status, r.rel_residual) == ("fail", 0.0)
    assert r.message == "structural zero multiplicity 1 vs 0 (mismatch)"


@pytest.mark.parametrize("case_id, change", [
    ("duality", dict(lam=(1, 2))),
    ("duality", dict(nu=(0, 1))),
    ("flip", dict(lam=(1, 2), xs=(0.5, 0.6))),
    ("multilateralfinite", dict(lam=(1, 2), n=2)),
    ("weyldegree", dict(mu=(-1,))),
])
def test_non_partition_parameters_are_error_reports(case_id, change):
    # Checked in run_case for every "partition"-kind parameter: duality used
    # to fail on these, flip to pass with 0 = 0, multilateralfinite to stop
    # at its out-of-window check, and weyldegree to pass.
    r = run_case(case_id, {**sample_params(case_id, 0), **change})
    assert r.status == "error"
    assert r.message.startswith("NotAPartition: ")


#: (case, parameter, value of the wrong type, error class of its report)
_WRONG_TYPES = [
    ("jackson8phi7", "n", 2.5, "DomainError"),
    ("multilateral3psi3", "n", 1.0, "DomainError"),
    ("jackson8phi7", "n", True, "DomainError"),
    ("bilateralfinite", "delta", True, "DomainError"),
    ("weyldegree", "N", 1.5, "DomainError"),
    ("multijackson", "lam", (1.5,), "NotAPartition"),
    ("weyldegree", "mu", (True,), "NotAPartition"),
    ("jackson8phi7", "b", True, "DomainError"),
    ("flip", "xs", (0.5, True), "DomainError"),
]


@pytest.mark.parametrize("case_id, name, value, error", _WRONG_TYPES,
                         ids=[f"{c}-{n}={v!r}" for c, n, v, _ in _WRONG_TYPES])
def test_parameters_of_the_wrong_type_are_error_reports(case_id, name, value, error):
    # An integer kind admits only an int, a partition only int parts, and a
    # scalar no bool.  Unchecked, n = 2.5 and n = 1.0 escaped run_case as a
    # TypeError, N = 1.5 was a fail, lam = (1.5,) passed as (1,), and each
    # bool passed and was reported as true.
    r = run_case(case_id, {**sample_params(case_id, 0), name: value})
    assert (r.case_id, r.status) == (case_id, "error")
    assert r.message.startswith(f"{error}: ")


def _with(case_id, **change):
    return lambda: run_case(case_id, {**sample_params(case_id, 0), **change})


_WP = WParams(0.3, 0.0, 0.4, 0.5, 0.6)
#: (id, call, its value that is not a sequence, error class)
_NOT_SEQUENCES = [
    ("flip-xs=0.5", _with("flip", xs=0.5), 0.5, "DomainError"),
    ("flip-lam=5", _with("flip", lam=5), 5, "NotAPartition"),
    ("weyldegree-mu=None", _with("weyldegree", mu=None), None, "NotAPartition"),
    ("multijackson-z=0.3", _with("multijackson", z=0.3), 0.3, "DomainError"),
    ("w_multi-lam=5", lambda: w_multi((0.7, 0.4), 5, (), _WP), 5, "NotAPartition"),
    ("w_skew_single-lam=None", lambda: w_skew_single(0.7, None, (), _WP), None,
     "NotAPartition"),
]


@pytest.mark.parametrize("call, value, error", [c[1:] for c in _NOT_SEQUENCES],
                         ids=[c[0] for c in _NOT_SEQUENCES])
def test_parameters_that_are_not_sequences_are_refused(call, value, error):
    # A partition or vector that tuple() cannot take used to escape run_case,
    # and the W entry points, as a TypeError from len() or tuple().
    try:
        message = call().message
    except QidentError as exc:
        message = f"{type(exc).__name__}: {exc}"
    assert message.startswith(f"{error}: ") and excerpt(value) in message, message


def test_a_vector_given_as_an_iterator_gives_the_report_of_its_tuple():
    # flip reads its rank from its vector: an iterator was read twice, once
    # for the rank and once, empty, as the vector ("n = 2 variables xs, got 0").
    params = sample_params("flip", 0)
    got = run_case("flip", {**params, "xs": iter(params["xs"])})
    assert repr(got) == repr(run_case("flip", {**params, "xs": tuple(params["xs"])}))


def test_weyl_degree_pole_draw_is_a_pole_cancellation_error():
    # At s = 1 (n = 2, N = 1, delta = 0, mu = (1,), q = 0.3) the recursive W
    # meets a b-pole that cancels only across the branching sum: zw_multi
    # raises, and the report carries that error, not a value at a perturbed b.
    q = 0.3
    wp = WParams(q, 0.0, q, 1.0, q)
    with pytest.raises(PoleCancellationError):
        zw_multi([q**2, q], (1, 0), wp)
    r = run_case("weyldegree", dict(mu=(1,), N=1, n=2, s=1.0, delta=0, q=q))
    assert r.status == "error" and cmath.isnan(r.rhs)
    assert r.message.startswith("PoleCancellationError: ")


def _s_power_sweep(case_id):
    """Outcome counts of case_id's draws at seeds 0-39 with s replaced by
    each of 1, q, q^2, 1/q, q^-2 (an error counts by its type); no run may
    fail.  Also returns the least |lhs| of a pass and the seed-2, s = 1
    report."""
    statuses, least, example = collections.Counter(), math.inf, None
    for seed in range(40):
        p = sample_params(case_id, seed)
        q = p["q"]
        for s in (1.0, q, q**2, 1 / q, q**-2):
            r = run_case(case_id, {**p, "s": s})
            assert r.status != "fail", (seed, s, r.rel_residual)
            statuses[r.message.split(":")[0] if r.status == "error" else r.status] += 1
            if r.status == "pass":
                least = min(least, abs(r.lhs))
            if (seed, s) == (2, 1.0):
                example = r
    return statuses, least, example


def test_weyl_degree_at_s_a_power_of_q_never_fails():
    # s in {1, q, q^2, 1/q, q^-2} puts poles into one side or both; W's
    # ledgers are keyed in (s, q) at every s.  Each draw passes or ends as an
    # error report (PoleCancellationError from W, ZeroDivisionError from the
    # closed form); none turns a pole into a finite value that the verdict
    # then blames on the identity.
    statuses, _, _ = _s_power_sweep("weyldegree")
    assert statuses == {"pass": 136, "PoleCancellationError": 25, "ZeroDivisionError": 39}


def test_multilateral_finite_at_s_a_power_of_q_never_fails():
    # The same sweep.  Matching ledger arguments by value, 38 of these draws
    # failed (relative residual 0.0087-0.78): two vanishing arguments of
    # distinct monomials, equal in value, cancelled as 1.  Keyed, a numerator
    # value 1 of nonzero key is a zero and a denominator one a pole, so those
    # 38 are pole errors; seed 2 at s = 1 (n = 1, lam = (), delta = 1)
    # reported rhs 1.398 against lhs 1.  Every pass has a side of size.
    start = time.perf_counter()
    statuses, least, example = _s_power_sweep("multilateralfinite")
    assert statuses == {"pass": 97, "PoleCancellationError": 69, "ZeroDivisionError": 34}
    assert least >= 0.19
    assert example.status == "error"
    assert example.message.startswith("PoleCancellationError: ")
    assert time.perf_counter() - start < 3.0


#: Outcome counts of the power-of-q sweep, per case (see the test below).
_POWER_OF_Q_SWEEP = {
    "jackson8phi7": {"pass": 544, "fail": 3, "DivisionByVanishingFactor": 53},
    "bailey10phi9": {"pass": 868, "fail": 2, "DivisionByVanishingFactor": 30},
    "bailey6psi6": {"pass": 391, "fail": 26, "DivisionByVanishingFactor": 6,
                    "DomainError": 327},
    "ramanujan1psi1": {"pass": 150, "DivisionByVanishingFactor": 10, "DomainError": 290},
    "flippedsummand": {"pass": 582, "NonFiniteSide": 9, "OverflowError": 9},
    "bilateralfinite": {"pass": 306, "fail": 3, "DivisionByVanishingFactor": 51,
                        "ZeroDivisionError": 90},
    "3psi3delta0": {"pass": 270, "DomainError": 180},
    "3psi3delta1": {"pass": 270, "DivisionByVanishingFactor": 82, "DomainError": 98},
    "multijackson": {"pass": 573, "fail": 4, "DomainError": 57,
                     "PoleCancellationError": 55, "ZeroDivisionError": 61},
    "simplifiedjackson": {"pass": 685, "fail": 11, "DomainError": 57,
                          "PoleCancellationError": 47, "ZeroDivisionError": 100},
    "duality": {"pass": 475, "PoleCancellationError": 105, "ZeroDivisionError": 20},
    "flip": {"pass": 550, "fail": 2, "DomainError": 42, "PoleCancellationError": 6},
    "weyldegree": {"pass": 103, "PoleCancellationError": 18, "ZeroDivisionError": 29},
    "multilateralfinite": {"pass": 312, "DivisionByVanishingFactor": 51,
                           "PoleCancellationError": 53, "ZeroDivisionError": 34},
    "multilateral3psi3": {"pass": 281, "DivisionByVanishingFactor": 60,
                          "DomainError": 109},
    "summandinvariance": {"pass": 450},
}


def test_power_of_q_sweep_outcomes():
    """Every case but c1macdonald, at seeds 0-29, with each scalar or tagged
    parameter other than q set to the untagged value q^k, k = -2..2: 9,000
    runs in double mode.  An error counts by its type.

    The counts are pinned, fails and untyped errors included (ROADMAP item
    13): they move only with a CHANGES.md entry that says which runs moved
    and why."""
    got = {}
    for case_id, case in CASES.items():
        if case_id == "c1macdonald":
            continue
        statuses = collections.Counter()
        for seed in range(30):
            p = sample_params(case_id, seed)
            q = p["q"]
            for name, kind in case.schema.items():
                if kind not in ("scalar", "tagged") or name == "q":
                    continue
                for k in range(-2, 3):
                    r = run_case(case_id, {**p, name: q**k})
                    statuses[r.message.split(":")[0] if r.status == "error"
                             else r.status] += 1
        got[case_id] = dict(statuses)
    assert got == _POWER_OF_Q_SWEEP
    assert sum(sum(c.values()) for c in got.values()) == 9000


# ---------------------------------------------------------------------------
# multilateral finite identity
# ---------------------------------------------------------------------------

_MLAT_FINITE_RANK2 = dict(lam=(2, 1), n=2, x=1.37 + 0.2j, s=0.45 + 0.1j, a=0.7 - 0.2j,
                          q=0.3, delta=0)


def test_multilateral_finite_empty_partition():
    r = run_case("multilateralfinite", dict(_MLAT_FINITE_RANK2, lam=()))
    assert r.status == "pass"
    assert r.rel_residual <= 1e-7


def test_multilateral_finite_rank1_reduction():
    # at n = 1 the identity is the rank-1 three-way finite bilateral check
    # under sigma = q^{delta+1}/(a s), rho = 1/x, gamma = a x, n = lam_1
    q, x, s, a = 0.3, 1.37 + 0.2j, 0.45 + 0.1j, 0.7 - 0.2j
    for delta in (0, 1):
        for m in (0, 1, 2, 3):
            lam = (m,) if m else ()
            r_ml = run_case("multilateralfinite",
                            dict(lam=lam, n=1, x=x, s=s, a=a, q=q, delta=delta))
            sig, rho, gam = q ** (delta + 1) / (a * s), 1 / x, a * x
            r_bf = run_case("bilateralfinite",
                            dict(sigma=sig, rho=rho, gamma=gam, q=q, n=m, delta=delta))
            assert r_ml.status == "pass" and r_bf.status == "pass"
            assert rel(r_ml.lhs, r_bf.rhs) < 1e-9


def test_multilateral_finite_seeded_rank2():
    for delta in (0, 1):
        r = run_case("multilateralfinite", dict(_MLAT_FINITE_RANK2, delta=delta))
        assert r.status == "pass"
        assert r.rel_residual <= 1e-7


def test_multilateral_finite_window_over_budget_is_an_error_report():
    # lam = (60, 60, 60), n = 3 is schema-valid and has a 2,196,480-point
    # window; it is refused before any summand is evaluated.
    p = dict(sample_params("multilateralfinite", 0), lam=(60, 60, 60), n=3)
    t0 = time.perf_counter()
    rep = run_case("multilateralfinite", p)
    assert time.perf_counter() - t0 < 1.0
    assert rep.status == "error"
    assert rep.message == ("NoConvergence: multilateral finite window: 2196480 "
                           "points exceed the lattice budget 200000")


def test_multilateral_finite_shared_memo_is_bit_identical():
    # The window sum (one memo shared by every summand: W parameters,
    # pair-ratio tables and W values) against mlat_finite_summand point by
    # point, each point with a fresh memo of its own.
    draws = [sample_params("multilateralfinite", seed) for seed in range(16)]
    draws += [dict(_MLAT_FINITE_RANK2, delta=delta) for delta in (0, 1)]
    for p in draws:
        rep = run_case("multilateralfinite", p)
        assert rep.status == "pass", rep.message
        args = (p["n"], p["delta"], p["q"], p["s"], p["a"], p["x"])
        upper, lower = identities.mlat_finite_window(p["lam"], p["n"], p["delta"])
        total = 0.0 + 0j
        for mu in itertools.product(*map(range, lower, (hi + 1 for hi in upper))):
            total += mlat_finite_summand(mu, p["lam"], *args)
        assert repr(mlat_norm(p["n"], p["delta"], p["q"]) * total) == repr(rep.rhs)


def test_multilateral_finite_tabulates_once_per_sum(monkeypatch):
    # Over the window sum and the exterior check together: mlat_finite_summand
    # runs once per window point plus once per exterior point, _principal_w
    # once per evaluation, and pair_poch_ratio at most once per coordinate,
    # order and pair (the summands share one memo).
    calls = {"pairs": [], "principal": 0, "summand": 0}
    pair_poch_ratio, principal_w = identities.pair_poch_ratio, identities._principal_w
    summand = identities.mlat_finite_summand

    def counted_pairs(*args):
        calls["pairs"].append(args)
        return pair_poch_ratio(*args)

    def counted_principal(*args):
        calls["principal"] += 1
        return principal_w(*args)

    def counted_summand(*args):
        calls["summand"] += 1
        return summand(*args)

    monkeypatch.setattr(identities, "pair_poch_ratio", counted_pairs)
    monkeypatch.setattr(identities, "_principal_w", counted_principal)
    monkeypatch.setattr(identities, "mlat_finite_summand", counted_summand)
    for p in [dict(_MLAT_FINITE_RANK2, delta=0), sample_params("multilateralfinite", 3)]:
        calls.update(pairs=[], principal=0, summand=0)
        assert run_case("multilateralfinite", p).status == "pass"
        assert calls["principal"] == 1
        upper, lower = identities.mlat_finite_window(p["lam"], p["n"], p["delta"])
        assert calls["summand"] == math.prod(hi - lo + 1 for lo, hi in zip(lower, upper)) + 5
        assert len(calls["pairs"]) == len(set(calls["pairs"])) > 0


@pytest.mark.parametrize("delta", [0, 1])
def test_multilateral_finite_vanishing_pair_factor_is_an_error_report(delta):
    # x = q^{lower_2 - 1}: coordinate 2's reciprocal factor (q^{-1} / x;
    # q)_{mu_2} vanishes at the window's least mu_2 only, so the first
    # dominant point raises after coordinate 1's ratios are tabulated.  The
    # lhs does not see the factor and stays finite.
    lam, q = (2, 1), 0.5
    lower2 = -lam[1] - 8 + delta
    p = dict(lam=lam, n=2, x=q ** (lower2 - 1), s=0.3 + 0.1j, a=0.6 - 0.2j, q=q,
             delta=delta)
    rep = run_case("multilateralfinite", p)
    assert rep.status == "error"
    assert rep.message == "DivisionByVanishingFactor: pair_poch_ratio: reciprocal vanishes"


# ---------------------------------------------------------------------------
# multilateral 3psi3 analogue
# ---------------------------------------------------------------------------

def test_multilateral_3psi3_rank1_reduction():
    # n = 1 reduces to the bilateral 3psi3 under the same dictionary; the
    # rank-1 case carries an extra normalization f(delta)
    q, x, s, a = 0.3, 1.37 + 0.2j, 0.45 + 0.1j, 0.7 - 0.2j
    for delta in (0, 1):
        r1 = run_case("multilateral3psi3", dict(n=1, delta=delta, x=x, s=s, a=a, q=q))
        sig, rho, gam = q ** (delta + 1) / (a * s), 1 / x, a * x
        r2 = run_case(f"3psi3delta{delta}", dict(sigma=sig, rho=rho, gamma=gam, q=q))
        assert r1.status == "pass" and r2.status == "pass"
        norm = mlat_norm(1, delta, q)
        assert rel(r1.lhs, r2.lhs / norm) < 1e-8
        assert rel(r1.rhs, r2.rhs / norm) < 1e-8


def test_multilateral_3psi3_seeded_rank2():
    for delta in (0, 1):
        r = run_case("multilateral3psi3",
                     dict(n=2, delta=delta, x=1.7, s=0.25, a=0.6, q=0.3))
        assert r.status == "pass"
        assert r.rel_residual <= 1e-6


def test_multilateral_3psi3_convergence_gate():
    r = run_case("multilateral3psi3", dict(n=2, delta=0, x=1.7, s=0.8, a=0.6, q=0.3))
    assert r.status == "error"
    assert r.message == "DomainError: multilateral 3psi3 requires |s| < 0.9 |q|^{n-1}"


def _mlat_sweep(n, delta, q, s, a, x):
    """Brute-force lattice sum: every point of each hypercube shell in
    product order, each dominant summand rebuilt by mlat_3psi3_summand (the
    others are 0), with the shell tail test, the lattice budget and the window
    cap of _mlat_3psi3_sum.  A shell that meets both a vanishing denominator
    and a vanishing reciprocal raises the one its product order reaches
    first, which can be the other error than _mlat_3psi3_sum's (its tables
    grow each coordinate's upper side first)."""
    total, nterms, covered, below = 0.0 + 0j, 0, -1, 0
    m = SHELL_STEP
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
        if abs(new) <= SERIES_TOL * max(abs(total), 1e-300):
            below += 1
            if below >= 2:
                return total, nterms, (-m, m)
        else:
            below = 0
        covered = m
        m += SHELL_STEP
        if m > SHELL_CAP:
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
    total, nterms, window = _mlat_3psi3_sum(n, delta, q, s, a, x)
    m = window[1]
    assert window == (-m, m) and nterms == (2 * m + 1) ** n
    brute, ref_terms, ref_window = _mlat_sweep(n, delta, q, s, a, x)
    assert (nterms, window) == (ref_terms, ref_window)
    assert rel(total, brute) <= 1e-13


def _shell_points(n, m, covered):
    """The dominant points that shell m adds to the cube [-covered, covered]^n
    (all of them when covered < 0), in the order the shell sum adds them:
    lexicographically descending when covered < 0; otherwise those with
    mu_1 > covered in that order, then by descending mu_n < -covered the
    others, lexicographically descending."""
    cwr = itertools.combinations_with_replacement
    if covered < 0:
        return list(cwr(range(m, -m - 1, -1), n))
    return ([(top,) + tail for top in range(m, covered, -1)
             for tail in cwr(range(top, -m - 1, -1), n - 1)]
            + [head + (low,) for low in range(-covered - 1, -m - 1, -1)
               for head in cwr(range(covered, low - 1, -1), n - 1)])


def test_dominant_shells_and_ranks_follow_the_sweep():
    for n in (1, 2, 3, 4):
        covered = -1
        for m in (4, 8, 10) if n < 4 else (4, 6):
            sweep = [mu for mu in itertools.product(range(-m, m + 1), repeat=n)
                     if max(abs(c) for c in mu) > covered]
            dominant = [mu for mu in sweep
                        if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
            points = [head + (k,) + tail
                      for head, hi, lo, tail in identities._dominant_runs(n, m, covered)
                      for k in range(hi, lo - 1, -1)]
            assert points == _shell_points(n, m, covered)
            assert sorted(points) == dominant
            covered = m


def _mlat_pointwise(n, delta, q, s, a, x):
    """_mlat_3psi3_sum's shells summed point by point, for draws that converge:
    each dominant point's summand is (1.0+0j) g_1(mu_1) ... g_n(mu_n) from the
    same tables, skipped when 0, times the Delta^2 factors over i < j (j
    outermost), added in _shell_points order."""
    factors = [qcore.PairRatioTable(s * q ** (1 - n + 2 * (i - 1)),
                                    identities._mlat_pairs(i, n, delta, q, s, a, x), q)
               for i in range(1, n + 1)]
    cross = [(i - 1, j - 1, identities._DeltaSquare(q, j - i),
              identities._DeltaSquare(q, delta + 2 * n - i - j))
             for j in range(2, n + 1) for i in range(1, j)]
    total, nterms, covered, below = 0.0 + 0j, 0, -1, 0
    m = SHELL_STEP
    while True:
        g = [f.grow(m) for f in factors]  # g_i(k) at index m - k
        deltas = [(i, j, dsq.grow(2 * m), ssq.grow(2 * m)) for i, j, dsq, ssq in cross]
        new = 0.0 + 0j
        for mu in _shell_points(n, m, covered):
            v = 1.0 + 0j
            for table, k in zip(g, mu):
                v = v * table[m - k]
            if v == 0:
                continue
            for i, j, dsq, ssq in deltas:  # index 2m - d
                v = v * dsq[2 * m - mu[i] + mu[j]] * ssq[2 * m - mu[i] - mu[j]]
            new += v
        nterms += (2 * m + 1) ** n - ((2 * covered + 1) ** n if covered >= 0 else 0)
        total += new
        below = below + 1 if abs(new) <= SERIES_TOL * max(abs(total), 1e-300) else 0
        if below >= 2:
            return total, nterms, (-m, m)
        covered = m
        m += SHELL_STEP


@pytest.mark.parametrize("n, s, q", [(1, 0.45 + 0.1j, 0.3), (2, 0.1 - 0.05j, 0.3),
                                     (2, 0.12 + 0.01j, 0.45), (3, 1e-4 + 5e-5j, 0.3),
                                     (3, 0.02 + 0.01j, 0.35)])
@pytest.mark.parametrize("delta", [0, 1])
def test_multilateral_3psi3_runs_are_bit_identical_to_the_pointwise_walk(n, s, q, delta):
    a, x = 0.7 - 0.2j, 1.37 + 0.2j
    total, nterms, window = _mlat_3psi3_sum(n, delta, q, s, a, x)
    assert window[1] > 8  # shells with covered >= 0 were summed
    ref_total, ref_terms, ref_window = _mlat_pointwise(n, delta, q, s, a, x)
    assert (repr(total), nterms, window) == (repr(ref_total), ref_terms, ref_window)


# Draws whose pair ratios meet a vanishing factor, with budgets that end in
# an earlier shell or in the shell that meets it, at ranks 1 to 3 and in both
# directions.  q = 1/2; a s = q^{-k} makes coordinate i's pair_poch_ratio
# denominator vanish from mu_i = k + i on, and x = q^k its reciprocal from
# mu_i = k + i - 1 down.
_A = 0.7 - 0.2j
_DEN = "DivisionByVanishingFactor: pair_poch_ratio: denominator vanishes"
_RECIP = "DivisionByVanishingFactor: pair_poch_ratio: reciprocal vanishes"
_BUDGET = "NoConvergence: multilateral sum: lattice budget exhausted"
_VANISHING = {
    # (args, budgets, error, points before the shell that meets it)
    # shell m = 8, after the 81 points of shell 4
    "denominator": ((2, 1, 0.5, 64 / _A, _A, 0.75 + 0.25j), range(75, 300, 6),
                    _DEN, 81),
    # shell m = 4
    "reciprocal": ((2, 1, 0.5, 0.1 + 0.05j, 0.75 - 0.5j, 4.0), (0, 1, 80, 81, 10**5),
                   _RECIP, 0),
    # shell m = 4
    "rank3": ((3, 1, 0.5, 8 / _A, _A, 0.75 + 0.25j), range(600, 740, 8), _DEN, 0),
    # shell m = 4
    "rank3-reciprocal": ((3, 1, 0.5, 0.02 + 0.01j, _A, 4.0), (0, 1, 728, 729, 10**5),
                         _RECIP, 0),
    # shell m = 8, after the 9 points of shell 4
    "rank1-denominator": ((1, 1, 0.5, 128 / _A, _A, 0.75 + 0.25j), range(1, 30, 2),
                          _DEN, 9),
    # shell m = 4
    "rank1-reciprocal": ((1, 1, 0.5, 0.1 + 0.05j, _A, 2.0), (0, 1, 8, 9, 10**5),
                         _RECIP, 0),
}


@pytest.mark.parametrize("draw", sorted(_VANISHING))
def test_multilateral_3psi3_sum_vanishing_factor_as_sweep(draw, monkeypatch):
    # The shell that meets a vanishing factor raises its error before the
    # shell's budget; a budget that ends in an earlier shell is exhausted.
    # At the real budget the error is the one a product-order sweep meets.
    args, budgets, error, before = _VANISHING[draw]
    for budget in budgets:
        monkeypatch.setattr(identities, "MAX_LATTICE_TERMS", budget)
        got = _sum_outcome(_mlat_3psi3_sum, *args)
        assert got == (_BUDGET if budget < before else error), budget
    monkeypatch.undo()
    assert _sum_outcome(_mlat_3psi3_sum, *args) == _sum_outcome(_mlat_sweep, *args) == error


def test_multilateral_3psi3_shell_with_both_vanishing_factors_names_the_denominator():
    # a s = q^{-3}: the denominator vanishes from mu = 4 up, and the reciprocal
    # from mu = -4 down, both in shell m = 4.  The sum grows the upper side
    # first (PairRatioTable) and names the denominator; the product-order
    # sweep reaches mu = -4 first and names the reciprocal.
    args = (1, 0, 0.5, 8 / _A, _A, 0.75 + 0.25j)
    assert _sum_outcome(_mlat_3psi3_sum, *args) == _DEN
    assert _sum_outcome(_mlat_sweep, *args) == _RECIP


def test_multilateral_3psi3_vanishing_factor_is_an_error_report():
    # x = q^{-2}: coordinate 1's reciprocal factor vanishes from mu_1 = -2
    # down, while the product side stays finite
    params = dict(n=2, delta=1, x=4.0, s=0.1 + 0.05j, a=0.75 - 0.5j, q=0.5)
    rep = run_case("multilateral3psi3", params)
    assert rep.status == "error"
    assert rep.message == _RECIP


def test_multilateral_3psi3_product_side_vanishing_denominator_is_typed():
    # a s = 8 = q^{-3}: the product side's (a s; q)_inf is exactly 0, and the
    # division by it raises where it is met, not as a bare ZeroDivisionError.
    params = dict(n=1, delta=0, q=0.5, s=0.8, a=10.0, x=0.75 + 0.25j)
    rep = run_case("multilateral3psi3", params)
    assert rep.status == "error"
    assert rep.message == ("DivisionByVanishingFactor: "
                           "multilateral product side: denominator vanishes")


def test_multilateral_3psi3_budget_exhausted_as_sweep(monkeypatch):
    # A rank-3 draw that exhausts the real budget (at m = 32), and smaller
    # budgets that end in the first and second shells.
    args = (3, 1, 0.3, 0.03, 0.6 - 0.2j, 1.37 + 0.2j)
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

_INVARIANCE = dict(sigma=0.4 + 0.1j, rho=0.7 - 0.2j, gamma=0.3, q=0.35)


def test_summand_invariance_identity_map_exact():
    r = run_case("summandinvariance", dict(_INVARIANCE, n=4, delta=0, k=2, sign=1))
    assert r.status == "pass"
    assert r.abs_residual == 0.0


def test_summand_invariance_seeded_examples():
    r = run_case("summandinvariance", dict(_INVARIANCE, n=5, delta=0, k=3, sign=-1))
    assert r.status == "pass" and r.rel_residual <= 1e-9
    r = run_case("summandinvariance", dict(_INVARIANCE, n=5, delta=1, k=2, sign=-1))
    assert r.status == "pass" and r.rel_residual <= 1e-9


def test_summand_invariance_split_products_once_per_evaluation(monkeypatch):
    # Observed at the memo itself: under run_case's memo each split product
    # is stored once and read back as the same value (the sign = 1
    # evaluation repeats all of them), each stored value is the kernel's
    # fresh one, computed once, and the products share one plan.  Outside
    # run_case (the verifier called directly) there is no memo: every product
    # of both evaluations computes afresh.
    recorded = _RecordedThetaMemo()
    monkeypatch.setattr(identities, "THETA_MEMO", recorded)
    calls = []
    original = qcore._inf_split_product

    def counting(a, q, plan):
        calls.append(a)
        return original(a, q, plan)

    monkeypatch.setattr(qcore, "_inf_split_product", counting)
    params = dict(_INVARIANCE, n=4, delta=0, k=2, sign=1)
    fresh = verify_summand_invariance(**params, tol=1e-9)
    assert recorded.memos == [] and qcore.THETA_MEMO.get() is None
    assert len(calls) == 56
    calls.clear()
    memo = run_case("summandinvariance", params)
    (stored,) = recorded.memos
    splits = [key for key in stored.stored if key[0] == "split"]
    assert 0 < len(splits) == len(set(splits)) <= 28
    assert len(calls) == len(set(calls)) == len(splits)
    assert {key for key in stored.read if key[0] == "split"} == set(splits)
    q = params["q"]
    assert [key for key in stored.stored if key[0] != "split"] == [("plan", q, type(q))]
    plan = qcore._plan(q, None)
    for key in splits:
        assert repr(stored[key]) == repr(qcore._inf_split_product(key[1], q, plan))
    assert repr(memo) == repr(dataclasses.replace(
        fresh, case_id="summandinvariance", params=dict(params, tol=1e-9)))


def _split_multiplied_out(a, q):
    """(zeros, value) of the split product with every factor multiplied out
    to |a q^k| < PRODUCT_TOL, the reference for the summed Euler tail."""
    zeros, r, x = 0, 1.0 + 0j, a
    while abs(x) >= PRODUCT_TOL:
        f = 1 - x
        if abs(f) < qcore.STRUCT_ZERO_TOL:
            zeros += 1
        else:
            r = r * f
        x = x * q
    return zeros, r


def test_split_product_zero_counts_unchanged_by_the_euler_tail(monkeypatch):
    # Every split product of summandinvariance seeds 0-59 counts the zeros
    # that the multiplied-out product counts, and its regular value agrees.
    original = qcore._inf_split_product
    counted = []

    def checked(a, q, plan):
        zeros, value = original(a, q, plan)
        old_zeros, old_value = _split_multiplied_out(a, q)
        assert zeros == old_zeros and rel(value, old_value) < 1e-13
        counted.append(zeros)
        return zeros, value

    monkeypatch.setattr(qcore, "_inf_split_product", checked)
    for seed in range(60):
        assert run_case("summandinvariance",
                        sample_params("summandinvariance", seed)).status == "pass"
    assert len(counted) > 1000 and sum(counted) > 100


def test_split_product_refuses_q_outside_the_unit_disk():
    # The split product refused |q| >= 1 only when its factor budget ran
    # out, as NoConvergence; it is the DomainError poch_inf gives.
    # flippedsummand evaluates its terminating term first, which at q = -1
    # divides by zero.
    domain = "DomainError: poch_inf requires |q| < 1"
    for case_id, q, message in (
            ("flippedsummand", 1.5, domain), ("flippedsummand", -1.2, domain),
            ("flippedsummand", -1, "ZeroDivisionError: complex division by zero"),
            ("summandinvariance", 1.5, domain), ("summandinvariance", -1, domain),
            ("summandinvariance", -1.2, domain)):
        rep = run_case(case_id, {**sample_params(case_id, 0), "q": q})
        assert (rep.status, rep.message) == ("error", message), (case_id, q)


def test_summand_invariance_overflow_is_an_error_report():
    # q^k overflows at these k; the OverflowError escaped run_case.
    for k in (300, 400, -400):
        rep = run_case("summandinvariance",
                       dict(sample_params("summandinvariance", 1), k=k))
        assert rep.status == "error"
        assert rep.message.startswith("OverflowError")


# ---------------------------------------------------------------------------
# registry plumbing
# ---------------------------------------------------------------------------

def test_registry_has_all_cases():
    assert len(CASES) == 17
    for case_id, case in CASES.items():
        assert case.case_id == case_id
        assert case.schema and case.default_tol > 0


def test_run_case_names_every_report():
    # run_case is the one place that gives a report its identity: case_id is
    # the registry key, and params are the checked arguments, tol and a
    # verifier's report-only extras (jackson8phi7's derived e, the delta a
    # 3psi3 case id fixes).  No verifier repeats the tol of its registration.
    extras = {"jackson8phi7": {"e"}, "3psi3delta0": {"delta"}, "3psi3delta1": {"delta"}}
    for case_id, case in CASES.items():
        signature = inspect.signature(case.verifier)
        assert signature.parameters["tol"].default is inspect.Parameter.empty, case_id
        for seed in range(5):
            rep = run_case(case_id, sample_params(case_id, seed))
            assert rep.case_id == case_id
            assert set(rep.params) == set(case.schema) | {"tol"} | extras.get(case_id, set())
            assert rep.params["tol"] == case.default_tol
    for delta in (0, 1):
        case_id = f"3psi3delta{delta}"
        assert run_case(case_id, sample_params(case_id, 0)).params["delta"] == delta


def test_sampled_draws_match_their_schema_and_its_domains():
    # Every draw has the schema's parameters and passes run_case's domain
    # check, and every seed finds an admissible draw.
    refused = []
    for case_id, case in CASES.items():
        for seed in range(200):
            try:
                params = sample_params(case_id, seed)
            except DomainError:
                refused.append((case_id, seed))
                continue
            assert list(params) == list(case.schema), (case_id, seed)
            identities._verifier_args(case_id, case.schema, params)
    assert refused == []


@pytest.mark.parametrize("seed", [56, 104, 272, 478])
def test_3psi3_delta0_sampler_finds_its_rare_admissible_draws(seed):
    # At these seeds q is about 0.47-0.48 and only about 0.4% of the
    # (sigma, rho, gamma) draws pass the gate: the first admissible one comes
    # at draw 533-1414, beyond the old budget of 500.
    rep = run_case("3psi3delta0", sample_params("3psi3delta0", seed))
    assert rep.status == "pass", rep.message


def test_every_case_passes_on_sampled_draws():
    for case_id in CASES:
        for seed in (0, 1):
            rep = run_case(case_id, sample_params(case_id, seed))
            assert rep.status == "pass", (case_id, seed, rep.message)
