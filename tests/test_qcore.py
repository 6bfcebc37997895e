"""Scalar q-Pochhammer / theta kernel tests."""

import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qident.qcore as qcore
from qident.errors import DivisionByVanishingFactor, DomainError
from qident.policy import TruncationPolicy
from qident.qcore import (
    THETA_MEMO,
    epoch,
    pair_poch_ratio,
    poch_inf,
    poch_int,
    poch_multi,
    theta,
)

from conftest import rel


# ---------------------------------------------------------------------------
# poch_int
# ---------------------------------------------------------------------------

def test_poch_int_two_factor_product():
    assert abs(poch_int(0.5, 0.25, 2) - 0.4375) < 1e-15


def test_poch_int_empty_product():
    assert poch_int(0.7 + 0.3j, 0.9, 0) == 1


def test_poch_int_terminating_zero():
    q = 0.3
    assert abs(poch_int(q ** (-2), q, 3)) < 1e-14


def test_poch_int_negative_index():
    # 1/(a q^{-1}; q)_1 = 1/(1 - 0.5/0.25) = -1
    assert abs(poch_int(0.5, 0.25, -1) - (-1.0)) < 1e-15


def test_poch_int_negative_index_vanishing_factor():
    # a = q gives the factor (1 - a q^{-1}) = 0
    with pytest.raises(DivisionByVanishingFactor):
        poch_int(0.25, 0.25, -1)


def test_poch_int_splitting_property():
    rng = random.Random(11)
    for _ in range(100):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = rng.uniform(0.05, 0.6)
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        lhs = poch_int(a, q, m + n)
        rhs = poch_int(a, q, m) * poch_int(a * q**m, q, n)
        assert rel(lhs, rhs) < 1e-13


def test_poch_int_small_a_limit():
    # a^k (x/a; q)_k -> (-1)^k x^k q^{k(k-1)/2} as a -> 0
    rng = random.Random(9)
    for _ in range(20):
        x = complex(rng.uniform(0.4, 1), rng.uniform(-0.5, 0.5))
        q = rng.uniform(0.4, 0.6)
        k = rng.randint(1, 3)
        a = 1e-8
        approx = a**k * poch_int(x / a, q, k)
        assert rel(approx, (-1) ** k * x**k * q ** (k * (k - 1) // 2)) < 1e-6


def test_poch_int_single_factor_small_a():
    a = 1e-10
    assert rel(a * poch_int(0.3 / a, 0.5, 1), -0.3) < 1e-6


# ---------------------------------------------------------------------------
# poch_inf
# ---------------------------------------------------------------------------

def test_poch_inf_zero_argument():
    assert poch_inf(0.0, 0.5) == 1


def test_poch_inf_half_half():
    # Independent truncated-product oracle at tolerance 1e-15.
    oracle = 1.0
    a, q = 0.5, 0.5
    x = a
    while abs(x) > 1e-17:
        oracle *= 1 - x
        x *= q
    assert abs(poch_inf(0.5, 0.5) - oracle) < 1e-14
    assert abs(poch_inf(0.5, 0.5) - 0.288788095) < 1e-9


def test_poch_inf_vanishing_factor():
    # second factor 1 - 2*0.5 = 0
    assert poch_inf(2.0, 0.5) == 0


def test_poch_inf_domain_error():
    with pytest.raises(DomainError):
        poch_inf(0.5, 1.1)


def test_poch_inf_max_factors_stability():
    base = TruncationPolicy()
    doubled = TruncationPolicy(max_factors=2 * base.max_factors)
    rng = random.Random(5)
    for _ in range(20):
        a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        q = rng.uniform(0.1, 0.6)
        assert abs(poch_inf(a, q, base) - poch_inf(a, q, doubled)) \
            < base.product_tol * 10


# ---------------------------------------------------------------------------
# poch_multi
# ---------------------------------------------------------------------------

def test_poch_multi_empty():
    assert poch_multi([], 0.5, 3) == 1


def test_poch_multi_product():
    assert abs(poch_multi([0.5, 0.25], 0.25, 1) - 0.375) < 1e-15


def test_poch_multi_terminating_entry():
    q = 0.4
    assert abs(poch_multi([1 / q, 0.9], q, 2)) < 1e-14


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_p_zero():
    assert abs(theta(0.3, 0.0) - 0.7) < 1e-15


def test_theta_vanishes_at_one():
    assert abs(theta(1.0, 0.2)) < 1e-14


def test_theta_inversion_example():
    assert rel(theta(0.2, 0.1), theta(0.5, 0.1)) < 1e-12


def test_theta_zero_argument_rejected():
    with pytest.raises(DomainError):
        theta(0.0, 0.1)


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
    p=st.floats(0.01, 0.5),
)
@example(re=0.99999, im=0.0, p=0.4375)
def test_theta_inversion_property(re, im, p):
    x = complex(re, im)
    if abs(x) < 1e-3:
        return
    # Next to a zero x = p^k of theta both sides lose digits to cancellation
    # in 1 - x p^-k: the bound 1e-12 + 16 eps / d, d the distance to that
    # zero, is taken times d, so that at a zero itself (d = 0) it reads 0 < 16 eps.
    d = min(abs(1 - x / p**k) for k in range(-1, 40))
    assert rel(theta(x, p), theta(p / x, p)) * d < 1e-12 * d + 16 * sys.float_info.epsilon


def test_theta_memo_returns_the_kernel_value_once_per_key(monkeypatch):
    calls = []

    def counting(a, q, policy):
        calls.append(a)
        return poch_inf(a, q, policy)

    monkeypatch.setattr(qcore, "poch_inf", counting)
    x, p = 0.4 + 0.3j, 0.1
    fresh = theta(x, p)
    assert len(calls) == 2 and THETA_MEMO.get() is None
    token = THETA_MEMO.set({})
    try:
        assert repr(theta(x, p)) == repr(fresh) and len(calls) == 4
        assert repr(theta(x, p)) == repr(fresh) and len(calls) == 4
        # Another policy, or an mpmath argument of equal value, is another key.
        theta(x, p, TruncationPolicy(product_tol=1e-12))
        theta(mpmath.mpc(x), p)
        assert len(calls) == 8
        # p = 0 never reaches the memo.
        assert theta(x, 0.0) == 1 - x
        assert len(THETA_MEMO.get()) == 3
    finally:
        THETA_MEMO.reset(token)
    assert THETA_MEMO.get() is None
    theta(x, p)
    assert len(calls) == 10


# ---------------------------------------------------------------------------
# epoch (elliptic shifted factorial)
# ---------------------------------------------------------------------------

def test_epoch_zero_length():
    assert epoch(0.6, 0.3, 0.1, 0) == 1


def test_epoch_p_zero_matches_poch_int():
    assert abs(epoch(0.5, 0.25, 0.0, 2) - 0.4375) < 1e-15


def test_epoch_negative_order_rejected():
    with pytest.raises(DomainError, match="requires n >= 0"):
        epoch(0.5, 0.25, 0.1, -1)


def test_epoch_p0_property():
    rng = random.Random(3)
    for _ in range(100):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = rng.uniform(0.05, 0.6)
        n = rng.randint(0, 6)
        assert rel(epoch(a, q, 0.0, n), poch_int(a, q, n)) < 1e-13


# ---------------------------------------------------------------------------
# pair_poch_ratio
# ---------------------------------------------------------------------------

def test_pair_poch_ratio_matches_direct_quotient():
    rng = random.Random(21)
    for _ in range(50):
        anum = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        aden = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5))
        q = rng.uniform(0.1, 0.6)
        m = rng.randint(-6, 6)
        try:
            direct = poch_int(anum, q, m) / poch_int(aden, q, m)
        except DivisionByVanishingFactor:
            continue
        assert rel(pair_poch_ratio(anum, aden, q, m), direct) < 1e-12
