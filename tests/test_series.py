"""Series evaluator tests: unilateral and bilateral."""

import math
import random

import mpmath
import pytest

import qident.series as series
from qident.errors import DomainError
from qident.policy import QPower
from qident.qcore import csqrt, poch_inf, poch_int, poch_multi_inf
from qident.series import SERIES_TOL, SeriesSpec, eval_phi, eval_psi

from conftest import rel


# ---------------------------------------------------------------------------
# eval_phi
# ---------------------------------------------------------------------------

def test_phi_zero_argument():
    spec = SeriesSpec(numerator=[QPower(-3), 0.5, 0.3], denominator=[0.7, 0.2],
                      argument=0.0, q=0.4)
    sv = eval_phi(spec)
    assert sv.value == 1
    assert sv.terminated and sv.terms_used == 4


def test_phi_q_binomial_theorem():
    # terminating q-binomial theorem: 1phi0(q^-n; -; q, x) = (x q^-n; q)_n
    x, q = 0.3 + 0.2j, 0.4
    for n in range(6):
        spec = SeriesSpec(numerator=[QPower(-n)], denominator=[], argument=x, q=q)
        sv = eval_phi(spec)
        assert rel(sv.value, poch_int(x * q**-n, q, n)) < 1e-12
        assert sv.terminated and sv.terms_used == n + 1


def test_phi_structural_termination_three_terms():
    q = 0.35
    a, b = QPower(-2), 0.6 + 0.2j
    spec = SeriesSpec(numerator=[a, 0.4], denominator=[b], argument=0.7, q=q)
    sv = eval_phi(spec)
    assert sv.terminated and sv.terms_used == 3
    # brute-force 3-term oracle with the (r=2, s=1) sign convention (exponent 0)
    total = 0.0 + 0j
    for k in range(3):
        total += poch_int(q**-2, q, k) * poch_int(0.4, q, k) * 0.7**k \
            / (poch_int(q, q, k) * poch_int(0.6 + 0.2j, q, k))
    assert rel(sv.value, total) < 1e-12


def test_phi_balanced_sign_factor_free_brute_force():
    # r = s + 1: the displayed sign/power factor is identically 1.
    rng = random.Random(13)
    for _ in range(10):
        q = rng.uniform(0.1, 0.5)
        n = rng.randint(0, 8)
        nums = [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
                for _ in range(3)]
        dens = [complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
                for _ in range(3)]
        x = rng.uniform(0.1, 0.6)
        spec = SeriesSpec(numerator=[QPower(-n), *nums], denominator=dens,
                          argument=x, q=q)
        sv = eval_phi(spec)
        brute = 0.0 + 0j
        for k in range(n + 1):
            term = x**k * poch_int(q**-n, q, k) / poch_int(q, q, k)
            for v in nums:
                term *= poch_int(v, q, k)
            for v in dens:
                term /= poch_int(v, q, k)
            brute += term
        assert rel(sv.value, brute) < 1e-12


def test_phi_condition_of_terminating_q_vandermonde():
    # q-Chu-Vandermonde 2phi1(q^-n, b; c; q, q) = (c/b;q)_n b^n / (c;q)_n,
    # summed by hand term by term for sum |t_k| / |sum t_k|.
    q, n, b, c = 0.6, 3, 0.5 + 0.3j, 0.2 - 0.6j
    spec = SeriesSpec(numerator=[QPower(-n), b], denominator=[c], argument=q,
                      q=q)
    sv = eval_phi(spec)
    terms = [poch_int(q**-n, q, k) * poch_int(b, q, k) * q**k
             / (poch_int(q, q, k) * poch_int(c, q, k)) for k in range(n + 1)]
    assert rel(sv.value, poch_int(c / b, q, n) * b**n / poch_int(c, q, n)) < 1e-12
    hand = sum(abs(t) for t in terms) / abs(sum(terms))
    assert hand > 2
    assert abs(sv.condition - hand) < 1e-12 * hand
    with mpmath.workdps(30):
        mq, mb, mc = mpmath.mpf(q), mpmath.mpc(b), mpmath.mpc(c)
        mspec = SeriesSpec(numerator=[QPower(-n), mb], denominator=[mc],
                           argument=mq, q=mq)
        msv = eval_phi(mspec)
    assert type(msv.condition) is float
    assert abs(msv.condition - hand) < 1e-12 * hand


def test_phi_untagged_spec_rejected():
    # Without a numerator tag q^{-n}, n >= 0, the series does not terminate;
    # it is rejected whether or not it would converge.
    for numerator in ([0.5], [QPower(2)]):
        for argument in (0.3, 1.2):
            spec = SeriesSpec(numerator=numerator, denominator=[],
                              argument=argument, q=0.4)
            with pytest.raises(DomainError, match="numerator tag"):
                eval_phi(spec)


@pytest.mark.parametrize("numerator, denominator", [
    ([QPower(-2)], [0.7]),
    ([QPower(-2), 0.5, 0.3], [0.7]),
    ([QPower(-2), 0.5], []),
])
def test_phi_unbalanced_spec_rejected(numerator, denominator):
    spec = SeriesSpec(numerator=numerator, denominator=denominator, argument=0.3,
                      q=0.4)
    with pytest.raises(DomainError, match=r"r = s \+ 1"):
        eval_phi(spec)


# ---------------------------------------------------------------------------
# eval_psi
# ---------------------------------------------------------------------------

def test_psi_lower_termination_reduces_to_phi():
    # 1psi1 with b = q: all n < 0 terms vanish, leaving 1phi0(a; -; q, x),
    # which the q-binomial theorem sums to (a x)_inf / (x)_inf.
    a, x, q = 0.6, 0.3, 0.4
    bil = SeriesSpec(numerator=[a], denominator=[QPower(1)], argument=x, q=q)
    sv_b = eval_psi(bil)
    assert rel(sv_b.value, poch_inf(a * x, q) / poch_inf(x, q)) < 1e-12
    assert sv_b.window is not None and sv_b.window[0] == 0


@pytest.mark.parametrize("numerator, denominator", [
    ([0.5, 0.4], [0.7]),
    ([0.5], [0.7, 0.2]),
    ([0.5], []),
])
def test_psi_unbalanced_spec_rejected(numerator, denominator):
    spec = SeriesSpec(numerator=numerator, denominator=denominator, argument=0.3,
                      q=0.4)
    with pytest.raises(DomainError, match="r = s"):
        eval_psi(spec)


def test_psi_ramanujan_closed_form():
    a, b, x, q = 0.9, 0.2, 0.5, 0.3
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    closed = poch_multi_inf([q, b / a, a * x, q / (a * x)], q) \
        / poch_multi_inf([b, q / a, x, b / (a * x)], q)
    assert rel(sv.value, closed) < 1e-10


def test_psi_deep_lower_tail_matches_closed_form():
    # Small q and a lower-side term ratio b / (a x) = 0.9 near 1: the lower
    # window runs past k = -77, where (-k) log10(1/q) > 100 and the factors
    # take their deep-tail form q^{-k} - v.
    a, b, x, q = 0.9, 0.729, 0.9, 0.05
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    assert -sv.window[0] * math.log10(1 / q) > 100
    closed = poch_multi_inf([q, b / a, a * x, q / (a * x)], q) \
        / poch_multi_inf([b, q / a, x, b / (a * x)], q)
    assert rel(sv.value, closed) < 1e-10


def test_psi_structural_two_sided_window():
    # numerator tag q^{-2} cuts above at 2; denominator tag q^{3} cuts below
    # at 1 - 3 = -2: support exactly [-2, 2].
    q = 0.35
    spec = SeriesSpec(numerator=[QPower(-2), 0.4], denominator=[QPower(3), 0.7],
                      argument=0.5, q=q)
    sv = eval_psi(spec)
    assert sv.terminated is True
    assert sv.window == (-2, 2)
    assert sv.terms_used == 5


def test_psi_window_stability(monkeypatch):
    # a tighter SERIES_TOL converges on a wider window, and the value it adds
    # is < 10 * SERIES_TOL relative
    a, b, x, q = 0.9, 0.2, 0.5, 0.3
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    monkeypatch.setattr(series, "SERIES_TOL", 1e-3 * SERIES_TOL)
    wide = eval_psi(spec)
    assert wide.window[0] < sv.window[0] and wide.window[1] > sv.window[1]
    assert rel(sv.value, wide.value) < 10 * SERIES_TOL


def test_psi_6psi6_within_term_budget(monkeypatch):
    # very-well-poised 6psi6 draws with |q a^2/(bcde)| <= 0.5 converge within
    # MAX_TERMS = 400
    rng = random.Random(29)
    monkeypatch.setattr(series, "MAX_TERMS", 400)
    for _ in range(10):
        q = rng.uniform(0.1, 0.5)
        a = rng.uniform(0.5, 0.9)
        b, c, d, e = (rng.uniform(0.55, 0.9) for _ in range(4))
        x = q * a * a / (b * c * d * e)
        if abs(x) > 0.5:
            continue
        sa = csqrt(a)
        spec = SeriesSpec(
            numerator=[q * sa, -q * sa, b, c, d, e],
            denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e],
            argument=x, q=q)
        sv = eval_psi(spec)
        assert sv.terms_used <= 400

