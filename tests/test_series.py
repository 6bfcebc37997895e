"""Series evaluator tests: unilateral and bilateral."""

import math
import random

import mpmath
import pytest

import qident.identities as identities
import qident.series as series
from qident.errors import DomainError, NoConvergence
from qident.identities import run_case, sample_params
from qident.policy import QPower
from qident.qcore import csqrt, poch_inf, poch_int, poch_multi_inf
from qident.series import TAIL_TOL, SeriesSpec, eval_phi, eval_psi

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
    # window runs past k = -231, where r (-k) log10(1/q) > 300 (r = 1) and
    # the factors take their deep-tail form q^{-k} - v.
    a, b, x, q = 0.9, 0.729, 0.9, 0.05
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    assert -sv.window[0] * math.log10(1 / q) > 300
    closed = poch_multi_inf([q, b / a, a * x, q / (a * x)], q) \
        / poch_multi_inf([b, q / a, x, b / (a * x)], q)
    assert rel(sv.value, closed) < 1e-10


@pytest.mark.parametrize("q, e", [(0.01, 0.4 + 0.01j), (0.005, 0.4 + 0.01j),
                                  (0.01, 0.38), (0.01, 0.5)])
def test_psi_6psi6_deep_lower_tail_does_not_overflow(q, e):
    # r = 6 factors of size |q^k| overflow a float from about 308/6 decades
    # of |q^k| on; the lower side reaches k = -24 (q = 0.005) to -52, 2.0 to
    # 2.3 decades each, so its products must take the deep-tail form there.
    r = run_case("bailey6psi6", dict(a=0.9, b=0.35 + 0.01j, c=0.35 - 0.02j,
                                     d=0.35 + 0.03j, e=e, q=q))
    assert r.status == "pass" and r.rel_residual < 1e-14, r.message
    k_dn = int(r.message.split("window=(")[1].split(",")[0])
    assert 6 * -k_dn * math.log10(1 / q) > 300


def test_psi_non_finite_term_raises():
    # |x| = 1e200: the upper side's second term overflows to inf, and the
    # sum ends at the check after its first WINDOW_STEP terms instead of
    # running on to MAX_TERMS.
    spec = SeriesSpec(numerator=[0.7], denominator=[0.3], argument=1e200, q=0.5)
    with pytest.raises(NoConvergence, match="non-finite term at k = 4"):
        eval_psi(spec)


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


@pytest.mark.parametrize("case_id, seed, name, k", [
    ("3psi3delta1", 0, "rho", 1),
    ("bailey6psi6", 12, "a", 2),
])
def test_psi_untagged_vanishing_denominator_does_not_hide_a_pole(case_id, seed, name, k):
    # The parameter is set to the plain value q^k.  On the lower side a
    # denominator factor vanishes at k = -1, and a numerator factor at the
    # same index (3psi3delta1) or the next (bailey6psi6, where the term at -1
    # is about 1e-16 of its neighbour, not 0).  The denominator zero is not a
    # cut, so the side reaches the numerator pole, which raises.
    p = sample_params(case_id, seed)
    r = run_case(case_id, {**p, name: p["q"] ** k})
    assert r.status == "error"
    assert r.message == "DivisionByVanishingFactor: bilateral series: numerator pole"


@pytest.mark.parametrize("seed", range(3))
def test_psi_untagged_power_of_q_is_not_a_cut(seed):
    # a = q^-2 untagged: the numerator factor (1 - a q^2) is 0 or about
    # 1e-17, not a cut, so the upper side sums past k = 2 to an exactly-zero
    # term or to its tail bound, and the value stays that of the tagged run.
    p = sample_params("ramanujan1psi1", seed)
    untagged = run_case("ramanujan1psi1", {**p, "a": p["q"] ** -2})
    tagged = run_case("ramanujan1psi1", {**p, "a": QPower(-2)})
    assert untagged.status == tagged.status == "pass"
    assert tagged.message.endswith(", 2)")
    assert not untagged.message.endswith(", 2)")
    assert rel(untagged.lhs, tagged.lhs) <= 3e-16


def test_psi_window_stability(monkeypatch):
    # a 1e-3x tighter TAIL_TOL converges on a wider window on both sides, and
    # the value it adds is within the bounds the two sides had stopped at,
    # each at most TAIL_TOL relative
    a, b, x, q = 0.9, 0.2, 0.5, 0.3
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    monkeypatch.setattr(series, "TAIL_TOL", 1e-3 * TAIL_TOL)
    wide = eval_psi(spec)
    assert wide.window[0] < sv.window[0] and wide.window[1] > sv.window[1]
    assert abs(wide.value - sv.value) <= 2 * TAIL_TOL * abs(sv.value)


def _psi_side_tail(spec, k_stop, up):
    """|sum of the terms of one side of a bilateral spec beyond index k_stop|,
    by a 30-digit mpmath long sum of the term ratios, run on until a term is
    below 1e-17 of |t_{k_stop}| (every later ratio is below the stop's
    rho < 1, so the rest is below 1e-17 of the stop's bound)."""
    with mpmath.workdps(30):
        q, x = mpmath.mpmathify(spec.q), mpmath.mpmathify(spec.argument)
        nums = [mpmath.mpmathify(v) for v in spec.numerator]
        dens = [mpmath.mpmathify(v) for v in spec.denominator]
        # qk is q^k on the upper side and q^(k-1) on the lower side
        t, k, qk = mpmath.mpf(1), 0, mpmath.mpf(1)

        def ratio():  # t_{k+1} / t_k at the qk given
            r = x
            for v in nums:
                r *= 1 - v * qk
            for v in dens:
                r /= 1 - v * qk
            return r

        def step():
            nonlocal t, k, qk
            if up:
                t, k, qk = t * ratio(), k + 1, qk * q
            else:
                qk = qk / q
                t, k = t / ratio(), k - 1

        while k != k_stop:
            step()
        t_stop, tail = abs(t), 0
        while abs(t) >= 1e-17 * t_stop:
            step()
            tail += t
        return abs(tail)


@pytest.mark.parametrize("case_id", ["ramanujan1psi1", "bailey6psi6", "3psi3delta0",
                                     "3psi3delta1"])
def test_psi_side_tails_within_their_stop_bounds(case_id, monkeypatch):
    # 50 draws per case: each side of the bilateral sum ends at its tail
    # bound |t| rho / (1 - rho) <= TAIL_TOL |total|, and the tail it drops,
    # summed at 30 digits far beyond the window, never exceeds that bound
    # (1e-9 relative slack for the rounding of the double |t|).
    specs, stops = [], {}
    psi, side_ends = series.eval_psi, series._side_ends

    def record_spec(spec):
        specs.append(spec)
        return psi(spec)

    def record_stop(t, k, tol, limit, ratio):
        ended = side_ends(t, k, tol, limit, ratio)
        if ended:
            rho = ratio(k)
            stops[ratio.__name__] = (k, float(abs(t)) * rho / (1 - rho), tol)
        return ended

    monkeypatch.setattr(identities, "eval_psi", record_spec)
    monkeypatch.setattr(series, "_side_ends", record_stop)
    for seed in range(50):
        specs.clear()
        stops.clear()
        assert run_case(case_id, sample_params(case_id, seed)).status == "pass"
        assert len(specs) == 1 and sorted(stops) == ["dn_ratio", "up_ratio"]
        for name, (k, bound, tol) in stops.items():
            tail = _psi_side_tail(specs[0], k, name == "up_ratio")
            assert 0 < bound <= tol
            assert tail <= bound * (1 + 1e-9), (seed, name, k, tail, bound)


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

