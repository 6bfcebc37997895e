"""Series evaluator tests: unilateral and bilateral."""

import cmath
import math
import random

import mpmath
import pytest

import qident.identities as identities
import qident.series as series
from qident.errors import DivisionByVanishingFactor, DomainError, NoConvergence
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
    # side's terms shrink by only 0.9 a step, but its ratio bound nears that
    # limit ratio by a factor q = 0.05 a step, so the closed tail
    # t r / (1 - r) ends it at k = -12 (a tail bound alone ran it past
    # k = -231, into the deep-tail form of the factors).
    a, b, x, q = 0.9, 0.729, 0.9, 0.05
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    assert sv.window[0] == -12
    closed = poch_multi_inf([q, b / a, a * x, q / (a * x)], q) \
        / poch_multi_inf([b, q / a, x, b / (a * x)], q)
    assert rel(sv.value, closed) < 1e-10


@pytest.mark.parametrize("a, x, q", [(0.9, 0.9, 0.3), (0.8 + 0.3j, 0.7 - 0.2j, 0.4)])
def test_psi_lower_limit_ratio_near_one_closes_its_tail(a, x, q):
    # b / (a x) = 0.9999: a tail bound needs about 4e5 lower terms (past
    # MAX_TERMS, NoConvergence); the closed tail needs fewer than 200 terms in
    # all, as the lower ratio bound nears 0.9999 by a factor q a step.
    b = 0.9999 * a * x
    sv = eval_psi(SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q))
    assert sv.terms_used <= 200
    closed = poch_multi_inf([q, b / a, a * x, q / (a * x)], q) \
        / poch_multi_inf([b, q / a, x, b / (a * x)], q)
    assert rel(sv.value, closed) < 1e-10


def _bailey_6psi6_product(a, b, c, d, e, q):
    """The product side of Bailey's 6psi6 sum at 30 digits."""
    ctx = identities.mp_context(30)
    a, b, c, d, e, q = map(ctx.mpmathify, (a, b, c, d, e, q))
    aq = a * q
    num = [aq, aq / (b * c), aq / (b * d), aq / (b * e), aq / (c * d), aq / (c * e),
           aq / (d * e), q, q / a]
    den = [aq / b, aq / c, aq / d, aq / e, q / b, q / c, q / d, q / e, q * a * a / (b * c * d * e)]
    return ctx.fprod(ctx.qp(v, q) for v in num) / ctx.fprod(ctx.qp(v, q) for v in den)


@pytest.mark.parametrize("q, a, e, be", [(0.005, 0.8 + 0.1j, 4e-53, 0.8),
                                         (0.01, 0.8 + 0.1j, 3e-56, 0.8),
                                         (0.02, 0.7 - 0.2j, 1e-55, 0.8),
                                         (0.05, 0.8 + 0.1j, 1e-53, 0.5)])
def test_psi_6psi6_deep_lower_tail_does_not_overflow(q, a, e, be):
    # r = 6 factors of size |q^k| overflow a float from about 308/6 decades
    # of |q^k| on.  The numerator parameter e is below |q|^j there, so the
    # lower side's ratio bound stays infinite and the closed tail cannot end
    # it before it reaches k = -28 (q = 0.005) to -48, 2.3 to 1.3 decades
    # each: its products must take the deep-tail form there.  b = be / e
    # keeps x = q a^2 / (bcde) small; b and q/e are then so large that the
    # product side overflows a float, so it is taken at 30 digits.
    c, d, b = 0.6, 0.7, be / e
    sa = csqrt(a)
    spec = SeriesSpec(numerator=[q * sa, -q * sa, b, c, d, e],
                      denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e],
                      argument=q * a * a / (b * c * d * e), q=q)
    sv = eval_psi(spec)
    assert rel(sv.value, complex(_bailey_6psi6_product(a, b, c, d, e, q))) < 1e-14
    assert 6 * -sv.window[0] * math.log10(1 / q) > 300


def test_psi_deep_lower_tail_pole_test_is_scaled():
    # a = 1e-302 and b = 8.1e-303 keep the lower side's ratio bound infinite
    # until |q|^j is below them, so it runs to k = -244, past the deep index
    # 300 / log10(20) = 230.  There the numerator product is taken as
    # q^{-k} - a, q^{-k}'s scale included; the pole test compared that
    # scaled product with VANISH_TOL and raised a numerator pole, although
    # 1 - a q^k is near 1.  The product side is taken at 30 digits, factor
    # by factor: mpmath's qp does not converge at q/a = 5e300.
    a, b, x, q = 1e-302, 8.1e-303, 0.9, 0.05
    sv = eval_psi(SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q))
    assert -sv.window[0] * math.log10(1 / q) > 300
    ctx = identities.mp_context(30)
    a, b, x, q = map(ctx.mpmathify, (a, b, x, q))

    def qp(z):  # (z; q)_oo, to the first factor within 1e-40 of 1
        return ctx.fprod(1 - z * q**k for k in range(
            1 + max(0, int(ctx.log10(abs(z) * 1e40) / -ctx.log10(q)))))

    closed = ctx.fprod(map(qp, (q, b / a, a * x, q / (a * x)))) \
        / ctx.fprod(map(qp, (b, q / a, x, b / (a * x))))
    assert abs(closed - 9.5332804297e11) < 1e2
    assert rel(sv.value, complex(closed)) < 1e-13


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
    # term or to its closed tail, and the value stays that of the tagged run.
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


def _psi_side_sums(spec, k_stop, up, until):
    """(t, terms, tail) on one side of a bilateral spec whose values carry a
    30-digit mpmath context: the term t at index k_stop, the sum of the side's
    terms from index +-1 to k_stop, and the sum of those beyond k_stop, by a
    long sum of the term ratios run on until a term is at most until.  Every
    later ratio is below the stop's rho < 1, so the tail left out is at most
    until rho / (1 - rho)."""
    q, x = spec.q, spec.argument
    # qk is q^k on the upper side and q^(k-1) on the lower side
    t, k, qk = 1, 0, 1

    def ratio():  # t_{k+1} / t_k at the qk given
        r = x
        for v in spec.numerator:
            r *= 1 - v * qk
        for v in spec.denominator:
            r /= 1 - v * qk
        return r

    def step():
        nonlocal t, k, qk
        if up:
            t, k, qk = t * ratio(), k + 1, qk * q
        else:
            qk = qk / q
            t, k = t / ratio(), k - 1

    terms = 0
    while k != k_stop:
        step()
        terms += t
    t_stop, tail = t, 0
    while abs(t) > until:
        step()
        tail += t
    return t_stop, terms, tail


@pytest.mark.parametrize("case_id", ["ramanujan1psi1", "bailey6psi6", "3psi3delta0",
                                     "3psi3delta1"])
def test_psi_side_tails_within_their_stop_bounds(case_id, monkeypatch):
    # 50 draws per case, summed at 30 digits: each side of the bilateral sum
    # ends with its closed tail t r / (1 - r), r its limit ratio, once the
    # bound |t| (rho / (1 - rho) - |r| / (1 - |r|)) on that tail's error is
    # at most TAIL_TOL relative to the sum.  The error, against the side's
    # tail summed far beyond the window, never exceeds that bound (1e-9
    # relative slack for the float bound), and eval_psi's value is the window
    # sum plus exactly these closed tails.
    ctx = identities.mp_context(30)
    specs, stops = [], {}
    psi, side_ends = series.eval_psi, series._side_ends

    def record_spec(spec):
        specs.append(spec)
        return psi(spec)

    def record_stop(t, k, tol, limit, excess):
        ended = side_ends(t, k, tol, limit, excess)
        if ended:
            ex = excess(k)
            rho = limit + ex
            stops[excess.__name__] = (k, rho, float(abs(t)) * ex / ((1 - rho) * (1 - limit)),
                                      tol)
        return ended

    monkeypatch.setattr(identities, "eval_psi", record_spec)
    monkeypatch.setattr(series, "_side_ends", record_stop)
    for seed in range(50):
        specs.clear()
        assert run_case(case_id, sample_params(case_id, seed)).status == "pass"
        assert len(specs) == 1
        a, b = (map(ctx.mpmathify, v) for v in (specs[0].numerator, specs[0].denominator))
        spec = SeriesSpec(list(a), list(b), ctx.mpmathify(specs[0].argument),
                          ctx.mpmathify(specs[0].q))
        limits = {"up_excess": spec.argument,
                  "dn_excess": ctx.fprod(spec.denominator)
                  / (spec.argument * ctx.fprod(spec.numerator))}
        stops.clear()
        value = eval_psi(spec).value
        assert sorted(stops) == ["dn_excess", "up_excess"]
        exact = 1
        for name, (k, rho, bound, tol) in stops.items():
            assert 0 < bound <= tol
            t, terms, tail = _psi_side_sums(spec, k, name == "up_excess",
                                            1e-12 * bound * (1 - rho))
            r = limits[name]
            err = abs(tail - t * r / (1 - r))
            assert err <= bound * (1 + 1e-9), (seed, name, k, err, bound)
            value -= terms + t * r / (1 - r)
            exact += terms + tail
        assert abs(value - 1) <= 1e-25 * abs(exact), (seed, value)


def _ratio_excess(c, grow, shrink):
    """The reference for eval_psi's side-end bounds: rho - lim for
    rho = c prod(g + d) / prod(s - d) and lim = c prod(g) / prod(s), over
    the pairs (g, d) of grow and (s, d) of shrink, accumulated from the
    increments d alone; inf unless every s - d is positive."""
    lim, excess = c, 0.0
    for g, d in grow:
        lim, excess = lim * g, excess * (g + d) + lim * d
    for s, d in shrink:
        if s - d <= 0:
            return math.inf
        lim, excess = lim / s, (excess + lim * d / s) / (s - d)
    return excess


def test_psi_side_end_bounds_match_the_ratio_excess_formula(monkeypatch):
    # Seeded 1- to 4-term balanced specs, some with a denominator modulus
    # above 1 or a numerator modulus below |q|: each side's bound, taken
    # from eval_psi at indices beyond any window, equals the reference
    # formula by repr, inf included.
    rng = random.Random(47)
    side_ends, seen = series._side_ends, {}

    def capture(t, k, tol, limit, excess):
        seen[excess.__name__] = excess
        return side_ends(t, k, tol, limit, excess)

    monkeypatch.setattr(series, "_side_ends", capture)
    compared, infinite = 0, [0, 0]
    for _ in range(60):
        r = rng.randint(1, 4)
        q = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(-3, 3))
        nv = [cmath.rect(rng.choice([rng.uniform(1e-4, 0.3), rng.uniform(0.3, 2)]),
                         rng.uniform(-3, 3)) for _ in range(r)]
        dv = [cmath.rect(rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1, 4)]),
                         rng.uniform(-3, 3)) for _ in range(r)]
        x = cmath.rect(rng.uniform(0.05, 3), rng.uniform(-3, 3))
        seen.clear()
        try:
            eval_psi(SeriesSpec(nv, dv, x, q))
        except (NoConvergence, DivisionByVanishingFactor, OverflowError):
            pass
        assert sorted(seen) == ["dn_excess", "up_excess"]
        aq, ax = abs(q), abs(x)
        an, ad = [abs(v) for v in nv], [abs(v) for v in dv]
        for k in range(-40, 41):
            e = aq**k
            up = _ratio_excess(ax, [(1, a * e) for a in an], [(1, b * e) for b in ad])
            e = aq ** (1 - k)
            dn = _ratio_excess(1 / ax, [(b, e) for b in ad], [(a, e) for a in an])
            assert repr(seen["up_excess"](k)) == repr(up), (k, nv, dv, x, q)
            assert repr(seen["dn_excess"](k)) == repr(dn), (k, nv, dv, x, q)
            compared += 1
            infinite[0] += up == math.inf
            infinite[1] += dn == math.inf
    assert compared == 60 * 81 and 1000 < min(infinite) <= max(infinite) < compared - 1000


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


def test_psi_bilateral_cases_within_term_budget(monkeypatch):
    # Seeds 0-59 of the four bilateral cases sum 8,356 eval_psi terms with
    # the closed tails, and 22,168 when each side runs on until a bound on
    # its dropped tail is below TAIL_TOL.
    terms = []

    def count(spec):
        sv = series.eval_psi(spec)
        terms.append(sv.terms_used)
        return sv

    monkeypatch.setattr(identities, "eval_psi", count)
    for case_id in ("bailey6psi6", "ramanujan1psi1", "3psi3delta0", "3psi3delta1"):
        for seed in range(60):
            assert run_case(case_id, sample_params(case_id, seed)).status == "pass"
    assert len(terms) == 240
    assert sum(terms) <= 10_000
