"""Scalar q-Pochhammer / theta kernel tests."""

import cmath
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qident.qcore as qcore
from qident.errors import DivisionByVanishingFactor, DomainError, NoConvergence
from qident.identities import mp_context, sample_params
from qident.policy import QPower
from qident.qcore import (
    PRODUCT_TOL,
    THETA_MEMO,
    csqrt,
    epoch,
    factor_product,
    pair_poch_ratio,
    poch_inf,
    poch_int,
    poch_multi,
    tail_radius,
    theta,
    units,
)
from qident.series import WINDOW_STEP, SeriesSpec, eval_phi, eval_psi

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
    # second factor 1 - 2*0.5 = 0; at a = 8 the fourth, 1 - 8*0.5^3.  Both lie
    # above the Euler tail, which has no zero.
    assert poch_inf(2.0, 0.5) == 0
    assert poch_inf(8.0, 0.5) == 0
    assert poch_inf(8.0 + 0j, 0.5 + 0j) == 0


def test_poch_inf_domain_error():
    with pytest.raises(DomainError):
        poch_inf(0.5, 1.1)


def test_poch_inf_max_factors_stability(monkeypatch):
    rng = random.Random(5)
    draws = [(complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)),
              rng.uniform(0.1, 0.6)) for _ in range(20)]
    base = [poch_inf(a, q) for a, q in draws]
    monkeypatch.setattr(qcore, "MAX_FACTORS", 2 * qcore.MAX_FACTORS)
    for (a, q), v in zip(draws, base):
        assert abs(v - poch_inf(a, q)) < PRODUCT_TOL * 10


def _multiplied_out(a, q):
    """(a;q)_inf with every factor multiplied out to |a q^k| < PRODUCT_TOL,
    the reference for the summed Euler tail."""
    r, x = 1.0 + 0j, a
    while abs(x) >= PRODUCT_TOL:
        r, x = r * (1 - x), x * q
        if r == 0:
            break
    return r


# Per q, the number of a drawn: mpmath.qp takes about 0.1 s an argument at
# q = 0.97, and 1e-3 s at q = 0.1.
_TAIL_SWEEP = [(0.1, 64), (0.3, 64), (0.6, 64), (0.9, 32), (0.97, 16),
               (0.5 * cmath.exp(1j), 64), (0.9 * cmath.exp(2j), 32)]


@pytest.mark.parametrize("q, count", _TAIL_SWEEP)
def test_poch_inf_euler_tail_against_mpmath(q, count):
    # |a| in [0.01, 3], log-uniform, at any phase; errors relative to
    # mpmath.qp at 30 digits.  The summed tail is no less accurate than the
    # multiplied-out product, up to a factor 2.
    rng = random.Random(17)
    worst_tail = worst_product = 0.0
    with mpmath.workdps(30):
        for _ in range(count):
            a = cmath.rect(10 ** rng.uniform(-2, 0.4772), rng.uniform(-3.1416, 3.1416))
            ref = mpmath.qp(mpmath.mpc(a), mpmath.mpc(q))
            worst_tail = max(worst_tail, float(abs(poch_inf(a, q) - ref) / abs(ref)))
            worst_product = max(worst_product,
                                float(abs(_multiplied_out(a, q) - ref) / abs(ref)))
    assert worst_tail <= 2 * worst_product, (worst_tail, worst_product)


def test_tail_radius_shrinks_with_one_minus_abs_q():
    # A fixed radius 1/4 lost 4 digits at q = 0.97; the condition bound
    # (-rho;|q|)_inf / (rho;|q|)_inf stays near 2 when rho ~ (1 - |q|) ln 2 / 2
    # (2.02 at most, near |q| = 0.3).
    assert tail_radius(0.1) == tail_radius(0.1j) == 0.25
    assert tail_radius(0.97) < 0.02
    for q in (0.1, 0.3, 0.5, 0.9, 0.97):
        rho = tail_radius(q)
        assert 1.7 < mpmath.qp(-rho, q) / mpmath.qp(rho, q) < 2.05


def test_poch_inf_nan_argument_is_no_convergence(monkeypatch):
    monkeypatch.setattr(qcore, "MAX_FACTORS", 50)
    for a, q in ((float("nan"), 0.5), (complex(0.1, float("nan")), 0.5),
                 (0.3, complex(float("nan"), 0.1))):
        with pytest.raises(NoConvergence):
            poch_inf(a, q)


def test_poch_inf_stays_in_mpmath_arithmetic():
    a, q = mpmath.mpc(0.3, 0.2), mpmath.mpf(0.6)
    v = poch_inf(a, q)
    assert isinstance(v, mpmath.mpc)
    with mpmath.workdps(30):
        assert abs(v - mpmath.qp(a, q)) < 1e-16


def test_poch_inf_memo_changes_no_value():
    # Coefficients read back from the memo give the values computed afresh,
    # bit for bit, in either arithmetic.
    rng = random.Random(9)
    args = [(cmath.rect(rng.uniform(0.01, 3), rng.uniform(-3, 3)), q)
            for q in (0.2, 0.45 + 0.3j, 0.93) for _ in range(20)]
    args += [(mpmath.mpc(a), mpmath.mpc(q)) for a, q in args[:5]]
    fresh = [repr(poch_inf(a, q)) for a, q in args]
    token = THETA_MEMO.set({})
    try:
        for _ in range(2):
            assert [repr(poch_inf(a, q)) for a, q in args] == fresh
    finally:
        THETA_MEMO.reset(token)


def _units_before_plan(x):
    """qcore.units as the two-poch_inf kernels used it, reading nothing of
    the tail plan."""
    ctx = getattr(x, "context", None)
    return (1, 1.0 + 0j) if ctx is None else (ctx.mpc(1), ctx.mpc(1))


def _poch_inf_before_plan(a, q):
    """poch_inf before the tail plan: the radius and the units per call, a
    float radius in every comparison, and Euler's coefficients built afresh
    for each tail."""
    if abs(q) >= 1:
        raise DomainError("poch_inf requires |q| < 1")
    rho = min(0.25, (1 - float(abs(q))) * 0.34657359027997264)
    one, r = _units_before_plan(q)
    x = a
    for _ in range(qcore.MAX_FACTORS):
        if abs(x) <= rho:
            coeffs, c = [], one
            for n in range(qcore.MAX_FACTORS):
                if abs(c) * rho**n < PRODUCT_TOL:
                    break
                coeffs.append(c)
                c = -c * q**n / (one - q ** (n + 1))
            s = 0
            for c in coeffs[::-1]:
                s = s * x + c
            return r * s
        r = r * (one - x)
        if not r:
            return r
        x = x * q
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def _theta_before_plan(x, p):
    """theta as two poch_inf products, before the tail plan."""
    if not x:
        raise DomainError("theta requires x != 0")
    if not p:
        return _units_before_plan(x)[0] - x
    if abs(p) >= 1:
        raise DomainError("theta requires |p| < 1")
    return _poch_inf_before_plan(x, p) * _poch_inf_before_plan(p / x, p)


def _kernel_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def _plan_arguments():
    """(x or a, p or q) pairs: seeded complex doubles, their real parts, the
    same in a 50-digit mpmath context, and the domain edges x = 0, p = 0
    and |p| >= 1 (the x = 0 error first)."""
    rng = random.Random(40)
    pairs = [(cmath.rect(rng.uniform(0.01, 3), rng.uniform(-3, 3)),
              cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-3, 3))) for _ in range(40)]
    pairs += [(x.real, p.real) for x, p in pairs[:20]]
    ctx = mp_context(50)
    pairs += [(ctx.mpc(x), ctx.mpc(p)) for x, p in pairs[:10]]
    pairs += [(ctx.mpf(x), ctx.mpf(p)) for x, p in pairs[40:45]]
    for x in (0.3 - 0.2j, 0.0, 0j, ctx.mpc(0)):
        pairs += [(x, p) for p in (0.0, 0.2, 1.0, -1.5j, ctx.mpf(1), ctx.mpf(0))]
    return pairs


def test_theta_and_poch_inf_on_the_tail_plan_match_the_two_product_formula():
    # The tail plan changes no value, sign of zero or error: theta and
    # poch_inf equal the formula before it by repr, outside a memo and
    # inside one (twice: built, then read back), and theta still raises its
    # x = 0 error before its |p| >= 1 error.
    pairs = _plan_arguments()
    expected = [(_kernel_outcome(_theta_before_plan, x, p),
                 _kernel_outcome(_poch_inf_before_plan, x, p)) for x, p in pairs]
    assert [e[0] for e in expected].count("DomainError: theta requires x != 0") == 18
    assert [e[0] for e in expected].count("DomainError: theta requires |p| < 1") == 3
    got = [(_kernel_outcome(theta, x, p), _kernel_outcome(poch_inf, x, p))
           for x, p in pairs]
    assert got == expected
    token = THETA_MEMO.set({})
    try:
        for _ in range(2):
            got = [(_kernel_outcome(theta, x, p), _kernel_outcome(poch_inf, x, p))
                   for x, p in pairs]
            assert got == expected
    finally:
        THETA_MEMO.reset(token)


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
    calls, builds = [], []
    build = qcore._euler_coefficients

    def counting(a, q):
        calls.append(a)
        return poch_inf(a, q)

    def counting_build(q):
        builds.append((q, type(q)))
        return build(q)

    monkeypatch.setattr(qcore, "poch_inf", counting)
    monkeypatch.setattr(qcore, "_euler_coefficients", counting_build)
    x, p = 0.4 + 0.3j, 0.1
    fresh = theta(x, p)
    assert len(calls) == 2 and THETA_MEMO.get() is None
    del builds[:]
    token = THETA_MEMO.set({})
    try:
        assert repr(theta(x, p)) == repr(fresh) and len(calls) == 4
        assert repr(theta(x, p)) == repr(fresh) and len(calls) == 4
        # An mpmath argument of equal value is another key.
        theta(mpmath.mpc(x), p)
        assert len(calls) == 6
        # p = 0 never reaches the memo.
        size = len(THETA_MEMO.get())
        assert theta(x, 0.0) == 1 - x and len(THETA_MEMO.get()) == size
        assert {k for k in THETA_MEMO.get() if k[0] != "plan"} == {
            (x, p, complex, float), (mpmath.mpc(x), p, mpmath.mpc, float)}
        # Euler's coefficients are built once per (q, type), in the tail plan
        # of that modulus: the mpmath x shares the double p's.  Outside the
        # memo every product builds its own.
        assert builds == [(p, float)]
        poch_inf(x, mpmath.mpf(p))
        poch_inf(x / 2, mpmath.mpf(p))
        assert builds[1:] == [(p, mpmath.mpf)]
        assert {k for k in THETA_MEMO.get() if k[0] == "plan"} == {
            ("plan", p, float), ("plan", p, mpmath.mpf)}
        assert len(THETA_MEMO.get()) == 4
    finally:
        THETA_MEMO.reset(token)
    assert THETA_MEMO.get() is None
    del builds[:]
    theta(x, p)
    assert len(calls) == 8 and len(builds) == 2


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


# ---------------------------------------------------------------------------
# the unit rule
# ---------------------------------------------------------------------------

def test_units_are_the_literals_or_the_mpc_one_of_their_context():
    for x in (2, True, 0.5, -0.0, 0.5 - 0.5j):
        one, start = units(x)
        assert (one, start) == (1, 1) and type(one) is int and type(start) is complex
    for ctx in (mp_context(40), mp_context(50), mpmath.mp):
        for x in (ctx.mpc(0.5, 0.25), ctx.mpf(3)):
            one, start = units(x)
            assert type(one) is ctx.mpc and one == 1 and one.imag == 0 and start is one
            assert units(x)[0] is one  # made once per type


def _python_conversions(monkeypatch, ctx):
    """The list to which each Python number that ctx converts into its own
    arithmetic (ctx.convert, which mpmath calls for a Python operand) is
    appended from now on."""
    seen = []
    convert = type(ctx).convert

    def counting(x, *args, **kwargs):
        if isinstance(x, (int, float, complex)):
            seen.append(x)
        return convert(ctx, x, *args, **kwargs)

    monkeypatch.setattr(ctx, "convert", counting, raising=False)
    return seen


def test_kernels_convert_no_python_constant_per_factor(monkeypatch):
    # A Python constant in a kernel loop (1 - v q^k, a 1.0 + 0j product
    # start) is converted into the operands' mpmath context at every factor;
    # the units of the operands convert nothing.  So the count of conversions
    # is the same at every length: here it is 0.
    ctx = mp_context(40)
    p = sample_params("bailey10phi9", 0)
    a, b, c, d, e, f, q = (ctx.mpmathify(complex(p[k])) for k in "abcdefq")

    def spec(n):  # the left series of Bailey's 10phi9 transformation
        lam = q * a * a / (b * c * d)
        sa = csqrt(a)
        return SeriesSpec(
            numerator=[a, q * sa, -q * sa, b, c, d, e, f,
                       lam * a * q ** (n + 1) / (e * f), QPower(-n)],
            denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e,
                         a * q / f, e * f * q ** (-n) / lam, a * q ** (n + 1)],
            argument=q, q=q)

    specs = {n: spec(n) for n in (1, 4)}
    seen = _python_conversions(monkeypatch, ctx)
    counts = {}
    for n, sp in specs.items():
        seen.clear()
        assert isinstance(eval_phi(sp).value, ctx.mpc)
        counts["eval_phi", n] = len(seen)
    for k in (1, 4):
        seen.clear()
        assert isinstance(poch_multi([a, b, c, d], q, k), ctx.mpc)
        counts["poch_multi", k] = len(seen)
    assert counts["eval_phi", 1] == counts["eval_phi", 4]
    assert counts["poch_multi", 1] == counts["poch_multi", 4]


def test_bilateral_sum_converts_at_most_once_per_window(monkeypatch):
    # A 50-digit 1psi1 of many windows: a constant converted per term would
    # outnumber the windows many times over.
    ctx = mp_context(50)
    p = sample_params("ramanujan1psi1", 0)
    a, b, x, q = (ctx.mpmathify(complex(p[k])) for k in ("a", "b", "x", "q"))
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    seen = _python_conversions(monkeypatch, ctx)
    sv = eval_psi(spec)
    lo, hi = sv.window
    windows = max(-lo, hi) // WINDOW_STEP
    assert windows >= 5 and sv.terms_used > 10 * WINDOW_STEP
    assert len(seen) <= windows


# ---------------------------------------------------------------------------
# factor_product
# ---------------------------------------------------------------------------

def _operator_loop(start, values, y, one):
    """The reference: the factor loop on the operands' own operators."""
    for v in values:
        start = start * (one - v * y)
    return start


def _same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-1e6, 1e6, allow_subnormal=False))
_PYTHON = st.one_of(st.integers(-5, 5), _FLOATS, st.builds(complex, _FLOATS, _FLOATS))
#: Components of an mpc: a drawn float over 3, so that the 40- and 50-digit
#: products round (zero included).
_PARTS = st.tuples(_FLOATS, _FLOATS)


@given(st.lists(_PYTHON, max_size=6), _PYTHON, _PYTHON, _PYTHON)
@example([], 0.5 + 0j, 1.0 + 0j, 1)
@example([-0.0, 0.5j], -0.0, 1.0 + 0j, 1)
def test_factor_product_of_python_numbers_is_the_operator_loop(values, y, start, one):
    assert _same(factor_product(y)(start, values, y, one),
                 _operator_loop(start, values, y, one))


def _mpc(ctx, parts):
    re, im = parts
    return ctx.mpc(ctx.mpf(re) / 3, ctx.mpf(im) / 3)


@settings(max_examples=300)
@given(st.sampled_from([40, 50]), st.lists(_PARTS, max_size=6), _PARTS,
       st.booleans(), st.booleans(), _PARTS)
@example(40, [], (0.5, 0.0), True, True, (1.0, 0.0))
@example(50, [(0.0, 0.0), (1.5, 0.0), (0.0, -2.0)], (0.0, 0.0), True, False,
         (0.0, 1.0))
def test_factor_product_of_mpc_values_is_the_operator_loop(dps, parts, y_parts, real,
                                                           unit, start_parts):
    # The tuple path: every operand of one context, y exactly real (the
    # mpc_mul_mpf step) or complex, with the units or other values as one
    # and start.
    ctx = mp_context(dps)
    values = [_mpc(ctx, p) for p in parts]
    y = _mpc(ctx, (y_parts[0], 0.0) if real else y_parts)
    one, start = units(y) if unit else (_mpc(ctx, start_parts[::-1]),
                                        _mpc(ctx, start_parts))
    assert _same(factor_product(y)(start, values, y, one),
                 _operator_loop(start, values, y, one))


@given(st.lists(_PARTS, min_size=1, max_size=4), _PARTS, st.booleans(),
       st.integers(0, 4), st.sampled_from(["context", "mpf", "start", "one"]))
def test_factor_product_of_mixed_operands_is_the_operator_loop(parts, y_parts, real,
                                                               at, foreign):
    # An entry of another context or an mpf, or a start or one of another
    # context, takes the operator loop: the result is that loop's.
    ctx, other = mp_context(40), mp_context(50)
    values = [_mpc(ctx, p) for p in parts]
    y = _mpc(ctx, (y_parts[0], 0.0) if real else y_parts)
    one, start = units(y)
    at = min(at, len(values) - 1)
    if foreign == "context":
        values[at] = _mpc(other, parts[at])
    elif foreign == "mpf":
        values[at] = ctx.mpf(parts[at][0]) / 3
    elif foreign == "start":
        start = _mpc(other, parts[at])
    else:
        one = units(other.mpc(1))[0]
    assert _same(factor_product(y)(start, values, y, one),
                 _operator_loop(start, values, y, one))


_SPECIAL = st.sampled_from([0.0, 1.5, -2.0, float("inf"), float("-inf"), float("nan")])


@given(st.lists(st.tuples(_SPECIAL, _SPECIAL), max_size=4), _SPECIAL, _SPECIAL)
@example([(float("inf"), 0.0)], 0.5, 0.0)
@example([(0.5, float("nan"))], 0.5, 0.0)
@example([(0.5, 0.25)], float("inf"), 0.0)
def test_factor_product_of_non_finite_mpc_values_is_the_operator_loop(parts, y_re, y_im):
    # An infinite or NaN component, of an entry or of a real y: v y by
    # mpc_mul_mpf would drop the NaN that mpc_mul makes of inf * 0.
    ctx = mp_context(40)
    values = [ctx.mpc(*p) for p in parts]
    y = ctx.mpc(y_re, y_im)
    one, start = units(y)
    assert _same(factor_product(y)(start, values, y, one),
                 _operator_loop(start, values, y, one))


def test_factor_product_is_made_once_per_type():
    # One kernel for the Python numbers and mpf, one of its own per mpc type.
    ctx40, ctx50 = mp_context(40), mp_context(50)
    python = factor_product(0.5)
    assert factor_product(2) is factor_product(0.5j) is python
    assert factor_product(ctx40.mpf(2)) is python
    mpc40 = factor_product(ctx40.mpc(0.5))
    assert mpc40 is not python and factor_product(ctx40.mpc(2j)) is mpc40
    assert factor_product(ctx50.mpc(0.5)) not in (python, mpc40)
