"""Partition-indexed Pochhammer and W-function tests."""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident.wfunc as wfunc
from qident.errors import PoleCancellationError, QidentError
from qident.identities import (
    _principal_w,
    mlat_finite_window,
    run_case,
    sample_params,
)
from qident.partitions import (
    interlacing_vectors,
    is_horizontal_strip,
    lattice_window,
    normalize,
    part,
)
from qident.qcore import poch_int, theta
from qident.wfunc import (
    POLE_TOL,
    SNAP_TOL,
    Keyed,
    WParams,
    _keyed_quotient,
    poch_partition,
    poch_partition_multi,
    theta_quotient,
    w_degree,
    w_multi,
    w_skew_single,
    zw_multi,
    zw_multi_reg,
)

from conftest import rel

#: The rank-2 multilateralfinite draw whose window (121 lattice points and
#: five exterior checks) the ledger-count tests count on.
_MLAT_FINITE_RANK2 = dict(lam=(2, 1), n=2, x=1.37 + 0.2j, s=0.45 + 0.1j, a=0.7 - 0.2j,
                          q=0.3, delta=0)


def box_partitions(max_len, max_part):
    out = []
    for tup in itertools.product(range(max_part + 1), repeat=max_len):
        if all(tup[i] >= tup[i + 1] for i in range(max_len - 1)):
            p = normalize(tup)
            if p not in out:
                out.append(p)
    return out


def cscalar(rng, lo=0.2, hi=0.9):
    import cmath
    import math

    m = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return m * cmath.exp(1j * rng.uniform(0, 6.283185307179586))


# ---------------------------------------------------------------------------
# partition Pochhammer symbols
# ---------------------------------------------------------------------------

def test_poch_partition_empty():
    assert poch_partition(0.7 + 0.2j, 0.3, 0.0, 0.5, ()) == 1


def test_poch_partition_vanishing_row():
    # (a)_1 * (a/t)_1 = (1-0.5)(1-1.0) = 0
    assert abs(poch_partition(0.5, 0.25, 0.0, 0.5, (1, 1))) < 1e-14


def test_poch_partition_single_row_matches_poch_int():
    val = poch_partition(0.5, 0.25, 0.0, 0.3, (2,))
    assert rel(val, poch_int(0.5, 0.25, 2)) < 1e-14
    assert abs(val - 0.4375) < 1e-14


def test_poch_partition_multi_examples():
    q, p, t = 0.25, 0.0, 0.3
    assert poch_partition_multi([], q, p, t, (2, 1)) == 1
    assert rel(poch_partition_multi([0.6 + 0.1j], q, p, t, (2, 1)),
               poch_partition(0.6 + 0.1j, q, p, t, (2, 1))) < 1e-15
    assert abs(poch_partition_multi([0.5, 0.2], q, p, t, (1,)) - 0.4) < 1e-14


# ---------------------------------------------------------------------------
# skew W against an independent p = 0 transcription
# ---------------------------------------------------------------------------

def _w_skew_oracle_p0(x, lam, mu, q, t, a, b):
    """Independent direct transcription of the single-variable skew W at p = 0.

    Written against the displayed products for partitions of ambient rank
    n = max(len(lam), len(mu)), using plain poch_int (theta(y; 0) = 1 - y);
    the H factor runs over the rows j = 2..n+1, the last one being the
    boundary row of the bottom strip row mu_n.  This is a separate code
    path from the kernel in qident.wfunc.
    """
    n = max(len(lam), len(mu), 1)
    lamf = lambda i: part(lam, i)
    muf = lambda i: part(mu, i)
    val = 1.0 + 0j
    # H factor.
    for j in range(2, n + 2):
        for i in range(1, j):
            m = muf(j - 1) - lamf(j)
            val *= poch_int(q ** (muf(i) - muf(j - 1)) * t ** (j - i), q, m)
            val *= poch_int(q ** (lamf(i) + lamf(j)) * t ** (3 - j - i) * b, q, m)
            val /= poch_int(q ** (muf(i) - muf(j - 1) + 1) * t ** (j - i - 1), q, m)
            val /= poch_int(q ** (lamf(i) + lamf(j) + 1) * t ** (2 - j - i) * b, q, m)
            val *= poch_int(q ** (lamf(i) - muf(j - 1) + 1) * t ** (j - i - 1), q, m)
            val /= poch_int(q ** (lamf(i) - muf(j - 1)) * t ** (j - i), q, m)
    for j in range(2, n + 2):
        for i in range(1, j - 1):
            m = muf(j - 1) - lamf(j)
            val *= poch_int(q ** (muf(i) + lamf(j) + 1) * t ** (1 - j - i) * b, q, m)
            val /= poch_int(q ** (muf(i) + lamf(j)) * t ** (2 - j - i) * b, q, m)
    for i in range(1, n + 1):
        li, mi, li1 = lamf(i), muf(i), lamf(i + 1)
        # (x^-1, a x)_lam / (x^-1, a x)_mu
        val *= poch_int(q ** mi * t ** (1 - i) / x, q, li - mi)
        val *= poch_int(q ** mi * t ** (1 - i) * a * x, q, li - mi)
        # (q b x / t, q b / (a x t))_mu / (q b x, q b / (a x))_lam
        for y in (q * b * x, q * b / (a * x)):
            val *= poch_int(y * t ** (-i), q, mi)
            val /= poch_int(y * t ** (1 - i), q, li)
        # the b-block of row i
        val *= (1 - b * t ** (1 - 2 * i) * q ** (2 * mi)) / (1 - b * t ** (1 - 2 * i))
        val *= poch_int(b * t ** (1 - 2 * i), q, mi + li1)
        val /= poch_int(b * q * t ** (-2 * i), q, mi + li1)
        val *= t ** (i * (mi - li1))
    return val


def _check_against_oracle(pairs, seed):
    rng = random.Random(seed)
    for _ in range(30):
        q = rng.uniform(0.15, 0.5)
        t = rng.uniform(0.2, 0.7)
        a, b, x = cscalar(rng), cscalar(rng), cscalar(rng, 0.5, 1.5)
        wp = WParams(q, 0.0, t, a, b)
        for (lam, mu) in pairs:
            assert is_horizontal_strip(lam, mu)
            got = w_skew_single(x, lam, mu, wp)
            want = _w_skew_oracle_p0(x, lam, mu, q, t, a, b)
            assert rel(got, want) < 1e-12, (lam, mu)


def test_w_skew_single_rank1_against_transcription():
    _check_against_oracle([((k,), (m,)) for k in range(4) for m in range(k + 1)], 11)


def test_w_skew_single_equal_partitions_against_transcription():
    _check_against_oracle([((1,), (1,)), ((1, 1), (1, 1)), ((2, 1), (2, 1)),
                           ((3, 2, 1), (3, 2, 1))], 13)


def test_w_skew_single_against_independent_transcription():
    _check_against_oracle([((2, 1), (2,)), ((3, 1), (2, 1)), ((2, 2), (2, 1)),
                           ((3, 2, 1), (3, 2)), ((2, 1, 1), (2, 1)), ((2, 1), (1,)),
                           ((3, 1), (1,)), ((3, 3, 1), (3, 1))], 17)


# ---------------------------------------------------------------------------
# skew W, single variable
# ---------------------------------------------------------------------------

def test_w_skew_single_vanishes_off_strips():
    wp = WParams(0.3, 0.0, 0.45, 0.8, 0.6)
    assert w_skew_single(1.3 + 0.4j, (3, 2), (1, 1), wp) == 0


def test_w_skew_single_empty():
    wp = WParams(0.3, 0.0, 0.45, 0.8, 0.6)
    assert w_skew_single(1.3, (), (), wp) == 1


def test_w_skew_single_rank1_closed_form():
    rng = random.Random(23)
    for _ in range(20):
        q = rng.uniform(0.15, 0.5)
        a, b, x = cscalar(rng), cscalar(rng), cscalar(rng, 0.5, 1.5)
        wp = WParams(q, 0.0, 0.45, a, b)
        got = w_skew_single(x, (1,), (), wp)
        want = (1 - 1 / x) * (1 - a * x) / ((1 - q * b * x) * (1 - q * b / (a * x)))
        assert rel(got, want) < 1e-12


def test_w_skew_single_structural_vanishing_exhaustive():
    wp = WParams(0.3, 0.0, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
    box = box_partitions(3, 3)
    for lam in box:
        for mu in box:
            if not is_horizontal_strip(lam, mu):
                assert w_skew_single(1.1 + 0.3j, lam, mu, wp) == 0


# ---------------------------------------------------------------------------
# multivariable W
# ---------------------------------------------------------------------------

def test_w_multi_single_variable_delegates():
    wp = WParams(0.3, 0.0, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
    x = 1.3 + 0.4j
    assert w_multi((x,), (2,), (), wp) == w_skew_single(x, (2,), (), wp)


def test_w_multi_empty_partitions():
    wp = WParams(0.3, 0.0, 0.45, 0.8, 0.6)
    assert abs(w_multi((1.2, 0.8), (), (), wp) - 1) < 1e-14


def test_w_multi_permutation_symmetry():
    rng = random.Random(31)
    for p in (0.0, 0.1):
        for _ in range(10):
            q = rng.uniform(0.15, 0.5)
            t = rng.uniform(0.2, 0.7)
            wp = WParams(q, p, t, cscalar(rng), cscalar(rng))
            z1, z2 = cscalar(rng, 0.4, 1.2), cscalar(rng, 0.4, 1.2)
            v12 = w_multi((z1, z2), (2, 1), (), wp, memo={})
            v21 = w_multi((z2, z1), (2, 1), (), wp, memo={})
            assert rel(v12, v21) < 1e-10


def test_w_multi_three_variable_symmetry():
    rng = random.Random(37)
    for _ in range(5):
        q = rng.uniform(0.15, 0.4)
        t = rng.uniform(0.2, 0.6)
        wp = WParams(q, 0.0, t, cscalar(rng), cscalar(rng))
        zs = [cscalar(rng, 0.4, 1.2) for _ in range(3)]
        ref = w_multi(tuple(zs), (2, 1), (), wp, memo={})
        for perm in itertools.permutations(zs):
            assert rel(w_multi(tuple(perm), (2, 1), (), wp, memo={}), ref) < 1e-10


def test_w_multi_vanishes_for_more_parts_than_variables():
    wp = WParams(0.3, 0.0, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
    assert w_multi((1.2, 0.8), (2, 1, 1), (), wp) == 0
    assert w_multi((1.2,), (1, 1), (), wp, memo={}) == 0


def test_w_multi_rejects_skew_index():
    wp = WParams(0.3, 0.0, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
    with pytest.raises(ValueError):
        w_multi((1.2, 0.8), (2, 1), (1,), wp)


def test_w_multi_shared_memo_is_bit_identical():
    rng = random.Random(43)
    for p in (0.0, 0.1):
        q = rng.uniform(0.15, 0.5)
        t = rng.uniform(0.2, 0.7)
        wp = WParams(q, p, t, cscalar(rng), cscalar(rng))
        zs = tuple(cscalar(rng, 0.4, 1.2) for _ in range(3))
        memo = {}
        for lam in box_partitions(3, 3):
            assert w_multi(zs, lam, (), wp, memo) == w_multi(zs, lam, (), wp)
        assert memo


def test_zw_multi_reg_regularizes_without_memo(monkeypatch):
    # The unperturbed evaluation gets the caller's memo; the Richardson
    # evaluations at perturbed b must not, since the memo holds values at b.
    wp = WParams(0.3, 0.0, 0.3, 0.2 + 0.1j, 0.09)
    original = wfunc.zw_multi
    calls = []

    def spy(xvars, lam, params, memo=None):
        calls.append((params.b, memo))
        if params.b == wp.b:
            raise PoleCancellationError("forced")
        return original(xvars, lam, params, memo)

    monkeypatch.setattr(wfunc, "zw_multi", spy)
    memo = {}
    value = zw_multi_reg((0.027, 0.09), (1, 0), wp, memo=memo)
    assert calls[0] == (wp.b, memo)
    assert len(calls) > 1
    assert all(m is None for b, m in calls[1:])
    assert {b for b, _ in calls[1:]} == {wp.b * (1 + h) for h in
                                         (wfunc.REG_ETA / 2, -wfunc.REG_ETA / 2,
                                          wfunc.REG_ETA, -wfunc.REG_ETA)}
    assert not memo
    monkeypatch.undo()
    assert rel(value, zw_multi_reg((0.027, 0.09), (1, 0), wp)) < 1e-7


# ---------------------------------------------------------------------------
# branching order: tail first, skew factor only under a nonzero tail
# ---------------------------------------------------------------------------

def _zw_multi_w1_first(xvars, lam, params, memo=None):
    """zw_multi with the skew-factor-first loop: every skew factor is
    evaluated, and its tail only when the skew factor is nonzero."""
    xvars, lam = tuple(xvars), tuple(lam)
    n = len(xvars)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    if memo is not None and (xvars, lam) in memo:
        return memo[(xvars, lam)]
    if n == 1:
        total = wfunc.zw_skew_single(xvars[0], lam, (), params)
    else:
        l = n - 1
        shifted = WParams(params.q, params.p, params.t, params.a * params.t ** (2 * l),
                          params.b * params.t**l)
        total = 0.0 + 0j
        for nu in interlacing_vectors(lam):
            w1 = wfunc.zw_skew_single(xvars[0] * params.t ** (-l), lam, nu, shifted)
            if w1 == 0:
                continue
            total += w1 * _zw_multi_w1_first(xvars[1:], nu, params, memo)
    if memo is not None:
        memo[(xvars, lam)] = total
    return total


def _w_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (QidentError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _branching_draws():
    """(xvars, index vectors, params): generic and principal x, at t = q and
    t != q, with the negative-entry indices of a multilateralfinite window."""
    rng = random.Random(47)
    for n in (1, 2, 3):
        for p in (0.0, 0.1):
            q = rng.uniform(0.15, 0.45)
            t = rng.uniform(0.2, 0.7)
            lam = (2, 1, 0)[:n]
            upper, lower = mlat_finite_window(lam, n, 1)
            window = [mu for mu in lattice_window(upper, lower)
                      if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
            window = window[::(1, 3, 80)[n - 1]]  # 8 of 8, 22 of 64, 7 of 528
            indices = box_partitions(n, 3) + window
            indices = [tuple(part(mu, i) for i in range(1, n + 1)) for mu in indices]
            generic = tuple(cscalar(rng, 0.4, 1.2) for _ in range(n))
            yield generic, indices, WParams(q, p, t, cscalar(rng), cscalar(rng))
            # The multilateralfinite point: x_i = q^{lam_i + n - i}, t = q.
            s, delta = cscalar(rng), 1
            xq = tuple(q ** (part(lam, i) + n - i) for i in range(1, n + 1))
            yield xq, indices, WParams(q, p, q, s * q**delta, q ** (delta + n - 1))
            # The principal point at t != q: x_i = q^{lam_i} t^{n-i}.
            xt = tuple(q ** part(lam, i) * t ** (n - i) for i in range(1, n + 1))
            yield xt, indices, WParams(q, p, t, cscalar(rng), cscalar(rng))


def test_zw_multi_matches_w1_first_order():
    zeros = 0
    for xvars, indices, wp in _branching_draws():
        memo, memo_ref = {}, {}
        for mu in indices:
            got = _w_outcome(zw_multi, xvars, mu, wp, memo)
            assert got == _w_outcome(_zw_multi_w1_first, xvars, mu, wp, memo_ref), \
                (xvars, mu, wp)
            if len(xvars) < 3:
                assert got == _w_outcome(zw_multi, xvars, mu, wp)  # no memo
            zeros += got == repr(0j)
    assert zeros  # the principal points have vanishing W


def _scripted_branching(monkeypatch, tails, skews):
    """zw_multi at n = 2, lam = (2, 0), whose nu = (0,), (1,), (2,) get the
    tail and skew values (or exceptions) scripted in tails and skews; returns
    the outcome and the nu whose skew factor was evaluated."""
    original = wfunc.zw_multi
    evaluated = []

    def tail(xvars, lam, params, memo=None):
        if len(xvars) == 2:
            return original(xvars, lam, params, memo)
        v = tails[lam]
        if isinstance(v, Exception):
            raise v
        return v

    def skew(x, lam, nu, params):
        evaluated.append(nu)
        if isinstance(skews[nu], Exception):
            raise skews[nu]
        return skews[nu]

    monkeypatch.setattr(wfunc, "zw_multi", tail)
    monkeypatch.setattr(wfunc, "zw_skew_single", skew)
    wp = WParams(0.3, 0.0, 0.45, 0.8 + 0.1j, 0.6 - 0.2j)
    out = _w_outcome(wfunc.zw_multi, (1.2, 0.8), (2, 0), wp, {})
    monkeypatch.undo()
    return out, evaluated


def test_zw_multi_defers_tail_errors_and_skips_zero_tails(monkeypatch):
    for error in (PoleCancellationError("tail pole"), ZeroDivisionError("tail")):
        tails = {(0,): error, (1,): 0.0 + 0j, (2,): 3.0 + 0j}
        # A raising tail under a zero skew factor is skipped, as before; the
        # skew factor under the zero tail is never evaluated.
        out, evaluated = _scripted_branching(
            monkeypatch, tails, {(0,): 0.0 + 0j, (2,): 2.0 + 0j})
        assert out == repr(6.0 + 0j)
        assert evaluated == [(0,), (2,)]
        # Under a nonzero skew factor the tail's error is raised.
        out, evaluated = _scripted_branching(
            monkeypatch, tails, {(0,): 5.0 + 0j, (2,): 2.0 + 0j})
        assert out == f"{type(error).__name__}: {error}"
        assert evaluated == [(0,)]
    # A pole in a skew factor alone no longer reaches the sum when its tail
    # is exactly 0 (the one difference from the skew-factor-first loop).
    pole = PoleCancellationError("skew pole")
    out, evaluated = _scripted_branching(
        monkeypatch, {(0,): 0.0 + 0j, (1,): 1.0 + 0j, (2,): 0.0 + 0j},
        {(0,): pole, (1,): 4.0 + 0j, (2,): pole})
    assert out == repr(4.0 + 0j)
    assert evaluated == [(1,)]


def test_zw_multi_skips_skew_factors_of_zero_tails(monkeypatch):
    # Every zw_skew_single call of one rank-2 multilateralfinite window
    # (121 lattice points and five exterior checks); the skew-factor-first
    # loop makes 372.
    original = wfunc.zw_skew_single
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(wfunc, "zw_skew_single", counted)
    r = run_case("multilateralfinite", _MLAT_FINITE_RANK2)
    assert r.status == "pass" and r.terms_used == 121
    assert len(calls) == 135


# ---------------------------------------------------------------------------
# theta quotient: the bisected cancellation against the plain scan
# ---------------------------------------------------------------------------

def _theta_quotient_scan(num_args, den_args, p):
    """O(N M) reference: each numerator argument cancels the first remaining
    denominator argument within SNAP_TOL of it."""
    den = list(den_args)
    rest = []
    for x in num_args:
        for j, y in enumerate(den):
            if abs(x - y) <= SNAP_TOL * max(abs(x), abs(y), 1.0):
                den.pop(j)
                break
        else:
            rest.append(x)
    r = 1.0 + 0j
    for x in rest:
        r = r * theta(x, p)
    for y in den:
        ty = theta(y, p)
        if abs(ty) < POLE_TOL:
            raise PoleCancellationError("uncancelled denominator theta vanishes")
        r = r / ty
    return r


def _outcome(fn, num, den, p):
    try:
        return repr(fn(num, den, p))
    except QidentError as exc:
        return f"{type(exc).__name__}: {exc}"


_bases = st.builds(
    lambda lg, phase: 10.0**lg * cmath.exp(1j * phase),
    st.floats(-6, 6), st.floats(0, 2 * math.pi))
# (pool index, offset in units of SNAP_TOL max(|x|, 1), offset phase)
_picks = st.tuples(st.integers(0, 5), st.sampled_from([0.0, 0.0, 0.5, 2.0]),
                   st.floats(0, 2 * math.pi))


def _build(pool, picks):
    out = []
    for k, d, phase in picks:
        x = pool[k % len(pool)]
        out.append(x + d * SNAP_TOL * max(abs(x), 1.0) * cmath.exp(1j * phase))
    return out


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(_bases, min_size=1, max_size=6),
       num=st.lists(_picks, max_size=12), den=st.lists(_picks, max_size=12),
       p=st.sampled_from([0.0, 0.1]))
def test_theta_quotient_matches_scan(pool, num, den, p):
    num, den = _build(pool, num), _build(pool, den)
    assert _outcome(theta_quotient, num, den, p) == \
        _outcome(_theta_quotient_scan, num, den, p)


def test_theta_quotient_edge_cases_match_scan():
    big, small = 3.7e5 + 1.2e5j, 2.5e-4 - 1e-4j
    cases = [
        ([], []),
        ([0.4], []),
        ([], [0.4]),
        ([0.4, 0.4, 0.4], [0.4, 0.4]),  # exact duplicates
        ([big * (1 + 0.5 * SNAP_TOL)], [big]),  # within SNAP_TOL, relative
        ([big * (1 + 2 * SNAP_TOL)], [big]),  # outside
        ([small + 0.5 * SNAP_TOL], [small]),  # within, absolute below |x| = 1
        ([small + 2 * SNAP_TOL], [small, big, -big]),
        ([small, big], [big, small, big * (1 + 0.5 * SNAP_TOL)]),
        # |x - y| = inf <= SNAP_TOL inf: an infinite argument matches any finite
        # one, wherever its real part sorts; nan matches nothing
        ([0.3, 0.5], [0.5, math.inf, 0.3]),
        ([0.2, 0.7], [complex(1.0, math.inf), 0.2]),
        ([0.3, math.inf, 0.5], [0.5, math.inf, complex(math.nan, 0.0), 0.3]),
        ([complex(math.nan, 1.0), 0.2], [0.2, complex(1.0, math.inf)]),
    ]
    for num, den in cases:
        for p in (0.0, 0.1):
            assert _outcome(theta_quotient, num, den, p) == \
                _outcome(_theta_quotient_scan, num, den, p), (num, den, p)


def test_theta_quotient_cancellation_and_pole():
    # Coinciding arguments cancel; theta(1; 0) = 0 is then harmless ...
    assert theta_quotient([0.5, 1.0], [1.0 + 0.5 * SNAP_TOL], 0.0) == 0.5
    # ... but an uncancelled vanishing denominator is a pole.
    with pytest.raises(PoleCancellationError):
        theta_quotient([0.5, 1.0 + 2 * SNAP_TOL], [1.0], 0.0)
    with pytest.raises(PoleCancellationError):
        theta_quotient([], [1.0], 0.0)


# ---------------------------------------------------------------------------
# keyed ledgers: cancellation by monomial key, exact zeros and poles
# ---------------------------------------------------------------------------

def test_keyed_quotient_zero_pole_and_survivors():
    q = 0.3
    # Numerator run q^-2, q^-1, q^0: its key-0 argument is an exact zero ...
    assert _keyed_quotient([(False, q**-2, -2, 0, 3)], q, 0.0, 2.0) == 0
    # ... and a pole in the denominator, also under a numerator zero.
    for runs in ([(True, q**-2, -2, 0, 3)],
                 [(False, q**-1, -1, 0, 2), (True, q**-1, -1, 0, 2),
                  (True, q, 1, -1, 0)]):
        with pytest.raises(PoleCancellationError):
            _keyed_quotient(runs, q, 0.0, 1.0)
    # Equal keys cancel, whatever the float values: the survivors are the
    # numerator's q^-2, q^-1 (key-0 q^0 against the bare denominator 1.0) and
    # the denominator's q^2.
    runs = [(False, q**-2, -2, 0, 3), (True, 1.0, 0, None, None), (True, q, 1, 1, 2)]
    assert _keyed_quotient(runs, q, 0.0, 2.0) == \
        2.0 * theta_quotient([q**-2, q**-2 * q], [q * q], 0.0)


def test_keyed_skew_factors_match_untagged_ledgers(monkeypatch):
    # Every skew factor of the multilateralfinite windows of seeds 0-63 and
    # of the rank-2 window lam = (2, 1), delta = 0 is keyed; evaluated
    # untagged, it has the same repr or raises the same error, or else its
    # keyed value is exact 0 and its float value round-off below 1e-11.
    original = wfunc.zw_skew_single
    calls = []

    def recorded(x, lam, mu, params):
        calls.append((x, lam, mu, params))
        return original(x, lam, mu, params)

    monkeypatch.setattr(wfunc, "zw_skew_single", recorded)
    for seed in range(64):
        run_case("multilateralfinite", sample_params("multilateralfinite", seed))
    run_case("multilateralfinite", _MLAT_FINITE_RANK2)
    monkeypatch.undo()
    same = zeros = 0
    for x, lam, mu, wp in calls:
        assert isinstance(x, Keyed) and wp.keys is not None
        keyed = _w_outcome(original, x, lam, mu, wp)
        plain = WParams(wp.q, wp.p, wp.t, wp.a, wp.b)
        untagged = _w_outcome(original, x.value, lam, mu, plain)
        if keyed == untagged:
            same += 1
        else:
            assert keyed == repr(0j), (x, lam, mu, wp)
            assert abs(original(x.value, lam, mu, plain)) < 1e-11
            zeros += 1
    assert (same, zeros) == (1704, 2112)


def test_rank2_window_evaluates_fewer_numeric_ledgers(monkeypatch):
    # Before keys, each of the rank-2 window's 135 skew ledgers was
    # multiplied out by theta_quotient (8,550 arguments).  Keyed, 97 are
    # settled by their key-0 count, and theta_product multiplies the 374
    # surviving arguments of the other 38; theta_quotient is not called.
    calls = []
    for name in ("theta_quotient", "theta_product"):
        def counted(num, den, p, original=getattr(wfunc, name), name=name):
            calls.append((name, len(num) + len(den)))
            return original(num, den, p)

        monkeypatch.setattr(wfunc, name, counted)
    r = run_case("multilateralfinite", _MLAT_FINITE_RANK2)
    assert r.status == "pass" and r.terms_used == 121
    assert {name for name, _ in calls} == {"theta_product"}
    assert (len(calls), sum(k for _, k in calls)) == (38, 374)


def test_richardson_fallback_drops_the_keys(monkeypatch):
    q = 0.3
    wp, xv = _principal_w(2, 0, q, 0.4 + 0.3j, [2, 1])
    assert wp.keys is not None and all(isinstance(v, Keyed) for v in xv)
    original = wfunc.zw_multi
    calls = []

    def spy(xvars, lam, params, memo=None):
        calls.append((xvars, params))
        if params.b == wp.b:
            raise PoleCancellationError("forced")
        return original(xvars, lam, params, memo)

    monkeypatch.setattr(wfunc, "zw_multi", spy)
    value = zw_multi_reg(xv, (1, 0), wp)
    monkeypatch.undo()
    assert len(calls) > 1 and calls[0][1].keys is not None
    for xvars, params in calls[1:]:
        assert params.keys is None
        assert xvars == (q**2, q)[-len(xvars):]  # plain values, tails included
    assert value == wfunc._richardson_in_b(lambda pp: zw_multi((q**2, q), (1, 0), pp), wp)


def test_principal_w_keys_only_generic_s():
    q = 0.3
    for s in (1.0, q**3, q**-2, q**0.5, -(q**1.5), q * (1 + 1e-9)):
        wp, xv = _principal_w(2, 1, q, s, [3, 1])
        assert wp.keys is None and xv == [q**3, q]
    wp, xv = _principal_w(2, 1, q, 0.4 + 0.2j, [3, 1])
    assert wp.keys == (wfunc.S_KEY + 1, 2)
    assert xv == [Keyed(q**3, 3), Keyed(q, 1)]
    for p, t in ((0.1, q), (0.0, 0.4)):
        with pytest.raises(ValueError):
            WParams(q, p, t, 0.4, 0.5, (0, 0))


# ---------------------------------------------------------------------------
# degree formula
# ---------------------------------------------------------------------------

def test_w_degree_empty():
    assert w_degree((), 3, 2, 0.3 + 0.1j, 0, 0.4) == 1


def test_w_degree_overflow_row_vanishes():
    assert w_degree((3,), 2, 1, 0.3, 0, 0.4) == 0
    assert w_degree((3, 1), 2, 2, 0.3 + 0.1j, 1, 0.4) == 0


def test_w_degree_matches_recursion_example():
    mu, N, n, s, delta, q = (1,), 2, 2, 0.3, 0, 0.4
    lhs = w_degree((part(mu, 1), part(mu, 2)), N, n, s, delta, q)
    xv = [q ** (N + 1), q**N]
    wp = WParams(q, 0.0, q, s * q**delta, q ** (delta + n - 1))
    rhs = zw_multi_reg(xv, (part(mu, 1), part(mu, 2)), wp)
    assert rel(lhs, rhs) < 1e-9


def test_w_degree_matches_recursion_sweep():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for N in (1, 2, 3):
            for delta in (0, 1):
                s = cscalar(rng, 0.3, 0.8)
                q = rng.uniform(0.2, 0.45)
                for mu in box_partitions(n, N):
                    muv = tuple(part(mu, i) for i in range(1, n + 1))
                    lhs = w_degree(muv, N, n, s, delta, q)
                    xv = [q ** (N + n - 1 - i) for i in range(n)]
                    wp = WParams(q, 0.0, q, s * q**delta, q ** (delta + n - 1))
                    rhs = zw_multi_reg(xv, muv, wp)
                    if abs(lhs) < 1e-12 and abs(rhs) < 1e-12:
                        continue
                    assert rel(lhs, rhs) < 1e-9, (n, N, delta, mu)
