"""Partition-indexed Pochhammer and W-function tests."""

import cmath
import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident.wfunc as wfunc
from qident.errors import (
    DivisionByVanishingFactor,
    DomainError,
    NotAPartition,
    PoleCancellationError,
    QidentError,
)
from qident.identities import (
    _principal_w,
    mlat_finite_window,
    mp_context,
    run_case,
    sample_params,
)
from qident.partitions import (
    interlacing_vectors,
    is_horizontal_strip,
    normalize,
    part,
)
from qident.qcore import poch_int, theta, units
from qident.wfunc import (
    POLE_TOL,
    S_KEY,
    T_KEY,
    X_KEY,
    Keyed,
    WParams,
    poch_partition,
    poch_partition_multi,
    theta_quotient,
    w_degree,
    w_multi,
    w_skew_single,
    zw_multi,
)

from conftest import rel
from key_oracle import check_ledger_keys

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


@pytest.mark.parametrize("lam, mu", [((1.5,), ()), ((True,), ()), ((1, 2), ()),
                                     ((1, -1), ()), ((1,), (0.5,)), ((1,), (0, 1))])
def test_w_entry_points_refuse_what_is_not_a_partition(lam, mu):
    # A part that is not an int is not truncated to one, and a tuple that is
    # not a partition does not evaluate (to 0, as if off a strip).
    wp = WParams(0.3, 0.0, 0.4, 0.5, 0.6)
    with pytest.raises(NotAPartition):
        w_multi((0.5, 0.7), lam, mu, wp)
    with pytest.raises(NotAPartition):
        w_skew_single(0.5, lam, mu, wp)


@pytest.mark.parametrize("xvars", [0.7, ()], ids=["float", "empty"])
def test_w_multi_refuses_what_is_not_a_sequence_of_variables(xvars):
    wp = WParams(0.3, 0.0, 0.4, 0.5, 0.6)
    with pytest.raises(DomainError, match=r"w_multi requires a non-empty sequence of "
                                          rf"variables, got {re.escape(repr(xvars))}$"):
        w_multi(xvars, (1,), (), wp)


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
        tk, ak, bk = params.keys
        shifted = WParams(params.q, params.p, params.t, params.a * params.t ** (2 * l),
                          params.b * params.t**l, (tk, ak + 2 * l * tk, bk + l * tk))
        y, yk = xvars[0] if isinstance(xvars[0], Keyed) else (xvars[0], X_KEY)
        total = 0.0 + 0j
        for nu in interlacing_vectors(lam):
            w1 = wfunc.zw_skew_single(Keyed(y * params.t ** (-l), yk - l * tk), lam, nu,
                                      shifted)
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
    t != q, with the negative-entry indices of a multilateralfinite window.
    The principal points are keyed as their callers in identities key them."""
    rng = random.Random(47)
    for n in (1, 2, 3):
        for p in (0.0, 0.1):
            q = rng.uniform(0.15, 0.45)
            t = rng.uniform(0.2, 0.7)
            lam = (2, 1, 0)[:n]
            upper, lower = mlat_finite_window(lam, n, 1)
            ranges = map(range, lower, (hi + 1 for hi in upper))
            window = [mu for mu in itertools.product(*ranges)
                      if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
            window = window[::(1, 3, 80)[n - 1]]  # 8 of 8, 22 of 64, 7 of 528
            indices = box_partitions(n, 3) + window
            indices = [tuple(part(mu, i) for i in range(1, n + 1)) for mu in indices]
            generic = tuple(cscalar(rng, 0.4, 1.2) for _ in range(n))
            yield generic, indices, WParams(q, p, t, cscalar(rng), cscalar(rng))
            # The multilateralfinite point: x_i = q^{lam_i + n - i}, t = q.
            s, delta = cscalar(rng), 1
            xq = tuple(Keyed(q**e, e) for e in (part(lam, i) + n - i for i in range(1, n + 1)))
            yield xq, indices, WParams(q, p, q, s * q**delta, q ** (delta + n - 1),
                                       (1, S_KEY + delta, delta + n - 1))
            # The principal point at t != q: x_i = q^{lam_i} t^{n-i}.
            xt = tuple(Keyed(q ** part(lam, i) * t ** (n - i), part(lam, i) + (n - i) * T_KEY)
                       for i in range(1, n + 1))
            yield xt, indices, WParams(q, p, t, cscalar(rng), cscalar(rng))


def test_zw_multi_matches_w1_first_order():
    zeros = 0
    for xvars, indices, wp in _branching_draws():
        memo, memo_ref, memo_short = {}, {}, {}
        for mu in indices:
            got = _w_outcome(zw_multi, xvars, mu, wp, memo)
            assert got == _w_outcome(_zw_multi_w1_first, xvars, mu, wp, memo_ref), \
                (xvars, mu, wp)
            # An index without its trailing zeros is padded: the same bits.
            assert got == _w_outcome(zw_multi, xvars, normalize(mu), wp, memo_short)
            if len(xvars) < 3:
                assert got == _w_outcome(zw_multi, xvars, mu, wp)  # no memo
                assert got == _w_outcome(zw_multi, xvars, normalize(mu), wp)
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


def test_zw_multi_raises_tail_errors_and_skips_zero_tails(monkeypatch):
    for error in (PoleCancellationError("tail pole"), ZeroDivisionError("tail")):
        tails = {(0,): error, (1,): 0.0 + 0j, (2,): 3.0 + 0j}
        # A raising tail raises where it is met, before its skew factor is
        # evaluated, whether that skew factor is zero or not.
        for skew0 in (0.0 + 0j, 5.0 + 0j):
            out, evaluated = _scripted_branching(
                monkeypatch, tails, {(0,): skew0, (2,): 2.0 + 0j})
            assert out == f"{type(error).__name__}: {error}"
            assert evaluated == []
    # A skew factor under a zero tail is never evaluated, so a pole in it
    # alone does not reach the sum.
    pole = PoleCancellationError("skew pole")
    out, evaluated = _scripted_branching(
        monkeypatch, {(0,): 0.0 + 0j, (1,): 1.0 + 0j, (2,): 0.0 + 0j},
        {(0,): pole, (1,): 4.0 + 0j, (2,): pole})
    assert out == repr(4.0 + 0j)
    assert evaluated == [(1,)]
    # The skew factor under the zero tail (1,) is not evaluated either.
    out, evaluated = _scripted_branching(
        monkeypatch, {(0,): 2.0 + 0j, (1,): 0.0 + 0j, (2,): 3.0 + 0j},
        {(0,): 0.0 + 0j, (2,): 2.0 + 0j})
    assert out == repr(6.0 + 0j)
    assert evaluated == [(0,), (2,)]


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
# theta quotient: settlement by key against a plain scan
# ---------------------------------------------------------------------------

def _expand(runs, q):
    """(value, key) of every argument of a ledger's runs, in order."""
    return [(base * q**k, key + k) for base, key, lo, hi in runs for k in range(lo, hi)]


def _theta_quotient_scan(num, den, q, p):
    """O(N M) reference: each numerator argument cancels the first remaining
    denominator argument of its key; a surviving key-0 argument is exact 0 in
    the numerator and a pole in the denominator."""
    den = _expand(den, q)
    rest = []
    for x, kx in _expand(num, q):
        for j, (_, ky) in enumerate(den):
            if ky == kx:
                den.pop(j)
                break
        else:
            rest.append((x, kx))
    if any(k == 0 for _, k in den):
        raise PoleCancellationError("uncancelled denominator theta vanishes")
    if any(k == 0 for _, k in rest):
        return 0.0 + 0j
    r = 1.0 + 0j
    for x, _ in rest:
        r = r * theta(x, p)
    for y, _ in den:
        ty = theta(y, p)
        if abs(ty) < POLE_TOL:
            raise PoleCancellationError("uncancelled denominator theta vanishes")
        r = r / ty
    return r


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except QidentError as exc:
        return f"{type(exc).__name__}: {exc}"


_bases = st.builds(
    lambda lg, phase: 10.0**lg * cmath.exp(1j * phase),
    st.floats(-6, 6), st.floats(0, 2 * math.pi))
# (pool index, run start, run length); a pool entry's key is its index
# shifted by -2, so keys 0 and -k < 0 recur.
_picks = st.tuples(st.integers(0, 5), st.sampled_from([-2, -1, 0, 1]),
                   st.integers(0, 3))


def _build(pool, picks):
    return [(pool[i % len(pool)], i % len(pool) - 2, lo, lo + m) for i, lo, m in picks]


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(_bases, min_size=1, max_size=6),
       num=st.lists(_picks, max_size=8), den=st.lists(_picks, max_size=8),
       q=st.sampled_from([0.3, 2.5 - 1j]), p=st.sampled_from([0.0, 0.1]))
def test_theta_quotient_matches_scan(pool, num, den, q, p):
    num, den = _build(pool, num), _build(pool, den)
    assert _outcome(theta_quotient, num, den, q, p) == \
        _outcome(_theta_quotient_scan, num, den, q, p)


#: The cases whose evaluation settles W ledgers.
_W_LEDGER_CASES = ("multijackson", "simplifiedjackson", "duality", "flip", "weyldegree",
                   "multilateralfinite")


def test_theta_quotient_matches_scan_on_recorded_ledgers(monkeypatch):
    # Every ledger that the W-using cases settle at seeds 0-19, from their
    # p = 0 and p = 0.1 draws alike, settles to the scan's value or error.
    ledgers = []
    original = wfunc.theta_quotient

    def recorded(num, den, q, p):
        ledgers.append((list(num), list(den), q, p))
        return original(num, den, q, p)

    monkeypatch.setattr(wfunc, "theta_quotient", recorded)
    for case in _W_LEDGER_CASES:
        for seed in range(20):
            run_case(case, sample_params(case, seed))
    monkeypatch.undo()
    assert len(ledgers) == 2224
    assert collections.Counter(p for *_, p in ledgers) == {0.0: 2030, 0.1: 194}
    for num, den, q, p in ledgers:
        assert _outcome(theta_quotient, num, den, q, p) == \
            _outcome(_theta_quotient_scan, num, den, q, p), (num, den, q, p)


def test_theta_quotient_edge_cases_match_scan():
    q, inf, nan = 0.3, math.inf, complex(math.nan, 1.0)
    one = (1.0, 0, 0, 1)  # the key-0 argument
    cases = [
        ([], []),
        ([(0.4, 5, 0, 1)], []),
        ([], [(0.4, 5, 0, 1)]),
        ([(0.4, 5, 0, 3)], [(0.4, 5, 0, 2)]),  # a run against a shorter one
        ([(0.4, 5, 0, 1)] * 3, [(0.4, 5, 0, 1)] * 2),  # duplicates
        ([one, (0.4, 5, 0, 1)], [one]),  # key 0 cancels key 0
        ([one, one], [one]),  # a net key-0 numerator
        ([one], [one, (0.4, 5, 0, 1)] * 2),  # a net key-0 denominator
        ([(q**-2, -2, 0, 3)], [(q**-1, -1, 1, 2)]),  # a run through key 0
        # equal keys cancel whatever the values, infinite or nan ...
        ([(inf, 3, 0, 1), (0.2, 1, 0, 1)], [(0.2, 1, 0, 1), (nan, 3, 0, 1)]),
        # ... and distinct keys never do, though the values coincide
        ([(1.0, 4, 0, 1), (0.5, 2, 0, 1)], [(1.0, 7, 0, 1)]),
        ([(1.0, 4, 0, 1)], [(0.5, 7, 0, 1)]),
        ([(0.5, 2, 0, 1)], [(0.5, 3, 0, 1), (0.5, 2, 0, 1)]),
        # equal keys, bases a bit apart: the lowest-index argument is
        # cancelled, so the value is 1 / theta(0.4 (1 + 2**-52)), not 1 / theta(0.4)
        ([(0.4, 5, 0, 1)], [(0.4, 5, 0, 1), (0.4 * (1 + 2**-52), 5, 0, 1)]),
    ]
    for num, den in cases:
        for p in (0.0, 0.1):
            assert _outcome(theta_quotient, num, den, q, p) == \
                _outcome(_theta_quotient_scan, num, den, q, p), (num, den, p)


def test_theta_quotient_cancellation_and_pole():
    q = 0.3
    # Equal keys cancel; theta(1; 0) = 0 is then harmless ...
    assert theta_quotient([(0.5, 7, 0, 1), (1.0, 0, 0, 1)],
                          [(1.0, 0, 0, 1)], q, 0.0) == 0.5
    # ... but an uncancelled key-0 denominator is a pole, and so is a
    # vanishing denominator theta whose value, not key, meets a numerator's.
    with pytest.raises(PoleCancellationError):
        theta_quotient([(0.5, 7, 0, 1)], [(1.0, 0, 0, 1)], q, 0.0)
    with pytest.raises(PoleCancellationError):
        theta_quotient([(0.5, 7, 0, 1), (1.0, 4, 0, 1)],
                       [(1.0, 9, 0, 1)], q, 0.0)
    # A value-1 numerator of nonzero key is a numerical zero, not a key's.
    assert theta_quotient([(1.0, 4, 0, 1)], [(0.5, 9, 0, 1)], q, 0.0) == 0


# ---------------------------------------------------------------------------
# theta_quotient's survivors: the numeric end of every ledger
# ---------------------------------------------------------------------------

def _theta_loop(num_args, den_args, p):
    """The survivors' product by its definition: theta() of each argument,
    in order."""
    r = 1.0 + 0j
    for x in num_args:
        r = r * theta(x, p)
    for y in den_args:
        ty = theta(y, p)
        if abs(ty) < POLE_TOL:
            raise PoleCancellationError("uncancelled denominator theta vanishes")
        r = r / ty
    return r


def _survivors(num_args, den_args):
    """One-argument runs (x, key, 0, 1) of distinct nonzero keys, so that
    every argument survives, with its value x unchanged (x * q**0)."""
    return ([(x, 2 + i, 0, 1) for i, x in enumerate(num_args)],
            [(y, 1000 + i, 0, 1) for i, y in enumerate(den_args)])


@settings(max_examples=100, deadline=None)
@given(num=st.lists(_bases, max_size=8), den=st.lists(_bases, max_size=8),
       p=st.sampled_from([0.0, 0j, 0.1, 0.05 + 0.02j]))
def test_theta_quotient_survivors_match_the_theta_loop(num, den, p):
    # p = 0 multiplies 1 - x inline; p != 0 calls theta.  Both give the
    # loop's value, bit for bit.
    assert _outcome(theta_quotient, *_survivors(num, den), 0.3, p) == \
        _outcome(_theta_loop, num, den, p)


def test_theta_quotient_survivor_zero_arguments_and_poles():
    near_one = 1 + POLE_TOL / 2  # |1 - y| below POLE_TOL
    cases = [
        ([0.5, 0.0], [0.3]),  # an argument 0 on either side: theta's DomainError
        ([0.5], [0.3, 0j]),
        ([0.5], [near_one]),  # a vanishing denominator theta: a pole
        ([0.5], [1 + 2 * POLE_TOL]),  # just above POLE_TOL at p = 0: a value
        ([0.0], [near_one]),  # the numerator's error comes first ...
        ([0.5], [near_one, 0.0]),  # ... and the denominators' in their order
        ([0.5], [0.0, near_one]),
    ]
    for num, den in cases:
        for p in (0.0, 0.1):
            assert _outcome(theta_quotient, *_survivors(num, den), 0.3, p) == \
                _outcome(_theta_loop, num, den, p), (num, den, p)
    with pytest.raises(DomainError, match="theta requires x != 0"):
        theta_quotient(*_survivors([0.5], [0j]), 0.3, 0.0)
    with pytest.raises(PoleCancellationError):
        theta_quotient(*_survivors([0.5], [near_one]), 0.3, 0.0)
    with pytest.raises(DomainError, match=r"\|p\| < 1"):  # the p != 0 path
        theta_quotient(*_survivors([0.5], []), 0.3, 1.5)


def test_theta_quotient_takes_every_value_before_any_theta():
    # At q = 1e-200 a run at k = -3 overflows in q**k.  Every survivor gets
    # its value first, in ledger order, so that OverflowError comes before
    # the DomainError of a numerator argument 0 and before the pole of a
    # denominator argument met earlier in the ledger.
    q = 1e-200
    for num, den in (([(0.0, 7, 0, 1)], [(1.0, 9, -3, -2)]),
                     ([(0.5, 7, 0, 1)], [(1 + 1e-12, 9, 0, 1), (1.0, 11, -3, -2)])):
        with pytest.raises(OverflowError):
            theta_quotient(num, den, q, 0.0)


# ---------------------------------------------------------------------------
# keyed ledgers: cancellation by monomial key, exact zeros and poles
# ---------------------------------------------------------------------------

def test_keyed_quotient_zero_pole_and_survivors():
    q = 0.3
    # Numerator run q^-2, q^-1, q^0: its key-0 argument is an exact zero ...
    assert theta_quotient([(q**-2, -2, 0, 3)], [], q, 0.0) == 0
    # ... and a pole in the denominator, also under a numerator zero.
    for num, den in (([], [(q**-2, -2, 0, 3)]),
                     ([(q**-1, -1, 0, 2)], [(q**-1, -1, 0, 2), (q, 1, -1, 0)])):
        with pytest.raises(PoleCancellationError):
            theta_quotient(num, den, q, 0.0)
    # Equal keys cancel, whatever the float values: the survivors are the
    # numerator's q^-2, q^-1 (key-0 q^0 against the bare denominator 1.0) and
    # the denominator's q^2.
    assert theta_quotient([(q**-2, -2, 0, 3)], [(1.0, 0, 0, 1), (q, 1, 1, 2)],
                          q, 0.0) == theta_quotient(*_survivors([q**-2, q**-2 * q], [q * q]),
                                                    q, 0.0)


def test_keyed_skew_factors_match_the_p0_transcription(monkeypatch):
    # Every skew factor of the multilateralfinite windows of seeds 0-63 and
    # of the rank-2 window lam = (2, 1), delta = 0 is keyed in (s, q).  Where
    # the independent p = 0 transcription is defined at the same values (no
    # factor of it vanishes), it agrees: with each nonzero keyed value, and
    # with each exact 0 below 1e-11.  Each index pair (lam, mu) of them also
    # agrees with it at a generic point, through plain keys.
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
    seen = collections.Counter()
    for x, lam, mu, wp in calls:
        assert isinstance(x, Keyed) and wp.keys[0] == 1
        keyed = original(x, lam, mu, wp)
        try:
            want = _w_skew_oracle_p0(x.value, lam, mu, wp.q, wp.t, wp.a, wp.b)
        except (ArithmeticError, DivisionByVanishingFactor):  # a vanishing factor
            seen["zero" if keyed == 0 else "nonzero", "undefined"] += 1
            continue
        if keyed == 0:
            assert abs(want) < 1e-11, (x, lam, mu, wp)
            seen["zero", "agrees"] += 1
        else:
            assert rel(keyed, want) < 1e-9, (x, lam, mu, wp)
            seen["nonzero", "agrees"] += 1
    assert seen == {("zero", "undefined"): 2742, ("zero", "agrees"): 141,
                    ("nonzero", "undefined"): 622, ("nonzero", "agrees"): 311}
    pairs = sorted({(lam, mu) for _, lam, mu, _ in calls})
    assert len(pairs) == 262
    rng = random.Random(53)
    for lam, mu in pairs:
        q, t = rng.uniform(0.15, 0.5), rng.uniform(0.2, 0.7)
        a, b, x = cscalar(rng), cscalar(rng), cscalar(rng, 0.5, 1.5)
        got = wfunc.zw_skew_single(x, lam, mu, WParams(q, 0.0, t, a, b))
        assert rel(got, _w_skew_oracle_p0(x, lam, mu, q, t, a, b)) < 1e-12, (lam, mu)


def _survivor_count(num, den):
    """None for a ledger that its net key-0 count settles, else the number
    of its arguments that no argument of equal key cancels."""
    nk, dk = (collections.Counter(key + k for _, key, lo, hi in runs for k in range(lo, hi))
              for runs in (num, den))
    if nk[0] != dk[0]:
        return None
    return sum((nk - dk).values()) + sum((dk - nk).values())


def test_rank2_window_evaluates_fewer_numeric_ledgers(monkeypatch):
    # Before keys, each of the rank-2 window's 135 skew ledgers was
    # multiplied out (8,550 arguments).  Keyed, theta_quotient settles all
    # 135: 97 by their key-0 count, and it multiplies the 374 surviving
    # arguments of the other 38.
    ledgers = []
    original = wfunc.theta_quotient

    def recorded(num, den, q, p):
        ledgers.append((list(num), list(den)))
        return original(num, den, q, p)

    monkeypatch.setattr(wfunc, "theta_quotient", recorded)
    r = run_case("multilateralfinite", _MLAT_FINITE_RANK2)
    assert r.status == "pass" and r.terms_used == 121
    assert len(ledgers) == 135
    survivors = [c for c in (_survivor_count(num, den) for num, den in ledgers)
                 if c is not None]
    assert (len(ledgers) - len(survivors), len(survivors), sum(survivors)) == (97, 38, 374)


def test_principal_w_keys_every_s_and_refuses_unit_q():
    # s at a power of q is keyed as any s is: a power of q that equals an
    # argument of nonzero key is then a zero or a pole, never a cancellation.
    q = 0.3
    for s in (1.0, q**3, q**-2, q**0.5, -(q**1.5), q * (1 + 1e-9), 0.4 + 0.2j, 0.0):
        wp, xv = _principal_w(2, 1, q, s, [3, 1])
        assert (wp.p, wp.t, wp.a, wp.b) == (0.0, q, s * q, q**2)
        assert wp.keys == (1, S_KEY + 1, 2)
        assert xv == [Keyed(q**3, 3), Keyed(q, 1)]
    # Where |q| = 1, q^k can be 1 at k != 0, and keys in q would be wrong.
    for q in (1.0, -1.0, 1j, cmath.exp(0.7j), 1 + 1e-8, 1 - 2e-8):
        with pytest.raises(DomainError, match=r"needs \|q\| clear of 1"):
            _principal_w(2, 1, q, 0.4 + 0.2j, [3, 1])
    _principal_w(2, 1, 1 + 3e-8, 0.4 + 0.2j, [3, 1])


def _rank3(case, seed, **changes):
    return case, seed, {**sample_params(case, seed), **changes}


#: One n = 3 draw per W case, so that the second H loop (i < j - 1) is met.
_RANK3_DRAWS = (
    _rank3("multijackson", 41), _rank3("simplifiedjackson", 41), _rank3("weyldegree", 20),
    _rank3("duality", 0, n=3, lam=(2, 1), nu=(1, 1)),
    _rank3("flip", 0, xs=(*sample_params("flip", 0)["xs"], 0.5 - 0.4j), lam=(2, 1)),
    _rank3("multilateralfinite", 0, n=3, lam=(1,)))


def test_every_ledger_key_names_its_arguments_monomial():
    # key_oracle decodes every ledger argument's key into its monomial over
    # the call's solved generators and compares the values, at seeds 0-19 of
    # the six W cases and at one rank-3 draw of each: 151,948 arguments.
    draws = [(case, seed, None) for case in _W_LEDGER_CASES for seed in range(20)]
    draws += _RANK3_DRAWS
    checked = 0
    for case, seed, params in draws:
        report, args = check_ledger_keys(case, seed, params)
        assert report.status == "pass", (case, seed, report.message)
        checked += args
    assert checked == 151948


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
    rhs = zw_multi(xv, (part(mu, 1), part(mu, 2)), wp)
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
                    rhs = zw_multi(xv, muv, wp)
                    if abs(lhs) < 1e-12 and abs(rhs) < 1e-12:
                        continue
                    assert rel(lhs, rhs) < 1e-9, (n, N, delta, mu)


def _w_degree_tagged(mu, N, n, s, delta, q):
    """w_degree as it was written before its runs: one ("1" | "s" | "1/s", e)
    tuple per factor 1 - c q^e, zeros counted with list.count.  The bit-level
    oracle of test_w_degree_is_the_tagged_ledger_bit_for_bit."""
    num, den = [], []

    def add(factors, c, e0, m):
        factors.extend((c, e0 + k) for k in range(m))

    def add_ppoch(factors, c, e0, vec):
        for i in range(1, n + 1):
            add(factors, c, e0 + 1 - i, part(vec, i))

    add_ppoch(num, "1", -N, mu)
    add_ppoch(num, "s", delta + N + n - 1, mu)
    add_ppoch(den, "1", N + delta + 2 * n - 1, mu)
    add_ppoch(den, "1/s", n - N, mu)
    for j in range(2, n + 1):
        for i in range(1, j):
            dm = part(mu, i) - part(mu, j)
            sm = part(mu, i) + part(mu, j)
            add(num, "1", j - i + 1, dm)
            add(num, "1", delta + 2 * n - i - j + 1, sm)
            add(den, "1", j - i, dm)
            add(den, "1", delta + 2 * n - i - j, sm)

    zero_num = num.count(("1", 0))
    zero_den = den.count(("1", 0))
    if zero_num > zero_den:
        return 0.0 + 0j
    if zero_den > zero_num:
        raise DivisionByVanishingFactor("degree formula: uncancelled zero denominator")
    one, start = units(q)
    coeff = {"1": start, "s": s, "1/s": one / s}
    r = start
    for c, e in num:
        if (c, e) != ("1", 0):
            r = r * (one - coeff[c] * q**e)
    for c, e in den:
        if (c, e) != ("1", 0):
            r = r / (one - coeff[c] * q**e)
    return r


def test_w_degree_is_the_tagged_ledger_bit_for_bit():
    # Every value, exception type and message of w_degree equals the tagged
    # ledger's over n <= 3, parts <= 3, N in 1..3, delta in -3..1, q in {0.2,
    # 0.4} and a real, a complex and a 50-digit s, with s = 0 (one / s), s
    # q = 1 (a numerator factor 0) and q / s = 1 (a denominator factor 0).
    # The factor order is part of the bits: interleaving the 1 and s rows
    # moves values in their last digits.
    ctx = mp_context(50)
    outcomes = collections.Counter()
    for n, N, delta, q in itertools.product((1, 2, 3), (1, 2, 3), range(-3, 2), (0.2, 0.4)):
        q50 = ctx.mpf(q)
        for mu in box_partitions(n, 3):
            muv = tuple(part(mu, i) for i in range(1, n + 1))
            for s, qs in ((0.3, q), (0.3 + 0.1j, q), (ctx.mpc("0.3", "0.1"), q50),
                          (0.0, q), (1 / q, q), (q, q)):
                got = _w_outcome(w_degree, muv, N, n, s, delta, qs)
                assert got == _w_outcome(_w_degree_tagged, muv, N, n, s, delta, qs), \
                    (muv, N, n, s, delta, q)
                outcomes[got.split(":")[0] if ":" in got
                         else "zero" if got == repr(0j) else "value"] += 1
    assert set(outcomes) == {"value", "zero", "DivisionByVanishingFactor",
                             "ZeroDivisionError"}, outcomes
    # ROADMAP item 22's draw: the Delta factor 1 - q^0 is counted on both sides.
    assert w_degree((2, 1, 1), 2, 3, 0.3 + 0.1j, -3, 0.4) != 0
