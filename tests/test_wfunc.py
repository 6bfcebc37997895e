"""Partition-indexed Pochhammer and W-function tests."""

import itertools
import random

import pytest

from qident.partitions import is_horizontal_strip, normalize, part, weight
from qident.qcore import poch_int
from qident.wfunc import (
    WParams,
    poch_partition,
    poch_partition_multi,
    w_degree,
    w_multi,
    w_skew_single,
    zw_multi_reg,
)

from conftest import rel


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
    wp = WParams(0.3, 0.0, 0.5, 0.0, 0.0)
    assert poch_partition(0.7 + 0.2j, wp, ()) == 1


def test_poch_partition_vanishing_row():
    wp = WParams(0.25, 0.0, 0.5, 0.0, 0.0)
    # (a)_1 * (a/t)_1 = (1-0.5)(1-1.0) = 0
    assert abs(poch_partition(0.5, wp, (1, 1))) < 1e-14


def test_poch_partition_single_row_matches_poch_int():
    wp = WParams(0.25, 0.0, 0.3, 0.0, 0.0)
    val = poch_partition(0.5, wp, (2,))
    assert rel(val, poch_int(0.5, 0.25, 2)) < 1e-14
    assert abs(val - 0.4375) < 1e-14


def test_poch_partition_multi_examples():
    wp = WParams(0.25, 0.0, 0.3, 0.0, 0.0)
    assert poch_partition_multi([], wp, (2, 1)) == 1
    assert rel(poch_partition_multi([0.6 + 0.1j], wp, (2, 1)),
               poch_partition(0.6 + 0.1j, wp, (2, 1))) < 1e-15
    assert abs(poch_partition_multi([0.5, 0.2], wp, (1,)) - 0.4) < 1e-14


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
