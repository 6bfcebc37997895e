"""Identity registry: every supported summation/transformation identity is
verified by computing its two sides through disjoint code paths and reporting
the residual.

Each case is registered under a stable string id with a one-line description,
a parameter schema, a deterministic seeded sampler, and a verifier.  Samplers
draw free complex parameters with log-uniform moduli in [0.1, 0.9] and
uniform phases, rejecting draws that land within 1e-8 of a pole of either
side; bases (q, t, p) are drawn real positive so that convergence gates and
W evaluation stay well-conditioned.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import (
    ConfigError,
    DivisionByVanishingFactor,
    DomainError,
    NoConvergence,
    NonFiniteSide,
    QidentError,
)
from .partitions import (
    check_partition,
    lattice_window,
    nstat,
    normalize,
    part,
    subpartitions,
    weight,
)
from .policy import QPower, scalar_value
from .qcore import (
    MAX_FACTORS,
    PAIR_DENOMINATOR_VANISHES,
    PAIR_RECIPROCAL_VANISHES,
    THETA_MEMO,
    VANISH_TOL,
    csqrt,
    epoch,
    pair_poch_ratio,
    poch_inf_tail,
    poch_int,
    poch_multi,
    poch_multi_inf,
    tail_radius,
    theta,
)
from .series import SERIES_TOL, WINDOW_STEP, SeriesSpec, eval_psi, eval_phi
from .wfunc import (
    A_KEY,
    B_KEY,
    KEY_RADIX,
    T_KEY,
    X_KEY,
    Keyed,
    WParams,
    poch_partition_multi,
    w_degree,
    w_multi,
    zw_multi,
)

#: Below this magnitude both sides count as zero and the absolute residual
#: decides pass/fail.
BOTH_ZERO_EPS = 1e-12

#: Pole-proximity threshold for rejection sampling.
POLE_REJECT = 1e-8

#: Draws a rejection sampler makes before it gives up with DomainError.
SAMPLE_TRIES = 5000

#: Hard cap on lattice points for multilateral sums.
MAX_LATTICE_TERMS = 200_000

#: Monomial keys of the generators s and aprime, past wfunc's t, a, b and x
#: (see "Keyed ledgers" in wfunc).
S_KEY, APRIME_KEY = KEY_RADIX**5, KEY_RADIX**6


@dataclass
class IdentityReport:
    """Outcome of one two-sided identity evaluation."""

    case_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    terms_used: int
    status: str  # pass | fail | error
    message: str = ""


def judge(sides, tol, terms_used=1, message="", **extras):
    """The verdict on two or more sides against tol: the only code that
    computes residuals or sets a pass/fail status.  A side is a number, or a
    (zero count, value) pair (a number has count 0); unequal counts fail.
    Values are rounded with complex(), and a non-finite one is a
    NonFiniteSide error.  lhs and rhs are the first two sides, abs_residual
    their difference, rel_residual the worst pairwise relative residual; when
    every side lies below BOTH_ZERO_EPS the worst pairwise absolute residual
    decides.  params holds only the report-only extras: run_case names it."""
    values, counts = [], set()
    for side in sides:
        count, v = side if isinstance(side, tuple) else (0, side)
        v = complex(v)
        if not cmath.isfinite(v):
            raise NonFiniteSide(f"side {len(values) + 1} of {len(sides)} is {v}")
        values.append(v)
        counts.add(count)
    absr, relr = [], 0.0
    for i, u in enumerate(values):
        for v in values[:i]:
            absr.append(abs(v - u))
            relr = max(relr, absr[-1] / max(abs(v), abs(u), 1e-300))
    ok = (max(absr) if max(map(abs, values)) < BOTH_ZERO_EPS else relr) <= tol
    if len(counts) > 1:
        ok, message = False, message + " (mismatch)"
    return IdentityReport(case_id="", params=extras, lhs=values[0], rhs=values[1],
                          abs_residual=absr[0], rel_residual=relr, terms_used=terms_used,
                          status="pass" if ok else "fail", message=message)


def _case_tol(case_id, tol):
    """The tolerance of a run of case_id: tol, or the case's default when tol
    is None."""
    return CASES[case_id].default_tol if tol is None else tol


def error_report(case_id, params, tol, exc):
    """Error-status report for a run of case_id that raised exc (tol as in
    run_case: None is the case's default)."""
    return IdentityReport(
        case_id=case_id,
        params={**params, "tol": _case_tol(case_id, tol)},
        lhs=complex("nan"),
        rhs=complex("nan"),
        abs_residual=float("nan"),
        rel_residual=float("nan"),
        terms_used=0,
        status="error",
        message=f"{type(exc).__name__}: {exc}",
    )


# ---------------------------------------------------------------------------
# Rank-1 building blocks.
# ---------------------------------------------------------------------------

def vwp_jackson_term(k, b, sig, rho, gam, n, q):
    """k-th term of the terminating very-well-poised sum with head factor
    (1 - b q^{2k})/(1 - b) combined safely into (1 - b q^{2k}) (bq)_{k-1}."""
    if k == 0:
        return 1.0 + 0j
    head = (1 - b * q ** (2 * k)) * poch_int(b * q, q, k - 1)
    top = b * b * q ** (1 + n) / (sig * rho * gam)
    num = poch_multi([q**-n, sig, rho, gam, top], q, k)
    den = poch_multi(
        [q, b * q ** (1 + n), q * b / sig, q * b / rho, q * b / gam,
         sig * rho * gam * q ** (-n) / b], q, k)
    return head * num / den * q**k


def jackson_delta_product(b, sig, rho, gam, n, q):
    """Closed product side of the terminating very-well-poised sum."""
    num = poch_multi([q * b, q * b / (sig * rho), q * b / (sig * gam),
                      q * b / (rho * gam)], q, n)
    den = poch_multi([q * b / sig, q * b / rho, q * b / gam,
                      q * b / (sig * rho * gam)], q, n)
    return num / den


#: Threshold below which a product factor counts as a structural zero in the
#: factored evaluation of the flipped summand at the lattice point z = delta/2.
STRUCT_ZERO_TOL = 1e-10


def _poch_inf_split(a, q):
    """(zeros, value): (a;q)_inf with exact-zero factors counted apart from
    the regular part, memoized as theta is plus a "split" tag.  A zero has
    |a q^k| near 1 > tail_radius(q), so it lies before the Euler tail."""
    memo = THETA_MEMO.get({})
    key = ("split", a, q, type(a), type(q))
    v = memo.get(key)
    if v is None:
        v = memo[key] = _poch_inf_split_product(a, q)
    return v


def _poch_inf_split_product(a, q):
    if abs(q) >= 1:
        raise DomainError("poch_inf requires |q| < 1")
    rho = tail_radius(q)
    zeros = 0
    r = 1.0 + 0j
    x = a
    for _ in range(MAX_FACTORS):
        if abs(x) <= rho:
            return zeros, r * poch_inf_tail(x, q)
        f = 1 - x
        if abs(f) < STRUCT_ZERO_TOL:
            zeros += 1
        else:
            r = r * f
        x = x * q
    raise NoConvergence("factored infinite product: max_factors reached")


def flipped_summand_structured(u, z, sig, rho, gam, n, q):
    """Infinite-product form of the b = q^{2z} summand, as a function of the
    reflected index u (the direct summand corresponds to u = z + k), returned
    as (net_zero_count, regular_value); all powers of q use the principal
    branch.

    At the weight-lattice point z = delta/2 individual infinite products in
    the expression vanish or diverge; those exact-zero factors are counted
    (numerator minus denominator) while the product of all remaining factors
    is returned as the regular value.  Two evaluations represent the same
    finite quantity iff both components agree."""
    srg = sig * rho * gam
    num_args = [sig, rho, sig * q ** (-2 * z), rho * q ** (-2 * z),
                gam, q ** (4 * z + 1 + n) / srg, gam * q ** (-2 * z),
                q ** (1 + n + 2 * z) / srg,
                q ** (1 - z - u), q ** (1 + n + z - u),
                q ** (1 - z + u), q ** (1 + n + z + u),
                q ** (-2 * u), q ** (2 * u)]
    den_args = [q ** (-2 * z), q ** (2 * z),
                q ** (1 - 2 * z), q ** (1 + n), q, q ** (1 + n + 2 * z),
                sig * q ** (-z + u), rho * q ** (-z + u),
                sig * q ** (-z - u), rho * q ** (-z - u),
                gam * q ** (-z + u), q ** (3 * z + 1 + n + u) / srg,
                gam * q ** (-z - u), q ** (3 * z + 1 + n - u) / srg]
    zeros = 0
    val = q ** (-z * z) * q ** (u * u)
    for a in num_args:
        zc, v = _poch_inf_split(a, q)
        zeros += zc
        val = val * v
    for a in den_args:
        zc, v = _poch_inf_split(a, q)
        zeros -= zc
        val = val / v
    return zeros, val


def bilateral_finite_spec(sig, rho, gam, n, delta, q):
    """SeriesSpec of the bilateral form of the terminating sum; the QPower
    tags make the support [-n-delta, n] a structural consequence."""
    srg = sig * rho * gam
    return SeriesSpec(
        numerator=[QPower(-n), sig, rho, gam, q ** (2 * delta + 1 + n) / srg],
        denominator=[QPower(delta + 1 + n), q ** (1 + delta) / sig,
                     q ** (1 + delta) / rho, q ** (1 + delta) / gam,
                     srg * q ** (-delta - n)],
        argument=q,
        q=q,
    )


# ---------------------------------------------------------------------------
# Rank-n building blocks.
# ---------------------------------------------------------------------------

def _vwp_delta(vec, n, c, B, q, p, t):
    """The very-well-poised Delta factor of an index vector over 1 <= i < j <= n:
    prod (c t^{j-i+1}; q,p)_{dm} (B t^{1-i-j}; q,p)_{sm}
         / ((c t^{j-i}; q,p)_{dm} (B t^{-i-j}; q,p)_{sm}),
    with dm = vec_i - vec_j and sm = vec_i + vec_j."""
    r = 1.0 + 0j
    for j in range(2, n + 1):
        for i in range(1, j):
            dm = part(vec, i) - part(vec, j)
            sm = part(vec, i) + part(vec, j)
            r = r * epoch(c * t ** (j - i + 1), q, p, dm) \
                * epoch(B * t ** (1 - i - j), q, p, sm) \
                / (epoch(c * t ** (j - i), q, p, dm) * epoch(B * t ** (-i - j), q, p, sm))
    return r


def _jackson_point(lam, n, q, t):
    """The keyed variables x_i = q^{lam_i} t^{n-i} of the Jackson right sides."""
    return [Keyed(q ** part(lam, i) * t ** (n - i), part(lam, i) + (n - i) * T_KEY)
            for i in range(1, n + 1)]


def simplified_jackson_lhs(x, lam, q, p, t, a, b, s):
    return poch_partition_multi([s / x, a * s * x], q, p, t, lam) \
        / poch_partition_multi([q * b * x, q * b / (a * x)], q, p, t, lam)


def simplified_jackson_rhs(x, lam, n, q, p, t, a, b, s):
    total = 0.0 + 0j
    pref = poch_partition_multi([s, a * s], q, p, t, lam) \
        / poch_partition_multi([q * b, q * b / a], q, p, t, lam)
    xl = _jackson_point(lam, n, q, t)
    wp = WParams(q, p, t, b * s * t ** (2 - 2 * n), b * t ** (1 - n),
                 (T_KEY, B_KEY + S_KEY + (2 - 2 * n) * T_KEY, B_KEY + (1 - n) * T_KEY))
    memo = {}
    for mu in subpartitions(lam):
        term = pref * q ** weight(mu) * t ** (2 * nstat(mu))
        term = term \
            * poch_partition_multi([b * t ** (1 - n), q * b / (a * s)], q, p, t, mu) \
            / poch_partition_multi([q * t ** (n - 1), a * s], q, p, t, mu)
        for i in range(1, n + 1):
            mi = part(mu, i)
            if mi:
                term = term * theta(b * t ** (2 - 2 * i) * q ** (2 * mi), p) \
                    / theta(b * t ** (2 - 2 * i), p)
        term = term * _vwp_delta(mu, n, q / t, b * t**2, q, p, t)
        term = term * w_multi(xl, mu, (), wp, memo)
        term = term * poch_partition_multi([1 / x, a * x], q, p, t, mu) \
            / poch_partition_multi([q * b * x, q * b / (a * x)], q, p, t, mu)
        total += term
    return total


def multiple_jackson_lhs(zvars, lam, n, q, p, t, a, b):
    wp = WParams(q, p, t, a * t ** (-2 * n), b * t ** (-n))
    return w_multi(zvars, lam, (), wp, memo={})


def multiple_jackson_rhs(zvars, lam, n, q, p, t, a, b, s):
    pref = poch_partition_multi([s, a / (s * t ** (n + 1))], q, p, t, lam) \
        / poch_partition_multi([q * b / (s * t), q * b * t**n * s / a], q, p, t, lam)
    pref = pref * _vwp_delta(lam, n, 1, q * b, q, p, t)
    xl = _jackson_point(lam, n, q, t)
    zs = [Keyed(zi * s, X_KEY + S_KEY) for zi in zvars]
    bk = B_KEY - S_KEY - n * T_KEY  # the key of b / (s t^n)
    wp1 = WParams(q, p, t, b * t ** (1 - 2 * n), b / (s * t**n),
                  (T_KEY, B_KEY + (1 - 2 * n) * T_KEY, bk))
    wp2 = WParams(q, p, t, a / (s * s * t ** (2 * n)), b / (s * t**n),
                  (T_KEY, A_KEY - 2 * S_KEY - 2 * n * T_KEY, bk))
    memo1, memo2 = {}, {}
    total = 0.0 + 0j
    for mu in subpartitions(lam):
        term = poch_partition_multi([b / (s * t**n), q * b * t**n / a], q, p, t, mu) \
            / poch_partition_multi([q * t ** (n - 1), a / (s * t ** (n + 1))],
                                   q, p, t, mu)
        for i in range(1, n + 1):
            mi = part(mu, i)
            if mi:
                term = term * theta(b / s * t ** (1 - 2 * i) * q ** (2 * mi), p) \
                    / theta(b / s * t ** (1 - 2 * i), p)
            term = term * (q * t ** (2 * i - 2)) ** mi
        term = term * _vwp_delta(mu, n, q / t, b * t / s, q, p, t) \
            / _vwp_delta(mu, n, 1, q * b / s, q, p, t)
        term = term * w_multi(xl, mu, (), wp1, memo1)
        term = term * w_multi(zs, mu, (), wp2, memo2)
        total += term
    return pref * total


def duality_side(lam, nu, n, q, t, a, aprime, b):
    """One side of the duality relation; the other side is the same function
    with (lam, a) and (nu, aprime) exchanged."""
    k = aprime * t ** (n - 1) / b
    kk = APRIME_KEY + (n - 1) * T_KEY - B_KEY  # the key of k
    xv = [Keyed(q ** part(nu, i) * t ** (n - i) / k, part(nu, i) + (n - i) * T_KEY - kk)
          for i in range(1, n + 1)]
    wp = WParams(q, 0.0, t, k * k * a, k * b, (T_KEY, 2 * kk + A_KEY, kk + B_KEY))
    r = w_multi(xv, lam, (), wp, memo={})
    r = r * poch_partition_multi([q * b * t ** (n - 1), q * b / a], q, 0.0, t, lam) \
        / poch_partition_multi([k, k * a * t ** (n - 1)], q, 0.0, t, lam)
    return r / _vwp_delta(lam, n, 1, q * aprime * t ** (2 * n - 1), q, 0.0, t)


def flip_sides(xvars, lam, q, p, t, a, b):
    """Both sides of the inversion (flip) identity for W."""
    n = len(xvars)
    w = weight(lam)
    ns = nstat(lam)
    inv = WParams(1 / q, p, 1 / t, 1 / a, 1 / b)
    lhs = a**w * b ** (-w) * q ** (-w) * t ** (-ns + (n - 1) * w) \
        * w_multi([1 / x for x in xvars], lam, (), inv, memo={})
    rhs = a ** (-w) * b**w * q**w * t ** (ns - (n - 1) * w) \
        * w_multi(xvars, lam, (), WParams(q, p, t, a, b), memo={})
    return lhs, rhs


# ---------------------------------------------------------------------------
# Multilateral (Z^n) building blocks.
# ---------------------------------------------------------------------------

def mlat_norm(n, delta, q):
    """Normalization constant of the multilateral bilateralization: the
    ratio (one-sided sum)/(full lattice sum), fixed by the rank-1 reduction
    and verified against the finite one-sided identity.  At n = 1 it is the
    normalization of the bilateral sums (bilateralfinite, 3psi3delta*)."""
    r = 1.0 + 0j
    if delta == 0:
        for i in range(1, n):
            r = r / (1 + q ** (n - i))
    else:
        for i in range(1, n + 1):
            r = r / (1 - q ** (1 + 2 * n - 2 * i))
    return r


def _mlat_pairs(i, n, delta, q, s, a, x):
    """The (anum, aden) arguments of coordinate i's three paired-ratio
    Pochhammers in the multilateral summands, at shift q^{1-i}."""
    big = q ** (delta + 2 * n - 1)
    shift = q ** (1 - i)
    return ((big / (a * s) * shift, a * s * shift),
            (shift / x, big * x * shift),
            (a * x * shift, big / (a * x) * shift))


def _principal_w(n, delta, q, s, exps):
    """W parameters p = 0, t = q, a = s q^delta, b = q^{delta+n-1} and the
    variables x_i = q^{exps_i} of the multilateral and degree identities,
    with monomial keys in (s, q) (wfunc's "Keyed ledgers"), at any s.

    Refused with DomainError when |q| lies within 2 POLE_REJECT of 1: there
    a power q^k with k != 0 can be 1, and keys in q would be wrong."""
    if abs(abs(q) - 1) <= 2 * POLE_REJECT:
        raise DomainError(f"principal W point needs |q| clear of 1, got q = {q!r}")
    a, b = s * q**delta, q ** (delta + n - 1)
    return (WParams(q, 0.0, q, a, b, (1, S_KEY + delta, delta + n - 1)),
            [Keyed(q**e, e) for e in exps])


def mlat_finite_summand(mu, lam, n, delta, q, s, a, x, memo=None):
    """Summand of the finite multilateral identity at mu in Z^n (0 unless mu
    is dominant).  One memo serves every mu of one (lam, n, delta, q, s, a,
    x) and holds what they share, made on first use: the principal W point,
    the Delta denominators, per coordinate and order the pair ratios (filled
    when a point first reads them, so a ratio that raises does so at the
    point that reads it) and zw_multi's W values."""
    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    if memo is None:
        memo = {}
    shared = memo.get("mlat")
    if shared is None:
        wp, xl = _principal_w(n, delta, q, s, [part(lam, i) + n - i for i in range(1, n + 1)])
        pairs = [_mlat_pairs(i, n, delta, q, s, a, x) for i in range(1, n + 1)]
        cross = [(i - 1, j - 1, j - i, 1 - q ** (j - i), delta + 2 * n - i - j,
                  1 - q ** (delta + 2 * n - i - j))
                 for j in range(2, n + 1) for i in range(1, j)]
        shared = memo["mlat"] = (wp, xl, pairs, [{} for _ in pairs], cross)
    wp, xl, pairs, ratios, cross = shared
    term = q ** (weight(mu) + 2 * nstat(mu))
    r = 1.0 + 0j
    for pr, table, k in zip(pairs, ratios, mu):
        row = table.get(k)
        if row is None:
            row = table[k] = [pair_poch_ratio(anum, aden, q, k) for anum, aden in pr]
        for f in row:
            r = r * f
    term = term * r
    if term == 0:
        return term
    for i, j, e, de, f, df in cross:
        term = term * (1 - q ** (e + mu[i] - mu[j])) / de
        term = term * (1 - q ** (f + mu[i] + mu[j])) / df
    if term == 0:
        return term
    return term * zw_multi(xl, mu, wp, memo=memo)


def mlat_3psi3_summand(mu, n, delta, q, s, a, x):
    """Summand of the multilateral bilateral summation at mu in Z^n.

    Vanishes for non-dominant mu (inherited from the W factor of the finite
    form, whose principal limit is taken termwise)."""
    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    w = weight(mu)
    term = (s * q ** (1 - n)) ** w * q ** (2 * nstat(mu))
    r = 1.0 + 0j
    for i in range(1, n + 1):
        for anum, aden in _mlat_pairs(i, n, delta, q, s, a, x):
            r = r * pair_poch_ratio(anum, aden, q, part(mu, i))
    term = term * r
    if term == 0:
        return term
    for j in range(2, n + 1):
        for i in range(1, j):
            dm = part(mu, i) - part(mu, j)
            sm = part(mu, i) + part(mu, j)
            term = term * ((1 - q ** (j - i + dm)) / (1 - q ** (j - i))) ** 2
            term = term * ((1 - q ** (delta + 2 * n - i - j + sm))
                           / (1 - q ** (delta + 2 * n - i - j))) ** 2
    return term


def mlat_finite_window(lam, n, delta):
    """Summation window of the finite multilateral identity: upper bound
    lam_i, lower bound -lam_i - 2n - 2i + delta (a conservative superset of
    the true support, enforced by the out-of-window vanishing check)."""
    upper = tuple(part(lam, i) for i in range(1, n + 1))
    lower = tuple(-part(lam, i) - 2 * n - 2 * i + delta for i in range(1, n + 1))
    return upper, lower


def _mlat_product_side(n, delta, q, s, a, x):
    """Infinite-product side of the multilateral bilateral summation,
    using (c)_{inf^n} = prod_{i=1..n} (c q^{1-i}; q)_inf.  A denominator
    that is exactly 0 raises DivisionByVanishingFactor where it is met."""
    big = q ** (delta + 2 * n - 1)

    def pn(c):
        return poch_multi_inf([c * q ** (1 - i) for i in range(1, n + 1)], q)

    def den(c, d):
        r = pn(c) * pn(d)
        if r == 0:
            raise DivisionByVanishingFactor("multilateral product side: denominator vanishes")
        return r

    prod = pn(s / x) * pn(a * s * x) / den(s, a * s)
    prod = prod * pn(big) * pn(big / a) / den(big * x, big / (a * x))
    return prod / mlat_norm(n, delta, q)


class _CoordinateFactor:
    """The per-coordinate factor of the multilateral 3psi3 summand,
        g(m) = c^m prod_pairs (anum;q)_m / (aden;q)_m,
    tabulated outward from g(0) = 1 by its term ratio (Gasper-Rahman, sec. 1.2):
        g(m+1) = g(m) c prod (1 - anum q^m) / (1 - aden q^m)          (m >= 0),
        g(m-1) = g(m) / c prod (1 - aden q^{m-1}) / (1 - anum q^{m-1})  (m <= 0).

    The factors and their vanishing tests are those of qcore.pair_poch_ratio,
    and so are the errors: growth that meets a vanishing factor to divide by
    raises pair_poch_ratio's DivisionByVanishingFactor there, upper side first
    (a summand with this coordinate from there outward would raise it)."""

    def __init__(self, c, pairs, q):
        self.c, self.pairs, self.q = c, pairs, q
        self.up, self.down = [1.0 + 0j], []  # g(0), g(1), ... and g(-1), g(-2), ...

    def grow(self, m):
        """Tabulate g on [-m, m] and return the table: g(k) at index m - k."""
        q, c, up, down = self.q, self.c, self.up, self.down
        while len(up) <= m:
            qk = q ** (len(up) - 1)
            g = up[-1] * c
            for anum, aden in self.pairs:
                fd = 1 - aden * qk
                if abs(fd) < VANISH_TOL:
                    raise DivisionByVanishingFactor(PAIR_DENOMINATOR_VANISHES)
                g = g * (1 - anum * qk) / fd
            up.append(g)
        while len(down) < m:
            qk = q ** (-len(down) - 1)
            g = (down[-1] if down else up[0]) / c
            for anum, aden in self.pairs:
                fn = 1 - anum * qk
                if abs(fn) < VANISH_TOL:
                    raise DivisionByVanishingFactor(PAIR_RECIPROCAL_VANISHES)
                g = g * (1 - aden * qk) / fn
            down.append(g)
        return up[m::-1] + down[:m]


class _DeltaSquare:
    """((1 - q^{e0+d}) / (1 - q^{e0}))^2 for d in [-M, M], cached as the window
    grows: one Delta^2 factor of the multilateral summands."""

    def __init__(self, q, e0):
        self.q, self.e0 = q, e0
        self.up, self.down = [], []  # d = 0, 1, ... and d = -1, -2, ...

    def _value(self, d):
        q, e0 = self.q, self.e0
        try:
            r = (1 - q ** (e0 + d)) / (1 - q**e0)
        except OverflowError:
            return math.inf
        return r * r

    def grow(self, m):
        """Tabulate d in [-m, m] and return the table: d at index m - d."""
        while len(self.up) <= m:
            self.up.append(self._value(len(self.up)))
        while len(self.down) < m:
            self.down.append(self._value(-len(self.down) - 1))
        return self.up[m::-1] + self.down[:m]


def _dominant_runs(n, m, covered):
    """The dominant mu (mu_1 >= ... >= mu_n) of [-m, m]^n with max |mu_i| >
    covered, i.e. the dominant points a shell adds to the cube [-covered,
    covered]^n (all of them when covered < 0), as runs (head, hi, lo, tail):
    the points head + (k,) + tail for k = hi, hi - 1, ..., lo.

    The runs list the points in the order the shell sums add them:
    lexicographically descending when covered < 0.  Otherwise first the
    points with mu_1 > covered in that order, in runs along mu_n; then, by
    descending mu_n < -covered, the points with mu_1 <= covered,
    lexicographically descending, in runs along mu_{n-1} (along mu_1 = mu_n
    at n = 1, whose head is empty)."""
    cwr = itertools.combinations_with_replacement
    rim = covered if covered >= 0 else -m - 1  # mu_1 > rim
    for head in cwr(range(m, -m - 1, -1), n - 1):
        if head and head[0] <= rim:
            break
        yield (head, head[-1], -m, ()) if head else ((), m, rim + 1, ())
    if covered < 0:
        return
    if n == 1:
        yield (), -covered - 1, -m, ()
        return
    for low in range(-covered - 1, -m - 1, -1):
        for head in cwr(range(covered, low - 1, -1), n - 2):
            yield head, head[-1] if head else covered, low, (low,)


def _mlat_3psi3_sum(n, delta, q, s, a, x):
    """Lattice sum of mlat_3psi3_summand over Z^n by expanding hypercube shells
    [-m, m]^n with a tail test.

    A dominant mu's summand is prod_i g_i(mu_i) times the Delta^2 factor over
    i < j; g_i(m) is (s q^{1-n} q^{2(i-1)})^m times the three pair ratios at
    shift q^{1-i}.  Each g_i and each Delta^2 factor is tabulated once per call
    and grown with the window (_CoordinateFactor, _DeltaSquare).  Each shell
    enumerates only its new dominant points (the other summands vanish), as
    runs of points that differ in one coordinate (_dominant_runs), and one
    walk serves every rank.  A run carries the product (1.0+0j) g_1 ... g_{p-1}
    of the coordinates before its varying one p.  A point's product is that
    times its g_p, times the g of the fixed coordinates after p; it is
    skipped when 0, and otherwise multiplied by the Delta^2 factors of the
    pairs i < j (j outermost), each a constant or a slice of its table along
    the run.  That is mlat_3psi3_summand's factor order, and the runs keep
    the shell's point order, so the sum is bit for bit that of a walk that
    multiplies each point's tabulated factors in turn.

    terms_used counts every point of the window, (2m + 1)^n.  Each shell grows
    the coordinate tables, in coordinate order, before its budget check, and a
    table raises pair_poch_ratio's error where it meets a vanishing factor:
    a dominant point such as (v, ..., v) of that shell would read it."""
    factors = [_CoordinateFactor(s * q ** (1 - n + 2 * (i - 1)),
                                 _mlat_pairs(i, n, delta, q, s, a, x), q)
               for i in range(1, n + 1)]
    squares = {}  # one _DeltaSquare per exponent e0
    cross = []
    for j in range(2, n + 1):
        for i in range(1, j):
            for e0 in (j - i, delta + 2 * n - i - j):
                if e0 not in squares:
                    squares[e0] = _DeltaSquare(q, e0)
            cross.append((i - 1, j - 1, j - i, delta + 2 * n - i - j))

    total = 0.0 + 0j
    nterms = 0
    covered = -1
    m = WINDOW_STEP
    below = 0
    while True:
        tables = [f.grow(m) for f in factors]  # g_i(k) at index m - k
        M = 2 * m
        grown = {e0: sq.grow(M) for e0, sq in squares.items()}  # d at index M - d
        deltas = [(i, j, grown[e_dif], grown[e_dif][::-1], grown[e_sum])
                  for i, j, e_dif, e_sum in cross]
        count = (2 * m + 1) ** n - ((2 * covered + 1) ** n if covered >= 0 else 0)
        if nterms + count > MAX_LATTICE_TERMS:
            raise NoConvergence("multilateral sum: lattice budget exhausted")
        new = 0.0 + 0j
        for head, hi, lo, tail in _dominant_runs(n, m, covered):
            p = len(head)  # the varying coordinate
            mu = head + (None,) + tail
            v0 = 1.0 + 0j
            for g, k in zip(tables, head):
                v0 = v0 * g[m - k]
            run = [v0 * g for g in tables[p][m - hi:m - lo + 1]]
            for g, k in zip(tables[p + 1:], tail):
                c = g[m - k]
                run = [v * c for v in run]
            nonzero = run
            for i, j, dd, da, sd in deltas:  # d = mu_i - mu_j, s = mu_i + mu_j
                if p in (i, j):  # d ascends along the run when p = j
                    h = mu[i + j - p]
                    dcol = (da if p == j else dd)[M + h - hi:M + h - lo + 1]
                    run = [v * d * e for v, d, e in zip(run, dcol,
                                                        sd[M - h - hi:M - h - lo + 1])]
                else:
                    d, e = dd[M - mu[i] + mu[j]], sd[M - mu[i] - mu[j]]
                    run = [v * d * e for v in run]
            for v, z in zip(run, nonzero):
                if z:
                    new += v
        nterms += count
        total += new
        if abs(new) <= SERIES_TOL * max(abs(total), 1e-300):
            below += 1
            if below >= 2:
                return total, nterms, (-m, m)
        else:
            below = 0
        covered = m
        m += WINDOW_STEP
        if m > 200:
            raise NoConvergence("multilateral sum: window cap reached")


# ---------------------------------------------------------------------------
# Verifiers.
# ---------------------------------------------------------------------------

def verify_jackson_8phi7(a, b, c, d, n, q, tol):
    e = q ** (1 + n) * a * a / (b * c * d)
    sa = csqrt(a)
    spec = SeriesSpec(
        numerator=[a, q * sa, -q * sa, b, c, d, e, QPower(-n)],
        denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e,
                     a * q ** (n + 1)],
        argument=q, q=q)
    sv = eval_phi(spec)
    rhs = jackson_delta_product(a, b, c, d, n, q)
    return judge((sv.value, rhs), tol, sv.terms_used, e=e)


def _bailey_10phi9_left(a, b, c, d, e, f, n, q):
    """The left side of Bailey's 10phi9 transformation, in the arithmetic its
    arguments carry, as (value, SeriesValue of its series)."""
    lam = q * a * a / (b * c * d)
    sa = csqrt(a)
    left = SeriesSpec(
        numerator=[a, q * sa, -q * sa, b, c, d, e, f,
                   lam * a * q ** (n + 1) / (e * f), QPower(-n)],
        denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e,
                     a * q / f, e * f * q ** (-n) / lam, a * q ** (n + 1)],
        argument=q, q=q)
    sv = eval_phi(left)
    return sv.value, sv


def _bailey_10phi9_right(a, b, c, d, e, f, n, q):
    """The right side of Bailey's 10phi9 transformation, the prefactor times
    its series, in the arithmetic its arguments carry, as
    (value, SeriesValue of its series)."""
    lam = q * a * a / (b * c * d)
    sl = csqrt(lam)
    right = SeriesSpec(
        numerator=[lam, q * sl, -q * sl, lam * b / a, lam * c / a, lam * d / a,
                   e, f, lam * a * q ** (n + 1) / (e * f), QPower(-n)],
        denominator=[sl, -sl, a * q / b, a * q / c, a * q / d, lam * q / e,
                     lam * q / f, e * f * q ** (-n) / a, lam * q ** (n + 1)],
        argument=q, q=q)
    pref = poch_multi([a * q, a * q / (e * f), lam * q / e, lam * q / f], q, n) \
        / poch_multi([a * q / e, a * q / f, lam * q, lam * q / (e * f)], q, n)
    sv = eval_phi(right)
    return pref * sv.value, sv


def phi_rounding_bound(terms, r, s, condition):
    """Bound on the relative rounding error of a double eval_phi sum of
    r-phi-s terms: gamma_m * condition with gamma_m = m u / (1 - m u), the
    forward error bound of a recurrence-built sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3-4).  Each of the
    terms takes one recurrence step per index before it; a step rounds each
    of its r + s + 1 factors (1 - v q^k) (the (q;q)_k one included), and the
    argument and sign factors, at most 6 times, and adding a term rounds
    once, so m = terms * (6 (r + s + 3) + 1)."""
    u = sys.float_info.epsilon / 2
    m = terms * (6 * (r + s + 3) + 1)
    return m * u / (1 - m * u) * condition


#: A double 10phi9 series is reported only when its own rounding bound is at
#: most this fraction of the tolerance, so its pass/fail verdict and its
#: residual's leading digits are those of the 40-digit evaluation.  Each of
#: the two series is gated on its own; the right one's prefactor goes with
#: it.  The bound covers the sum, not the rounding of the derived parameters
#: (a q / b, ...) or of the prefactor; over sampler seeds 0-3999 the double
#: sides differed from the 40-digit ones by at most 0.07 of the bound.
DOUBLE_GATE = 1e-3

#: The digits of high-precision runs: cli promotes their parameters into
#: mp_context(HIGH_DPS).
HIGH_DPS = 50

#: The contexts of mp_context, by digits.
_CONTEXTS = {}


def mp_context(dps):
    """The mpmath context of dps digits, made on the first call for dps so
    that importing qident does not import mpmath.  Its precision is set when
    it is made and never changed after.  A value made in it (ctx.mpmathify)
    carries it: every operation on that value runs at dps digits, and the
    process-global mpmath.mp is left alone."""
    ctx = _CONTEXTS.get(dps)
    if ctx is None:
        import mpmath

        ctx = _CONTEXTS[dps] = mpmath.MPContext()
        ctx.dps = dps
    return ctx


def verify_bailey_10phi9(a, b, c, d, e, f, n, q, tol):
    """Bailey's 10phi9 transformation.  With double arguments each side is
    evaluated in double first and kept when the rounding bound of its own
    series is at most DOUBLE_GATE * tol; a side that fails its gate, or
    raises, is evaluated again in the 40-digit context, the right series
    together with its prefactor.  mpmath arguments evaluate both sides in the
    context of max(40, the digits of the arguments' contexts)."""
    args = (a, b, c, d, e, f, q)
    digits = [v.context.dps for v in args if not isinstance(v, (int, float, complex))]
    values, terms = [], 0
    for side in (_bailey_10phi9_left, _bailey_10phi9_right):
        kept = False
        if not digits:
            try:
                value, sv = side(a, b, c, d, e, f, n, q)
                kept = phi_rounding_bound(sv.terms_used, 10, 9, sv.condition) \
                    <= DOUBLE_GATE * tol
            except (QidentError, ArithmeticError):
                pass  # the high-precision evaluation decides
        if not kept:
            high = mp_context(max([40] + digits))
            va, vb, vc, vd, ve, vf, vq = (high.mpmathify(complex(v)) for v in args)
            value, sv = side(va, vb, vc, vd, ve, vf, n, vq)
        values.append(value)
        terms += sv.terms_used
    return judge(values, tol, terms)


def verify_bailey_6psi6(a, b, c, d, e, q, tol):
    av, bv, cv, dv, ev = (scalar_value(v, q) for v in (a, b, c, d, e))
    x = q * av * av / (bv * cv * dv * ev)
    if abs(x) > 0.5:
        raise DomainError("6psi6 requires |q a^2 / bcde| <= 0.5")
    sa = csqrt(av)
    spec = SeriesSpec(
        numerator=[q * sa, -q * sa, b, c, d, e],
        denominator=[sa, -sa, av * q / bv, av * q / cv, av * q / dv, av * q / ev],
        argument=x, q=q)
    sv = eval_psi(spec)
    aq = av * q
    rhs = poch_multi_inf(
        [aq, aq / (bv * cv), aq / (bv * dv), aq / (bv * ev), aq / (cv * dv),
         aq / (cv * ev), aq / (dv * ev), q, q / av], q) \
        / poch_multi_inf(
            [aq / bv, aq / cv, aq / dv, aq / ev, q / bv, q / cv, q / dv, q / ev, x], q)
    return judge((sv.value, rhs), tol, sv.terms_used,
                 message=f"terminated={sv.terminated} window={sv.window}")


def verify_ramanujan_1psi1(a, b, x, q, tol):
    av, bv = scalar_value(a, q), scalar_value(b, q)
    if not (abs(bv / av) < abs(x) < 1):
        raise DomainError("1psi1 requires |b/a| < |x| < 1")
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q)
    sv = eval_psi(spec)
    rhs = poch_multi_inf([q, bv / av, av * x, q / (av * x)], q) \
        / poch_multi_inf([bv, q / av, x, bv / (av * x)], q)
    return judge((sv.value, rhs), tol, sv.terms_used,
                 message=f"terminated={sv.terminated} window={sv.window}")


def verify_c1_macdonald(x, tol):
    if abs(1 - x * x) < POLE_REJECT:
        raise DomainError("x^2 = 1 is a pole of the C1 identity")
    rhs = 1 / (1 - x * x) + 1 / (1 - x ** (-2))
    return judge((1.0 + 0j, rhs), tol)


def verify_flipped_summand(sigma, rho, gamma, q, n, z, k, tol):
    b = q ** (2 * z)
    lhs = vwp_jackson_term(k, b, sigma, rho, gamma, n, q)
    zeros, rhs = flipped_summand_structured(z + k, z, sigma, rho, gamma, n, q)
    # A pole of the product form is one of the term too, and the term is
    # evaluated first; the count is still never dropped silently.
    if zeros < 0:
        raise DivisionByVanishingFactor("flipped summand: net zero count "
                                        f"{zeros} in the product form")
    if zeros > 0:
        rhs = 0.0 + 0j
    return judge((lhs, rhs), tol)


def verify_bilateral_finite(sigma, rho, gamma, q, n, delta, tol):
    b = q**delta
    uni = sum(vwp_jackson_term(k, b, sigma, rho, gamma, n, q) for k in range(n + 1))
    sv = eval_psi(bilateral_finite_spec(sigma, rho, gamma, n, delta, q))
    bil = mlat_norm(1, delta, q) * sv.value
    prod = jackson_delta_product(b, sigma, rho, gamma, n, q)
    return judge((bil, prod, uni), tol, sv.terms_used,
                 message=f"unilateral={complex(uni):.12g} window={sv.window}")


def verify_3psi3(sigma, rho, gamma, q, delta, tol):
    srg = sigma * rho * gamma
    x = q ** (delta + 1) / srg
    if abs(x) >= 0.9:
        raise DomainError("3psi3 requires |q^{delta+1}/(sigma rho gamma)| < 0.9")
    spec = SeriesSpec(
        numerator=[sigma, rho, gamma],
        denominator=[q ** (1 + delta) / sigma, q ** (1 + delta) / rho,
                     q ** (1 + delta) / gamma],
        argument=x, q=q)
    sv = eval_psi(spec)
    lhs = mlat_norm(1, delta, q) * sv.value
    qd = q ** (1 + delta)
    rhs = poch_multi_inf([qd, qd / (sigma * rho), qd / (sigma * gamma),
                          qd / (rho * gamma)], q) \
        / poch_multi_inf([qd / sigma, qd / rho, qd / gamma, qd / srg], q)
    return judge((lhs, rhs), tol, sv.terms_used, message=f"window={sv.window}",
                 delta=delta)


def verify_multiple_jackson(lam, n, z, q, p, t, a, b, s, tol):
    lhs = multiple_jackson_lhs(z, lam, n, q, p, t, a, b)
    rhs = multiple_jackson_rhs(z, lam, n, q, p, t, a, b, s)
    return judge((lhs, rhs), tol, len(subpartitions(lam)))


def verify_simplified_jackson(lam, n, x, q, p, t, a, b, s, tol):
    lhs = simplified_jackson_lhs(x, lam, q, p, t, a, b, s)
    rhs = simplified_jackson_rhs(x, lam, n, q, p, t, a, b, s)
    return judge((lhs, rhs), tol, len(subpartitions(lam)))


def verify_duality(lam, nu, n, a, aprime, b, q, t, tol):
    lhs = duality_side(lam, nu, n, q, t, a, aprime, b)
    rhs = duality_side(nu, lam, n, q, t, aprime, a, b)
    return judge((lhs, rhs), tol)


def verify_flip(lam, xs, q, p, t, a, b, tol):
    lhs, rhs = flip_sides(xs, lam, q, p, t, a, b)
    return judge((lhs, rhs), tol)


def verify_weyl_degree(mu, N, n, s, delta, q, tol):
    muv = tuple(part(mu, i) for i in range(1, n + 1))
    lhs = w_degree(muv, N, n, s, delta, q)
    wp, xv = _principal_w(n, delta, q, s, [N + n - 1 - i for i in range(n)])
    rhs = zw_multi(xv, muv, wp)
    return judge((lhs, rhs), tol)


def verify_multilateral_finite(lam, n, x, s, a, q, delta, tol):
    """The finite multilateral identity: partition Pochhammers on the left,
    mlat_norm times the sum of mlat_finite_summand over mlat_finite_window on
    the right (refused beyond MAX_LATTICE_TERMS points).  Every point of the
    window, in lattice_window's order, and then five dominant exterior points
    are evaluated by mlat_finite_summand under one memo; an exterior summand
    that does not vanish is a NoConvergence error."""
    upper, lower = mlat_finite_window(lam, n, delta)
    points = math.prod(max(hi - lo + 1, 0) for lo, hi in zip(lower, upper))
    if points > MAX_LATTICE_TERMS:
        raise NoConvergence(f"multilateral finite window: {points} points "
                            f"exceed the lattice budget {MAX_LATTICE_TERMS}")
    big = q ** (delta + 2 * n - 1)
    lhs = poch_partition_multi([s / x, a * s * x], q, 0.0, q, lam) \
        / poch_partition_multi([s, a * s], q, 0.0, q, lam) \
        * poch_partition_multi([big, big / a], q, 0.0, q, lam) \
        / poch_partition_multi([big * x, big / (a * x)], q, 0.0, q, lam)
    memo = {}
    total = sum((mlat_finite_summand(mu, lam, n, delta, q, s, a, x, memo)
                 for mu in lattice_window(upper, lower)), 0.0 + 0j)
    rhs = mlat_norm(n, delta, q) * total
    # Out-of-window vanishing check at five dominant exterior lattice points.
    exterior = [tuple(part(lam, 1) + 1 + j for _ in range(n)) for j in range(3)]
    floor = min(lower)
    exterior += [tuple(floor - 1 - j for _ in range(n)) for j in range(2)]
    for pt in exterior:
        v = mlat_finite_summand(pt, lam, n, delta, q, s, a, x, memo)
        if not abs(v) < 1e-12:  # a NaN summand is not shown to vanish
            raise NoConvergence(f"nonvanishing summand outside window at {pt}: |{abs(v)}|")
    return judge((lhs, rhs), tol, points,
                 message=f"window upper={upper} lower={lower}")


def verify_multilateral_3psi3(n, delta, x, s, a, q, tol):
    gate = 0.9 if n == 1 else 0.9 * abs(q) ** (n - 1)
    if abs(s) >= gate:
        raise DomainError("multilateral 3psi3 requires |s| < 0.9 |q|^{n-1}")
    lhs = _mlat_product_side(n, delta, q, s, a, x)
    rhs, nterms, window = _mlat_3psi3_sum(n, delta, q, s, a, x)
    return judge((lhs, rhs), tol, nterms, message=f"window={window}")


def verify_summand_invariance(sigma, rho, gamma, q, n, delta, k, sign, tol):
    z = delta / 2.0
    u = z + k
    left = flipped_summand_structured(u, z, sigma, rho, gamma, n, q)
    right = flipped_summand_structured(sign * u, z, sigma, rho, gamma, n, q)
    return judge((left, right), tol,
                 message=f"structural zero multiplicity {left[0]} vs {right[0]}")


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------

def _mod(rng, lo=0.1, hi=0.9):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cscalar(rng, lo=0.1, hi=0.9):
    return _mod(rng, lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def _away(bases, q, kmax=12):
    for u in bases:
        for k in range(kmax + 1):
            if abs(1 - u * q**k) < POLE_REJECT:
                return False
    return True


def _retry(draw, ok):
    for _ in range(SAMPLE_TRIES):
        cand = draw()
        if ok(cand):
            return cand
    raise DomainError("rejection sampling failed to find admissible parameters")


def _random_partition(rng, max_len, max_part):
    length = rng.randint(0, max_len)
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return normalize(parts)


def _sample_jackson(rng):
    q = _mod(rng, 0.1, 0.6)
    n = rng.randint(0, 6)

    def draw():
        return dict(a=_cscalar(rng), b=_cscalar(rng), c=_cscalar(rng),
                    d=_cscalar(rng), n=n, q=q)

    def ok(p):
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        e = q ** (1 + n) * a * a / (b * c * d)
        bases = [a * q / b, a * q / c, a * q / d, a * q / e, a * q ** (n + 1),
                 a * q / (b * c * d), q]
        if not _away(bases, q, kmax=n + 2):
            return False
        # conditioning gate: the terminating sum must not be a near-complete
        # cancellation of much larger terms, or double precision cannot reach
        # the target residual on the draw
        terms = [vwp_jackson_term(k, a, b, c, d, n, q) for k in range(n + 1)]
        return abs(sum(terms)) >= 1e-4 * max(map(abs, terms))

    return _retry(draw, ok)


def _sample_bailey10(rng):
    q = _mod(rng, 0.1, 0.6)
    n = rng.randint(0, 4)

    def draw():
        return dict(a=_cscalar(rng), b=_cscalar(rng), c=_cscalar(rng),
                    d=_cscalar(rng), e=_cscalar(rng), f=_cscalar(rng), n=n, q=q)

    def ok(p):
        a, b, c, d, e, f = (p[k] for k in "abcdef")
        lam = q * a * a / (b * c * d)
        bases = [a * q / b, a * q / c, a * q / d, a * q / e, a * q / f,
                 e * f * q ** (-n) / lam, a * q ** (n + 1), lam * q / e,
                 lam * q / f, lam * q, lam * q / (e * f), e * f * q ** (-n) / a,
                 lam * q ** (n + 1), a * q / (e * f)]
        return _away(bases, q, kmax=n + 2)

    return _retry(draw, ok)


def _sample_bailey6(rng):
    q = _mod(rng, 0.1, 0.5)

    def draw():
        return dict(a=_cscalar(rng, 0.5, 0.9), b=_cscalar(rng, 0.5, 0.9),
                    c=_cscalar(rng, 0.5, 0.9), d=_cscalar(rng, 0.5, 0.9),
                    e=_cscalar(rng, 0.5, 0.9), q=q)

    def ok(p):
        a, b, c, d, e = (p[k] for k in "abcde")
        x = q * a * a / (b * c * d * e)
        if abs(x) > 0.5:
            return False
        bases = [a * q / b, a * q / c, a * q / d, a * q / e, q / b, q / c,
                 q / d, q / e, x, q / a]
        return _away(bases, q)

    return _retry(draw, ok)


def _sample_1psi1(rng):
    q = _mod(rng, 0.1, 0.6)

    def draw():
        x = _cscalar(rng, 0.3, 0.9)
        a = _cscalar(rng, 0.4, 0.9)
        b = _cscalar(rng, 0.1, 0.8 * abs(x * a))
        return dict(a=a, b=b, x=x, q=q)

    def ok(p):
        a, b, x = p["a"], p["b"], p["x"]
        if not (abs(b / a) < 0.9 * abs(x) < abs(x) < 1):
            return False
        return _away([b, q / a, x, b / (a * x)], q)

    return _retry(draw, ok)


def _sample_c1(rng):
    return dict(x=_cscalar(rng))


def _sample_flipped(rng):
    q = _mod(rng, 0.15, 0.6)
    n = rng.randint(1, 5)
    z = rng.uniform(0.05, 0.45)
    k = rng.randint(0, n)

    def draw():
        p = dict(sigma=_cscalar(rng), rho=_cscalar(rng), gamma=_cscalar(rng),
                 q=q, n=n, z=z, k=k)
        rng.randint(0, 1)  # discarded: it keeps every later draw of the stream in place
        return p

    def ok(p):
        sig, rho, gam = p["sigma"], p["rho"], p["gamma"]
        b = q ** (2 * z)
        bases = [q * b / sig, q * b / rho, q * b / gam,
                 sig * rho * gam * q ** (-n) / b, b * q ** (1 + n)]
        return _away(bases, q, kmax=n + 2)

    return _retry(draw, ok)


def _sample_bilfinite(rng):
    q = _mod(rng, 0.1, 0.6)
    n = rng.randint(0, 5)
    delta = rng.randint(0, 1)

    def draw():
        return dict(sigma=_cscalar(rng), rho=_cscalar(rng), gamma=_cscalar(rng),
                    q=q, n=n, delta=delta)

    def ok(p):
        sig, rho, gam = p["sigma"], p["rho"], p["gamma"]
        b = q**delta
        bases = [q * b / sig, q * b / rho, q * b / gam,
                 sig * rho * gam * q ** (-n) / b]
        return _away(bases, q, kmax=n + 2)

    return _retry(draw, ok)


def _sample_3psi3(delta):
    def sampler(rng):
        q = _mod(rng, 0.1, 0.5)

        def draw():
            return dict(sigma=_cscalar(rng, 0.5, 0.9), rho=_cscalar(rng, 0.5, 0.9),
                        gamma=_cscalar(rng, 0.5, 0.9), q=q)

        def ok(p):
            sig, rho, gam = p["sigma"], p["rho"], p["gamma"]
            srg = sig * rho * gam
            if abs(q ** (delta + 1) / srg) > 0.8:
                return False
            qd = q ** (1 + delta)
            return _away([qd / sig, qd / rho, qd / gam, qd / srg], q)

        return _retry(draw, ok)

    return sampler


def _sample_multijackson(rng):
    n = rng.choice([2, 2, 2, 3])
    p = 0.0 if n == 3 else rng.choice([0.0, 0.1])
    max_part = 2 if n == 3 else 3
    q = _mod(rng, 0.15, 0.5)
    t = _mod(rng, 0.2, 0.7)

    def draw():
        return dict(lam=_random_partition(rng, n, max_part), n=n,
                    z=tuple(_cscalar(rng, 0.3, 0.9) for _ in range(n)),
                    q=q, p=p, t=t, a=_cscalar(rng), b=_cscalar(rng),
                    s=_cscalar(rng))

    def ok(pp):
        a, b, s = pp["a"], pp["b"], pp["s"]
        bases = [q * b / (s * t), q * b * t**n * s / a, q * t ** (n - 1),
                 a / (s * t ** (n + 1)), b / (s * t**n)]
        for zi in pp["z"]:
            bases += [q * b * zi, q * b / (a * zi)]
        return _away(bases, q, kmax=8)

    return _retry(draw, ok)


def _sample_simplified(rng):
    n = rng.choice([2, 2, 2, 3])
    p = 0.0 if n == 3 else rng.choice([0.0, 0.1])
    max_part = 2 if n == 3 else 3
    q = _mod(rng, 0.15, 0.5)
    t = _mod(rng, 0.2, 0.7)

    def draw():
        return dict(lam=_random_partition(rng, n, max_part), n=n,
                    x=_cscalar(rng, 0.3, 0.9), q=q, p=p, t=t,
                    a=_cscalar(rng), b=_cscalar(rng), s=_cscalar(rng))

    def ok(pp):
        a, b, s, x = pp["a"], pp["b"], pp["s"], pp["x"]
        bases = [q * b * x, q * b / (a * x), q * b, q * b / a,
                 q * t ** (n - 1), a * s]
        return _away(bases, q, kmax=8)

    return _retry(draw, ok)


def _sample_duality(rng):
    n = 2
    q = _mod(rng, 0.15, 0.5)
    t = _mod(rng, 0.2, 0.7)

    def draw():
        return dict(lam=_random_partition(rng, n, 2), nu=_random_partition(rng, n, 2),
                    n=n, a=_cscalar(rng), aprime=_cscalar(rng), b=_cscalar(rng),
                    q=q, t=t)

    def ok(pp):
        a, ap, b = pp["a"], pp["aprime"], pp["b"]
        k = ap * t ** (n - 1) / b
        h = a * t ** (n - 1) / b
        bases = [k, h, k * a * t ** (n - 1), h * ap * t ** (n - 1),
                 q * ap * t ** (2 * n - 3), q * a * t ** (2 * n - 3)]
        return _away(bases, q, kmax=8)

    return _retry(draw, ok)


def _sample_flip(rng):
    nvar = rng.randint(1, 2)
    q = _mod(rng, 0.15, 0.5)
    t = _mod(rng, 0.2, 0.7)
    p = rng.choice([0.0, 0.1])

    def draw():
        return dict(lam=_random_partition(rng, nvar, 3),
                    xs=tuple(_cscalar(rng, 0.3, 0.9) for _ in range(nvar)),
                    q=q, p=p, t=t, a=_cscalar(rng), b=_cscalar(rng))

    def ok(pp):
        a, b = pp["a"], pp["b"]
        bases = []
        for xi in pp["xs"]:
            bases += [q * b * xi, q * b / (a * xi)]
        return _away(bases, q, kmax=8)

    return _retry(draw, ok)


def _sample_weyldegree(rng):
    n = rng.randint(1, 3)
    N = rng.randint(1, 3)
    q = _mod(rng, 0.15, 0.5)
    delta = rng.randint(0, 1)
    mu = _random_partition(rng, n, N)

    def draw():
        return dict(mu=mu, N=N, n=n, s=_cscalar(rng), delta=delta, q=q)

    def ok(pp):
        s = pp["s"]
        bases = [s * q ** (delta + N + n - 1), q ** (n - N) / s]
        return _away(bases, q, kmax=2 * N + 2 * n + 2)

    return _retry(draw, ok)


def _sample_mlatfinite(rng):
    n = rng.choice([1, 2, 2])
    q = _mod(rng, 0.15, 0.45)
    delta = rng.randint(0, 1)

    def draw():
        return dict(lam=_random_partition(rng, n, 2), n=n,
                    x=_cscalar(rng, 0.3, 0.9), s=_cscalar(rng),
                    a=_cscalar(rng), q=q, delta=delta)

    def ok(pp):
        s, a, x = pp["s"], pp["a"], pp["x"]
        big = q ** (delta + 2 * n - 1)
        bases = [a * s, big * x, big / (a * x), a * s * x, s / x]
        return _away(bases, q, kmax=12)

    return _retry(draw, ok)


def _sample_mlat3psi3(rng):
    n = rng.choice([1, 2, 2])
    q = _mod(rng, 0.25, 0.45)
    delta = rng.randint(0, 1)
    smax = 0.8 if n == 1 else 0.5 * q ** (n - 1)

    def draw():
        return dict(n=n, delta=delta, x=_cscalar(rng, 0.3, 0.9),
                    s=_cscalar(rng, 0.1 * smax, smax),
                    a=_cscalar(rng), q=q)

    def ok(pp):
        s, a, x = pp["s"], pp["a"], pp["x"]
        big = q ** (delta + 2 * n - 1)
        bases = [a * s, big * x, big / (a * x)]
        return _away(bases, q, kmax=12)

    return _retry(draw, ok)


def _sample_invariance(rng):
    q = _mod(rng, 0.15, 0.6)
    n = rng.randint(2, 6)
    delta = rng.randint(0, 1)
    k = rng.randint(-4, 4)
    return dict(sigma=_cscalar(rng), rho=_cscalar(rng), gamma=_cscalar(rng),
                q=q, n=n, delta=delta, k=k, sign=-1)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseDef:
    case_id: str
    description: str
    # parameter name -> kind: an integer kind of INT_KINDS, "scalar" (a
    # finite number), "tagged" (a scalar or a QPower tag, which the verifier
    # resolves), "partition" (at most rank parts) or "vector" (exactly rank
    # scalar entries)
    schema: Dict[str, str]
    default_tol: float
    sampler: Callable
    verifier: Callable  # called with the schema's parameters and tol


CASES: Dict[str, CaseDef] = {}

#: The integer kinds of a schema and their domains: "order" (a terminating
#: order) and "rank" (the n of a BC_n sum) admit the integers from a least
#: value on, "delta" and "sign" the listed values, and "int" every integer.
INT_KINDS = {"int": None, "order": 0, "rank": 1, "delta": (0, 1), "sign": (1, -1)}


def _register(case_id, description, schema, default_tol, sampler, verifier):
    CASES[case_id] = CaseDef(case_id, description, schema, default_tol, sampler,
                             verifier)


_register(
    "jackson8phi7",
    "Terminating very-well-poised 8phi7 summation (Jackson / q-Dougall)",
    dict(a="scalar", b="scalar", c="scalar", d="scalar", n="order", q="scalar"),
    1e-9, _sample_jackson, verify_jackson_8phi7)
_register(
    "bailey10phi9",
    "Bailey's terminating 10phi9 transformation",
    dict(a="scalar", b="scalar", c="scalar", d="scalar", e="scalar", f="scalar",
         n="order", q="scalar"),
    1e-9, _sample_bailey10, verify_bailey_10phi9)
_register(
    "bailey6psi6",
    "Bailey's very-well-poised 6psi6 bilateral summation",
    dict(a="tagged", b="tagged", c="tagged", d="tagged", e="tagged", q="scalar"),
    1e-8, _sample_bailey6, verify_bailey_6psi6)
_register(
    "ramanujan1psi1",
    "Ramanujan's 1psi1 bilateral summation",
    dict(a="tagged", b="tagged", x="scalar", q="scalar"),
    1e-8, _sample_1psi1, verify_ramanujan_1psi1)
_register(
    "c1macdonald",
    "Rank-1 C-type polynomial identity 1 = 1/(1-x^2) + 1/(1-x^-2)",
    dict(x="scalar"),
    1e-12, _sample_c1, verify_c1_macdonald)
_register(
    "flippedsummand",
    "Terminating summand equals its flipped infinite-product form (b = q^{2z})",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="int",
         z="scalar", k="order"),
    1e-8, _sample_flipped, verify_flipped_summand)
_register(
    "bilateralfinite",
    "Three-way check: one-sided sum = finite bilateral sum = closed product",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="order",
         delta="delta"),
    1e-9, _sample_bilfinite, verify_bilateral_finite)
_register(
    "3psi3delta0",
    "Bilateral 3psi3 summation, delta = 0 (Bailey)",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar"),
    1e-8, _sample_3psi3(0), functools.partial(verify_3psi3, delta=0))
_register(
    "3psi3delta1",
    "Bilateral 3psi3 summation, delta = 1 (shifted-base companion)",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar"),
    1e-8, _sample_3psi3(1), functools.partial(verify_3psi3, delta=1))
_register(
    "multijackson",
    "Multiple elliptic Jackson summation for W functions",
    dict(lam="partition", n="rank", z="vector", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar", s="scalar"),
    1e-7, _sample_multijackson, verify_multiple_jackson)
_register(
    "simplifiedjackson",
    "Multiple Jackson summation at the principal argument z_i = x t^{n-i}",
    dict(lam="partition", n="rank", x="scalar", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar", s="scalar"),
    1e-7, _sample_simplified, verify_simplified_jackson)
_register(
    "duality",
    "Duality relation exchanging the index partition and spectral parameters",
    dict(lam="partition", nu="partition", n="rank", a="scalar", aprime="scalar",
         b="scalar", q="scalar", t="scalar"),
    1e-9, _sample_duality, verify_duality)
_register(
    "flip",
    "Inversion (flip) identity for W under (q,t,a,b,x) -> reciprocals",
    dict(lam="partition", xs="vector", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar"),
    1e-9, _sample_flip, verify_flip)
_register(
    "weyldegree",
    "Closed degree formula vs recursive W evaluation at the principal point",
    dict(mu="partition", N="int", n="rank", s="scalar", delta="int", q="scalar"),
    1e-9, _sample_weyldegree, verify_weyl_degree)
_register(
    "multilateralfinite",
    "Finite multilateral summation over Z^n at t = q",
    dict(lam="partition", n="rank", x="scalar", s="scalar", a="scalar",
         q="scalar", delta="delta"),
    1e-7, _sample_mlatfinite, verify_multilateral_finite)
_register(
    "multilateral3psi3",
    "Multilateral analogue of the bilateral 3psi3 summation",
    dict(n="rank", delta="delta", x="scalar", s="scalar", a="scalar", q="scalar"),
    1e-6, _sample_mlat3psi3, verify_multilateral_3psi3)
_register(
    "summandinvariance",
    "Hyperoctahedral rank-1 invariance of the flipped summand at z = delta/2",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="order",
         delta="int", k="int", sign="sign"),
    1e-9, _sample_invariance, verify_summand_invariance)


def sample_params(case_id: str, seed: int) -> dict:
    """Deterministic parameter draw for a registry case."""
    if case_id not in CASES:
        raise ConfigError(f"unknown case id: {case_id}")
    rng = random.Random(seed)
    return CASES[case_id].sampler(rng)


def _check_int(case_id, name, kind, v):
    """DomainError unless the integer v lies in the domain of its kind."""
    domain = INT_KINDS[kind]
    if isinstance(domain, tuple):
        if v not in domain:
            raise DomainError(f"{case_id} requires {name} = "
                              f"{' or '.join(map(str, domain))}, got {name} = {v}")
    elif domain is not None and v < domain:
        raise DomainError(f"{case_id} requires {name} >= {domain}, got {name} = {v}")


def _check_scalar(case_id, name, v, tagged=False):
    """DomainError unless v is a finite number (mpmath numbers included) or,
    when tagged, a QPower tag: a string, NaN, an infinity, or a tag where the
    verifier resolves none, reaches no verifier.  For a number, v - v is
    exactly 0 when v is finite and NaN otherwise; for a string or a tag it
    raises TypeError."""
    try:
        if v - v == 0:
            return
    except TypeError:
        if tagged and isinstance(v, QPower):
            return
    raise DomainError(f"{case_id} requires {name} to be a finite number, got {v!r}")


def _verifier_args(case_id, schema, params):
    """The schema's parameters, each checked against the domain of its kind.

    The rank n is the "rank" parameter or, in a case without one (flip), the
    length of the vector; it is checked first, the others in schema order.  A
    partition is normalized and has at most n parts, a vector becomes a tuple
    of exactly n entries, a scalar and each vector entry is a finite number,
    and a tagged parameter a finite number or a QPower tag."""
    kinds = {kind: name for name, kind in schema.items()}
    n = params[kinds["rank"]] if "rank" in kinds else \
        len(params[kinds["vector"]]) if "vector" in kinds else None
    if n is not None:
        _check_int(case_id, "n", "rank", n)
    kwargs = {}
    for name, kind in schema.items():
        v = params[name]
        if kind in ("scalar", "tagged"):
            _check_scalar(case_id, name, v, kind == "tagged")
        elif kind == "partition":
            v = check_partition(v)
            if len(v) > n:
                raise DomainError(f"{case_id} requires at most n = {n} parts, got {v}")
        elif kind == "vector":
            v = tuple(v)
            if len(v) != n:
                raise DomainError(f"{case_id} requires n = {n} variables {name}, "
                                  f"got {len(v)}")
            for entry in v:
                _check_scalar(case_id, name, entry)
        elif kind in INT_KINDS:
            _check_int(case_id, name, kind, v)
        kwargs[name] = v
    return kwargs


def run_case(case_id: str, params: dict, tol: Optional[float] = None) -> IdentityReport:
    """Run one registry case on explicit parameters, capturing library errors
    and arithmetic errors (overflow, division by zero) into an error-status
    report.  Parameters missing from the case's schema, or not in it, are a
    ConfigError.

    This is the one place that checks parameter domains (_verifier_args): a
    parameter outside the domain of its schema kind is a DomainError report,
    a "partition"-kind parameter that is not a partition a NotAPartition
    report.  The verifiers trust their arguments.

    It is also the one place that names a report: case_id is the registry
    key, and params are the checked arguments, the verifier's report-only
    extras and tol.  A verifier computes its sides; judge gives the verdict.

    The evaluation gets its own theta memo (qcore.THETA_MEMO), dropped on
    return: a second call recomputes every theta."""
    if case_id not in CASES:
        raise ConfigError(f"unknown case id: {case_id}")
    case = CASES[case_id]
    missing = [k for k in case.schema if k not in params]
    if missing:
        raise ConfigError(f"{case_id}: missing parameters {missing}")
    unknown = sorted(k for k in params if k not in case.schema)
    if unknown:
        raise ConfigError(f"{case_id}: unknown parameters {unknown}")
    use_tol = _case_tol(case_id, tol)
    token = THETA_MEMO.set({})
    try:
        kwargs = _verifier_args(case_id, case.schema, params)
        rep = case.verifier(**kwargs, tol=use_tol)
    except (QidentError, ArithmeticError) as exc:
        return error_report(case_id, params, use_tol, exc)
    finally:
        THETA_MEMO.reset(token)
    rep.case_id = case_id
    rep.params = {**kwargs, **rep.params, "tol": use_tol}
    return rep
