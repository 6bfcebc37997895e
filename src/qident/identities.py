"""Identity registry: every supported summation/transformation identity is
verified by computing its two sides through disjoint code paths and reporting
the residual.

Each case is registered under a stable string id with a one-line description,
a parameter schema, a deterministic seeded sampler, and a runner.  Samplers
draw free complex parameters with log-uniform moduli in [0.1, 0.9] and
uniform phases, rejecting draws that land within 1e-8 of a pole of either
side; bases (q, t, p) are drawn real positive so that convergence gates and
regularized W evaluation stay well-conditioned.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence, QidentError
from .partitions import (
    lattice_window,
    nstat,
    normalize,
    part,
    subpartitions,
    weight,
)
from .policy import DEFAULT_POLICY, QPower, TruncationPolicy, scalar_value
from .qcore import (
    PAIR_DENOMINATOR_VANISHES,
    PAIR_RECIPROCAL_VANISHES,
    VANISH_TOL,
    csqrt,
    epoch,
    pair_poch_ratio,
    poch_inf,
    poch_int,
    poch_multi,
    poch_multi_inf,
    theta,
)
from .series import SeriesSpec, eval_psi, eval_phi
from .wfunc import WParams, poch_partition_multi, w_degree, w_multi, zw_multi_reg

#: Below this magnitude both sides count as zero and the absolute residual
#: decides pass/fail.
BOTH_ZERO_EPS = 1e-12

#: Pole-proximity threshold for rejection sampling.
POLE_REJECT = 1e-8

#: Hard cap on lattice points for multilateral sums.
MAX_LATTICE_TERMS = 200_000


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


@dataclass(frozen=True)
class Rank1Params:
    """Parameters of the rank-1 bilateralization pipeline."""

    sigma: complex
    rho: complex
    gamma: complex
    q: complex
    n: int
    delta: int
    z: complex = 0.0


@dataclass(frozen=True)
class MultiParams:
    """Parameters of the rank-n identities."""

    n: int
    lam: tuple
    x: complex
    s: complex
    a: complex
    b: complex
    t: complex
    q: complex
    p: complex
    delta: int


def _make_report(case_id, params, lhs, rhs, tol, terms_used=1, message=""):
    lhs_c, rhs_c = complex(lhs), complex(rhs)
    absr = abs(lhs_c - rhs_c)
    relr = absr / max(abs(lhs_c), abs(rhs_c), 1e-300)
    if max(abs(lhs_c), abs(rhs_c)) < BOTH_ZERO_EPS:
        ok = absr <= tol
    else:
        ok = relr <= tol
    return IdentityReport(
        case_id=case_id,
        params={**params, "tol": tol},
        lhs=lhs_c,
        rhs=rhs_c,
        abs_residual=absr,
        rel_residual=relr,
        terms_used=terms_used,
        status="pass" if ok else "fail",
        message=message,
    )


def error_report(case_id, params, tol, exc):
    """Error-status report for a run that raised exc."""
    return IdentityReport(
        case_id=case_id,
        params={**params, "tol": tol},
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


def flipped_summand_product(u, z, sig, rho, gam, n, q, policy=DEFAULT_POLICY):
    """Infinite-product form of the b = q^{2z} summand, as a function of the
    reflected index u (the direct summand corresponds to u = z + k).

    Manifestly invariant under u -> -u up to the displayed grouping; all
    powers of q use the principal branch."""
    srg = sig * rho * gam

    def pinf(vals):
        return poch_multi_inf(vals, q, policy)

    val = q ** (-z * z) / (poch_inf(q ** (-2 * z), q, policy)
                           * poch_inf(q ** (2 * z), q, policy))
    val = val * pinf([sig, rho, sig * q ** (-2 * z), rho * q ** (-2 * z)]) \
        / pinf([q ** (1 - 2 * z), q ** (1 + n), q, q ** (1 + n + 2 * z)])
    val = val * pinf([gam, q ** (4 * z + 1 + n) / srg, gam * q ** (-2 * z),
                      q ** (1 + n + 2 * z) / srg])
    val = val * pinf([q ** (1 - z - u), q ** (1 + n + z - u),
                      q ** (1 - z + u), q ** (1 + n + z + u)]) \
        / pinf([sig * q ** (-z + u), rho * q ** (-z + u),
                sig * q ** (-z - u), rho * q ** (-z - u)])
    val = val * q ** (u * u) * poch_inf(q ** (-2 * u), q, policy) \
        * poch_inf(q ** (2 * u), q, policy) \
        / pinf([gam * q ** (-z + u), q ** (3 * z + 1 + n + u) / srg,
                gam * q ** (-z - u), q ** (3 * z + 1 + n - u) / srg])
    return val


#: Threshold below which a product factor counts as a structural zero in the
#: factored evaluation of the flipped summand at the lattice point z = delta/2.
STRUCT_ZERO_TOL = 1e-10


def _poch_inf_split(a, q, policy):
    """(zeros, value): the infinite product (a;q)_inf with exact-zero factors
    counted separately from the regular part."""
    zeros = 0
    r = 1.0 + 0j
    x = a
    for _ in range(policy.max_factors):
        if abs(x) < policy.product_tol:
            return zeros, r
        f = 1 - x
        if abs(f) < STRUCT_ZERO_TOL:
            zeros += 1
        else:
            r = r * f
        x = x * q
    raise NoConvergence("factored infinite product: max_factors reached")


def flipped_summand_structured(u, z, sig, rho, gam, n, q, policy=DEFAULT_POLICY):
    """The flipped summand as (net_zero_count, regular_value).

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
        zc, v = _poch_inf_split(a, q, policy)
        zeros += zc
        val = val * v
    for a in den_args:
        zc, v = _poch_inf_split(a, q, policy)
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
        kind="bilateral",
    )


def _f_bilateral(delta, q):
    return 1.0 + 0j if delta == 0 else 1.0 / (1 - q)


# ---------------------------------------------------------------------------
# Rank-n building blocks.
# ---------------------------------------------------------------------------

def _ppm(avals, q, p, t, lam, nmin=0):
    return poch_partition_multi(avals, WParams(q, p, t, 0.0, 0.0), lam, nmin)


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


def simplified_jackson_lhs(x, lam, n, q, p, t, a, b, s):
    return _ppm([s / x, a * s * x], q, p, t, lam) / _ppm(
        [q * b * x, q * b / (a * x)], q, p, t, lam)


def simplified_jackson_rhs(x, lam, n, q, p, t, a, b, s):
    total = 0.0 + 0j
    pref = _ppm([s, a * s], q, p, t, lam) / _ppm([q * b, q * b / a], q, p, t, lam)
    xl = [q ** part(lam, i) * t ** (n - i) for i in range(1, n + 1)]
    wp = WParams(q, p, t, b * s * t ** (2 - 2 * n), b * t ** (1 - n))
    memo = {}
    for mu in subpartitions(lam):
        term = pref * q ** weight(mu) * t ** (2 * nstat(mu))
        term = term * _ppm([b * t ** (1 - n), q * b / (a * s)], q, p, t, mu) \
            / _ppm([q * t ** (n - 1), a * s], q, p, t, mu)
        for i in range(1, n + 1):
            mi = part(mu, i)
            if mi:
                term = term * theta(b * t ** (2 - 2 * i) * q ** (2 * mi), p) \
                    / theta(b * t ** (2 - 2 * i), p)
        term = term * _vwp_delta(mu, n, q / t, b * t**2, q, p, t)
        term = term * w_multi(xl, mu, (), wp, memo)
        term = term * _ppm([1 / x, a * x], q, p, t, mu) \
            / _ppm([q * b * x, q * b / (a * x)], q, p, t, mu)
        total += term
    return total


def multiple_jackson_lhs(zvars, lam, n, q, p, t, a, b):
    wp = WParams(q, p, t, a * t ** (-2 * n), b * t ** (-n))
    return w_multi(zvars, lam, (), wp, memo={})


def multiple_jackson_rhs(zvars, lam, n, q, p, t, a, b, s):
    pref = _ppm([s, a / (s * t ** (n + 1))], q, p, t, lam) \
        / _ppm([q * b / (s * t), q * b * t**n * s / a], q, p, t, lam)
    pref = pref * _vwp_delta(lam, n, 1, q * b, q, p, t)
    xl = [q ** part(lam, i) * t ** (n - i) for i in range(1, n + 1)]
    zs = [zi * s for zi in zvars]
    wp1 = WParams(q, p, t, b * t ** (1 - 2 * n), b / (s * t**n))
    wp2 = WParams(q, p, t, a / (s * s * t ** (2 * n)), b / (s * t**n))
    memo1, memo2 = {}, {}
    total = 0.0 + 0j
    for mu in subpartitions(lam):
        term = _ppm([b / (s * t**n), q * b * t**n / a], q, p, t, mu) \
            / _ppm([q * t ** (n - 1), a / (s * t ** (n + 1))], q, p, t, mu)
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
    xv = [q ** part(nu, i) * t ** (n - i) / k for i in range(1, n + 1)]
    wp = WParams(q, 0.0, t, k * k * a, k * b)
    r = w_multi(xv, lam, (), wp, memo={})
    r = r * _ppm([q * b * t ** (n - 1), q * b / a], q, 0.0, t, lam) \
        / _ppm([k, k * a * t ** (n - 1)], q, 0.0, t, lam)
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
    and verified against the finite one-sided identity."""
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


def _mlat_pair_factors(mu, n, delta, q, s, a, x):
    """Common paired-ratio Pochhammer part of the multilateral summands."""
    r = 1.0 + 0j
    for i in range(1, n + 1):
        for anum, aden in _mlat_pairs(i, n, delta, q, s, a, x):
            r = r * pair_poch_ratio(anum, aden, q, part(mu, i))
    return r


def mlat_finite_summand(mu, lam, n, delta, q, s, a, x, memo=None):
    """Summand of the finite multilateral identity at mu in Z^n.

    memo is passed to zw_multi_reg; its W arguments depend on mu only through
    the index, so one memo may serve every mu of a window."""
    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    term = q ** (weight(mu) + 2 * nstat(mu))
    term = term * _mlat_pair_factors(mu, n, delta, q, s, a, x)
    if term == 0:
        return term
    for j in range(2, n + 1):
        for i in range(1, j):
            dm = part(mu, i) - part(mu, j)
            sm = part(mu, i) + part(mu, j)
            term = term * (1 - q ** (j - i + dm)) / (1 - q ** (j - i))
            term = term * (1 - q ** (delta + 2 * n - i - j + sm)) \
                / (1 - q ** (delta + 2 * n - i - j))
    if term == 0:
        return term
    xl = [q ** (part(lam, i) + n - i) for i in range(1, n + 1)]
    wp = WParams(q, 0.0, q, s * q**delta, q ** (delta + n - 1))
    return term * zw_multi_reg(xl, mu, wp, memo=memo)


def mlat_3psi3_summand(mu, n, delta, q, s, a, x):
    """Summand of the multilateral bilateral summation at mu in Z^n.

    Vanishes for non-dominant mu (inherited from the W factor of the finite
    form, whose principal limit is taken termwise)."""
    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    w = weight(mu)
    term = (s * q ** (1 - n)) ** w * q ** (2 * nstat(mu))
    term = term * _mlat_pair_factors(mu, n, delta, q, s, a, x)
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


def _mlat_product_side(n, delta, q, s, a, x, policy):
    """Infinite-product side of the multilateral bilateral summation,
    using (c)_{inf^n} = prod_{i=1..n} (c q^{1-i}; q)_inf."""
    big = q ** (delta + 2 * n - 1)

    def pn(c):
        r = 1.0 + 0j
        for i in range(1, n + 1):
            r = r * poch_inf(c * q ** (1 - i), q, policy)
        return r

    prod = pn(s / x) * pn(a * s * x) / (pn(s) * pn(a * s))
    prod = prod * pn(big) * pn(big / a) / (pn(big * x) * pn(big / (a * x)))
    return prod / mlat_norm(n, delta, q)


class _CoordinateFactor:
    """The per-coordinate factor of the multilateral 3psi3 summand,
        g(m) = c^m prod_pairs (anum;q)_m / (aden;q)_m,
    tabulated outward from g(0) = 1 by its term ratio (Gasper-Rahman, sec. 1.2):
        g(m+1) = g(m) c prod (1 - anum q^m) / (1 - aden q^m)          (m >= 0),
        g(m-1) = g(m) / c prod (1 - aden q^{m-1}) / (1 - anum q^{m-1})  (m <= 0).

    The factors and their vanishing tests are those of qcore.pair_poch_ratio.
    A vanishing factor to divide by stops the table in its direction: from
    there outward pair_poch_ratio raises for every m, so a summand that reads
    such an entry raises (see failure), and the entries are 0 placeholders."""

    def __init__(self, c, pairs, q):
        self.c, self.pairs, self.q = c, pairs, q
        self.up, self.down = [1.0 + 0j], []  # g(0), g(1), ... and g(-1), g(-2), ...
        self.bad_up = self.bad_down = None  # least m > 0 / greatest m < 0 that raise

    def grow(self, m):
        """Tabulate g on [-m, m] and return the table: g(k) at index k, negative
        k counting from the end."""
        q, c, up, down = self.q, self.c, self.up, self.down
        while len(up) <= m:
            k = len(up) - 1
            g = 0.0
            if self.bad_up is None:
                qk = q**k
                g = up[-1] * c
                for anum, aden in self.pairs:
                    fd = 1 - aden * qk
                    if abs(fd) < VANISH_TOL:
                        self.bad_up, g = k + 1, 0.0
                        break
                    g = g * (1 - anum * qk) / fd
            up.append(g)
        while len(down) < m:
            k = -len(down) - 1
            g = 0.0
            if self.bad_down is None:
                qk = q**k
                g = (down[-1] if down else up[0]) / c
                for anum, aden in self.pairs:
                    fn = 1 - anum * qk
                    if abs(fn) < VANISH_TOL:
                        self.bad_down, g = k, 0.0
                        break
                    g = g * (1 - aden * qk) / fn
            down.append(g)
        return up + down[::-1]

    def failure(self, v):
        """pair_poch_ratio's error message for a summand with this coordinate
        at v, or None when it evaluates."""
        if self.bad_up is not None and v >= self.bad_up:
            return PAIR_DENOMINATOR_VANISHES
        if self.bad_down is not None and v <= self.bad_down:
            return PAIR_RECIPROCAL_VANISHES
        return None


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
        """Tabulate d in [-m, m]; d at index d, negative d counting from the end."""
        while len(self.up) <= m:
            self.up.append(self._value(len(self.up)))
        while len(self.down) < m:
            self.down.append(self._value(-len(self.down) - 1))
        return self.up + self.down[::-1]


def _dominant_shell(n, m, covered):
    """The dominant mu (mu_1 >= ... >= mu_n) of [-m, m]^n with max |mu_i| >
    covered, i.e. the dominant points a shell adds to the cube [-covered,
    covered]^n (all of them when covered < 0)."""
    if covered < 0:
        yield from itertools.combinations_with_replacement(range(m, -m - 1, -1), n)
        return
    for top in range(m, covered, -1):  # mu_1 > covered
        for tail in itertools.combinations_with_replacement(range(top, -m - 1, -1),
                                                            n - 1):
            yield (top,) + tail
    for low in range(-covered - 1, -m - 1, -1):  # mu_1 <= covered, mu_n < -covered
        for head in itertools.combinations_with_replacement(range(covered, low - 1, -1),
                                                            n - 1):
            yield head + (low,)


def _shell_rank(mu, m, covered):
    """Index of mu among the points of [-m, m]^n outside [-covered, covered]^n
    in the order of itertools.product(range(-m, m + 1), repeat=n)."""
    n = len(mu)
    side, inner = 2 * m + 1, 2 * covered + 1
    rank = 0
    inside = covered >= 0  # mu_1..mu_{i-1} lie in [-covered, covered]
    for i, v in enumerate(mu):
        rank += (v + m) * side ** (n - 1 - i)
        if inside:
            rank -= min(max(v + covered, 0), inner) * inner ** (n - 1 - i)
            inside = -covered <= v <= covered
    return rank


def _shell_failure(factors, m, covered, budget):
    """Raise what a product-order sweep of the shell, evaluating every dominant
    summand and counting every point, would raise first: pair_poch_ratio's
    error at a dominant point, or the lattice budget after `budget` points
    (None: not exhausted in this shell).  Returns if neither happens."""
    first = None
    for mu in _dominant_shell(len(factors), m, covered):
        for f, v in zip(factors, mu):
            msg = f.failure(v)
            if msg is not None:
                rank = _shell_rank(mu, m, covered)
                if first is None or rank < first[0]:
                    first = (rank, msg)
                break
    if first is not None and (budget is None or first[0] <= budget):
        raise DivisionByVanishingFactor(first[1])
    if budget is not None:
        raise NoConvergence("multilateral sum: lattice budget exhausted")


def _mlat_3psi3_sum(n, delta, q, s, a, x, policy):
    """Lattice sum of mlat_3psi3_summand over Z^n by expanding hypercube shells
    [-m, m]^n with a tail test.

    A dominant mu's summand is prod_i g_i(mu_i) times the Delta^2 factor over
    i < j; g_i(m) is (s q^{1-n} q^{2(i-1)})^m times the three pair ratios at
    shift q^{1-i}.  Each g_i and each Delta^2 factor is tabulated once per call
    and grown with the window (_CoordinateFactor, _DeltaSquare), so a point
    costs O(n^2) lookups.  Each shell enumerates only its new dominant points;
    the other summands vanish.  terms_used counts every point of the window,
    (2m + 1)^n, and the lattice budget and the pair_poch_ratio errors are
    raised as by a sweep over all of them (_shell_failure)."""
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
            cross.append((i - 1, j - 1, squares[j - i], squares[delta + 2 * n - i - j]))

    total = 0.0 + 0j
    nterms = 0
    covered = -1
    m = max(policy.window_step, 4)
    below = 0
    while True:
        tables = [f.grow(m) for f in factors]
        deltas = [(i, j, dsq.grow(2 * m), ssq.grow(2 * m)) for i, j, dsq, ssq in cross]
        count = (2 * m + 1) ** n - ((2 * covered + 1) ** n if covered >= 0 else 0)
        budget = MAX_LATTICE_TERMS - nterms if nterms + count > MAX_LATTICE_TERMS else None
        if budget is not None or any(f.failure(m) or f.failure(-m) for f in factors):
            _shell_failure(factors, m, covered, budget)
        new = 0.0 + 0j
        for mu in _dominant_shell(n, m, covered):
            v = 1.0 + 0j
            for g, k in zip(tables, mu):
                v = v * g[k]
            if v == 0:
                continue
            for i, j, dsq, ssq in deltas:
                v = v * dsq[mu[i] - mu[j]] * ssq[mu[i] + mu[j]]
            new += v
        nterms += count
        total += new
        if abs(new) <= policy.series_tol * max(abs(total), 1e-300):
            below += 1
            if below >= 2:
                return total, nterms, (-m, m)
        else:
            below = 0
        covered = m
        m += policy.window_step
        if m > 200:
            raise NoConvergence("multilateral sum: window cap reached")


# ---------------------------------------------------------------------------
# Verifiers.
# ---------------------------------------------------------------------------

def verify_jackson_8phi7(a, b, c, d, n, q, tol=1e-9, policy=DEFAULT_POLICY):
    e = q ** (1 + n) * a * a / (b * c * d)
    params = dict(a=a, b=b, c=c, d=d, e=e, n=n, q=q)
    sa = csqrt(a)
    spec = SeriesSpec(
        numerator=[a, q * sa, -q * sa, b, c, d, e, QPower(-n)],
        denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e,
                     a * q ** (n + 1)],
        argument=q, q=q, kind="unilateral")
    sv = eval_phi(spec, policy)
    rhs = poch_multi([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)], q, n) \
        / poch_multi([a * q / b, a * q / c, a * q / d, a * q / (b * c * d)], q, n)
    return _make_report("jackson8phi7", params, sv.value, rhs, tol, sv.terms_used)


def verify_bailey_10phi9(a, b, c, d, e, f, n, q, tol=1e-9, policy=DEFAULT_POLICY):
    import mpmath

    params = dict(a=a, b=b, c=c, d=d, e=e, f=f, n=n, q=q)
    with mpmath.workdps(40):
        a, b, c, d, e, f = (mpmath.mpmathify(complex(v)) for v in (a, b, c, d, e, f))
        q = mpmath.mpmathify(complex(q))
        lam = q * a * a / (b * c * d)
        sa, sl = csqrt(a), csqrt(lam)
        left = SeriesSpec(
            numerator=[a, q * sa, -q * sa, b, c, d, e, f,
                       lam * a * q ** (n + 1) / (e * f), QPower(-n)],
            denominator=[sa, -sa, a * q / b, a * q / c, a * q / d, a * q / e,
                         a * q / f, e * f * q ** (-n) / lam, a * q ** (n + 1)],
            argument=q, q=q, kind="unilateral")
        right = SeriesSpec(
            numerator=[lam, q * sl, -q * sl, lam * b / a, lam * c / a, lam * d / a,
                       e, f, lam * a * q ** (n + 1) / (e * f), QPower(-n)],
            denominator=[sl, -sl, a * q / b, a * q / c, a * q / d, lam * q / e,
                         lam * q / f, e * f * q ** (-n) / a, lam * q ** (n + 1)],
            argument=q, q=q, kind="unilateral")
        sv_l = eval_phi(left, policy)
        pref = poch_multi([a * q, a * q / (e * f), lam * q / e, lam * q / f], q, n) \
            / poch_multi([a * q / e, a * q / f, lam * q, lam * q / (e * f)], q, n)
        sv_r = eval_phi(right, policy)
        lhs, rhs = sv_l.value, pref * sv_r.value
    return _make_report("bailey10phi9", params, complex(lhs), complex(rhs), tol,
                        sv_l.terms_used + sv_r.terms_used)


def verify_bailey_6psi6(a, b, c, d, e, q, tol=1e-8, policy=DEFAULT_POLICY):
    params = dict(a=a, b=b, c=c, d=d, e=e, q=q)
    av, bv, cv, dv, ev = (scalar_value(v, q) for v in (a, b, c, d, e))
    x = q * av * av / (bv * cv * dv * ev)
    if abs(x) > 0.5:
        raise DomainError("6psi6 requires |q a^2 / bcde| <= 0.5")
    sa = csqrt(av)
    spec = SeriesSpec(
        numerator=[q * sa, -q * sa, b, c, d, e],
        denominator=[sa, -sa, av * q / bv, av * q / cv, av * q / dv, av * q / ev],
        argument=x, q=q, kind="bilateral")
    sv = eval_psi(spec, policy)
    aq = av * q
    rhs = poch_multi_inf(
        [aq, aq / (bv * cv), aq / (bv * dv), aq / (bv * ev), aq / (cv * dv),
         aq / (cv * ev), aq / (dv * ev), q, q / av], q, policy) \
        / poch_multi_inf(
            [aq / bv, aq / cv, aq / dv, aq / ev, q / bv, q / cv, q / dv, q / ev, x],
            q, policy)
    return _make_report("bailey6psi6", params, sv.value, rhs, tol, sv.terms_used,
                        message=f"terminated={sv.terminated} window={sv.window}")


def verify_ramanujan_1psi1(a, b, x, q, tol=1e-8, policy=DEFAULT_POLICY):
    params = dict(a=a, b=b, x=x, q=q)
    av, bv = scalar_value(a, q), scalar_value(b, q)
    if not (abs(bv / av) < abs(x) < 1):
        raise DomainError("1psi1 requires |b/a| < |x| < 1")
    spec = SeriesSpec(numerator=[a], denominator=[b], argument=x, q=q,
                      kind="bilateral")
    sv = eval_psi(spec, policy)
    rhs = poch_multi_inf([q, bv / av, av * x, q / (av * x)], q, policy) \
        / poch_multi_inf([bv, q / av, x, bv / (av * x)], q, policy)
    return _make_report("ramanujan1psi1", params, sv.value, rhs, tol, sv.terms_used,
                        message=f"terminated={sv.terminated} window={sv.window}")


def verify_c1_macdonald(x, tol=1e-12, policy=DEFAULT_POLICY):
    params = dict(x=x)
    if abs(1 - x * x) < POLE_REJECT:
        raise DomainError("x^2 = 1 is a pole of the C1 identity")
    rhs = 1 / (1 - x * x) + 1 / (1 - x ** (-2))
    return _make_report("c1macdonald", params, 1.0 + 0j, rhs, tol)


def verify_flipped_summand(sigma, rho, gamma, q, n, delta, z, k, tol=1e-8,
                           policy=DEFAULT_POLICY):
    params = dict(sigma=sigma, rho=rho, gamma=gamma, q=q, n=n, delta=delta,
                  z=z, k=k)
    b = q ** (2 * z)
    lhs = vwp_jackson_term(k, b, sigma, rho, gamma, n, q)
    rhs = flipped_summand_product(z + k, z, sigma, rho, gamma, n, q, policy)
    return _make_report("flippedsummand", params, lhs, rhs, tol)


def verify_bilateral_finite(sigma, rho, gamma, q, n, delta, tol=1e-9,
                            policy=DEFAULT_POLICY):
    params = dict(sigma=sigma, rho=rho, gamma=gamma, q=q, n=n, delta=delta)
    b = q**delta
    uni = sum(vwp_jackson_term(k, b, sigma, rho, gamma, n, q) for k in range(n + 1))
    sv = eval_psi(bilateral_finite_spec(sigma, rho, gamma, n, delta, q), policy)
    bil = _f_bilateral(delta, q) * sv.value
    prod = jackson_delta_product(b, sigma, rho, gamma, n, q)
    vals = {"unilateral": uni, "bilateral": bil, "product": prod}
    worst = 0.0
    for k1 in vals:
        for k2 in vals:
            v1, v2 = vals[k1], vals[k2]
            worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2), 1e-300))
    rep = _make_report("bilateralfinite", params, bil, prod, tol, sv.terms_used,
                       message=f"unilateral={uni:.12g} window={sv.window}")
    rep.rel_residual = worst
    rep.status = "pass" if worst <= tol else "fail"
    return rep


def verify_3psi3(sigma, rho, gamma, q, delta, tol=1e-8, policy=DEFAULT_POLICY):
    params = dict(sigma=sigma, rho=rho, gamma=gamma, q=q, delta=delta)
    srg = sigma * rho * gamma
    x = q ** (delta + 1) / srg
    if abs(x) >= 0.9:
        raise DomainError("3psi3 requires |q^{delta+1}/(sigma rho gamma)| < 0.9")
    spec = SeriesSpec(
        numerator=[sigma, rho, gamma],
        denominator=[q ** (1 + delta) / sigma, q ** (1 + delta) / rho,
                     q ** (1 + delta) / gamma],
        argument=x, q=q, kind="bilateral")
    sv = eval_psi(spec, policy)
    lhs = _f_bilateral(delta, q) * sv.value
    qd = q ** (1 + delta)
    rhs = poch_multi_inf([qd, qd / (sigma * rho), qd / (sigma * gamma),
                          qd / (rho * gamma)], q, policy) \
        / poch_multi_inf([qd / sigma, qd / rho, qd / gamma, qd / srg], q, policy)
    case = "3psi3delta1" if delta == 1 else "3psi3delta0"
    return _make_report(case, params, lhs, rhs, tol, sv.terms_used,
                        message=f"window={sv.window}")


def verify_multiple_jackson(lam, n, z, q, p, t, a, b, s, tol=1e-7,
                            policy=DEFAULT_POLICY):
    lam = normalize(lam)
    zvars = tuple(z)
    params = dict(lam=lam, n=n, z=zvars, q=q, p=p, t=t, a=a, b=b, s=s)
    lhs = multiple_jackson_lhs(zvars, lam, n, q, p, t, a, b)
    rhs = multiple_jackson_rhs(zvars, lam, n, q, p, t, a, b, s)
    return _make_report("multijackson", params, lhs, rhs, tol,
                        len(subpartitions(lam)))


def verify_simplified_jackson(lam, n, x, q, p, t, a, b, s, tol=1e-7,
                              policy=DEFAULT_POLICY):
    lam = normalize(lam)
    params = dict(lam=lam, n=n, x=x, q=q, p=p, t=t, a=a, b=b, s=s)
    lhs = simplified_jackson_lhs(x, lam, n, q, p, t, a, b, s)
    rhs = simplified_jackson_rhs(x, lam, n, q, p, t, a, b, s)
    return _make_report("simplifiedjackson", params, lhs, rhs, tol,
                        len(subpartitions(lam)))


def verify_duality(lam, nu, n, a, aprime, b, q, t, tol=1e-9,
                   policy=DEFAULT_POLICY):
    lam, nu = normalize(lam), normalize(nu)
    params = dict(lam=lam, nu=nu, n=n, a=a, aprime=aprime, b=b, q=q, t=t)
    lhs = duality_side(lam, nu, n, q, t, a, aprime, b)
    rhs = duality_side(nu, lam, n, q, t, aprime, a, b)
    return _make_report("duality", params, lhs, rhs, tol)


def verify_flip(lam, xs, q, p, t, a, b, tol=1e-9, policy=DEFAULT_POLICY):
    lam = normalize(lam)
    params = dict(lam=lam, xs=tuple(xs), q=q, p=p, t=t, a=a, b=b)
    lhs, rhs = flip_sides(tuple(xs), lam, q, p, t, a, b)
    return _make_report("flip", params, lhs, rhs, tol)


def verify_weyl_degree(mu, N, n, s, delta, q, tol=1e-9, policy=DEFAULT_POLICY):
    mu = normalize(mu)
    params = dict(mu=mu, N=N, n=n, s=s, delta=delta, q=q)
    muv = tuple(part(mu, i) for i in range(1, n + 1))
    lhs = w_degree(muv, N, n, s, delta, q)
    xv = [q ** (N + n - 1 - i) for i in range(n)]
    wp = WParams(q, 0.0, q, s * q**delta, q ** (delta + n - 1))
    rhs = zw_multi_reg(xv, muv, wp)
    return _make_report("weyldegree", params, lhs, rhs, tol)


def verify_multilateral_finite(lam, n, x, s, a, q, delta, tol=1e-7,
                               policy=DEFAULT_POLICY):
    lam = normalize(lam)
    params = dict(lam=lam, n=n, x=x, s=s, a=a, q=q, delta=delta)
    big = q ** (delta + 2 * n - 1)
    lhs = _ppm([s / x, a * s * x], q, 0.0, q, lam) / _ppm([s, a * s], q, 0.0, q, lam) \
        * _ppm([big, big / a], q, 0.0, q, lam) \
        / _ppm([big * x, big / (a * x)], q, 0.0, q, lam)
    upper, lower = mlat_finite_window(lam, n, delta)
    total = 0.0 + 0j
    nterms = 0
    memo = {}
    for mu in lattice_window(upper, lower):
        total += mlat_finite_summand(mu, lam, n, delta, q, s, a, x, memo)
        nterms += 1
    rhs = mlat_norm(n, delta, q) * total
    # Out-of-window vanishing check at five dominant exterior lattice points.
    exterior = [tuple(part(lam, 1) + 1 + j for _ in range(n)) for j in range(3)]
    floor = min(lower)
    exterior += [tuple(floor - 1 - j for _ in range(n)) for j in range(2)]
    for pt in exterior:
        v = mlat_finite_summand(pt, lam, n, delta, q, s, a, x, memo)
        if abs(v) >= 1e-12:
            rep = _make_report("multilateralfinite", params, lhs, rhs, tol, nterms)
            rep.status = "error"
            rep.message = f"nonvanishing summand outside window at {pt}: |{abs(v)}|"
            return rep
    return _make_report("multilateralfinite", params, lhs, rhs, tol, nterms,
                        message=f"window upper={upper} lower={lower}")


def verify_multilateral_3psi3(n, delta, x, s, a, q, tol=1e-6,
                              policy=DEFAULT_POLICY):
    params = dict(n=n, delta=delta, x=x, s=s, a=a, q=q)
    gate = 0.9 if n == 1 else 0.9 * abs(q) ** (n - 1)
    if abs(s) >= gate:
        raise DomainError("multilateral 3psi3 requires |s| < 0.9 |q|^{n-1}")
    lhs = _mlat_product_side(n, delta, q, s, a, x, policy)
    rhs, nterms, window = _mlat_3psi3_sum(n, delta, q, s, a, x, policy)
    return _make_report("multilateral3psi3", params, lhs, rhs, tol, nterms,
                        message=f"window={window}")


def verify_summand_invariance(sigma, rho, gamma, q, n, delta, k, sign, tol=1e-9,
                              policy=DEFAULT_POLICY):
    params = dict(sigma=sigma, rho=rho, gamma=gamma, q=q, n=n, delta=delta,
                  k=k, sign=sign)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    z = delta / 2.0
    u = z + k
    lz, lv = flipped_summand_structured(u, z, sigma, rho, gamma, n, q, policy)
    rz, rv = flipped_summand_structured(sign * u, z, sigma, rho, gamma, n, q,
                                        policy)
    rep = _make_report("summandinvariance", params, lv, rv, tol,
                       message=f"structural zero multiplicity {lz} vs {rz}")
    if lz != rz:
        rep.status = "fail"
        rep.message += " (mismatch)"
    return rep


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------

def _mod(rng, lo=0.1, hi=0.9):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cscalar(rng, lo=0.1, hi=0.9):
    return _mod(rng, lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def _rpos(rng, lo=0.1, hi=0.9):
    return _mod(rng, lo, hi)


def _away(bases, q, kmax=12, tol=POLE_REJECT):
    for u in bases:
        for k in range(kmax + 1):
            if abs(1 - u * q**k) < tol:
                return False
    return True


def _retry(rng, draw, ok, tries=500):
    for _ in range(tries):
        cand = draw()
        if ok(cand):
            return cand
    raise DomainError("rejection sampling failed to find admissible parameters")


def _random_partition(rng, max_len, max_part):
    length = rng.randint(0, max_len)
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return normalize(parts)


def _sample_jackson(rng):
    q = _rpos(rng, 0.1, 0.6)
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
        return abs(total) >= 1e-4 * peak

    return _retry(rng, draw, ok)


def _sample_bailey10(rng):
    q = _rpos(rng, 0.1, 0.6)
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

    return _retry(rng, draw, ok)


def _sample_bailey6(rng):
    q = _rpos(rng, 0.1, 0.5)

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

    return _retry(rng, draw, ok)


def _sample_1psi1(rng):
    q = _rpos(rng, 0.1, 0.6)

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

    return _retry(rng, draw, ok)


def _sample_c1(rng):
    return dict(x=_cscalar(rng))


def _sample_flipped(rng):
    q = _rpos(rng, 0.15, 0.6)
    n = rng.randint(1, 5)
    z = rng.uniform(0.05, 0.45)
    k = rng.randint(0, n)

    def draw():
        return dict(sigma=_cscalar(rng), rho=_cscalar(rng), gamma=_cscalar(rng),
                    q=q, n=n, delta=rng.randint(0, 1), z=z, k=k)

    def ok(p):
        sig, rho, gam = p["sigma"], p["rho"], p["gamma"]
        b = q ** (2 * z)
        bases = [q * b / sig, q * b / rho, q * b / gam,
                 sig * rho * gam * q ** (-n) / b, b * q ** (1 + n)]
        return _away(bases, q, kmax=n + 2)

    return _retry(rng, draw, ok)


def _sample_bilfinite(rng):
    q = _rpos(rng, 0.1, 0.6)
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

    return _retry(rng, draw, ok)


def _sample_3psi3(delta):
    def sampler(rng):
        q = _rpos(rng, 0.1, 0.5)

        def draw():
            return dict(sigma=_cscalar(rng, 0.5, 0.9), rho=_cscalar(rng, 0.5, 0.9),
                        gamma=_cscalar(rng, 0.5, 0.9), q=q, delta=delta)

        def ok(p):
            sig, rho, gam = p["sigma"], p["rho"], p["gamma"]
            srg = sig * rho * gam
            if abs(q ** (delta + 1) / srg) > 0.8:
                return False
            qd = q ** (1 + delta)
            return _away([qd / sig, qd / rho, qd / gam, qd / srg], q)

        return _retry(rng, draw, ok)

    return sampler


def _sample_multijackson(rng):
    n = rng.choice([2, 2, 2, 3])
    p = 0.0 if n == 3 else rng.choice([0.0, 0.1])
    max_part = 2 if n == 3 else 3
    q = _rpos(rng, 0.15, 0.5)
    t = _rpos(rng, 0.2, 0.7)

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

    return _retry(rng, draw, ok)


def _sample_simplified(rng):
    n = rng.choice([2, 2, 2, 3])
    p = 0.0 if n == 3 else rng.choice([0.0, 0.1])
    max_part = 2 if n == 3 else 3
    q = _rpos(rng, 0.15, 0.5)
    t = _rpos(rng, 0.2, 0.7)

    def draw():
        return dict(lam=_random_partition(rng, n, max_part), n=n,
                    x=_cscalar(rng, 0.3, 0.9), q=q, p=p, t=t,
                    a=_cscalar(rng), b=_cscalar(rng), s=_cscalar(rng))

    def ok(pp):
        a, b, s, x = pp["a"], pp["b"], pp["s"], pp["x"]
        bases = [q * b * x, q * b / (a * x), q * b, q * b / a,
                 q * t ** (n - 1), a * s]
        return _away(bases, q, kmax=8)

    return _retry(rng, draw, ok)


def _sample_duality(rng):
    n = 2
    q = _rpos(rng, 0.15, 0.5)
    t = _rpos(rng, 0.2, 0.7)

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

    return _retry(rng, draw, ok)


def _sample_flip(rng):
    nvar = rng.randint(1, 2)
    q = _rpos(rng, 0.15, 0.5)
    t = _rpos(rng, 0.2, 0.7)
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

    return _retry(rng, draw, ok)


def _sample_weyldegree(rng):
    n = rng.randint(1, 3)
    N = rng.randint(1, 3)
    q = _rpos(rng, 0.15, 0.5)
    delta = rng.randint(0, 1)
    mu = _random_partition(rng, n, N)

    def draw():
        return dict(mu=mu, N=N, n=n, s=_cscalar(rng), delta=delta, q=q)

    def ok(pp):
        s = pp["s"]
        bases = [s * q ** (delta + N + n - 1), q ** (n - N) / s]
        return _away(bases, q, kmax=2 * N + 2 * n + 2)

    return _retry(rng, draw, ok)


def _sample_mlatfinite(rng):
    n = rng.choice([1, 2, 2])
    q = _rpos(rng, 0.15, 0.45)
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

    return _retry(rng, draw, ok)


def _sample_mlat3psi3(rng):
    n = rng.choice([1, 2, 2])
    q = _rpos(rng, 0.25, 0.45)
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

    return _retry(rng, draw, ok)


def _sample_invariance(rng):
    q = _rpos(rng, 0.15, 0.6)
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
    schema: Dict[str, str]  # parameter name -> kind (int|scalar|partition|vector)
    default_tol: float
    sampler: Callable
    runner: Callable


def _runner(fn, keys):
    def run(params, tol, policy):
        kwargs = {k: params[k] for k in keys}
        return fn(**kwargs, tol=tol, policy=policy)

    return run


CASES: Dict[str, CaseDef] = {}


def _register(case_id, description, schema, default_tol, sampler, fn, keys):
    CASES[case_id] = CaseDef(case_id, description, schema, default_tol, sampler,
                             _runner(fn, keys))


_register(
    "jackson8phi7",
    "Terminating very-well-poised 8phi7 summation (Jackson / q-Dougall)",
    dict(a="scalar", b="scalar", c="scalar", d="scalar", n="int", q="scalar"),
    1e-9, _sample_jackson, verify_jackson_8phi7, ["a", "b", "c", "d", "n", "q"])
_register(
    "bailey10phi9",
    "Bailey's terminating 10phi9 transformation",
    dict(a="scalar", b="scalar", c="scalar", d="scalar", e="scalar", f="scalar",
         n="int", q="scalar"),
    1e-9, _sample_bailey10, verify_bailey_10phi9,
    ["a", "b", "c", "d", "e", "f", "n", "q"])
_register(
    "bailey6psi6",
    "Bailey's very-well-poised 6psi6 bilateral summation",
    dict(a="scalar", b="scalar", c="scalar", d="scalar", e="scalar", q="scalar"),
    1e-8, _sample_bailey6, verify_bailey_6psi6, ["a", "b", "c", "d", "e", "q"])
_register(
    "ramanujan1psi1",
    "Ramanujan's 1psi1 bilateral summation",
    dict(a="scalar", b="scalar", x="scalar", q="scalar"),
    1e-8, _sample_1psi1, verify_ramanujan_1psi1, ["a", "b", "x", "q"])
_register(
    "c1macdonald",
    "Rank-1 C-type polynomial identity 1 = 1/(1-x^2) + 1/(1-x^-2)",
    dict(x="scalar"),
    1e-12, _sample_c1, verify_c1_macdonald, ["x"])
_register(
    "flippedsummand",
    "Terminating summand equals its flipped infinite-product form (b = q^{2z})",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="int",
         delta="int", z="scalar", k="int"),
    1e-8, _sample_flipped, verify_flipped_summand,
    ["sigma", "rho", "gamma", "q", "n", "delta", "z", "k"])
_register(
    "bilateralfinite",
    "Three-way check: one-sided sum = finite bilateral sum = closed product",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="int",
         delta="int"),
    1e-9, _sample_bilfinite, verify_bilateral_finite,
    ["sigma", "rho", "gamma", "q", "n", "delta"])
_register(
    "3psi3delta0",
    "Bilateral 3psi3 summation, delta = 0 (Bailey)",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", delta="int"),
    1e-8, _sample_3psi3(0), verify_3psi3, ["sigma", "rho", "gamma", "q", "delta"])
_register(
    "3psi3delta1",
    "Bilateral 3psi3 summation, delta = 1 (shifted-base companion)",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", delta="int"),
    1e-8, _sample_3psi3(1), verify_3psi3, ["sigma", "rho", "gamma", "q", "delta"])
_register(
    "multijackson",
    "Multiple elliptic Jackson summation for W functions",
    dict(lam="partition", n="int", z="vector", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar", s="scalar"),
    1e-7, _sample_multijackson, verify_multiple_jackson,
    ["lam", "n", "z", "q", "p", "t", "a", "b", "s"])
_register(
    "simplifiedjackson",
    "Multiple Jackson summation at the principal argument z = x t^{staircase}",
    dict(lam="partition", n="int", x="scalar", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar", s="scalar"),
    1e-7, _sample_simplified, verify_simplified_jackson,
    ["lam", "n", "x", "q", "p", "t", "a", "b", "s"])
_register(
    "duality",
    "Duality relation exchanging the index partition and spectral parameters",
    dict(lam="partition", nu="partition", n="int", a="scalar", aprime="scalar",
         b="scalar", q="scalar", t="scalar"),
    1e-9, _sample_duality, verify_duality,
    ["lam", "nu", "n", "a", "aprime", "b", "q", "t"])
_register(
    "flip",
    "Inversion (flip) identity for W under (q,t,a,b,x) -> reciprocals",
    dict(lam="partition", xs="vector", q="scalar", p="scalar", t="scalar",
         a="scalar", b="scalar"),
    1e-9, _sample_flip, verify_flip, ["lam", "xs", "q", "p", "t", "a", "b"])
_register(
    "weyldegree",
    "Closed degree formula vs recursive W evaluation at the principal point",
    dict(mu="partition", N="int", n="int", s="scalar", delta="int", q="scalar"),
    1e-9, _sample_weyldegree, verify_weyl_degree,
    ["mu", "N", "n", "s", "delta", "q"])
_register(
    "multilateralfinite",
    "Finite multilateral summation over Z^n at t = q",
    dict(lam="partition", n="int", x="scalar", s="scalar", a="scalar",
         q="scalar", delta="int"),
    1e-7, _sample_mlatfinite, verify_multilateral_finite,
    ["lam", "n", "x", "s", "a", "q", "delta"])
_register(
    "multilateral3psi3",
    "Multilateral analogue of the bilateral 3psi3 summation",
    dict(n="int", delta="int", x="scalar", s="scalar", a="scalar", q="scalar"),
    1e-6, _sample_mlat3psi3, verify_multilateral_3psi3,
    ["n", "delta", "x", "s", "a", "q"])
_register(
    "summandinvariance",
    "Hyperoctahedral rank-1 invariance of the flipped summand at z = delta/2",
    dict(sigma="scalar", rho="scalar", gamma="scalar", q="scalar", n="int",
         delta="int", k="int", sign="int"),
    1e-9, _sample_invariance, verify_summand_invariance,
    ["sigma", "rho", "gamma", "q", "n", "delta", "k", "sign"])


def sample_params(case_id: str, seed: int) -> dict:
    """Deterministic parameter draw for a registry case."""
    if case_id not in CASES:
        from .errors import ConfigError

        raise ConfigError(f"unknown case id: {case_id}")
    rng = random.Random(seed)
    return CASES[case_id].sampler(rng)


def run_case(case_id: str, params: dict, tol: Optional[float] = None,
             policy: TruncationPolicy = DEFAULT_POLICY) -> IdentityReport:
    """Run one registry case on explicit parameters, capturing library errors
    into an error-status report."""
    if case_id not in CASES:
        from .errors import ConfigError

        raise ConfigError(f"unknown case id: {case_id}")
    case = CASES[case_id]
    use_tol = case.default_tol if tol is None else tol
    try:
        return case.runner(params, use_tol, policy)
    except QidentError as exc:
        return error_report(case_id, params, use_tol, exc)
    except ZeroDivisionError as exc:
        return error_report(case_id, params, use_tol, exc)
