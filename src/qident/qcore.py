"""Scalar q-arithmetic: Pochhammer symbols, infinite products, theta
functions, and elliptic Pochhammer symbols.

All functions are pure and duck-typed over the scalar backend: they accept
either Python complex numbers or mpmath complex values (for high-precision
runs) and return results in the same arithmetic.  Complex powers use the
principal branch throughout.

Conventions:
  (a;q)_k        finite product prod_{i=1..k} (1 - a q^{i-1}); for k < 0 it is
                 1 / (a q^k; q)_{-k}.
  (a;q)_inf      prod_{i>=0} (1 - a q^i), truncated by policy.
  theta(x;p)     (x;p)_inf (p/x;p)_inf; theta(x;0) = 1 - x.
  (a;q,p)_n      prod_{k=0..n-1} theta(a q^k; p), negative n via reciprocal.
"""

from __future__ import annotations

import cmath

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence
from .policy import DEFAULT_POLICY, TruncationPolicy

#: Absolute threshold below which a product factor counts as vanishing.
VANISH_TOL = 1e-14

#: Messages of pair_poch_ratio's vanishing-factor errors.
PAIR_DENOMINATOR_VANISHES = "pair_poch_ratio: denominator vanishes"
PAIR_RECIPROCAL_VANISHES = "pair_poch_ratio: reciprocal vanishes"


def csqrt(x):
    """Principal square root, dispatching on the scalar backend."""
    if isinstance(x, (int, float, complex)):
        return cmath.sqrt(x)
    import mpmath

    return mpmath.sqrt(x)


def poch_int(a, q, k: int):
    """q-Pochhammer symbol (a;q)_k for integer k (either sign).

    For k < 0 the value is 1 / prod_{i=1..-k} (1 - a q^{k+i-1}); a vanishing
    factor there raises DivisionByVanishingFactor.
    """
    if k >= 0:
        r = 1.0 + 0j
        for i in range(k):
            r = r * (1 - a * q**i)
        return r
    r = 1.0 + 0j
    for i in range(-k):
        f = 1 - a * q ** (k + i)
        if abs(f) < VANISH_TOL:
            raise DivisionByVanishingFactor(
                f"(a;q)_{k}: factor 1 - a*q^{k + i} vanishes"
            )
        r = r * f
    return 1.0 / r


def poch_multi(avals, q, k: int):
    """Product of poch_int over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * poch_int(a, q, k)
    return r


def poch_inf(a, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Infinite q-Pochhammer symbol (a;q)_inf, truncated per policy."""
    if abs(q) >= 1:
        raise DomainError("poch_inf requires |q| < 1")
    r = 1.0 + 0j
    x = a
    for _ in range(policy.max_factors):
        if abs(x) < policy.product_tol:
            return r
        r = r * (1 - x)
        if r == 0:
            return r
        x = x * q
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def poch_multi_inf(avals, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Product of poch_inf over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * poch_inf(a, q, policy)
    return r


def poch_general(a, q, alpha, policy: TruncationPolicy = DEFAULT_POLICY):
    """General-order q-Pochhammer symbol (a;q)_alpha = (a;q)_inf/(a q^alpha;q)_inf.

    alpha = 0 is handled structurally (value 1) before any ratio is formed.
    Complex q**alpha uses the principal branch.
    """
    if alpha == 0:
        return 1.0 + 0j
    num = poch_inf(a, q, policy)
    den = poch_inf(a * q**alpha, q, policy)
    if abs(den) < VANISH_TOL:
        raise DivisionByVanishingFactor("poch_general: denominator product vanishes")
    return num / den


def theta(x, p, policy: TruncationPolicy = DEFAULT_POLICY):
    """Normalized theta function theta(x;p) = (x;p)_inf (p/x;p)_inf."""
    if x == 0:
        raise DomainError("theta requires x != 0")
    if p == 0:
        return 1 - x
    if abs(p) >= 1:
        raise DomainError("theta requires |p| < 1")
    return poch_inf(x, p, policy) * poch_inf(p / x, p, policy)


def epoch(a, q, p, n: int, policy: TruncationPolicy = DEFAULT_POLICY):
    """Elliptic q-Pochhammer symbol (a;q,p)_n = prod_{k=0..n-1} theta(a q^k;p).

    Negative n is the reciprocal 1/(a q^n; q,p)_{-n}.  At p = 0 this agrees
    with poch_int.
    """
    if n == 0:
        return 1.0 + 0j
    if n > 0:
        r = 1.0 + 0j
        for k in range(n):
            r = r * theta(a * q**k, p, policy)
        return r
    r = 1.0 + 0j
    for k in range(-n):
        f = theta(a * q ** (n + k), p, policy)
        if abs(f) < VANISH_TOL:
            raise DivisionByVanishingFactor(
                f"(a;q,p)_{n}: theta factor at shift {n + k} vanishes"
            )
        r = r * f
    return 1.0 / r


def epoch_multi(avals, q, p, n: int, policy: TruncationPolicy = DEFAULT_POLICY):
    """Product of epoch over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * epoch(a, q, p, n, policy)
    return r


def limit_rule(x, q, k: int):
    """Closed form of lim_{a->0} a^k (x/a;q)_k = (-1)^k x^k q^{k(k-1)/2}."""
    return (-1) ** k * x**k * q ** (k * (k - 1) // 2)


def pair_poch_ratio(anum, aden, q, m: int):
    """Paired-ratio Pochhammer quotient (anum;q)_m / (aden;q)_m.

    Evaluated factor-by-factor as a running product of the ratios
    (1 - anum q^k)/(1 - aden q^k).  For large |m| of either sign the
    individual Pochhammers overflow double precision while their ratio stays
    moderate whenever anum and aden grow at the same q-rate, so this pairing
    is the numerically safe primitive for two-sided lattice sums.

    A vanishing numerator factor makes the quotient exactly 0 (for m > 0);
    a vanishing reciprocal factor raises DivisionByVanishingFactor.
    """
    if m == 0:
        return 1.0 + 0j
    r = 1.0 + 0j
    if m > 0:
        for k in range(m):
            fd = 1 - aden * q**k
            if abs(fd) < VANISH_TOL:
                raise DivisionByVanishingFactor(PAIR_DENOMINATOR_VANISHES)
            r = r * (1 - anum * q**k) / fd
        return r
    for k in range(m, 0):
        fn = 1 - anum * q**k
        if abs(fn) < VANISH_TOL:
            raise DivisionByVanishingFactor(PAIR_RECIPROCAL_VANISHES)
        r = r * (1 - aden * q**k) / fn
    return r
