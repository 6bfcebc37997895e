"""Scalar q-arithmetic: integer-order and infinite Pochhammer symbols, theta
functions, elliptic Pochhammer symbols, and paired Pochhammer quotients.

All functions are deterministic functions of their arguments, truncated by
the module constants PRODUCT_TOL and MAX_FACTORS, and duck-typed over the
scalar backend: they accept either Python complex numbers or mpmath complex
values (for high-precision runs) and return results in the same arithmetic.
Complex powers use the principal branch throughout.

The one state is THETA_MEMO: while ``identities.run_case`` evaluates,
theta(x;p) at p != 0, identities' split infinite products ("split" keys) and
Euler's tail coefficients ("euler" keys) are computed once per argument and
read back.  A memo value is the kernel's value bit for bit, so the memo
changes no result, and both sides of an identity may share it: they call
the same kernel either way.  It is a context variable that run_case sets
on entry and drops on return, so no value outlives one evaluation.  Outside
run_case, get({}) yields a throwaway: all compute afresh.

Conventions:
  (a;q)_k        finite product prod_{i=1..k} (1 - a q^{i-1}); for k < 0 it is
                 1 / (a q^k; q)_{-k}.
  (a;q)_inf      prod_{i>=0} (1 - a q^i), its tail summed by Euler (poch_inf).
  theta(x;p)     (x;p)_inf (p/x;p)_inf; theta(x;0) = 1 - x.
  (a;q,p)_n      prod_{k=0..n-1} theta(a q^k; p), for n >= 0 only.
"""

from __future__ import annotations

import cmath
from contextvars import ContextVar

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence

#: Absolute threshold below which a product factor counts as vanishing.
VANISH_TOL = 1e-14

#: Euler's series for an infinite product's tail (poch_inf) is cut at the
#: first |c_n| rho^n below PRODUCT_TOL.
PRODUCT_TOL = 1e-17

#: Cap on an infinite product's factors and on its Euler series' terms;
#: reaching it raises NoConvergence.
MAX_FACTORS = 10_000

#: Messages of pair_poch_ratio's vanishing-factor errors.
PAIR_DENOMINATOR_VANISHES = "pair_poch_ratio: denominator vanishes"
PAIR_RECIPROCAL_VANISHES = "pair_poch_ratio: reciprocal vanishes"

#: The memo of the current evaluation, or None outside any: a dict that
#: identities.run_case sets on entry and resets on exit.
THETA_MEMO: ContextVar = ContextVar("theta_memo", default=None)


def csqrt(x):
    """Principal square root, dispatching on the scalar backend: an mpmath
    value's root is taken in its own context, at that context's precision."""
    if isinstance(x, (int, float, complex)):
        return cmath.sqrt(x)
    return x.context.sqrt(x)


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


def tail_radius(q) -> float:
    """rho(q) = min(1/4, (1 - |q|) ln 2 / 2), see poch_inf."""
    return min(0.25, (1 - float(abs(q))) * 0.34657359027997264)


def _euler_coefficients(q):
    """Euler's c_n (see poch_inf), highest first, in q's arithmetic."""
    rho, coeffs, c = tail_radius(q), [], 1
    for n in range(MAX_FACTORS):
        if abs(c) * rho**n < PRODUCT_TOL:
            return coeffs[::-1]
        coeffs.append(c)
        c = -c * q**n / (1 - q ** (n + 1))
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def poch_inf_tail(y, q):
    """(y;q)_inf for |y| <= tail_radius(q): Horner on memoized Euler c_n."""
    key = ("euler", q, type(q))
    memo = THETA_MEMO.get({})
    coeffs = memo.get(key)
    if coeffs is None:
        coeffs = memo[key] = _euler_coefficients(q)
    s = 0
    for c in coeffs:
        s = s * y + c
    return s


def poch_inf(a, q):
    """Infinite q-Pochhammer symbol (a;q)_inf.

    Factors 1 - a q^k are multiplied out (an exact zero returns 0) while
    |a q^k| > rho(q) = min(1/4, (1 - |q|) ln 2 / 2); the tail at y = a q^K is
    Euler's sum_n c_n y^n, c_0 = 1, c_{n+1} = -c_n q^n / (1 - q^{n+1})
    (Gasper-Rahman 1.3), cut at the first |c_n| rho^n < PRODUCT_TOL.  Its
    condition bound (-rho;|q|)_inf / (rho;|q|)_inf stays near 2 (<= 2.02)."""
    if abs(q) >= 1:
        raise DomainError("poch_inf requires |q| < 1")
    rho = tail_radius(q)
    r = 1.0 + 0j
    x = a
    for _ in range(MAX_FACTORS):
        if abs(x) <= rho:
            return r * poch_inf_tail(x, q)
        r = r * (1 - x)
        if r == 0:
            return r
        x = x * q
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def poch_multi_inf(avals, q):
    """Product of poch_inf over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * poch_inf(a, q)
    return r


def theta(x, p):
    """Normalized theta function theta(x;p) = (x;p)_inf (p/x;p)_inf.

    At p != 0 under a THETA_MEMO dict the value is memoized, keyed by x and p
    with their types (a double and an mpmath argument of equal value compute
    differently)."""
    if x == 0:
        raise DomainError("theta requires x != 0")
    if p == 0:
        return 1 - x
    if abs(p) >= 1:
        raise DomainError("theta requires |p| < 1")
    memo = THETA_MEMO.get({})
    key = (x, p, type(x), type(p))
    v = memo.get(key)
    if v is None:
        v = memo[key] = poch_inf(x, p) * poch_inf(p / x, p)
    return v


def epoch(a, q, p, n: int):
    """Elliptic q-Pochhammer symbol (a;q,p)_n = prod_{k=0..n-1} theta(a q^k;p)
    for n >= 0; a negative n raises DomainError.  At p = 0 this agrees with
    poch_int.
    """
    if n < 0:
        raise DomainError(f"(a;q,p)_n requires n >= 0, got n = {n}")
    r = 1.0 + 0j
    for k in range(n):
        r = r * theta(a * q**k, p)
    return r


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
            qk = q**k
            fd = 1 - aden * qk
            if abs(fd) < VANISH_TOL:
                raise DivisionByVanishingFactor(PAIR_DENOMINATOR_VANISHES)
            r = r * (1 - anum * qk) / fd
        return r
    for k in range(m, 0):
        qk = q**k
        fn = 1 - anum * qk
        if abs(fn) < VANISH_TOL:
            raise DivisionByVanishingFactor(PAIR_RECIPROCAL_VANISHES)
        r = r * (1 - aden * qk) / fn
    return r
