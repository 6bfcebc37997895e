"""Partition-indexed Pochhammer symbols and the W functions.

Provides
  * partition Pochhammer symbols (a;q,p,t)_lam,
  * one W kernel on integer-vector indices of fixed length: the
    single-variable skew W_{lam/mu}(x) for lam in Z^n and mu in Z^{n-1}
    (zw_skew_single), whose H factor and remaining Pochhammer products are
    collected as one ledger of numerator/denominator theta arguments
    (negative orders enter through negative-order Pochhammers), and the
    multivariable W via its branching recursion (zw_multi),
  * partition entry points (w_skew_single, w_multi) that pad the partitions
    with zeros to fixed length and call the same kernel, and
  * the closed "degree formula" for W at its principal specialization.

Every evaluation uses only finite products, so the functions remain valid at
|q| > 1 (needed by the flip identity).

Pole handling: at the t = q specialization individual skew-W values can have
simple poles in b that cancel only across the branching sum.  The kernel's
ledger is therefore evaluated by :func:`theta_quotient`, which cancels
coincident arguments structurally; a genuinely uncancelled denominator zero
raises PoleCancellationError, and the regularized entry point responds by
evaluating at b(1 +/- h) and Richardson-extrapolating the even function of h
back to h = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import PoleCancellationError
from .partitions import interlacing_vectors, is_horizontal_strip, normalize, part
from .policy import DEFAULT_POLICY
from .qcore import epoch, theta

#: Relative snap tolerance for structural cancellation of coincident theta
#: arguments.  Sampled parameters keep distinct arguments at least ~1e-8
#: apart (pole rejection), while arguments forced equal by a degenerate
#: specialization coincide to ~1e-16, so 1e-12 separates the two regimes.
SNAP_TOL = 1e-12

#: Residual denominator theta values below this modulus count as poles.
POLE_TOL = 1e-10

#: Relative b-perturbation for regularized evaluation near cancelling poles.
REG_ETA = 1e-4


@dataclass(frozen=True)
class WParams:
    """Parameter bundle (q, p, t, a, b) for W-function evaluation."""

    q: complex
    p: complex
    t: complex
    a: complex
    b: complex


def poch_partition(a, params: WParams, lam, nmin: int = 0):
    """Partition Pochhammer symbol (a;q,p,t)_lam = prod_i (a t^{1-i};q,p)_{lam_i}.

    lam may be any integer vector; negative entries use the negative-order
    elliptic Pochhammer.  nmin pads the index range (extra factors are
    order 0 for partitions but matter for integer vectors of fixed length).
    """
    q, p, t = params.q, params.p, params.t
    r = 1.0 + 0j
    for i in range(1, max(len(lam), nmin) + 1):
        r = r * epoch(a * t ** (1 - i), q, p, part(lam, i))
    return r


def poch_partition_multi(avals, params: WParams, lam, nmin: int = 0):
    """Product of poch_partition over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * poch_partition(a, params, lam, nmin)
    return r


def theta_quotient(num_args, den_args, p, policy=DEFAULT_POLICY):
    """prod theta(x;p) over num_args divided by the same over den_args,
    cancelling numerator/denominator arguments that coincide within SNAP_TOL.

    Each numerator argument, in order, cancels the lowest-index unused
    denominator argument within SNAP_TOL of it.  Candidates come from a bisect
    window on the denominator arguments sorted by real part, which contains
    every match, so the cost is O((N + M) log M) instead of O(N M) and the
    result is that of the plain scan.  Arguments of infinite or nan modulus
    (which match differently) are scanned in full.

    Raises PoleCancellationError when an uncancelled denominator theta is
    numerically zero."""
    den = list(den_args)
    used = [False] * len(den)
    by_real, odd = [], []  # (real part, index) of finite arguments; (None, index)
    for j, y in enumerate(den):
        if abs(y) < math.inf:
            by_real.append((y.real, j))
        else:
            odd.append((None, j))
    by_real.sort()
    reals = [re for re, _ in by_real]
    rest = []
    for x in num_args:
        ax = abs(x)
        if ax < math.inf:
            # A match has |y| <= ax + |x - y|, hence |x - y| < 2 SNAP_TOL max(ax, 1).
            w = 2 * SNAP_TOL * (ax if ax > 1.0 else 1.0)
            xr = x.real
            lo = bisect_left(reals, xr - w)
            cands = by_real[lo:bisect_right(reals, xr + w, lo)]
            if odd:
                cands += odd
        else:
            cands = [(None, j) for j in range(len(den))]
        hit = None
        for _, j in cands:
            if not used[j] and (hit is None or j < hit):
                y = den[j]
                if abs(x - y) <= SNAP_TOL * max(ax, abs(y), 1.0):
                    hit = j
        if hit is None:
            rest.append(x)
        else:
            used[hit] = True
    r = 1.0 + 0j
    for x in rest:
        r = r * theta(x, p, policy)
    for y, u in zip(den, used):
        if u:
            continue
        ty = theta(y, p, policy)
        if abs(ty) < POLE_TOL:
            raise PoleCancellationError("uncancelled denominator theta vanishes")
        r = r / ty
    return r


# ---------------------------------------------------------------------------
# The W kernel: integer-vector indices of fixed length, entries in Z.
# ---------------------------------------------------------------------------

def zw_skew_single(x, lam, mu, params: WParams):
    """Skew W for lam in Z^n and mu in Z^{n-1}, taken literally.

    The defining products are evaluated verbatim with negative-order
    Pochhammers; the missing part mu_n is padded with 0 and enters only
    through order-zero factors.  The value is 0 unless
    lam_i >= mu_i >= lam_{i+1} for i = 1..n-1.
    """
    q, p, t, a, b = params.q, params.p, params.t, params.a, params.b
    lam, mu = tuple(lam), tuple(mu)
    n = len(lam)
    for i in range(1, n):
        if not (part(lam, i) >= part(mu, i) >= part(lam, i + 1)):
            return 0.0 + 0j
    num, den = [], []

    def add_poch(numl, denl, base, m):
        # theta-Pochhammer (base;q,p)_m appended as signed argument lists.
        if m >= 0:
            for k in range(m):
                numl.append(base * q**k)
        else:
            for k in range(-m):
                denl.append(base * q ** (m + k))

    # H factor.
    for j in range(2, n + 1):
        for i in range(1, j):
            m = part(mu, j - 1) - part(lam, j)
            li, lj = part(lam, i), part(lam, j)
            mi, mj1 = part(mu, i), part(mu, j - 1)
            add_poch(num, den, q ** (mi - mj1) * t ** (j - i), m)
            add_poch(den, num, q ** (mi - mj1 + 1) * t ** (j - i - 1), m)
            add_poch(num, den, q ** (li + lj) * t ** (3 - j - i) * b, m)
            add_poch(den, num, q ** (li + lj + 1) * t ** (2 - j - i) * b, m)
            add_poch(num, den, q ** (li - mj1 + 1) * t ** (j - i - 1), m)
            add_poch(den, num, q ** (li - mj1) * t ** (j - i), m)
    for j in range(2, n + 1):
        for i in range(1, j - 1):
            m = part(mu, j - 1) - part(lam, j)
            mi, lj = part(mu, i), part(lam, j)
            add_poch(num, den, q ** (mi + lj + 1) * t ** (1 - j - i) * b, m)
            add_poch(den, num, q ** (mi + lj) * t ** (2 - j - i) * b, m)
    # (x^-1, a x)_lam / (x^-1, a x)_mu as strip-difference products.
    for i in range(1, n + 1):
        m = part(lam, i) - part(mu, i)
        add_poch(num, den, t ** (1 - i) / x * q ** part(mu, i), m)
        add_poch(num, den, a * x * t ** (1 - i) * q ** part(mu, i), m)
    # (q b x / t, q b / (a x t))_mu / (q b x, q b / (a x))_lam.
    for i in range(1, n + 1):
        mi, li = part(mu, i), part(lam, i)
        add_poch(num, den, q * b * x * t ** (-i), mi)
        add_poch(den, num, q * b * x * t ** (1 - i), mi)
        add_poch(den, num, q * b * x * t ** (1 - i) * q**mi, li - mi)
        add_poch(num, den, q * b / (a * x) * t ** (-i), mi)
        add_poch(den, num, q * b / (a * x) * t ** (1 - i), mi)
        add_poch(den, num, q * b / (a * x) * t ** (1 - i) * q**mi, li - mi)
    # Final block.
    tpow = 1.0 + 0j
    for i in range(1, n + 1):
        mi, li1 = part(mu, i), part(lam, i + 1)
        if mi == 0 and li1 == 0:
            continue
        base_n = b * t ** (1 - 2 * i)
        base_d = b * q * t ** (-2 * i)
        if mi != 0:
            num.append(base_n * q ** (2 * mi))
            den.append(base_n)
        add_poch(num, den, base_n, mi + li1)
        add_poch(den, num, base_d, mi + li1)
        tpow = tpow * t ** (i * (mi - li1))
    return tpow * theta_quotient(num, den, p)


def zw_multi(xvars, lam, params: WParams, memo=None):
    """W for an index vector lam in Z^n via the branching recursion over
    interlacing integer vectors.  Vanishes for non-dominant lam.

    A memo dict (keyed by variables and index) may be shared across calls
    with the same params, e.g. across the subpartitions of one identity
    evaluation.
    """
    xvars = tuple(xvars)
    lam = tuple(lam)
    n = len(xvars)
    if len(lam) != n:
        raise ValueError("index vector length must match variable count")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        return 0.0 + 0j
    if memo is not None:
        key = (xvars, lam)
        if key in memo:
            return memo[key]
    if n == 1:
        total = zw_skew_single(xvars[0], lam, (), params)
    else:
        y, zs = xvars[0], xvars[1:]
        l = n - 1
        shifted = WParams(params.q, params.p, params.t, params.a * params.t ** (2 * l),
                          params.b * params.t**l)
        total = 0.0 + 0j
        for nu in interlacing_vectors(lam):
            w1 = zw_skew_single(y * params.t ** (-l), lam, nu, shifted)
            if w1 == 0:
                continue
            total += w1 * zw_multi(zs, nu, params, memo)
    if memo is not None:
        memo[key] = total
    return total


def _richardson_in_b(evaluate, params: WParams, eta: float = REG_ETA):
    """Evaluate a W expression with b replaced by b(1 +/- h) and Richardson-
    extrapolate h -> 0.  The symmetrized value g(h) deviates from the true
    value by O(h^2)-even terms only, so (4 g(h/2) - g(h)) / 3 removes the
    leading error, leaving O(h^4) truncation."""

    def g(h):
        up = evaluate(WParams(params.q, params.p, params.t, params.a, params.b * (1 + h)))
        dn = evaluate(WParams(params.q, params.p, params.t, params.a, params.b * (1 - h)))
        return (up + dn) / 2

    return (4 * g(eta / 2) - g(eta)) / 3


def zw_multi_reg(xvars, lam, params: WParams, eta: float = REG_ETA, memo=None):
    """zw_multi with automatic regularization of cancelling b-poles.

    memo is zw_multi's memo for params; the regularized evaluation perturbs b,
    so it never sees the memo."""
    try:
        return zw_multi(xvars, lam, params, memo)
    except (PoleCancellationError, ZeroDivisionError):
        return _richardson_in_b(lambda pp: zw_multi(xvars, lam, pp), params, eta)


# ---------------------------------------------------------------------------
# Partition entry points: zero-padded indices, evaluated by the kernel.
# ---------------------------------------------------------------------------

def _padded(lam, n):
    return lam + (0,) * (n - len(lam))


def w_skew_single(x, lam, mu, params: WParams):
    """Single-variable skew W_{lam/mu}(x; q, p, t, a, b) for partitions.

    Vanishes structurally (exact 0) unless lam/mu is a horizontal strip.
    Otherwise lam and mu are padded with zeros to lengths n and n - 1,
    n = max(len(lam), len(mu)) + 1, so that the kernel's last H row j = n
    carries the bottom strip row mu_{n-1} - lam_n = mu_{n-1}.
    """
    lam, mu = normalize(lam), normalize(mu)
    if not is_horizontal_strip(lam, mu):
        return 0.0 + 0j
    n = max(len(lam), len(mu)) + 1
    return zw_skew_single(x, _padded(lam, n), _padded(mu, n - 1), params)


def w_multi(xvars, lam, mu, params: WParams, memo=None):
    """Multivariable W_lam(x_1..x_n) for a partition lam: lam is padded with
    zeros to the variable count n and evaluated by zw_multi, which also
    takes the memo.  W vanishes (exact 0) when lam has more than n parts.

    mu must be empty: no skew multivariable W is evaluated.
    """
    lam, mu = normalize(lam), normalize(mu)
    if mu:
        raise ValueError("w_multi evaluates W_lam only; mu must be empty")
    xvars = tuple(xvars)
    if len(lam) > len(xvars):
        return 0.0 + 0j
    return zw_multi(xvars, _padded(lam, len(xvars)), params, memo)


# ---------------------------------------------------------------------------
# Degree formula at the principal specialization.
# ---------------------------------------------------------------------------

def w_degree(mu, N: int, n: int, s, delta: int, q):
    """Closed form for W_mu(q^{N + staircase(n)}; q, q, s q^delta, q^{delta+n-1}).

    Valid literally for mu in Z^n (weakly decreasing; other vectors return 0,
    matching the recursive evaluation).  Every linear factor has the shape
    1 - c q^e with c in {1, s, 1/s}; factors with c = 1, e = 0 vanish exactly
    and are counted on each side: an excess numerator zero gives 0, an excess
    denominator zero is a genuine pole (DivisionByVanishingFactor via the
    raised ZeroDivisionError contract is avoided by explicit counting).
    """
    from .errors import DivisionByVanishingFactor

    mu = tuple(mu)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        return 0.0 + 0j
    num, den = [], []

    def add(numl, denl, c, e0, m):
        if m >= 0:
            for k in range(m):
                numl.append((c, e0 + k))
        else:
            for k in range(-m):
                denl.append((c, e0 + m + k))

    def add_ppoch(numl, denl, c, e0, vec):
        # (c q^{e0}; q, q)_vec = prod_i (c q^{e0+1-i}; q)_{vec_i}.
        for i in range(1, n + 1):
            add(numl, denl, c, e0 + 1 - i, part(vec, i))

    add_ppoch(num, den, "1", -N, mu)
    add_ppoch(num, den, "s", delta + N + n - 1, mu)
    add_ppoch(den, num, "1", N + delta + 2 * n - 1, mu)
    add_ppoch(den, num, "1/s", n - N, mu)
    for j in range(2, n + 1):
        for i in range(1, j):
            dm = part(mu, i) - part(mu, j)
            sm = part(mu, i) + part(mu, j)
            add(num, den, "1", j - i + 1, dm)
            add(num, den, "1", delta + 2 * n - i - j + 1, sm)
            add(den, num, "1", j - i, dm)
            add(den, num, "1", delta + 2 * n - i - j, sm)

    zero_num = num.count(("1", 0))
    zero_den = den.count(("1", 0))
    if zero_num > zero_den:
        return 0.0 + 0j
    if zero_den > zero_num:
        raise DivisionByVanishingFactor("degree formula: uncancelled zero denominator")
    coeff = {"1": 1.0 + 0j, "s": s, "1/s": 1.0 / s}
    r = 1.0 + 0j
    for c, e in num:
        if (c, e) != ("1", 0):
            r = r * (1 - coeff[c] * q**e)
    for c, e in den:
        if (c, e) != ("1", 0):
            r = r / (1 - coeff[c] * q**e)
    return r
