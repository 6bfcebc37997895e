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

Index preconditions: the kernel does not re-check the indices its callers
build.  zw_skew_single takes a mu that interlaces lam, zw_multi an index
with one entry per variable, and w_degree a partition padded to n parts;
each docstring names the callers that guarantee it.

Pole handling: at the t = q specialization individual skew-W values can have
simple poles in b that cancel only across the branching sum.  The kernel's
ledger is therefore evaluated by :func:`theta_quotient`, which cancels
coincident arguments structurally; a genuinely uncancelled denominator zero
raises PoleCancellationError, which reaches the caller (run_case makes it an
error report).

Keyed ledgers: at p = 0 and t = q, a WParams may carry integer monomial keys
for (a, b), and the W variables are then Keyed(value, key) pairs.  A key
alpha * S_KEY + e asserts that the value is s^alpha q^e for the base q and
one free parameter s, up to the rounding of the expression that computed it,
with s generic: no monomial of nonzero key in the ledger equals 1, and two of
distinct keys never coincide.  The caller vouches for that.
identities._principal_w keys the principal specialization a = s q^delta,
b = q^{delta+n-1}, x_i = q^{integer} of mlat_finite_summand (so of
verify_multilateral_finite) and of verify_weyl_degree's right side, and only
when s and s^2 lie clear of every power of q.  zw_multi shifts the keys with a t^{2l}, b t^l and
x t^{-l}.  zw_skew_single transcribes its ledger once, keyed or not, as
runs of arguments base * q^k whose keys step by 1.  A keyed ledger is settled
by key: theta(y; 0) = 1 - y vanishes exactly at key 0, and key-0 arguments
cancel only among themselves, so a net key-0 numerator gives exact 0 and a
net key-0 denominator raises PoleCancellationError, before any theta product.
Otherwise arguments cancel by key equality under theta_quotient's
lowest-index rule, and only the survivors get values, from the same
expressions, for theta_product.  So while equal keys are exactly the
arguments that coincide within SNAP_TOL, a nonzero keyed ledger keeps the
untagged value bit for bit, and a zero one is exact 0 where the float path
left round-off.  Untagged ledgers (every other caller) leave their keys
unread: their runs are expanded, in order, into the values base * q^k that
theta_quotient cancels by SNAP_TOL matching.

Zero tails: the branching sum of zw_multi takes, for each interlacing nu, the
tail W_nu(x_2..x_n) first (memoized when a memo is given) and builds the skew
factor's ledger only when that tail is nonzero.  The terms added, and their order, are those of the
skew-factor-first loop, and an error of a tail is raised only when its skew
factor is nonzero, as before.  The one difference: a skew factor whose tail is
exactly 0 is never evaluated, so a pole (or another arithmetic error, or a
non-finite value) in that skew factor alone does not reach the sum and
raises nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .errors import DivisionByVanishingFactor, PoleCancellationError
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

#: Key of the free parameter s: the key alpha * S_KEY + e stands for the
#: monomial s**alpha * q**e (|e| < S_KEY / 2).
S_KEY = 1 << 32


@dataclass(frozen=True)
class WParams:
    """Parameter bundle (q, p, t, a, b) for W-function evaluation.

    keys, when given, are the monomial keys of (a, b) (see S_KEY and
    "Keyed ledgers" in the module docstring); they need p = 0 and t = q."""

    q: complex
    p: complex
    t: complex
    a: complex
    b: complex
    keys: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.keys is not None and (self.p != 0 or self.t != self.q):
            raise ValueError("keyed W parameters need p = 0 and t = q")


class Keyed(NamedTuple):
    """A W variable with its monomial key: value is s**alpha * q**e for the
    key alpha * S_KEY + e."""

    value: complex
    key: int


def poch_partition(a, q, p, t, lam):
    """Partition Pochhammer symbol (a;q,p,t)_lam = prod_i (a t^{1-i};q,p)_{lam_i}.

    lam is a vector of non-negative integers, a partition at every caller; a
    negative entry raises DomainError (qcore.epoch).
    """
    r = 1.0 + 0j
    for i in range(1, len(lam) + 1):
        r = r * epoch(a * t ** (1 - i), q, p, part(lam, i))
    return r


def poch_partition_multi(avals, q, p, t, lam):
    """Product of poch_partition over a list of parameters."""
    r = 1.0 + 0j
    for a in avals:
        r = r * poch_partition(a, q, p, t, lam)
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
    return theta_product(rest, [y for y, u in zip(den, used) if not u], p, policy)


def theta_product(num_args, den_args, p, policy=DEFAULT_POLICY):
    """prod theta(x;p) over num_args divided by the same over den_args, in
    order and without cancellation: the numeric end of every ledger.

    Raises PoleCancellationError when a denominator theta is numerically
    zero."""
    r = 1.0 + 0j
    for x in num_args:
        r = r * theta(x, p, policy)
    for y in den_args:
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
    through order-zero factors.

    Precondition, not checked: mu interlaces lam, lam_i >= mu_i >= lam_{i+1}
    for i = 1..n-1 (the skew W is 0 otherwise).  zw_multi passes entries of
    interlacing_vectors(lam), and w_skew_single tests is_horizontal_strip
    first.

    x is a Keyed variable exactly when params carries keys; the ledger is
    then settled by key (see "Keyed ledgers" in the module docstring).
    """
    q, p, t, a, b = params.q, params.p, params.t, params.a, params.b
    n = len(lam)
    # add_poch and add_arg record the ledger once, as runs
    # (denominator?, base, base key, lo, hi): the arguments base * q**k of key
    # base key + k for k in range(lo, hi), or (lo None) the single argument
    # base.  Keyed, the runs go to _keyed_quotient; untagged, their keys
    # (computed from ak = bk = xk = 0) are not read and the runs are expanded
    # into theta_quotient's argument lists.
    keys = params.keys
    if keys is None:
        ak = bk = xk = 0
    else:
        (ak, bk), (x, xk) = keys, x
    runs = []

    def add_poch(on_den, base, key, m):
        # theta-Pochhammer (base;q,p)_m: m numerator arguments, or -m
        # arguments base * q**k, k = m..-1, on the other side.
        if m > 0:
            runs.append((on_den, base, key, 0, m))
        elif m < 0:
            runs.append((not on_den, base, key, m, 0))

    def add_arg(on_den, value, key):
        runs.append((on_den, value, key, None, None))

    # H factor; a row of order m = 0 adds no argument.
    for j in range(2, n + 1):
        m = part(mu, j - 1) - part(lam, j)
        if m == 0:
            continue
        for i in range(1, j):
            li, lj = part(lam, i), part(lam, j)
            mi, mj1 = part(mu, i), part(mu, j - 1)
            add_poch(False, q ** (mi - mj1) * t ** (j - i), mi - mj1 + j - i, m)
            add_poch(True, q ** (mi - mj1 + 1) * t ** (j - i - 1),
                     mi - mj1 + j - i, m)
            add_poch(False, q ** (li + lj) * t ** (3 - j - i) * b,
                     li + lj + 3 - j - i + bk, m)
            add_poch(True, q ** (li + lj + 1) * t ** (2 - j - i) * b,
                     li + lj + 3 - j - i + bk, m)
            add_poch(False, q ** (li - mj1 + 1) * t ** (j - i - 1),
                     li - mj1 + j - i, m)
            add_poch(True, q ** (li - mj1) * t ** (j - i), li - mj1 + j - i, m)
    for j in range(2, n + 1):
        m = part(mu, j - 1) - part(lam, j)
        if m == 0:
            continue
        for i in range(1, j - 1):
            mi, lj = part(mu, i), part(lam, j)
            add_poch(False, q ** (mi + lj + 1) * t ** (1 - j - i) * b,
                     mi + lj + 2 - j - i + bk, m)
            add_poch(True, q ** (mi + lj) * t ** (2 - j - i) * b,
                     mi + lj + 2 - j - i + bk, m)
    # (x^-1, a x)_lam / (x^-1, a x)_mu as strip-difference products.
    for i in range(1, n + 1):
        mi = part(mu, i)
        m = part(lam, i) - mi
        if m == 0:
            continue
        add_poch(False, t ** (1 - i) / x * q**mi, 1 - i - xk + mi, m)
        add_poch(False, a * x * t ** (1 - i) * q**mi, ak + xk + 1 - i + mi, m)
    # (q b x / t, q b / (a x t))_mu / (q b x, q b / (a x))_lam.
    kx, kax = 1 + bk + xk, 1 + bk - ak - xk
    for i in range(1, n + 1):
        mi, li = part(mu, i), part(lam, i)
        if mi == 0 and li == 0:
            continue
        add_poch(False, q * b * x * t ** (-i), kx - i, mi)
        add_poch(True, q * b * x * t ** (1 - i), kx + 1 - i, mi)
        add_poch(True, q * b * x * t ** (1 - i) * q**mi, kx + 1 - i + mi, li - mi)
        add_poch(False, q * b / (a * x) * t ** (-i), kax - i, mi)
        add_poch(True, q * b / (a * x) * t ** (1 - i), kax + 1 - i, mi)
        add_poch(True, q * b / (a * x) * t ** (1 - i) * q**mi,
                 kax + 1 - i + mi, li - mi)
    # Final block.
    tpow = 1.0 + 0j
    for i in range(1, n + 1):
        mi, li1 = part(mu, i), part(lam, i + 1)
        if mi == 0 and li1 == 0:
            continue
        base_n = b * t ** (1 - 2 * i)
        base_d = b * q * t ** (-2 * i)
        k = bk + 1 - 2 * i  # the key of base_n and of base_d
        if mi != 0:
            add_arg(False, base_n * q ** (2 * mi), k + 2 * mi)
            add_arg(True, base_n, k)
        add_poch(False, base_n, k, mi + li1)
        add_poch(True, base_d, k, mi + li1)
        tpow = tpow * t ** (i * (mi - li1))
    if keys is not None:
        return _keyed_quotient(runs, q, p, tpow)
    num, den = [], []
    for on_den, base, _, lo, hi in runs:
        side = den if on_den else num
        if lo is None:
            side.append(base)
        else:
            for k in range(lo, hi):
                side.append(base * q**k)
    return tpow * theta_quotient(num, den, p)


def _keyed_quotient(runs, q, p, tpow):
    """tpow times the theta quotient of a keyed ledger (p = 0).

    Arguments cancel by key equality, each numerator argument in order taking
    the lowest-index unused denominator argument of its key: the pairing of
    theta_quotient's SNAP_TOL rule when equal keys are exactly the coincident
    values.  Key-0 arguments (value 1, theta 0) cancel only among themselves,
    so their net count decides the ledger before any pairing: more in the
    denominator raises PoleCancellationError, more in the numerator gives
    exact 0.  Otherwise only the surviving arguments get values, from the
    expressions of the untagged ledger, and theta_product multiplies them:
    distinct keys are distinct values, so there is nothing left to snap."""
    order = 0
    for on_den, _, key, lo, hi in runs:
        if (key == 0) if lo is None else (lo <= -key < hi):
            order += -1 if on_den else 1
    if order < 0:
        raise PoleCancellationError("uncancelled denominator theta vanishes")
    if order > 0:
        return 0.0 + 0j
    free = {}  # key -> the unused denominator arguments (index, base, k)
    j = 0
    for on_den, base, key, lo, hi in runs:
        if on_den:
            for k in (None,) if lo is None else range(lo, hi):
                arg = (j, base, k)
                j += 1
                kk = key if k is None else key + k
                if kk in free:
                    free[kk].append(arg)
                else:
                    free[kk] = [arg]
    rest = []
    for on_den, base, key, lo, hi in runs:
        if not on_den:
            for k in (None,) if lo is None else range(lo, hi):
                js = free.get(key if k is None else key + k)
                if js:
                    del js[0]  # the lowest-index one of this key
                else:
                    rest.append(base if k is None else base * q**k)
    den_rest = [base if k is None else base * q**k
                for _, base, k in sorted(arg for args in free.values() for arg in args)]
    return tpow * theta_product(rest, den_rest, p)


def zw_multi(xvars, lam, params: WParams, memo=None):
    """W for an index vector lam in Z^n via the branching recursion over
    interlacing integer vectors.

    Precondition, not checked: lam has one entry per variable (len(lam) ==
    len(xvars)).  A non-dominant lam (lam_i < lam_{i+1} for some i) needs no
    test: it has no interlacing vector, so the branching sum is the empty
    sum, exact 0 (at n = 1 every lam is dominant).

    W_lam(y, zs) = sum over interlacing nu of W_{lam/nu}(y t^{-l}) W_nu(zs)
    with shifted (a, b).  Each nu takes its tail W_nu(zs) first and is skipped
    when the tail is exactly 0; only then is the skew factor W_{lam/nu}
    evaluated, and skipped when it is exactly 0.  So the sum has the
    skew-factor-first loop's terms in its order, bit for bit.  A tail that
    raises PoleCancellationError or an ArithmeticError is deferred: it is
    evaluated again, and so raises, only when its skew factor is nonzero.  A
    skew factor under a zero tail is not evaluated at all, so a pole in it
    alone raises nothing (see "Zero tails" in the module docstring).

    A memo dict (keyed by variables and index) may be shared across calls
    with the same params, e.g. across the subpartitions of one identity
    evaluation.
    """
    xvars = tuple(xvars)
    lam = tuple(lam)
    n = len(xvars)
    if memo is not None:
        key = (xvars, lam)
        if key in memo:
            return memo[key]
    if n == 1:
        total = zw_skew_single(xvars[0], lam, (), params)
    else:
        y, zs = xvars[0], xvars[1:]
        l = n - 1
        keys = params.keys
        if keys is None:
            x1 = y * params.t ** (-l)
        else:  # t = q: a t^{2l}, b t^l and y t^{-l} shift the keys
            keys = (keys[0] + 2 * l, keys[1] + l)
            x1 = Keyed(y.value * params.t ** (-l), y.key - l)
        shifted = WParams(params.q, params.p, params.t, params.a * params.t ** (2 * l),
                          params.b * params.t**l, keys)
        total = 0.0 + 0j
        for nu in interlacing_vectors(lam):
            # Tail first: it is memoized, and a zero tail spares the ledger.
            try:
                w2 = zw_multi(zs, nu, params, memo)
            except (PoleCancellationError, ArithmeticError):
                w2 = None  # deferred: raised again below only if w1 != 0
            if w2 == 0:
                continue
            w1 = zw_skew_single(x1, lam, nu, shifted)
            if w1 == 0:
                continue
            if w2 is None:
                w2 = zw_multi(zs, nu, params, memo)
            total += w1 * w2
    if memo is not None:
        memo[key] = total
    return total


def zw_multi_reg(xvars, lam, params: WParams, memo=None):
    """zw_multi itself; no code of the package calls it.  The name stays only
    because bench/tracing.py wraps it and tests/test_bench_contract.py pins
    it; ROADMAP item 8 (the tracer reads counters) deletes it."""
    return zw_multi(xvars, lam, params, memo)


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
    """Closed form for W_mu(x; q, q, s q^delta, q^{delta+n-1}) at x_i = q^{N+n-i}.

    Precondition, not checked: mu is a partition padded with zeros to n
    parts (run_case checks it), so every Pochhammer order below (a part
    mu_i, a difference mu_i - mu_j or a sum mu_i + mu_j, i < j) is
    non-negative.

    Every linear factor has the shape 1 - c q^e with c in {1, s, 1/s};
    factors with c = 1, e = 0 vanish exactly and are counted on each side:
    an excess numerator zero gives 0, and an excess denominator zero is a
    genuine pole, which raises DivisionByVanishingFactor.  The vanishing
    factors are counted, never evaluated, so no division by zero takes
    place.
    """
    num, den = [], []

    def add(factors, c, e0, m):
        # (c q^{e0}; q)_m, m >= 0.
        factors.extend((c, e0 + k) for k in range(m))

    def add_ppoch(factors, c, e0, vec):
        # (c q^{e0}; q, q)_vec = prod_i (c q^{e0+1-i}; q)_{vec_i}.
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
    coeff = {"1": 1.0 + 0j, "s": s, "1/s": 1.0 / s}
    r = 1.0 + 0j
    for c, e in num:
        if (c, e) != ("1", 0):
            r = r * (1 - coeff[c] * q**e)
    for c, e in den:
        if (c, e) != ("1", 0):
            r = r / (1 - coeff[c] * q**e)
    return r
