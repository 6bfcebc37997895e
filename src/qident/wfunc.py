"""Partition-indexed Pochhammer symbols and the W functions.

Provides
  * partition Pochhammer symbols (a;q,p,t)_lam,
  * one W kernel on integer-vector indices of fixed length: the
    single-variable skew W_{lam/mu}(x) for lam in Z^n and mu in Z^{n-1}
    (zw_skew_single), whose H factor and remaining Pochhammer products are
    collected as one ledger of numerator/denominator theta arguments
    (negative orders enter through negative-order Pochhammers), and the
    multivariable W via its branching recursion (zw_multi),
  * partition entry points (w_skew_single, w_multi), the checked doors for
    callers outside the package, that test their partitions and call the
    same kernel (identities calls the kernel itself), and
  * the closed "degree formula" for W at its principal specialization.

Every evaluation uses only finite products, so the functions remain valid at
|q| > 1 (needed by the flip identity).

Index preconditions: the kernel does not re-check the indices its callers
build.  zw_skew_single takes a mu interlacing lam (so H orders are >= 0),
zw_multi an index with at most one entry per variable (a shorter one is
padded with zeros), and w_degree a partition of at most n parts; each
docstring names the callers that guarantee it.

Pole handling: at the t = q specialization individual skew-W values can have
simple poles in b that cancel only across the branching sum.  The kernel's
ledger is therefore settled by :func:`theta_quotient`, which cancels
arguments by monomial key; a denominator zero that no key cancels raises
PoleCancellationError, which reaches the caller (run_case makes it an error
report).

Keyed ledgers: every ledger argument is a monomial in q, t, a, b and the one
variable x, and it carries an integer key over the generators it is built
from.  The key of q^e0 g_1^e1 g_2^e2 ... is e0 + e1 R + e2 R^2 + ... with
R = KEY_RADIX (every |e_g| < R / 2), so q has key 1 and a run of arguments
base * q^k steps its key by one.  WParams carries the keys of (t, a, b), and
a W variable is a Keyed(value, key) pair.  Plain input gets independent
generators: T_KEY, A_KEY and B_KEY for t, a and b, and X_KEY for every plain
variable (a ledger reads one variable, so they need not differ).  A caller
that builds a special point keys it by how it built it: identities keys the
principal point p = 0, t = q, a = s q^delta, b = q^{delta+n-1}, x_i = q^e in
(s, q) (_principal_w), the Jackson right sides' x_i = q^{lam_i} t^{n-i}, their
shifted a and b and z_i s, and duality's k-scaled variables and parameters.
zw_multi shifts the keys with a t^{2l}, b t^l and x t^{-l}.  Two arguments
of equal key are the same monomial, so they cancel; theta(y; p) vanishes at
the key-0 argument y = 1, and key-0 arguments cancel only among themselves,
so a net key-0 numerator gives exact 0 and a net key-0 denominator raises
PoleCancellationError, before any argument is expanded.  In the rest each
numerator argument cancels the lowest-index uncancelled denominator argument
of its key (by a map from keys to positions), and only the survivors get
values and thetas, in ledger order: one function, theta_quotient, settles
and evaluates every ledger.  Two arguments of distinct keys are never
cancelled: where the values coincide (q a root of unity, or a caller that
did not key a specialization), they give a numerical zero of the expression
or a PoleCancellationError, never a silent 0/0 read as 1.

Recording: zw_skew_single appends each (base;q,p)_m as one run (see
theta_quotient), (base, key, 0, m) on its own side for m > 0 and (base,
key, m, 0) on the other for m < 0, which only the non-H blocks meet (at Z^n
indices), picking sides and bounds once per order.
Each power and quotient is taken once per row, where the defining products
first take it, so an overflow or a zero division raises where it would.

Zero tails: the branching sum of zw_multi takes, for each interlacing nu, the
tail W_nu(x_2..x_n) first (memoized) and builds the skew factor's ledger
only when that tail is nonzero.  A skew factor whose tail is exactly 0 is
never evaluated, so a pole (or another arithmetic error, or a non-finite
value) in that skew factor alone raises nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .errors import DivisionByVanishingFactor, DomainError, PoleCancellationError, excerpt
from .partitions import check_partition, interlacing_vectors, is_horizontal_strip, part
from .qcore import epoch, theta, units

#: Residual denominator theta values below this modulus count as poles.
POLE_TOL = 1e-10

#: Radix of the monomial keys (see "Keyed ledgers" in the module docstring),
#: the generator keys of plain input: t, a, b and the variables, and those of
#: identities' s and aprime.
KEY_RADIX = 1 << 32
T_KEY, A_KEY, B_KEY, X_KEY, S_KEY, APRIME_KEY = (KEY_RADIX**g for g in range(1, 7))


@dataclass(frozen=True)
class WParams:
    """Parameter bundle (q, p, t, a, b) for W-function evaluation, with the
    monomial keys of (t, a, b); by default independent generators."""

    q: complex
    p: complex
    t: complex
    a: complex
    b: complex
    keys: Tuple[int, int, int] = (T_KEY, A_KEY, B_KEY)


class Keyed(NamedTuple):
    """A W variable with its monomial key; a plain variable has key X_KEY."""

    value: complex
    key: int


def poch_partition(a, q, p, t, lam):
    """Partition Pochhammer symbol (a;q,p,t)_lam = prod_i (a t^{1-i};q,p)_{lam_i}.

    lam is a vector of non-negative integers, a partition at every caller; a
    negative entry raises DomainError (qcore.epoch).
    """
    r = units(q)[1]
    for i in range(1, len(lam) + 1):
        r = r * epoch(a * t ** (1 - i), q, p, part(lam, i))
    return r


def poch_partition_multi(avals, q, p, t, lam):
    """Product of poch_partition over a list of parameters."""
    r = units(q)[1]
    for a in avals:
        r = r * poch_partition(a, q, p, t, lam)
    return r


def theta_quotient(num, den, q, p):
    """prod theta(y; p) over the numerator runs num divided by the same over
    the denominator runs den, settled by monomial key.

    A run (base, key, lo, hi) stands for the arguments base * q**k of key
    key + k, k in range(lo, hi).  Key-0 arguments (value 1, theta 0) cancel
    only among themselves, so their net count decides first: more in the
    denominator raises PoleCancellationError, more in the numerator gives
    exact 0; no run is expanded before that.  Otherwise each numerator
    argument, in ledger order, cancels the lowest-index uncancelled
    denominator argument of its key: a map sends each key to the positions
    of those arguments, a numerator argument pops its key's lowest position
    and blanks that entry, and the entries left are the denominator survivors.

    Only the survivors get values, all of them in ledger order before any
    theta is taken, so an error in a value (an overflow in q**k) comes
    before an error in a theta.  The result is then the product of theta(x;
    p) over the numerator survivors divided by the same over the denominator
    survivors, in order: at p = 0 by 1 - x inline, as qcore.theta computes
    theta(x; 0), with theta's DomainError at an argument 0.  A denominator
    theta of modulus below POLE_TOL raises PoleCancellationError."""
    order = 0
    for runs, step in ((num, 1), (den, -1)):
        for _, key, lo, hi in runs:
            if lo <= -key < hi:
                order += step
    if order < 0:
        raise PoleCancellationError("uncancelled denominator theta vanishes")
    if order > 0:
        return 0.0 + 0j
    dargs = []  # the denominator arguments (base, k), in ledger order; None: cancelled
    where = {}  # key -> the positions in dargs of its uncancelled arguments
    for base, key, lo, hi in den:
        for k in range(lo, hi):
            where.setdefault(key + k, []).append(len(dargs))
            dargs.append((base, k))
    rest = []
    for base, key, lo, hi in num:
        for k in range(lo, hi):
            if at := where.get(key + k):  # cancel its key's lowest position
                dargs[at.pop(0)] = None
            else:
                rest.append(base * q**k)
    den_rest = [base * q**k for base, k in filter(None, dargs)]
    # theta(x; 0) = 1 - x inline; an argument 0 goes to theta for its DomainError.
    inline = not p
    one, r = units(p)
    for x in rest:
        r = r * (one - x if inline and x else theta(x, p))
    for y in den_rest:
        ty = one - y if inline and y else theta(y, p)
        if abs(ty) < POLE_TOL:
            raise PoleCancellationError("uncancelled denominator theta vanishes")
        r = r / ty
    return r


# ---------------------------------------------------------------------------
# The W kernel: integer-vector indices of fixed length, entries in Z.
# ---------------------------------------------------------------------------

def zw_skew_single(x, lam, mu, params: WParams):
    """Skew W for lam in Z^n and mu in Z^{n-1}, taken literally.

    The defining products are evaluated verbatim, with negative-order
    Pochhammers outside the H factor at Z^n indices; mu is padded with
    zeros to n entries, and mu_n = 0 enters only through order-zero factors.

    Precondition, not checked: mu interlaces lam, lam_i >= mu_i >= lam_{i+1}
    for i = 1..n-1 (the skew W is 0 otherwise), so no H row has a negative
    order.  zw_multi passes entries of interlacing_vectors(lam), and
    w_skew_single tests is_horizontal_strip first.

    x is a Keyed variable or a plain one (key X_KEY); the ledger is settled
    by key (see "Keyed ledgers" in the module docstring).
    """
    q, p, t, a, b = params.q, params.p, params.t, params.a, params.b
    tk, ak, bk = params.keys
    x, xk = x if isinstance(x, Keyed) else (x, X_KEY)
    n = len(lam)
    # lam_i = L[i] and mu_i = M[i] for i = 1..n, lam_{n+1} = L[n + 1] = 0.
    L, M = (0, *lam, 0), (0, *mu) + (0,) * (n - len(mu))
    # The ledger is recorded once, as runs in num or den (see "Recording" in
    # the module docstring); N and D are a block's own and other side.
    num, den = [], []
    # H factor; interlacing makes every order m = mu_{j-1} - lam_j >= 0.
    for j in range(2, n + 1):
        if (m := M[j - 1] - L[j]) == 0:  # a row of order 0 adds no argument
            continue
        lj, mj1 = L[j], M[j - 1]
        for i in range(1, j):
            li, mi = L[i], M[i]
            k1, k2 = (j - i) * tk - mj1, (j - i - 1) * tk + 1 - mj1
            num.append((q ** (mi - mj1) * (t1 := t ** (j - i)), mi + k1, 0, m))
            den.append((q ** (mi - mj1 + 1) * (t2 := t ** (j - i - 1)), mi + k2, 0, m))
            kb = li + lj + (2 - j - i) * tk + bk
            num.append((q ** (li + lj) * t ** (3 - j - i) * b, kb + tk, 0, m))
            den.append((q ** (li + lj + 1) * t ** (2 - j - i) * b, kb + 1, 0, m))
            num.append((q ** (li - mj1 + 1) * t2, li + k2, 0, m))
            den.append((q ** (li - mj1) * t1, li + k1, 0, m))
    for j in range(3, n + 1):  # i < j - 1 needs j >= 3
        if (m := M[j - 1] - L[j]) == 0:
            continue
        lj = L[j]
        for i in range(1, j - 1):
            kb = M[i] + lj + (2 - j - i) * tk + bk
            num.append((q ** (M[i] + lj + 1) * t ** (1 - j - i) * b, kb + 1 - tk, 0, m))
            den.append((q ** (M[i] + lj) * t ** (2 - j - i) * b, kb, 0, m))
    # (x^-1, a x)_lam / (x^-1, a x)_mu as strip-difference products.
    ax = a * x
    for i in range(1, n + 1):
        mi = M[i]
        m = L[i] - mi
        if m == 0:
            continue
        N, lo, hi = (num, 0, m) if m > 0 else (den, m, 0)
        ki = (1 - i) * tk + mi
        N.append(((ti := t ** (1 - i)) / x * (qm := q**mi), ki - xk, lo, hi))
        N.append((ax * ti * qm, ak + xk + ki, lo, hi))
    # (q b x / t, q b / (a x t))_mu / (q b x, q b / (a x))_lam.
    qb = q * b
    qbx = qb * x
    kx, kax = 1 + bk + xk, 1 + bk - ak - xk
    for i in range(1, n + 1):
        mi, li = M[i], L[i]
        if mi == 0 and li == 0:
            continue
        tm, t1 = t ** (-i), t ** (1 - i)
        qm = q**mi
        if mi:
            N, D, lo, hi = (num, den, 0, mi) if mi > 0 else (den, num, mi, 0)
        if li != mi:
            D3, lo3, hi3 = (den, 0, li - mi) if li > mi else (num, li - mi, 0)
        for base, k in ((qbx, kx - i * tk), (qb / ax, kax - i * tk)):
            if mi:
                N.append((base * tm, k, lo, hi))
                D.append((base * t1, k + tk, lo, hi))
            if li != mi:
                D3.append((base * t1 * qm, k + tk + mi, lo3, hi3))
    # Final block.
    tpow = units(q)[1]
    for i in range(1, n + 1):
        mi, li1 = M[i], L[i + 1]
        if mi == 0 and li1 == 0:
            continue
        base_n = b * t ** (1 - 2 * i)
        base_d = b * q * t ** (-2 * i)
        kn = bk + (1 - 2 * i) * tk  # the key of base_n
        if mi != 0:  # theta(base_n q^{2 mi}) / theta(base_n)
            num.append((base_n, kn, 2 * mi, 2 * mi + 1))
            den.append((base_n, kn, 0, 1))
        m = mi + li1
        if m:
            N, D, lo, hi = (num, den, 0, m) if m > 0 else (den, num, m, 0)
            N.append((base_n, kn, lo, hi))
            D.append((base_d, kn + 1 - tk, lo, hi))
        tpow = tpow * t ** (i * (mi - li1))
    return tpow * theta_quotient(num, den, q, p)


def zw_multi(xvars, lam, params: WParams, memo=None):
    """W for an index vector lam in Z^n via the branching recursion over
    interlacing integer vectors.

    Precondition, not checked: lam has at most one entry per variable; a
    shorter lam is padded with zeros to len(xvars), before the memo is read.
    A non-dominant lam (lam_i < lam_{i+1} for some i) needs no test: it has
    no interlacing vector, so the branching sum is the empty sum, exact 0 (at
    n = 1 every lam is dominant).

    W_lam(y, zs) = sum over interlacing nu of W_{lam/nu}(y t^{-l}) W_nu(zs)
    with shifted (a, b).  Each nu takes its tail W_nu(zs) first, which
    raises where its error is met, and is skipped when the tail is exactly
    0; only then is the skew factor W_{lam/nu} evaluated, and skipped when
    it is exactly 0 (see "Zero tails" in the module docstring).

    Values are memoized by variables and index, in a fresh dict unless a
    memo is given; a given memo may be shared across calls with the same
    params, e.g. across the subpartitions of one identity evaluation.
    """
    xvars = tuple(xvars)
    n = len(xvars)
    lam = tuple(lam) + (0,) * (n - len(lam))
    if memo is None:
        memo = {}
    key = (xvars, lam)
    if key in memo:
        return memo[key]
    if n == 1:
        total = zw_skew_single(xvars[0], lam, (), params)
    else:
        branch = memo.get(("branch", xvars))  # once per variables: x1, shifted
        if branch is None:
            l, (tk, ak, bk) = n - 1, params.keys
            y, yk = xvars[0] if isinstance(xvars[0], Keyed) else (xvars[0], X_KEY)
            x1 = Keyed(y * params.t ** (-l), yk - l * tk)
            branch = memo[("branch", xvars)] = x1, WParams(
                params.q, params.p, params.t, params.a * params.t ** (2 * l),
                params.b * params.t**l, (tk, ak + 2 * l * tk, bk + l * tk))
        (x1, shifted), zs = branch, xvars[1:]
        total = 0.0 + 0j
        for nu in interlacing_vectors(lam):
            # Tail first: it is memoized, and a zero tail spares the ledger.
            w2 = zw_multi(zs, nu, params, memo)
            if not w2:
                continue
            w1 = zw_skew_single(x1, lam, nu, shifted)
            if not w1:
                continue
            total += w1 * w2
    memo[key] = total
    return total


def zw_multi_reg(xvars, lam, params: WParams, memo=None):
    """zw_multi itself; no code of the package calls it.  The name stays only
    because bench/tracing.py wraps it and tests/test_bench_contract.py pins
    it; ROADMAP item 18 (the benchmark change) deletes it."""
    return zw_multi(xvars, lam, params, memo)


# ---------------------------------------------------------------------------
# Partition entry points: the checked doors into the kernel for callers
# outside the package (the identities, whose arguments run_case has checked,
# call the kernel itself).
# ---------------------------------------------------------------------------

def w_skew_single(x, lam, mu, params: WParams):
    """Single-variable skew W_{lam/mu}(x; q, p, t, a, b) for partitions; any
    other lam or mu raises NotAPartition.

    Vanishes structurally (exact 0) unless lam/mu is a horizontal strip.
    Otherwise lam is padded with zeros to n = max(len(lam), len(mu)) + 1
    entries, and the kernel pads mu, so that its last H row j = n carries
    the bottom strip row mu_{n-1} - lam_n = mu_{n-1}.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if not is_horizontal_strip(lam, mu):
        return 0.0 + 0j
    n = max(len(lam), len(mu)) + 1
    return zw_skew_single(x, lam + (0,) * (n - len(lam)), mu, params)


def w_multi(xvars, lam, mu, params: WParams, memo=None):
    """Multivariable W_lam(x_1..x_n) for a partition lam (any other lam or mu
    raises NotAPartition) and a non-empty sequence of variables (anything
    else raises DomainError), evaluated by zw_multi, which pads lam with
    zeros to the variable count n and also takes the memo.  W vanishes
    (exact 0) when lam has more than n parts.

    mu must be empty: no skew multivariable W is evaluated.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if mu:
        raise ValueError("w_multi evaluates W_lam only; mu must be empty")
    try:
        xs = tuple(xvars)
    except TypeError:
        xs = ()
    if not xs:
        raise DomainError(f"w_multi requires a non-empty sequence of variables, "
                          f"got {excerpt(xvars)}")
    if len(lam) > len(xs):
        return 0.0 + 0j
    return zw_multi(xs, lam, params, memo)


# ---------------------------------------------------------------------------
# Degree formula at the principal specialization.
# ---------------------------------------------------------------------------

def w_degree(mu, N: int, n: int, s, delta: int, q):
    """Closed form for W_mu(x; q, q, s q^delta, q^{delta+n-1}) at x_i = q^{N+n-i}.

    Precondition, not checked: mu is a partition of at most n parts (run_case
    checks it), so every Pochhammer order below (a part mu_i, a difference
    mu_i - mu_j or a sum mu_i + mu_j, i < j) is non-negative.

    Every linear factor has the shape 1 - s^c q^e, c in {0, 1, -1}, and a
    run (c, e0, m) holds those of (s^c q^{e0}; q)_m: the rows of (q^{-N}; q,
    q)_mu and (s q^{delta+N+n-1}; q, q)_mu over those of (q^{N+delta+2n-1};
    q, q)_mu and (q^{n-N} / s; q, q)_mu, then each pair's Delta runs.  A c = 0
    run holds the exact zero 1 - q^0 when e0 <= 0 < e0 + m (the interval test
    theta_quotient applies to key 0).  The zeros are counted on each side: an
    excess numerator zero gives 0, and an excess denominator zero is a
    genuine pole, which raises DivisionByVanishingFactor.  They are counted,
    never evaluated, so no division by zero takes place.
    """
    num, den = [], []
    for runs, c, e0 in ((num, 0, 1 - N), (num, 1, delta + N + n),
                        (den, 0, N + delta + 2 * n), (den, -1, n - N + 1)):
        runs += [(c, e0 - i, part(mu, i)) for i in range(1, n + 1)]
    for j in range(2, n + 1):
        for i in range(1, j):
            dm, sm = part(mu, i) - part(mu, j), part(mu, i) + part(mu, j)
            num += (0, j - i + 1, dm), (0, delta + 2 * n - i - j + 1, sm)
            den += (0, j - i, dm), (0, delta + 2 * n - i - j, sm)
    zero_num, zero_den = (sum(not c and e0 <= 0 < e0 + m for c, e0, m in runs)
                          for runs in (num, den))
    if zero_num > zero_den:
        return 0.0 + 0j
    if zero_den > zero_num:
        raise DivisionByVanishingFactor("degree formula: uncancelled zero denominator")
    one, r = units(q)
    coeff = (r, s, one / s)  # s^c, indexed by c
    for c, e0, m in num:
        for e in range(e0, e0 + m):
            if c or e:
                r = r * (one - coeff[c] * q**e)
    for c, e0, m in den:
        for e in range(e0, e0 + m):
            if c or e:
                r = r / (one - coeff[c] * q**e)
    return r
