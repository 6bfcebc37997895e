"""Scalar q-arithmetic: integer-order and infinite Pochhammer symbols (also
split: poch_inf_split), theta functions, elliptic Pochhammer symbols, and
paired Pochhammer quotients (also tabulated: PairRatioTable).

All functions are deterministic functions of their arguments, truncated by
the module constants PRODUCT_TOL and MAX_FACTORS, and duck-typed over the
scalar backend: they accept either Python complex numbers or mpmath complex
values (for high-precision runs) and return results in the same arithmetic.
Complex powers use the principal branch throughout.

The unit rule: a kernel subtracts its factors from, and starts its products
and sums from, the exact 1s that units(x) gives for one of its operands x,
never from Python constants of its own.  For Python numbers they are the
very constants the kernels wrote (1 in 1 - v, 1.0 + 0j as a product start),
so double arithmetic keeps its float and complex types and its signs of
zero.  For mpmath values both are the mpc 1 of their own context, which
mpmath uses as it is, where it would convert a Python constant into its
arithmetic at every factor.  1 converts exactly, so the rule changes no
value in either mode.  For the same reason a kernel tests a value for an
exact zero by its truth value (not r), not by comparing it with a Python 0.

Beside the units, factor_product(y) gives per number type the kernel that
multiplies start by the factors (one - v y) of a sequence of v, in order
(series.eval_phi's per-term products).  For Python numbers it is the
operator loop start = start * (one - v * y).  For an mpmath context's mpc,
when y, one, start and every v are of that type, it makes on their raw
_mpc_ tuples, at the context's (prec, rounding), the very libmpc calls
(mpc_mul, mpc_sub) that the mpc operators make, and wraps the product once:
it skips the operators' type dispatch and one wrapper per operation, and
rounds nothing differently.  At an exactly real, finite y and a finite v it
forms v y by mpc_mul_mpf, which rounds the same two real products that
mpc_mul rounds after adding an exact zero; an infinite or NaN component
(where mpc_mul makes NaN of inf * 0) keeps mpc_mul.  Any other operand takes
the operator loop.  So the kernel is the loop's value bit for bit.

Besides the constant 1s and the kernels that units and factor_product keep
per number type, the one state is THETA_MEMO: while ``identities.run_case`` evaluates, theta(x;p) at p != 0
and the split infinite products ("split" keys) are computed once per
argument and read back, and each modulus q has one tail plan ("plan" keys:
its tail radius, in q's arithmetic, its units and Euler's coefficients),
which every infinite product of q reads.  Every infinite product runs one
private loop on the plan it is handed, and the plan is read (with the
|q| < 1 check) once per call: once for poch_inf's one product, once for
each list of poch_multi_inf and poch_inf_split, and once for the two
products of a theta miss.  A memo value is the kernel's value bit for bit,
so the memo changes no result, and both sides of an identity may share it:
they call the same kernel either way.  It is a context variable that
run_case sets on entry and drops on return, so no value outlives one
evaluation.  Outside run_case (get() is None) all compute afresh, each call
on a plan of its own.

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

#: Below this modulus a factor 1 - a q^k of poch_inf_split counts as a
#: structural zero.
STRUCT_ZERO_TOL = 1e-10

#: Messages of pair_poch_ratio's vanishing-factor errors.
PAIR_DENOMINATOR_VANISHES = "pair_poch_ratio: denominator vanishes"
PAIR_RECIPROCAL_VANISHES = "pair_poch_ratio: reciprocal vanishes"

#: The memo of the current evaluation, or None outside any: a dict that
#: identities.run_case sets on entry and resets on exit.
THETA_MEMO: ContextVar = ContextVar("theta_memo", default=None)


#: units of a Python number: the 1 to subtract factors from and the 1 to
#: start products and sums from.
_PYTHON_UNITS = (1, 1.0 + 0j)

#: units by operand type: the Python number types, and each type met since
#: (mpmath makes its mpf and mpc types per context).
_UNITS = {int: _PYTHON_UNITS, float: _PYTHON_UNITS, complex: _PYTHON_UNITS}


def units(x):
    """(one, start), the exact 1s of x's arithmetic (the unit rule above):
    one to subtract factors from (and to divide in one / r), start to start
    products and sums from.  For a Python number x they are the Python
    constants 1 and 1.0 + 0j; for an mpmath x both are the mpc 1 of x's own
    context, made on the first call for x's type.  The operands of one
    evaluation share one context, so the units of any of them serve the
    kernel."""
    pair = _UNITS.get(type(x))
    if pair is None:
        ctx = getattr(x, "context", None)  # None: a Python number type (bool)
        if ctx is None:
            pair = _PYTHON_UNITS
        else:
            one = ctx.mpc(1)
            pair = (one, one)
        _UNITS[type(x)] = pair
    return pair


def _operator_product(start, values, y, one):
    """start * (one - v y) for each v of values in turn, by the operators of
    the operands' types."""
    for v in values:
        start = start * (one - v * y)
    return start


def _mpc_product(cls):
    """The factor-product kernel of the mpmath mpc type cls (see
    factor_product): when y, one, start and every v are of type cls it
    makes, on their _mpc_ tuples at cls's (prec, rounding), the libmpc calls
    that the operators make, and wraps the product once; any other operand
    takes _operator_product.  v y with a finite y whose imaginary part is
    exactly fzero and a finite v is mpc_mul_mpf, which rounds the two real
    products that mpc_mul adds an exact zero to."""
    from mpmath.libmp import fzero, mpc_mul, mpc_mul_mpf, mpc_sub

    _, new, prec_rounding = cls._ctxdata

    def product(start, values, y, one):
        if type(start) is not cls or type(one) is not cls or type(y) is not cls \
                or any(type(v) is not cls for v in values):
            return _operator_product(start, values, y, one)
        prec, rnd = prec_rounding
        s, o, w = start._mpc_, one._mpc_, y._mpc_
        re, im = w
        # An mpf's bit count (its tuple's last entry) is < 0 only at an
        # infinity or NaN.
        if im == fzero and re[3] >= 0:
            for v in values:
                t = v._mpc_
                vy = mpc_mul_mpf(t, re, prec, rnd) if t[0][3] >= 0 and t[1][3] >= 0 \
                    else mpc_mul(t, w, prec, rnd)
                s = mpc_mul(s, mpc_sub(o, vy, prec, rnd), prec, rnd)
        else:
            for v in values:
                s = mpc_mul(s, mpc_sub(o, mpc_mul(v._mpc_, w, prec, rnd), prec, rnd),
                            prec, rnd)
        r = new(cls)
        r._mpc_ = s
        return r

    return product


#: factor-product kernels by operand type, each made on the first call for
#: its type.
_PRODUCTS = {}


def factor_product(y):
    """The factor-product kernel of y's type, a function
    product(start, values, y, one) = start * prod_v (one - v y), multiplied
    in the order of values, bit for bit the operator loop
    start = start * (one - v * y).  For Python numbers (and mpmath's mpf) it
    is that loop; for an mpmath context's mpc it is made on the first call
    for its type and runs on mpmath's raw tuples (_mpc_product)."""
    kernel = _PRODUCTS.get(type(y))
    if kernel is None:
        kernel = _mpc_product(type(y)) if hasattr(y, "_mpc_") else _operator_product
        _PRODUCTS[type(y)] = kernel
    return kernel


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
    one, r = units(q)
    if k >= 0:
        for i in range(k):
            r = r * (one - a * q**i)
        return r
    for i in range(-k):
        f = one - a * q ** (k + i)
        if abs(f) < VANISH_TOL:
            raise DivisionByVanishingFactor(
                f"(a;q)_{k}: factor 1 - a*q^{k + i} vanishes"
            )
        r = r * f
    return one / r


def poch_multi(avals, q, k: int):
    """Product of poch_int over a list of parameters."""
    r = units(q)[1]
    for a in avals:
        r = r * poch_int(a, q, k)
    return r


def tail_radius(q) -> float:
    """rho(q) = min(1/4, (1 - |q|) ln 2 / 2), see poch_inf."""
    return min(0.25, (1 - float(abs(q))) * 0.34657359027997264)


def _euler_coefficients(q):
    """Euler's c_n (see poch_inf), highest first, in q's arithmetic."""
    one = units(q)[0]
    rho, coeffs, c = tail_radius(q), [], one
    for n in range(MAX_FACTORS):
        if abs(c) * rho**n < PRODUCT_TOL:
            return coeffs[::-1]
        coeffs.append(c)
        c = -c * q**n / (one - q ** (n + 1))
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def _plan(q, memo):
    """q's tail plan [cut, one, start, coeffs], kept in memo (if a dict)
    per (q, type(q)): tail_radius(q) exactly in q's arithmetic, units(q), and
    Euler's c_n, None until a product reaches its tail."""
    key = ("plan", q, type(q))
    plan = memo.get(key) if memo is not None else None
    if plan is None:
        rho, ctx = tail_radius(q), getattr(q, "context", None)
        cut = rho if ctx is None or ctx.prec < 53 else ctx.mpf(rho)
        plan = [cut, *units(q), None]
        if memo is not None:
            memo[key] = plan
    return plan


def poch_inf_tail(y, q, plan):
    """(y;q)_inf for |y| <= tail_radius(q): Horner on the Euler c_n of q's
    plan, built on the first call."""
    coeffs = plan[3]
    if coeffs is None:
        coeffs = plan[3] = _euler_coefficients(q)
    s = 0
    for c in coeffs:
        s = s * y + c
    return s


def _read_plan(q):
    """q's tail plan for the products of q (see _plan), read from the
    current memo; DomainError unless |q| < 1."""
    if abs(q) >= 1:
        raise DomainError("poch_inf requires |q| < 1")
    return _plan(q, THETA_MEMO.get())


def _inf_product(a, q, plan):
    """(a;q)_inf on q's tail plan (see poch_inf)."""
    cut, one, r, _ = plan
    x = a
    for _ in range(MAX_FACTORS):
        if abs(x) <= cut:
            return r * poch_inf_tail(x, q, plan)
        r = r * (one - x)
        if not r:
            return r
        x = x * q
    raise NoConvergence("poch_inf: max_factors reached before tail threshold")


def poch_inf(a, q):
    """Infinite q-Pochhammer symbol (a;q)_inf.

    Factors 1 - a q^k are multiplied out (an exact zero returns 0) while
    |a q^k| > rho(q) = min(1/4, (1 - |q|) ln 2 / 2); the tail at y = a q^K is
    Euler's sum_n c_n y^n, c_0 = 1, c_{n+1} = -c_n q^n / (1 - q^{n+1})
    (Gasper-Rahman 1.3), cut at the first |c_n| rho^n < PRODUCT_TOL.  Its
    condition bound (-rho;|q|)_inf / (rho;|q|)_inf stays near 2 (<= 2.02)."""
    return _inf_product(a, q, _read_plan(q))


def _inf_split_product(a, q, plan):
    """(zeros, value) of (a;q)_inf on q's tail plan, its structural-zero
    factors (|1 - a q^k| < STRUCT_ZERO_TOL) counted apart from the product
    of the rest.  A zero has |a q^k| near 1 > tail_radius(q), so it lies
    before the Euler tail."""
    cut, one, r, _ = plan
    zeros = 0
    x = a
    for _ in range(MAX_FACTORS):
        if abs(x) <= cut:
            return zeros, r * poch_inf_tail(x, q, plan)
        f = one - x
        if abs(f) < STRUCT_ZERO_TOL:
            zeros += 1
        else:
            r = r * f
        x = x * q
    raise NoConvergence("factored infinite product: max_factors reached")


def _split_value(a, q, plan, memo):
    """_inf_split_product(a, q, plan), kept in memo (if a dict) as theta
    is, plus a "split" tag."""
    if memo is None:
        return _inf_split_product(a, q, plan)
    key = ("split", a, q, type(a), type(q))
    v = memo.get(key)
    if v is None:
        v = memo[key] = _inf_split_product(a, q, plan)
    return v


def poch_inf_split(val, num, den, q):
    """(net zeros, value): val times (a;q)_inf for each a of num, then
    divided by (a;q)_inf for each a of den, in list order, where each
    product's structural-zero factors (|1 - a q^k| < STRUCT_ZERO_TOL) are
    counted apart (num's added, den's subtracted) and the rest multiplied
    out.  The lists share one plan read; under a THETA_MEMO dict each
    argument's (zeros, value) is memoized (_split_value)."""
    plan = _read_plan(q)
    memo = THETA_MEMO.get()
    zeros = 0
    for a in num:
        zc, v = _split_value(a, q, plan, memo)
        zeros += zc
        val = val * v
    for a in den:
        zc, v = _split_value(a, q, plan, memo)
        zeros -= zc
        val = val / v
    return zeros, val


def poch_multi_inf(avals, q):
    """Product of poch_inf over a list of parameters, on one plan read (an
    empty list is 1 at any q)."""
    r = units(q)[1]
    if avals:
        plan = _read_plan(q)
        for a in avals:
            r = r * _inf_product(a, q, plan)
    return r


def theta(x, p):
    """Normalized theta function theta(x;p) = (x;p)_inf (p/x;p)_inf, both
    products on one plan read.

    At p != 0 under a THETA_MEMO dict the value is memoized, keyed by x and p
    with their types (a double and an mpmath argument of equal value compute
    differently)."""
    if not x:
        raise DomainError("theta requires x != 0")
    if not p:
        return units(x)[0] - x
    if abs(p) >= 1:
        raise DomainError("theta requires |p| < 1")
    memo = THETA_MEMO.get()
    if memo is None:
        plan = _plan(p, None)
        return _inf_product(x, p, plan) * _inf_product(p / x, p, plan)
    key = (x, p, type(x), type(p))
    v = memo.get(key)
    if v is None:
        plan = _plan(p, memo)
        v = memo[key] = _inf_product(x, p, plan) * _inf_product(p / x, p, plan)
    return v


def epoch(a, q, p, n: int):
    """Elliptic q-Pochhammer symbol (a;q,p)_n = prod_{k=0..n-1} theta(a q^k;p)
    for n >= 0; a negative n raises DomainError.  At p = 0 this agrees with
    poch_int.
    """
    if n < 0:
        raise DomainError(f"(a;q,p)_n requires n >= 0, got n = {n}")
    r = units(q)[1]
    for k in range(n):
        r = r * theta(a * q**k, p)
    return r


def _ratio_steps(g, pairs, q, ks, one, message):
    """g times (1 - top q^k) / (1 - bot q^k) for each k of ks and then each
    (top, bot) of pairs, in that order: every paired quotient's factor loop.
    A divisor below VANISH_TOL in modulus raises DivisionByVanishingFactor."""
    for k in ks:
        qk = q**k
        for top, bot in pairs:
            fd = one - bot * qk
            if abs(fd) < VANISH_TOL:
                raise DivisionByVanishingFactor(message)
            g = g * (one - top * qk) / fd
    return g


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
    one, r = units(q)
    if m > 0:
        return _ratio_steps(r, ((anum, aden),), q, range(m), one,
                            PAIR_DENOMINATOR_VANISHES)
    return _ratio_steps(r, ((aden, anum),), q, range(m, 0), one,
                        PAIR_RECIPROCAL_VANISHES)


class PairRatioTable:
    """g(m) = c^m prod_pairs (anum;q)_m / (aden;q)_m, tabulated outward from
    g(0) = 1 by its term ratio (Gasper-Rahman, sec. 1.2):
        g(m+1) = g(m) c prod (1 - anum q^m) / (1 - aden q^m)          (m >= 0),
        g(m-1) = g(m) / c prod (1 - aden q^{m-1}) / (1 - anum q^{m-1})  (m <= 0).

    Its steps run pair_poch_ratio's factor loop (lower side: pairs swapped),
    and so raise its errors: growth that meets a vanishing factor to divide
    by raises pair_poch_ratio's DivisionByVanishingFactor there, upper side
    first (a g(m) from there outward would raise it)."""

    def __init__(self, c, pairs, q):
        self.c, self.pairs, self.q = c, pairs, q
        self.swapped = [(aden, anum) for anum, aden in pairs]
        self.one, start = units(q)
        self.up, self.down = [start], []  # g(0), g(1), ... and g(-1), g(-2), ...

    def grow(self, m):
        """Tabulate g on [-m, m] and return the table: g(k) at index m - k."""
        q, c, one, up, down = self.q, self.c, self.one, self.up, self.down
        while len(up) <= m:
            up.append(_ratio_steps(up[-1] * c, self.pairs, q, (len(up) - 1,), one,
                                   PAIR_DENOMINATOR_VANISHES))
        while len(down) < m:
            down.append(_ratio_steps((down[-1] if down else up[0]) / c, self.swapped,
                                     q, (-len(down) - 1,), one, PAIR_RECIPROCAL_VANISHES))
        return up[m::-1] + down[:m]
