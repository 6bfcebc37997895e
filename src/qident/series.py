"""Generic series evaluators: unilateral r-phi-s and bilateral r-psi-s.

Parameter entries in a :class:`SeriesSpec` may be plain scalars or
:class:`~qident.policy.QPower` tags.  Tags drive *structural* termination:

  * a numerator parameter q^{-n} (tag <= 0) kills every term with index > n;
  * a denominator parameter q^{m} with m >= 1 kills (in a bilateral series)
    every term with index <= -m, because the negative-order Pochhammer in the
    denominator diverges there.

Conventions:
  * eval_phi follows the classical r-phi-s normalization: the denominator
    list holds the b-parameters only, and the implicit (q;q)_k factor is
    supplied by the evaluator.  The extra sign factor is
    ((-1)^k q^{k(k-1)/2})^{1 + s - r} with s = len(denominator).
  * eval_psi has no implicit (q;q)_k; the sign factor exponent is s - r.

eval_phi also reports the condition number of the sum it returns
(SeriesValue.condition), so a caller can bound the effect of rounding on the
value and choose its working precision from that measurement.

Bilateral sums run over symmetric windows [-M, M] grown by
policy.window_step until two consecutive expansions contribute relative mass
below policy.series_tol; both term sequences are produced by consecutive-term
ratio recurrences, which keeps intermediate values moderate even when the
individual Pochhammers overflow.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence
from .policy import DEFAULT_POLICY, TruncationPolicy, qpow_exponent, scalar_value
from .qcore import VANISH_TOL

# Once a bilateral tail term drops below this magnitude the remaining tail can
# never contribute at double precision; stopping there also keeps the factor
# products q**k away from float overflow at very negative k.
NEGLIGIBLE = 1e-280


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter bundle for a hypergeometric-type series."""

    numerator: Sequence[object]
    denominator: Sequence[object]
    argument: object
    q: object


@dataclass(frozen=True)
class SeriesValue:
    """Result of a series evaluation.

    condition is the sum's condition number sum_k |t_k| / |sum_k t_k| over
    the terms summed (inf for an exactly zero sum), as a float in either
    arithmetic: a rounding error of relative size u in each term moves the
    value by at most u * condition relative.  eval_phi measures it; eval_psi
    leaves it None.
    """

    value: complex
    terms_used: int
    terminated: bool
    window: Optional[Tuple[int, int]] = None
    condition: Optional[float] = None


def _condition(mass, total):
    return float(mass / abs(total)) if total else math.inf


def _resolved(entries, q):
    return [(scalar_value(v, q), qpow_exponent(v)) for v in entries]


def eval_phi(spec: SeriesSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Evaluate a unilateral basic hypergeometric series.

    Terminates structurally at the smallest n with a numerator tag q^{-n};
    otherwise sums until three consecutive terms fall below the relative tail
    threshold.  Non-terminating series with r = s + 1 require |argument| < 1.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    r_count, s_count = len(nums), len(dens)
    sign_exp = 1 + s_count - r_count

    cut = None
    for _, tag in nums:
        if tag is not None and tag <= 0:
            cut = -tag if cut is None else min(cut, -tag)
    if cut is None and r_count == s_count + 1 and abs(x) >= 1:
        raise DomainError("non-terminating series requires |argument| < 1")

    total = 0.0 + 0j
    mass = 0.0  # sum of |t_k|
    term = 1.0 + 0j
    below = 0
    k = 0
    qk = q**0
    while True:
        total = total + term
        mass = mass + abs(term)
        if cut is not None and k >= cut:
            return SeriesValue(total, k + 1, True, condition=_condition(mass, total))
        if k + 1 > policy.max_terms:
            raise NoConvergence("eval_phi: max_terms reached")
        num_f = 1.0 + 0j
        for v, _ in nums:
            num_f = num_f * (1 - v * qk)
        qk_next = q ** (k + 1)
        den_f = 1 - qk_next  # implicit (q;q)_k ratio factor
        for v, _ in dens:
            den_f = den_f * (1 - v * qk)
        if abs(den_f) < VANISH_TOL:
            raise DivisionByVanishingFactor("eval_phi: denominator factor vanishes")
        term = term * x * num_f / den_f
        if sign_exp:
            term = term * ((-1) * qk) ** sign_exp
        k += 1
        qk = qk_next
        if cut is None:
            if abs(term) < policy.series_tol * max(abs(total), 1e-300):
                below += 1
                if below >= 3:
                    return SeriesValue(total, k, False,
                                       condition=_condition(mass, total))
            else:
                below = 0


class _BilateralTerms:
    """Term generator for a bilateral series via ratio recurrences from k=0."""

    def __init__(self, nums, dens, x, q, sign_exp):
        self.nums, self.dens = nums, dens
        self.x, self.q, self.sign_exp = x, q, sign_exp
        self.log_inv_q = None  # log10(1/|q|), computed at the first lower term
        self.t_up = 1.0 + 0j  # term at index k_up
        self.k_up = 0
        self.t_dn = 1.0 + 0j  # term at index k_dn
        self.k_dn = 0
        self.up_done = False
        self.dn_done = False
        self.up_struct = False  # exhausted by a vanishing numerator factor
        self.dn_struct = False  # exhausted by a vanishing denominator factor

    def _factors(self, k):
        qk = self.q**k
        fn = 1.0 + 0j
        for v, _ in self.nums:
            fn = fn * (1 - v * qk)
        fd = 1.0 + 0j
        for v, _ in self.dens:
            fd = fd * (1 - v * qk)
        return fn, fd

    def next_up(self):
        """Term at index k_up + 1, or None once the upper side is exhausted."""
        if self.up_done:
            return None
        k = self.k_up  # ratio uses exponent k = (k_up+1) - 1
        fn, fd = self._factors(k)
        if abs(fn) < VANISH_TOL:
            self.up_done = True
            self.up_struct = True
            return None
        if abs(fd) < VANISH_TOL:
            raise DivisionByVanishingFactor("bilateral series: denominator vanishes")
        t = self.t_up * self.x * fn / fd
        if self.sign_exp:
            t = t * ((-1) * self.q**k) ** self.sign_exp
        self.t_up, self.k_up = t, self.k_up + 1
        if abs(t) < NEGLIGIBLE:  # tail below any representable contribution
            self.up_done = True
        return t

    def next_dn(self):
        """Term at index k_dn - 1, or None once the lower side is exhausted."""
        if self.dn_done:
            return None
        k = self.k_dn - 1
        # Deep in the lower tail |q^k| overflows a float.  Write each factor
        # as (1 - v q^k) = q^k (q^{-k} - v); the q^{Nk}/q^{Dk} scale factors
        # cancel exactly against the sign/power factor (whose exponent is
        # D - N), leaving only the bounded mantissas and a sign.
        if self.log_inv_q is None:
            self.log_inv_q = math.log10(1.0 / abs(self.q))
        if (-k) * self.log_inv_q > 100:  # k < 0 here
            qmk = self.q ** (-k)  # tiny, may underflow to exactly 0
            fn_m = 1.0 + 0j
            for v, _ in self.nums:
                fn_m = fn_m * (qmk - v)
            fd_m = 1.0 + 0j
            for v, _ in self.dens:
                fd_m = fd_m * (qmk - v)
            if abs(fn_m) < VANISH_TOL:
                raise DivisionByVanishingFactor("bilateral series: numerator pole")
            t = self.t_dn * fd_m / (self.x * fn_m)
            if self.sign_exp % 2:
                t = -t
            self.t_dn, self.k_dn = t, self.k_dn - 1
            if abs(t) < NEGLIGIBLE:
                self.dn_done = True
            return t
        fn, fd = self._factors(k)
        if abs(fd) < VANISH_TOL:
            self.dn_done = True
            self.dn_struct = True
            return None
        if abs(fn) < VANISH_TOL:
            raise DivisionByVanishingFactor("bilateral series: numerator pole")
        t = self.t_dn * fd / (self.x * fn)
        if self.sign_exp:
            t = t / ((-1) * self.q**k) ** self.sign_exp
        self.t_dn, self.k_dn = t, self.k_dn - 1
        if abs(t) < NEGLIGIBLE:  # tail below any representable contribution
            self.dn_done = True
        return t


def eval_psi(
    spec: SeriesSpec,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Evaluate a bilateral basic hypergeometric series.

    Structural cuts from QPower tags are honored on both sides.  Symmetric
    windows grow by policy.window_step until two consecutive expansions are
    below tolerance.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    sign_exp = len(dens) - len(nums)

    hi_cut = None
    for _, tag in nums:
        if tag is not None and tag <= 0:
            hi_cut = -tag if hi_cut is None else min(hi_cut, -tag)
    lo_cut = None
    for _, tag in dens:
        if tag is not None and tag >= 1:
            lo_cut = 1 - tag if lo_cut is None else max(lo_cut, 1 - tag)

    gen = _BilateralTerms(nums, dens, x, q, sign_exp)
    total = 1.0 + 0j  # k = 0 term
    nterms = 1

    def hi_target(m):
        return m if hi_cut is None else min(m, hi_cut)

    def lo_target(m):
        return m if lo_cut is None else max(m, lo_cut)

    below = 0
    m = policy.window_step
    while True:
        new = 0.0 + 0j
        while not gen.up_done and gen.k_up < hi_target(m):
            t = gen.next_up()
            if t is None:
                break
            new, nterms = new + t, nterms + 1
        while not gen.dn_done and gen.k_dn > lo_target(-m):
            t = gen.next_dn()
            if t is None:
                break
            new, nterms = new + t, nterms + 1
        total = total + new
        up_exhausted = gen.up_done or (hi_cut is not None and gen.k_up >= hi_cut)
        dn_exhausted = gen.dn_done or (lo_cut is not None and gen.k_dn <= lo_cut)
        if up_exhausted and dn_exhausted:
            struct = ((gen.up_struct or (hi_cut is not None and gen.k_up >= hi_cut))
                      and (gen.dn_struct or (lo_cut is not None and gen.k_dn <= lo_cut)))
            return SeriesValue(total, nterms, struct, (gen.k_dn, gen.k_up))
        if abs(new) <= policy.series_tol * max(abs(total), 1e-300):
            below += 1
            if below >= 2:
                return SeriesValue(total, nterms, False, (gen.k_dn, gen.k_up))
        else:
            below = 0
        if nterms > policy.max_terms:
            raise NoConvergence("eval_psi: max_terms reached before tail threshold")
        m += policy.window_step

