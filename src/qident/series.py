"""Generic series evaluators: unilateral r-phi-s and bilateral r-psi-s.

Every series evaluated here is balanced: an r-phi-s has r = s + 1 and an
r-psi-s has r = s, so the sign factor ((-1)^k q^{k(k-1)/2})^{1 + s - r} of
the general series (Gasper-Rahman (1.2.22), (5.1.1)) is identically 1 and is
not evaluated.  A spec of another shape raises DomainError.

Parameter entries in a :class:`SeriesSpec` may be plain scalars or
:class:`~qident.policy.QPower` tags.  Tags drive *structural* termination:

  * a numerator parameter q^{-n} (tag <= 0) kills every term with index > n;
  * a denominator parameter q^{m} with m >= 1 kills (in a bilateral series)
    every term with index <= -m, because the negative-order Pochhammer in the
    denominator diverges there.

eval_phi sums terminating series only: its spec must carry a numerator tag
q^{-n}, n >= 0, and it sums the n + 1 terms k = 0..n.  It follows the
classical r-phi-s normalization: the denominator list holds the b-parameters
only, and the implicit (q;q)_k factor is supplied by the evaluator.  eval_psi
has no implicit (q;q)_k.

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
    """Evaluate a balanced terminating unilateral basic hypergeometric series.

    The spec must have r = s + 1 and a numerator tag q^{-n}, n >= 0; the sum
    stops structurally at the smallest such n.  Any other spec raises
    DomainError.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    if len(nums) != len(dens) + 1:
        raise DomainError("eval_phi requires a balanced series, r = s + 1")
    cuts = [-tag for _, tag in nums if tag is not None and tag <= 0]
    if not cuts:
        raise DomainError("eval_phi requires a numerator tag q^{-n} with n >= 0")
    cut = min(cuts)
    if cut > policy.max_terms:
        raise NoConvergence("eval_phi: max_terms reached")

    total = 1.0 + 0j  # the k = 0 term
    mass = 1.0  # sum of |t_k|
    term = 1.0 + 0j
    qk = q**0
    for k in range(cut):
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
        total = total + term
        mass = mass + abs(term)
        qk = qk_next
    return SeriesValue(total, cut + 1, True, condition=_condition(mass, total))


class _BilateralTerms:
    """Term generator for a bilateral series via ratio recurrences from k=0."""

    def __init__(self, nums, dens, x, q):
        self.nums, self.dens = nums, dens
        self.x, self.q = x, q
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
        # as (1 - v q^k) = q^k (q^{-k} - v); the series is balanced, so the
        # q^{rk} scale factors of numerator and denominator cancel exactly,
        # leaving only the bounded mantissas.
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
        self.t_dn, self.k_dn = t, self.k_dn - 1
        if abs(t) < NEGLIGIBLE:  # tail below any representable contribution
            self.dn_done = True
        return t


def eval_psi(
    spec: SeriesSpec,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesValue:
    """Evaluate a balanced bilateral basic hypergeometric series: r = s, or
    DomainError.

    Structural cuts from QPower tags are honored on both sides.  Symmetric
    windows grow by policy.window_step until two consecutive expansions are
    below tolerance.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    if len(nums) != len(dens):
        raise DomainError("eval_psi requires a balanced series, r = s")

    hi_cut = None
    for _, tag in nums:
        if tag is not None and tag <= 0:
            hi_cut = -tag if hi_cut is None else min(hi_cut, -tag)
    lo_cut = None
    for _, tag in dens:
        if tag is not None and tag >= 1:
            lo_cut = 1 - tag if lo_cut is None else max(lo_cut, 1 - tag)

    gen = _BilateralTerms(nums, dens, x, q)
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

