"""Generic series evaluators: unilateral r-phi-s and bilateral r-psi-s.

Every series evaluated here is balanced: an r-phi-s has r = s + 1 and an
r-psi-s has r = s, so the sign factor ((-1)^k q^{k(k-1)/2})^{1 + s - r} of
the general series (Gasper-Rahman (1.2.22), (5.1.1)) is identically 1 and is
not evaluated.  A spec of another shape raises DomainError.

Parameter entries in a :class:`SeriesSpec` may be plain scalars or
:class:`~qident.policy.QPower` tags.  Tags are the only *structural* cuts:

  * a numerator parameter q^{-n} (tag <= 0) kills every term with index > n;
  * a denominator parameter q^{m} with m >= 1 kills (in a bilateral series)
    every term with index <= -m, because the negative-order Pochhammer in the
    denominator diverges there.

An untagged parameter is never matched to a power of q by its value.  A
factor of it that vanishes only multiplies: its term is 0 (or about 1e-17
of its neighbour), and the sum runs on to its tail rule.  A vanishing factor
that a term divides by raises DivisionByVanishingFactor where it is met.

eval_phi sums terminating series only: its spec must carry a numerator tag
q^{-n}, n >= 0, and it sums the n + 1 terms k = 0..n.  It follows the
classical r-phi-s normalization: the denominator list holds the b-parameters
only, and the implicit (q;q)_k factor is supplied by the evaluator.  eval_psi
has no implicit (q;q)_k.

eval_phi also reports the condition number of the sum it returns
(SeriesValue.condition), so a caller can bound the effect of rounding on the
value and choose its working precision from that measurement.

Bilateral sums run over symmetric windows [-M, M] grown by WINDOW_STEP until
two consecutive expansions contribute relative mass below SERIES_TOL; both
term sequences are produced by consecutive-term ratio recurrences, which
keeps intermediate values moderate even when the individual Pochhammers
overflow.  MAX_TERMS caps the terms of either evaluator (NoConvergence).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence
from .policy import qpow_exponent, scalar_value
from .qcore import VANISH_TOL

# Once a bilateral tail term drops below this magnitude the remaining tail can
# never contribute at double precision; stopping there also keeps the factor
# products q**k away from float overflow at very negative k.
NEGLIGIBLE = 1e-280

#: Relative tail threshold of a bilateral sum.
SERIES_TOL = 1e-13

#: Cap on the terms of a sum; exceeding it raises NoConvergence.
MAX_TERMS = 1_000

#: Growth increment of a bilateral summation window.
WINDOW_STEP = 4


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


def _product(entries, qk, start=1.0 + 0j):
    """start times the factors (1 - v q^k) of the resolved entries, multiplied
    in entry order."""
    for v, _ in entries:
        start = start * (1 - v * qk)
    return start


def eval_phi(spec: SeriesSpec) -> SeriesValue:
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
    if cut > MAX_TERMS:
        raise NoConvergence("eval_phi: max_terms reached")

    total = 1.0 + 0j  # the k = 0 term
    mass = 1.0  # sum of |t_k|
    term = 1.0 + 0j
    qk = q**0
    for k in range(cut):
        num_f = _product(nums, qk)
        qk_next = q ** (k + 1)
        den_f = _product(dens, qk, 1 - qk_next)  # implicit (q;q)_k ratio factor
        if abs(den_f) < VANISH_TOL:
            raise DivisionByVanishingFactor("eval_phi: denominator factor vanishes")
        term = term * x * num_f / den_f
        total = total + term
        mass = mass + abs(term)
        qk = qk_next
    return SeriesValue(total, cut + 1, True, condition=_condition(mass, total))


def eval_psi(spec: SeriesSpec) -> SeriesValue:
    """Evaluate a balanced bilateral basic hypergeometric series: r = s, or
    DomainError.

    A side ends at its tag's cut (terminated: both sides did) or at a term
    below NEGLIGIBLE, never at an untagged factor's value; the sum ends once
    two windows, grown by WINDOW_STEP, add less than SERIES_TOL relative.
    Past MAX_TERMS terms it raises NoConvergence.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    if len(nums) != len(dens):
        raise DomainError("eval_psi requires a balanced series, r = s")

    hi_cut = min((-tag for _, tag in nums if tag is not None and tag <= 0), default=None)
    lo_cut = max((1 - tag for _, tag in dens if tag is not None and tag >= 1), default=None)

    # Both sides run by ratio recurrences from the k = 0 term: t_up is the
    # term at k_up >= 0, t_dn the term at k_dn <= 0.  A side is done once a
    # term falls below NEGLIGIBLE or it reaches its tag's cut (hi_cut,
    # lo_cut); no factor's value ends a side.
    total = 1.0 + 0j  # k = 0 term
    nterms = 1
    t_up = t_dn = 1.0 + 0j
    k_up = k_dn = 0
    up_done = dn_done = False
    log_inv_q = None  # log10(1/|q|), computed at the first lower term
    below = 0
    m = WINDOW_STEP
    while True:
        new = 0.0 + 0j
        hi = m if hi_cut is None else min(m, hi_cut)
        while not up_done and k_up < hi:
            qk = q**k_up
            fn, fd = _product(nums, qk), _product(dens, qk)
            if abs(fd) < VANISH_TOL:
                raise DivisionByVanishingFactor("bilateral series: denominator vanishes")
            t_up, k_up = t_up * x * fn / fd, k_up + 1
            up_done = abs(t_up) < NEGLIGIBLE  # tail below any representable contribution
            new, nterms = new + t_up, nterms + 1
        lo = -m if lo_cut is None else max(-m, lo_cut)
        while not dn_done and k_dn > lo:
            k = k_dn - 1
            if log_inv_q is None:
                log_inv_q = math.log10(1.0 / abs(q))
            if (-k) * log_inv_q > 100:
                # Deep in the lower tail |q^k| overflows a float.  Write each
                # factor as (1 - v q^k) = q^k (q^{-k} - v); the series is
                # balanced, so the q^{rk} scale factors of numerator and
                # denominator cancel exactly, leaving only the bounded
                # mantissas.
                qmk = q ** (-k)  # tiny, may underflow to exactly 0
                fn = fd = 1.0 + 0j
                for v, _ in nums:
                    fn = fn * (qmk - v)
                for v, _ in dens:
                    fd = fd * (qmk - v)
            else:
                qk = q**k
                fn, fd = _product(nums, qk), _product(dens, qk)
            if abs(fn) < VANISH_TOL:
                raise DivisionByVanishingFactor("bilateral series: numerator pole")
            t_dn, k_dn = t_dn * fd / (x * fn), k
            dn_done = abs(t_dn) < NEGLIGIBLE  # tail below any representable contribution
            new, nterms = new + t_dn, nterms + 1
        total = total + new
        up_end = hi_cut is not None and k_up >= hi_cut
        dn_end = lo_cut is not None and k_dn <= lo_cut
        if (up_done or up_end) and (dn_done or dn_end):
            return SeriesValue(total, nterms, up_end and dn_end, (k_dn, k_up))
        below = below + 1 if abs(new) <= SERIES_TOL * max(abs(total), 1e-300) else 0
        if below >= 2:
            return SeriesValue(total, nterms, False, (k_dn, k_up))
        if nterms > MAX_TERMS:
            raise NoConvergence("eval_psi: max_terms reached before tail threshold")
        m += WINDOW_STEP
