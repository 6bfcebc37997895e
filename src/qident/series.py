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

Each side of a bilateral sum grows by WINDOW_STEP terms at a time and ends
on its own: at its tag's cut, at an exactly-zero term, or by a closed tail.
A side's term ratio tends to a limit r, |r| < 1 on a convergent side
(Gasper-Rahman Sec. 5.1), so its terms beyond the last one, t, are summed
as the geometric series t r / (1 - r).  rho < 1 bounds every later term
ratio, and the side ends once the error of that closed tail, at most
|t| (rho / (1 - rho) - |r| / (1 - |r|)), is at most TAIL_TOL relative to the
sum with both closed tails.  Both term sequences are produced by
consecutive-term ratio recurrences, which keeps intermediate values moderate
even when the individual Pochhammers overflow.  MAX_TERMS caps the terms of
either evaluator (NoConvergence).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import DivisionByVanishingFactor, DomainError, NoConvergence
from .policy import QPower, scalar_value
from .qcore import VANISH_TOL, factor_product, units

#: Relative bound on the dropped tail of each side of a bilateral sum.
TAIL_TOL = 1e-15

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
    """(value, exponent of its QPower tag or None) of each entry."""
    return [(scalar_value(v, q), v.exponent if isinstance(v, QPower) else None)
            for v in entries]


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

    one, start = units(q)
    product = factor_product(q)
    nv, dv = [v for v, _ in nums], [v for v, _ in dens]
    total = term = start  # the k = 0 term
    mass = 1.0  # sum of |t_k|
    qk = q**0
    for k in range(cut):
        num_f = product(start, nv, qk, one)
        qk_next = q ** (k + 1)
        den_f = product(one - qk_next, dv, qk, one)  # implicit (q;q)_k ratio factor
        if abs(den_f) < VANISH_TOL:
            raise DivisionByVanishingFactor("eval_phi: denominator factor vanishes")
        term = term * x * num_f / den_f
        total = total + term
        mass = mass + abs(term)
        qk = qk_next
    return SeriesValue(total, cut + 1, True, condition=_condition(mass, total))


def _side_ends(t, k, tol, limit, excess):
    """Whether a bilateral side whose last term t has index k ends: at an
    exactly-zero term, or, for a side whose limit ratio r has modulus
    limit < 1, once the error of its closed tail t r / (1 - r) is at most
    tol.  With rho = limit + excess(k) < 1, every later term ratio R has
    |R - r| <= rho - |r|, which bounds that error by
    |t| (rho / (1 - rho) - |r| / (1 - |r|)).  A non-finite t raises
    NoConvergence."""
    at = float(abs(t))
    if at == 0:
        return True
    if not at < math.inf:
        raise NoConvergence(f"eval_psi: non-finite term at k = {k}")
    if not limit < 1:
        return False
    ex = excess(k)
    rho = limit + ex
    return rho < 1 and at * ex <= tol * (1 - rho) * (1 - limit)


def eval_psi(spec: SeriesSpec) -> SeriesValue:
    """Evaluate a balanced bilateral basic hypergeometric series: r = s, or
    DomainError.

    Each side ends on its own, checked every WINDOW_STEP terms: at its tag's
    cut (terminated: both sides did), at an exactly-zero term, or with a
    closed tail, never at an untagged factor's value.  A side with no tag
    cut whose limit ratio r, x above and prod b_i / (x prod a_i) below, has
    |r| < 1 adds the closed tail t r / (1 - r) after its last term t, and
    ends once that tail is within TAIL_TOL of its dropped terms, relative to
    the sum with both sides' closed tails.  From index k on, the upper
    side's term ratios are at most
    rho_k = |x| prod (1 + |a_i||q|^k) / (1 - |b_i||q|^k), and the lower
    side's, from the term at k on down, at most rho_j = (1/|x|)
    prod (|b_i| + |q|^j) / (|a_i| - |q|^j) with j = 1 - k; each later ratio
    is then within rho - |r| of r, so the closed tail is within
    |t| (rho / (1 - rho) - |r| / (1 - |r|)) of the dropped terms.  The
    excess rho - |r| is accumulated in floats, factor by factor, from the
    increments |a_i||q|^k and |b_i||q|^k (above) or |q|^j (below) alone,
    never as a difference of rho and |r|, so it carries no cancellation
    however close rho is to |r|; it is inf unless every divisor
    1 - |b_i||q|^k (above) or |a_i| - |q|^j (below) is positive.  A side
    with a tag cut runs to it without the bound.  A non-finite term, or more
    than MAX_TERMS terms, raises NoConvergence.
    """
    q = spec.q
    x = scalar_value(spec.argument, q)
    nums = _resolved(spec.numerator, q)
    dens = _resolved(spec.denominator, q)
    if len(nums) != len(dens):
        raise DomainError("eval_psi requires a balanced series, r = s")

    hi_cut = min((-tag for _, tag in nums if tag is not None and tag <= 0), default=None)
    lo_cut = max((1 - tag for _, tag in dens if tag is not None and tag >= 1), default=None)
    nv, dv = [v for v, _ in nums], [v for v, _ in dens]

    # The tail bounds are floats computed from the moduli of the operands.
    # A side's limit ratio r is that of its terms as |k| grows: x above and
    # prod b_i / (x prod a_i) below; its modulus is the side's limit, and a
    # side with a tag cut gets inf.  The closed tail t r / (1 - r) is taken
    # in the operands' arithmetic, with r = 0 on a side whose limit is not
    # below 1: such a side ends only at its cut or at an exactly-zero term,
    # and adds nothing.
    aq, ax = float(abs(q)), float(abs(x))
    an, ad = [float(abs(v)) for v in nv], [float(abs(v)) for v in dv]
    lim_up = ax if hi_cut is None else math.inf
    scale = ax * math.prod(an)
    lim_dn = math.prod(ad) / scale if lo_cut is None and scale else math.inf
    one, start = units(q)
    zero = start - start
    r_up = x if lim_up < 1 else zero
    r_dn = math.prod(dv) / (x * math.prod(nv)) if lim_dn < 1 else zero

    # rho_k - |r| of each side at index k (see the docstring).
    def up_excess(k):
        e, excess = aq**k, 0.0
        for a in an:
            d = a * e
            excess = excess * (1 + d) + ax * d
        for b in ad:
            d = b * e
            if 1 - d <= 0:
                return math.inf
            excess = (excess + ax * d) / (1 - d)
        return excess

    def dn_excess(k):
        e, lim, excess = aq ** (1 - k), 1 / ax, 0.0
        for b in ad:
            excess = excess * (b + e) + lim * e
            lim = lim * b
        for a in an:
            if a - e <= 0:
                return math.inf
            excess = (excess + lim * e / a) / (a - e)
            lim = lim / a
        return excess

    # Below index -deep an r-factor product of the terms 1 - v q^k could
    # overflow a float (r (-k) log10(1/|q|) > 300 decades): there each factor
    # is written as q^k (q^{-k} - v), and since the series is balanced the
    # q^{rk} scale factors of numerator and denominator cancel exactly,
    # leaving only the bounded mantissas.
    deep = 300 / (len(nv) * math.log10(1 / aq)) if nv and 0 < aq < 1 else math.inf

    # Both sides run by ratio recurrences from the k = 0 term: t_up is the
    # term at k_up >= 0, t_dn the term at k_dn <= 0, and tail_up and tail_dn
    # are the closed tails after them.  TAIL_TOL is relative to the sum with
    # both closed tails: a tail can be far larger than that sum, when its
    # ratio is near -1 and it cancels most of the window's terms.
    total = t_up = t_dn = start  # k = 0 term
    nterms = 1
    tail_up = tail_dn = zero
    k_up = k_dn = 0
    up_done, dn_done = hi_cut == 0, lo_cut == 0
    while not (up_done and dn_done):
        new = zero
        if not up_done:
            hi = k_up + WINDOW_STEP if hi_cut is None else min(k_up + WINDOW_STEP, hi_cut)
            while k_up < hi:
                qk = q**k_up
                fn = fd = start
                for v in nv:
                    fn = fn * (one - v * qk)
                for v in dv:
                    fd = fd * (one - v * qk)
                if abs(fd) < VANISH_TOL:
                    raise DivisionByVanishingFactor("bilateral series: denominator vanishes")
                t_up, k_up = t_up * x * fn / fd, k_up + 1
                new, nterms = new + t_up, nterms + 1
                if not t_up:
                    break
            tail_up = t_up * r_up / (one - r_up)
        if not dn_done:
            lo = k_dn - WINDOW_STEP if lo_cut is None else max(k_dn - WINDOW_STEP, lo_cut)
            while k_dn > lo:
                k = k_dn - 1
                fn = fd = start
                if -k > deep:
                    qmk = q ** (-k)  # tiny, may underflow to exactly 0
                    for v in nv:
                        fn = fn * (qmk - v)
                    for v in dv:
                        fd = fd * (qmk - v)
                    scale = abs(qmk) ** len(nv)
                else:
                    qk = q**k
                    for v in nv:
                        fn = fn * (one - v * qk)
                    for v in dv:
                        fd = fd * (one - v * qk)
                    scale = 1
                # |fn| is scale times |prod (1 - v q^k)|, a pole when that
                # is below VANISH_TOL; a scale that underflows to 0 leaves
                # only the test for an exactly-zero fn.
                if not fn or abs(fn) < VANISH_TOL * scale:
                    raise DivisionByVanishingFactor("bilateral series: numerator pole")
                t_dn, k_dn = t_dn * fd / (x * fn), k
                new, nterms = new + t_dn, nterms + 1
                if not t_dn:
                    break
            tail_dn = t_dn * r_dn / (one - r_dn)
        total = total + new
        tol = TAIL_TOL * float(abs(total + tail_up + tail_dn))
        up_done = up_done or k_up == hi_cut or _side_ends(t_up, k_up, tol, lim_up, up_excess)
        dn_done = dn_done or k_dn == lo_cut or _side_ends(t_dn, k_dn, tol, lim_dn, dn_excess)
        if not (up_done and dn_done) and nterms > MAX_TERMS:
            raise NoConvergence("eval_psi: max_terms reached before tail threshold")
    terminated = k_up == hi_cut and k_dn == lo_cut
    return SeriesValue(total + tail_up + tail_dn, nterms, terminated, (k_dn, k_up))
