"""Checks made apart from the program.

The closed-form sides are recomputed at 30 digits with `mpmath.qp` from this
file's own transcription of the classical formulas (Gasper-Rahman, *Basic
Hypergeometric Series*, 2nd ed.: Jackson's 8phi7 (2.6.2), Ramanujan's 1psi1
(5.2.1), Bailey's 6psi6 (5.3.1) and Bailey's two 3psi3 sums), and of the
multilateral 3psi3 product with its normalisation.  Every passing sample must
agree with the reference within its case tolerance, on both reported sides.
Two properties are checked as well: `w_multi` is symmetric under permuting
its variables (evaluated with the program's own `w_multi`), and at rank 1
the multilateral lattice sum is Bailey's 3psi3.  Nothing is compared against
stored output.
"""

from __future__ import annotations

import itertools

import mpmath

DPS = 30

#: Below this magnitude two values are compared by absolute difference, the
#: rule the program applies to its own residuals.
BOTH_ZERO = 1e-12


def _mp(v):
    return mpmath.mpmathify(complex(v))


def _prod(values):
    r = mpmath.mpf(1)
    for v in values:
        r *= v
    return r


def _pinf(args, q):
    """prod over args of (a; q)_inf."""
    return _prod(mpmath.qp(a, q) for a in args)


def _pfin(args, q, n):
    """prod over args of (a; q)_n, n >= 0."""
    return _prod(mpmath.qp(a, q, n) for a in args)


def jackson_8phi7(p):
    a, b, c, d, q = (_mp(p[k]) for k in "abcdq")
    n = p["n"]
    return _pfin([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)], q, n) \
        / _pfin([a * q / b, a * q / c, a * q / d, a * q / (b * c * d)], q, n)


def ramanujan_1psi1(p):
    a, b, x, q = (_mp(p[k]) for k in "abxq")
    return _pinf([q, b / a, a * x, q / (a * x)], q) \
        / _pinf([b, q / a, x, b / (a * x)], q)


def bailey_6psi6(p):
    a, b, c, d, e, q = (_mp(p[k]) for k in "abcdeq")
    aq = a * q
    return _pinf([aq, aq / (b * c), aq / (b * d), aq / (b * e), aq / (c * d),
                  aq / (c * e), aq / (d * e), q, q / a], q) \
        / _pinf([aq / b, aq / c, aq / d, aq / e, q / b, q / c, q / d, q / e,
                 q * a * a / (b * c * d * e)], q)


def bailey_3psi3(b, c, d, q, delta):
    """sum_k (b, c, d; q)_k / (q^{1+delta}/b, q^{1+delta}/c, q^{1+delta}/d; q)_k
    * (q^{1+delta}/bcd)^k for delta in {0, 1}."""
    qd = q ** (1 + delta)
    return _pinf([q, qd / (b * c), qd / (b * d), qd / (c * d)], q) \
        / _pinf([qd / b, qd / c, qd / d, qd / (b * c * d)], q)


def psi3_sides(p):
    """The registry reports (1 - q)^{-delta} times the bilateral sum."""
    q = _mp(p["q"])
    delta = p["delta"]
    return bailey_3psi3(_mp(p["sigma"]), _mp(p["rho"]), _mp(p["gamma"]), q, delta) \
        / (1 - q) ** delta


def _mlat(p):
    n, delta = p["n"], p["delta"]
    x, s, a, q = (_mp(p[k]) for k in "xsaq")
    return n, delta, x, s, a, q, q ** (delta + 2 * n - 1)


def mlat_3psi3_product(p):
    """Product side of the multilateral 3psi3 sum over Z^n, with
    (c)_{inf^n} = prod_{i=1..n} (c q^{1-i}; q)_inf, divided by the ratio of
    the one-sided to the full lattice sum."""
    n, delta, x, s, a, q, big = _mlat(p)

    def pn(c):
        return _pinf([c * q ** (1 - i) for i in range(1, n + 1)], q)

    prod = pn(s / x) * pn(a * s * x) * pn(big) * pn(big / a) \
        / (pn(s) * pn(a * s) * pn(big * x) * pn(big / (a * x)))
    if delta == 0:
        norm = 1 / _prod(1 + q ** (n - i) for i in range(1, n))
    else:
        norm = 1 / _prod(1 - q ** (1 + 2 * n - 2 * i) for i in range(1, n + 1))
    return prod / norm


def mlat_rank1(p):
    """At n = 1 the lattice sum is Bailey's 3psi3 with b = 1/x, c = a x,
    d = q^{1+delta}/(a s), whose argument q^{1+delta}/bcd is s."""
    n, delta, x, s, a, q, _ = _mlat(p)
    if n != 1:
        return None
    return bailey_3psi3(1 / x, a * x, q ** (1 + delta) / (a * s), q, delta)


def mlat_finite_lhs(p):
    """prod_i (s/x, a s x, Q, Q/a)_{lam_i} / (s, a s, Q x, Q/(a x))_{lam_i}
    with bases shifted by q^{1-i} and Q = q^{delta+2n-1}."""
    n, delta, x, s, a, q, big = _mlat(p)
    lam = tuple(p["lam"]) + (0,) * n
    r = mpmath.mpf(1)
    for i in range(1, n + 1):
        sh = q ** (1 - i)
        m = lam[i - 1]
        r *= _pfin([s / x * sh, a * s * x * sh, big * sh, big / a * sh], q, m) \
            / _pfin([s * sh, a * s * sh, big * x * sh, big / (a * x) * sh], q, m)
    return r


#: case id -> [(check name, reference function)]
REFERENCES = {
    "jackson8phi7": [("jackson8phi7", jackson_8phi7)],
    "ramanujan1psi1": [("ramanujan1psi1", ramanujan_1psi1)],
    "bailey6psi6": [("bailey6psi6", bailey_6psi6)],
    "3psi3delta0": [("bailey3psi3", psi3_sides)],
    "3psi3delta1": [("bailey3psi3", psi3_sides)],
    "multilateral3psi3": [("mlat3psi3_product", mlat_3psi3_product),
                          ("mlat3psi3_rank1", mlat_rank1)],
    "multilateralfinite": [("mlatfinite_lhs", mlat_finite_lhs)],
}


def _deviation(v, ref):
    """Relative deviation, or absolute when both values are near zero (the
    program's own residual rule)."""
    v, ref = complex(v), complex(ref)
    scale = max(abs(v), abs(ref))
    return abs(v - ref) if scale < BOTH_ZERO else abs(v - ref) / scale


class Checker:
    """Runs the checks on reports and keeps counts and failures."""

    def __init__(self, wfunc=None):
        self.wfunc = wfunc
        self.counts = {}
        self.failures = []

    def fail(self, what):
        if len(self.failures) < 20:
            self.failures.append(what)
        else:
            self.failures[-1] = f"... and more ({what})"

    def _count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def report(self, rep, where):
        """Every check that applies to one report."""
        if rep.case_id == "multijackson" and self.wfunc is not None:
            self._w_symmetry(rep, where)
        if rep.status != "pass":
            return
        tol = rep.params["tol"]
        for name, ref_fn in REFERENCES.get(rep.case_id, ()):
            with mpmath.workdps(DPS):
                ref = ref_fn(rep.params)
                if ref is None:
                    continue
                ref = complex(ref)
            self._count(name)
            for side in ("lhs", "rhs"):
                dev = _deviation(getattr(rep, side), ref)
                if not dev <= tol:
                    self.fail(f"{name} {where}: {side} off the 30-digit reference "
                               f"by {dev:.3g} > tol {tol:g}")

    def _w_symmetry(self, rep, where):
        """w_multi(z) is symmetric in z; checked on every n >= 2 sample."""
        p = rep.params
        n, z = p["n"], tuple(p["z"])
        if n < 2:
            return
        t = p["t"]
        wp = self.wfunc.WParams(p["q"], p["p"], t, p["a"] * t ** (-2 * n),
                                p["b"] * t ** (-n))
        base = self.wfunc.w_multi(z, p["lam"], (), wp, memo={})
        self._count("w_symmetry")
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            v = self.wfunc.w_multi(tuple(z[i] for i in perm), p["lam"], (), wp, memo={})
            dev = _deviation(v, base)
            if not dev <= p["tol"]:
                self.fail(f"w_symmetry {where} perm {perm}: deviation {dev:.3g}")
