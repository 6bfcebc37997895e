"""Key oracle: every keyed W ledger argument is the monomial its key names.

wfunc settles a W ledger by monomial key alone ("Keyed ledgers" in its module
docstring), so a key that misnames its argument's monomial silently changes
which factors cancel.  check_ledger_keys runs one registry case with
zw_skew_single wrapped to capture its variable and WParams, and checks each
ledger that the call hands theta_quotient:

  * the key + k of each argument base * q**k decodes into balanced
    base-KEY_RADIX digits, its exponents over GENERATORS;
  * the generators are solved from the call's WParams values and keys and its
    variable's value and key (q is WParams.q): an equation with one unknown
    generator, of exponent +-1, gives it, until none is left.  Only s may
    come from the draw, and only where the keys leave it unsolved:
    multiple_jackson_rhs's second W keys b/(s t^n), a/(s^2 t^2n) and z_i s.
    aprime is never fixed from the draw, since duality_side's second call
    exchanges a and aprime;
  * |base q^k - monomial| <= REL_TOL |monomial|, and the same for every
    equation that solved no generator.

A mismatch raises AssertionError naming the case, seed, ledger, run and both
values.  Double mode only: the values are compared as Python complex numbers.
"""

import qident.wfunc as wfunc
from qident.identities import run_case, sample_params
from qident.wfunc import KEY_RADIX, X_KEY, Keyed

#: The generators of the keys, by digit: key = sum_g e_g KEY_RADIX^g.
GENERATORS = ("q", "t", "a", "b", "x", "s", "aprime")
S = GENERATORS.index("s")
REL_TOL = 1e-9


def exponents(key):
    """The balanced base-KEY_RADIX digits of key, one per generator, or None
    when key has more digits than there are generators."""
    half, exps = KEY_RADIX // 2, []
    for _ in GENERATORS:
        digit = (key + half) % KEY_RADIX - half
        exps.append(digit)
        key = (key - digit) // KEY_RADIX
    return None if key else exps


def monomial(exps, gens):
    """prod_g gens[g] ** exps[g]; None when it reads a generator not solved."""
    r = 1.0 + 0j
    for g, e in enumerate(exps):
        if e:
            if g not in gens:
                return None
            r = r * gens[g] ** e
    return r


def solve(equations, q, s):
    """The generators {digit: value} solved from equations [(name, value,
    exps)], and the equations that solved none.  s (the draw's, or None) is
    taken only when the keys leave it unsolved."""
    gens, rest = {0: q}, list(equations)
    while True:
        for eq in rest:
            _, value, exps = eq
            unknown = [g for g, e in enumerate(exps) if e and g not in gens]
            if len(unknown) == 1 and exps[unknown[0]] in (1, -1):
                g = unknown[0]
                others = monomial([e if h != g else 0 for h, e in enumerate(exps)], gens)
                gens[g] = (value / others) ** exps[g]
                rest.remove(eq)
                break
        else:
            if S in gens or s is None:
                return gens, rest
            gens[S] = s


def _check(label, value, exps, expected):
    name = " ".join(f"{g}^{e}" for g, e in zip(GENERATORS, exps) if e) or "1"
    assert abs(value - expected) <= REL_TOL * abs(expected), \
        f"{label}: value {value!r}, monomial {name} = {expected!r}"


def check_ledger_keys(case, seed, params=None):
    """run_case(case, params), params defaulting to sample_params(case, seed),
    with every W ledger argument checked against its key's monomial; returns
    the report and the number of arguments checked."""
    if params is None:
        params = sample_params(case, seed)
    skew, quotient = wfunc.zw_skew_single, wfunc.theta_quotient
    calls, checked = [], [0, 0]  # [ledgers, arguments]

    def captured(x, lam, mu, wp):
        calls.append((x, wp))
        try:
            return skew(x, lam, mu, wp)
        finally:
            calls.pop()

    def checked_quotient(num, den, q, p):
        x, wp = calls[-1]
        x, xk = x if isinstance(x, Keyed) else (x, X_KEY)
        where = f"{case} seed {seed} ledger {checked[0]}"
        equations = []
        for name, value, key in zip(("t", "a", "b", "x"), (wp.t, wp.a, wp.b, x),
                                    (*wp.keys, xk)):
            exps = exponents(key)
            assert exps is not None, f"{where}: {name}'s key {key} has too many digits"
            equations.append((name, value, exps))
        gens, rest = solve(equations, q, params.get("s"))
        for name, value, exps in rest:
            expected = monomial(exps, gens)
            assert expected is not None, f"{where}: {name}'s key reads an unsolved generator"
            _check(f"{where}: WParams/variable {name}", value, exps, expected)
        for side, runs in (("num", num), ("den", den)):
            for index, run in enumerate(runs):
                base, key, lo, hi = run
                for k in range(lo, hi):
                    label = f"{where}: run {side}[{index}] = {run!r} at k = {k}"
                    exps = exponents(key + k)
                    expected = None if exps is None else monomial(exps, gens)
                    assert expected is not None, \
                        f"{label}: key {key + k} reads an unsolved generator"
                    _check(label, base * q**k, exps, expected)
                    checked[1] += 1
        checked[0] += 1
        return quotient(num, den, q, p)

    wfunc.zw_skew_single, wfunc.theta_quotient = captured, checked_quotient
    try:
        report = run_case(case, params)
    finally:
        wfunc.zw_skew_single, wfunc.theta_quotient = skew, quotient
    return report, checked[1]
