"""Evaluation policies and tagged scalar values.

A :class:`TruncationPolicy` bundles every knob that controls how infinite
products and series are truncated, so that all evaluations are deterministic
functions of (arguments, policy).

A :class:`QPower` tags a parameter as being *exactly* an integer power of q.
Series evaluators use the tag for structural termination decisions (a value
``q**-n`` kills all terms with index beyond n) while numeric code uses the
resolved complex value.  Tagging avoids fragile floating-point matching of
"is this parameter a power of q?".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncationPolicy:
    """Deterministic truncation controls for products and series.

    product_tol: cut Euler's series for an infinite product's tail
        (qcore.poch_inf) at the first |c_n| rho^n < product_tol.
    max_factors: hard cap on product factors and on Euler's series terms;
        exceeding it raises NoConvergence.
    series_tol: relative tail threshold for series summation.
    max_terms: hard cap on summed terms; exceeding it raises NoConvergence.
    window_step: growth increment for bilateral summation windows.
    """

    product_tol: float = 1e-17
    max_factors: int = 10_000
    series_tol: float = 1e-13
    max_terms: int = 1_000
    window_step: int = 4

    def __post_init__(self) -> None:
        if not (self.product_tol > 0 and self.series_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_factors >= 1 and self.max_terms >= 1):
            raise ValueError("factor/term budgets must be >= 1")
        if self.window_step < 1:
            raise ValueError("window_step must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class QPower:
    """A scalar known exactly to be q**exponent for the ambient base q."""

    exponent: int


def scalar_value(v, q):
    """Resolve a parameter (plain scalar or QPower tag) to a numeric value."""
    if isinstance(v, QPower):
        return q ** v.exponent
    return v


def qpow_exponent(v):
    """Return the exact q-exponent of a parameter, or None if untagged."""
    if isinstance(v, QPower):
        return v.exponent
    return None
