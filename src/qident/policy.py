"""Tagged scalar values.

A :class:`QPower` tags a parameter as being *exactly* an integer power of q.
Series evaluators use the tag for structural termination decisions (a value
``q**-n`` kills all terms with index beyond n) while numeric code uses the
resolved complex value.  Tagging avoids fragile floating-point matching of
"is this parameter a power of q?".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QPower:
    """A scalar known exactly to be q**exponent for the ambient base q."""

    exponent: int


def scalar_value(v, q):
    """Resolve a parameter (plain scalar or QPower tag) to a numeric value."""
    if isinstance(v, QPower):
        return q ** v.exponent
    return v
