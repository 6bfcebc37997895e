"""Exception hierarchy for the qident library.

All library-specific errors derive from :class:`QidentError` so callers can
catch everything from this package with a single handler.
"""


class QidentError(Exception):
    """Base class for all errors raised by qident."""


class DomainError(QidentError):
    """An argument lies outside the mathematical domain of an operation
    (e.g. |q| >= 1 for an infinite product, or x = 0 for a theta function)."""


class DivisionByVanishingFactor(QidentError):
    """A denominator factor of a product or series term is (numerically) zero."""


class NoConvergence(QidentError):
    """An iterative evaluation hit its factor/term budget before the tail
    dropped below the requested tolerance."""


class NonFiniteSide(QidentError):
    """A side of an identity evaluated to NaN or an infinity (an overflow)."""


class EmptyWindow(QidentError):
    """A lattice window has some lower bound above the matching upper bound."""


class NotAPartition(QidentError):
    """A sequence that must be a partition is not weakly decreasing and
    non-negative."""


class ConfigError(QidentError):
    """A CLI or file configuration is malformed (unknown case id, bad value,
    invalid sample/tolerance settings)."""


class PoleCancellationError(QidentError):
    """Internal signal: a theta-quotient evaluation met an uncancelled
    denominator zero.  Regularized W evaluation catches this and retries with
    a perturbed parameter; it is not part of the public error contract."""
