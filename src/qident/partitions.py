"""Partition combinatorics and the interlacing integer vectors of W's branching.

Partitions are plain tuples of non-negative integers, stored without trailing
zeros; every operation treats missing parts as 0, so equality of normalized
tuples is padding-insensitive.  Integer vectors (possibly negative, possibly
non-monotone entries) are plain tuples of fixed length.  check_partition is
the one check of a partition, made where one enters.
"""

from __future__ import annotations

import itertools

from .errors import NotAPartition, excerpt


def normalize(lam) -> tuple:
    """Return lam as a tuple with trailing zeros removed."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def check_partition(lam) -> tuple:
    """Normalize lam, raising NotAPartition unless it is a sequence whose
    parts are ints (not bools) and it is weakly decreasing and non-negative."""
    try:
        lam = tuple(lam)
    except TypeError:
        raise NotAPartition(f"{excerpt(lam)} is not a sequence of parts") from None
    for x in lam:
        if type(x) is not int:
            raise NotAPartition(f"{excerpt(lam)} has a part that is not an integer: "
                                f"{excerpt(x)}")
    lam = normalize(lam)
    for i in range(len(lam) - 1):
        if lam[i] < lam[i + 1]:
            raise NotAPartition(f"{excerpt(lam)} is not weakly decreasing")
    if lam and lam[-1] < 0:
        raise NotAPartition(f"{excerpt(lam)} has negative parts")
    return lam


def part(lam, i: int) -> int:
    """1-based part accessor with zero padding: lam_i, or 0 out of range."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def weight(lam) -> int:
    """|lam| = sum of the parts."""
    return sum(lam)


def nstat(lam) -> int:
    """The statistic n(lam) = sum_i (i-1) lam_i."""
    return sum(i * x for i, x in enumerate(lam))


def is_horizontal_strip(lam, mu) -> bool:
    """True iff lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (interlacing)."""
    n = max(len(lam), len(mu)) + 1
    for i in range(1, n + 1):
        if not (part(lam, i) >= part(mu, i) >= part(lam, i + 1)):
            return False
    return True


def _enumeration_key(p):
    return (len(p), p)


def horizontal_strip_predecessors(lam):
    """All partitions nu such that lam/nu is a horizontal strip, each exactly
    once, ordered by (length, lexicographic): the interlacing vectors of lam
    padded with one zero, normalized."""
    lam = check_partition(lam)
    return sorted((normalize(nu) for nu in interlacing_vectors(lam + (0,))),
                  key=_enumeration_key)


def subpartitions(lam):
    """All partitions mu contained in lam, each exactly once, ordered by
    (length, lexicographic).  Precondition, not checked: lam is a partition
    (run_case checks it for the identities that call this)."""
    ranges = [range(0, x + 1) for x in lam]
    return sorted((normalize(mu) for mu in itertools.product(*ranges)
                   if all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))),
                  key=_enumeration_key)


def interlacing_vectors(lam):
    """All integer vectors nu of length len(lam)-1 with lam_i >= nu_i >= lam_{i+1}.

    This is the branching index set for the recursive evaluation of
    integer-vector-indexed W functions; for partitions it coincides with the
    horizontal-strip predecessors written with fixed length.
    """
    lam = tuple(lam)
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
    return list(itertools.product(*ranges))
