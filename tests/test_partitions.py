"""Partition combinatorics tests."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.cli import _decode_value
from qident.errors import ConfigError, NotAPartition
from qident.partitions import (
    check_partition,
    horizontal_strip_predecessors,
    is_horizontal_strip,
    nstat,
    normalize,
    part,
    subpartitions,
    weight,
)


partitions_strategy = st.lists(
    st.integers(0, 6), min_size=0, max_size=4
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def contains(lam, mu) -> bool:
    """Subpartition oracle: True iff mu_i <= lam_i for all i (both must be
    partitions)."""
    lam, mu = check_partition(lam), check_partition(mu)
    n = max(len(lam), len(mu))
    return all(part(mu, i) <= part(lam, i) for i in range(1, n + 1))


def all_partitions_in_box(max_len, max_part):
    """Brute-force enumeration of partitions fitting in a box."""
    out = set()
    for tup in itertools.product(range(max_part + 1), repeat=max_len):
        if all(tup[i] >= tup[i + 1] for i in range(max_len - 1)):
            out.add(normalize(tup))
    return out


# ---------------------------------------------------------------------------
# weight / nstat
# ---------------------------------------------------------------------------

def test_weight_examples():
    assert weight(()) == 0
    assert weight((2, 1)) == 3
    assert weight((5, 5, 5)) == 15


def test_nstat_examples():
    assert nstat(()) == 0
    assert nstat((2, 1)) == 1
    assert nstat((3, 3, 3)) == 9


@settings(max_examples=100, deadline=None)
@given(partitions_strategy, st.integers(0, 3))
def test_weight_nstat_padding_invariance(lam, pad):
    padded = tuple(lam) + (0,) * pad
    assert weight(padded) == weight(lam)
    assert nstat(padded) == nstat(lam)


def test_normalize_padding_equality():
    assert normalize((2, 1, 0)) == normalize((2, 1))


# ---------------------------------------------------------------------------
# containment and horizontal strips
# ---------------------------------------------------------------------------

def test_contains_examples():
    assert contains((3, 1), (2, 1)) is True
    assert contains((2, 2), (3,)) is False


def test_contains_rejects_non_partition():
    with pytest.raises(NotAPartition):
        contains((3, 1), (1, 2))


def test_is_horizontal_strip_examples():
    assert is_horizontal_strip((3, 1), (2, 1)) is True
    assert is_horizontal_strip((3, 2), (1, 1)) is False
    assert is_horizontal_strip((), ()) is True


def test_strip_implies_contains_exhaustive():
    box = all_partitions_in_box(3, 4)
    for lam in box:
        for mu in box:
            if is_horizontal_strip(lam, mu):
                assert contains(lam, mu)


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------

def test_strip_predecessors_examples():
    assert list(horizontal_strip_predecessors((1,))) == [(), (1,)]
    assert list(horizontal_strip_predecessors((2, 1))) == \
        [(1,), (2,), (1, 1), (2, 1)]
    assert list(horizontal_strip_predecessors(())) == [()]


def test_subpartitions_examples():
    assert list(subpartitions((1,))) == [(), (1,)]
    assert list(subpartitions((2, 1))) == [(), (1,), (2,), (1, 1), (2, 1)]
    for N in range(6):
        assert len(list(subpartitions((N,)))) == N + 1


def test_strip_predecessors_subset_of_subpartitions_exhaustive():
    for lam in all_partitions_in_box(3, 4):
        subs = set(subpartitions(lam))
        preds = list(horizontal_strip_predecessors(lam))
        assert len(preds) == len(set(preds))  # each exactly once
        assert set(preds) <= subs
        # and they are exactly the horizontal strips among subpartitions
        assert set(preds) == {mu for mu in subs if is_horizontal_strip(lam, mu)}


def test_subpartition_count_matches_box_filter_exhaustive():
    for lam in all_partitions_in_box(3, 4):
        subs = list(subpartitions(lam))
        assert len(subs) == len(set(subs))
        brute = {
            mu for mu in all_partitions_in_box(max(len(lam), 1), max(lam or (0,)))
            if contains(lam, mu)
        }
        assert set(subs) == brute


# ---------------------------------------------------------------------------
# text format (decoded where a partition enters: the config decoder)
# ---------------------------------------------------------------------------

def parse(text):
    return _decode_value("partition", text)


def test_partition_text_roundtrip():
    assert parse("[3,1]") == (3, 1)
    assert parse("[]") == ()
    assert parse(" [ 2 , 2 ] ") == (2, 2)
    assert parse("[2,1,0]") == (2, 1)


@settings(max_examples=50, deadline=None)
@given(partitions_strategy)
def test_partition_text_roundtrip_property(lam):
    text = "[" + ",".join(str(x) for x in lam) + "]"
    assert parse(text) == normalize(lam)


def test_partition_text_rejects_non_monotone():
    # Besides a non-monotone list, text that is not the JSON text of a list
    # of integers: strings, a digit separator, a sign, a leading zero, a
    # non-ASCII digit, a number, an object, nesting too deep for json.
    for text in ("[1,2]", '["3", "1"]', '["3,1"]', "[3_0]", "[+3]", "[03]", "[\u0663]",
                 "3", '{"a": 1}', "[" * 5000 + "]" * 5000):
        with pytest.raises(ConfigError, match="^bad partition: "):
            parse(text)
