from hypothesis import given, strategies as st

from hallkit.partitions import (
    conjugate,
    contains,
    fmt,
    is_horizontal_strip,
    moment,
    parse,
    partition,
    partitions_of,
    row_length,
)

partitions = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_normalizes_trailing_zeros():
    assert partition((3, 2, 0, 0)) == (3, 2)
    assert partition(()) == ()


def test_partition_rejects_bad_input():
    import pytest

    # the messages and the order of the checks are pinned
    cases = [
        ((2, -1), "parts must be positive: (2, -1)"),
        ((3, -1), "parts must be positive: (3, -1)"),
        ((3, 0, 2), "parts must be positive: (3, 0, 2)"),
        ((1, 2), "parts must be weakly decreasing: (1, 2)"),
        ((0, -1, 0), "parts must be positive: (0, -1)"),
        (("a",), "invalid literal for int() with base 10: 'a'"),
    ]
    for parts, message in cases:
        with pytest.raises(ValueError) as info:
            partition(parts)
        assert str(info.value) == message


def test_conjugate_examples():
    assert conjugate((4, 3, 2)) == (3, 3, 2, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()


def test_moment_examples():
    assert moment((4, 3, 2)) == 7
    assert moment((1,)) == 0
    assert moment((3, 2, 1)) == 4


def test_horizontal_strip_examples():
    assert is_horizontal_strip((3, 2, 1), (2, 2, 1))
    assert not is_horizontal_strip((3, 1), (1, 1))
    assert is_horizontal_strip((2, 1), (2, 1))


def test_row_length_examples():
    assert row_length((4, 3, 2), 2) == 3
    assert row_length((4, 3, 2), 4) == 1
    assert row_length((4, 3, 2), 5) == 0


def test_text_roundtrip():
    assert parse("4,3,2") == (4, 3, 2)
    assert parse("") == ()
    assert fmt((4, 3, 2)) == "4,3,2"
    assert fmt(()) == ""


@given(partitions)
def test_conjugate_is_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(partitions)
def test_conjugate_preserves_size(lam):
    assert sum(lam) == sum(conjugate(lam))


def test_moment_matches_weighted_sum_formula():
    # classical identity: moment = sum (i-1) * lam_i, checked exhaustively
    for n in range(13):
        for lam in partitions_of(n):
            assert moment(lam) == sum(i * part for i, part in enumerate(lam))


@given(partitions, st.lists(st.integers(0, 1), max_size=6))
def test_horizontal_strip_box_count(lam, bits):
    mu = list(lam)
    removed = 0
    for i in range(len(mu) - 1, -1, -1):
        if i < len(bits) and bits[i]:
            mu[i] -= 1
            removed += 1
    try:
        mu_p = partition(mu)
    except ValueError:
        return
    assert is_horizontal_strip(lam, mu_p)
    grown = sum(1 for a, b in zip(lam, list(mu_p) + [0] * len(lam)) if a > b)
    assert sum(lam) - sum(mu_p) == grown == removed
    assert contains(lam, mu_p)


def test_partitions_of_counts():
    counts = [sum(1 for _ in partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
