from itertools import product, zip_longest

import pytest
from hypothesis import given, strategies as st

from hallkit.hall import hall_polynomial
from hallkit.partitions import (
    _normalised,
    conjugate,
    contains,
    fmt,
    is_horizontal_strip,
    json_record,
    json_typed,
    moment,
    parse,
    partition,
    partitions_of,
    read_int,
    row_length,
)

partitions = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_normalizes_trailing_zeros():
    assert partition((3, 2, 0, 0)) == (3, 2)
    assert partition(()) == ()


def test_partition_rejects_bad_input():
    # the messages and the order of the checks are pinned; a tuple, a
    # list and a generator of the same parts raise the same error, and an
    # error is never memoised, so a second call raises it again
    cases = [
        ((2, -1), "parts must be positive: (2, -1)"),
        ((3, -1), "parts must be positive: (3, -1)"),
        ((3, 0, 2), "parts must be positive: (3, 0, 2)"),
        ((1, 0, 1), "parts must be positive: (1, 0, 1)"),
        ((0, -1), "parts must be positive: (0, -1)"),
        ((1, 2), "parts must be weakly decreasing: (1, 2)"),
        ((2, 3), "parts must be weakly decreasing: (2, 3)"),
        ((0, -1, 0), "parts must be positive: (0, -1)"),
        (("a",), "invalid literal for int() with base 10: 'a'"),
    ]
    for parts, message in cases:
        for each in (parts, parts, list(parts), (x for x in parts)):
            with pytest.raises(ValueError) as info:
                partition(each)
            assert str(info.value) == message
    # a part that int() refuses, hashable or not, raises int()'s TypeError
    for parts in ((None,), ([1],), [None], [[1]]):
        for _ in range(2):
            with pytest.raises(TypeError, match="int\\(\\) argument must be"):
                partition(parts)


def test_partition_refuses_a_value_that_is_not_iterable():
    # a value that is no iterable at all, such as the int a caller passes
    # for a one-part partition, is a ValueError like any other bad input;
    # so is text, which would be read as its characters, '10' as (1,)
    for value in (3, 0, None, 2.5, "10", b"10", ""):
        with pytest.raises(ValueError, match=f"^parts must be an iterable of integers, not {type(value).__name__}$"):
            partition(value)
    with pytest.raises(ValueError, match="^parts must be an iterable of integers, not str$"):
        hall_polynomial("10", "10", "")


def test_partition_reads_a_tuple_once():
    for parts in [(), (3, 2, 0, 0), (4, 4, 1), ("2", 1.0, True, 0)]:
        want = partition(list(parts))
        assert partition(parts) == partition(x for x in parts) == want
        assert type(partition(parts)) is tuple
    partition((7, 5, 5, 3))
    hits = _normalised.cache_info().hits
    assert partition((7, 5, 5, 3)) == (7, 5, 5, 3)
    assert _normalised.cache_info().hits == hits + 1
    # lists, generators and tuples of over 64 parts are read afresh,
    # never looked up, so no entry of the memo holds more than 64 parts
    partition([7, 5, 5, 3])
    partition(x for x in (7, 5, 5, 3))
    info = _normalised.cache_info()
    assert info.hits == hits + 1
    for long in ((1,) * 65, (1,) + (0,) * 64):
        assert partition(long) == partition(long) == partition(list(long))
    assert partition((1,) * 64) == (1,) * 64
    assert sum(_normalised.cache_info()[:2]) == info.hits + info.misses + 1
    assert _normalised.cache_info().maxsize == 1 << 14


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


def test_read_int_accepts_ascii_digits_after_one_dash():
    cases = [("0", 0), ("42", 42), ("007", 7), ("-7", -7), ("-0", 0), ("  3 ", 3), (" -12", -12)]
    for text, value in cases:
        assert read_int(text) == value


@pytest.mark.parametrize(
    "text",
    ["", " ", "-", "--1", "- 1", "+2", "1_0", "1 0", "1.0", "0x1", "1e3", "\u0663", "\u00b2",
     "3\u2003", "\u00a03", "\t3", "3\n"],
)
def test_read_int_refuses_everything_else(text):
    with pytest.raises(ValueError) as info:
        read_int(text)
    assert str(info.value) == f"not an integer: {text!r}"


def test_parse_reads_each_part_by_read_int():
    assert parse(" 3 , 2 ,1 ") == (3, 2, 1)
    assert parse("   ") == ()
    for text, bad in [("1_0", "1_0"), ("+2,1", "+2"), ("\u0663", "\u0663"), ("3,\u2003", "\u2003")]:
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == f"not an integer: {bad!r}"
    # the domain check stays partition's own
    with pytest.raises(ValueError, match=r"^parts must be positive: \(2, -1\)$"):
        parse("2,-1")


def test_json_typed_and_json_record():
    assert json_typed([1, 2], list, int) == [1, 2]
    for value, kinds in [(True, (int,)), (2.0, (int,)), ("2", (int,)), ([1, 2.5], (list, int))]:
        with pytest.raises(TypeError):
            json_typed(value, *kinds)
    with pytest.raises(ValueError, match=r"^thing JSON lacks the field 'x'$"):
        with json_record("thing"):
            {}["x"]
    with pytest.raises(ValueError, match=r"^malformed thing JSON: expected int, got float$"):
        with json_record("thing"):
            json_typed(2.0, int)
    # a ValueError raised in the block passes through unchanged
    with pytest.raises(ValueError, match=r"^not an integer: '\+1'$"):
        with json_record("thing"):
            read_int("+1")


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


def test_contains_is_zero_padded_containment():
    # every pair of partitions of size <= 6, the empty one included, and
    # each again with trailing zeros, which pad and change nothing
    small = [lam for n in range(7) for lam in partitions_of(n)]
    assert () in small
    for lam, mu in product(small, repeat=2):
        want = all(a >= b for a, b in zip_longest(lam, mu, fillvalue=0))
        assert contains(lam, mu) == want, (lam, mu)
        assert contains(lam + (0, 0), mu) == contains(lam, mu + (0,)) == want, (lam, mu)


def test_partitions_of_counts():
    counts = [sum(1 for _ in partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
