"""Word representation, family membership, enumeration, and counting."""

import math

import pytest

from cubecodes import (
    BitWord,
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    ResourceLimitError,
    circulation,
    count_weight_level,
    enumerate_family,
    gen_fibonacci,
    gen_lucas,
    has_circular_ones_run,
    has_ones_run,
    is_fibonacci,
    is_lucas,
    is_member,
    parse_family,
)
from cubecodes.words import Family

W = BitWord.from_string


def all_words(n):
    return [BitWord(n, b) for b in range(1 << n)]


# -- string-based oracles, independent of the packed-integer implementation --

def oracle_has_run(text, s):
    return "1" * s in text


def oracle_rotation(text, i):
    return text[i - 1:] + text[:i - 1]


def oracle_has_cyclic_run(text, s):
    return any(oracle_has_run(oracle_rotation(text, i), s) for i in range(1, len(text) + 1))


def test_roundtrip_string_exhaustive():
    for n in range(0, 9):
        for w in all_words(n):
            assert BitWord.from_string(str(w)) == w
            assert len(str(w)) == n


def test_word_validation():
    with pytest.raises(ValueError):
        BitWord(3, 8)
    with pytest.raises(ValueError):
        BitWord(-1, 0)
    with pytest.raises(ValueError):
        BitWord(63, 0)
    with pytest.raises(ValueError):
        BitWord.from_string("01x1")
    assert str(BitWord(0, 0)) == ""


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Family("qn", 3), "takes no run parameter"),
        (lambda: Family("nope"), "unknown family kind"),
        (lambda: has_circular_ones_run(W("101"), 0), "run length must be positive"),
    ],
    ids=["plain-kind-with-s", "unknown-kind", "zero-run"],
)
def test_malformed_family_input_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_bit_positions():
    w = W("10010")
    assert [w.bit(j) for j in range(1, 6)] == [1, 0, 0, 1, 0]
    with pytest.raises(ValueError):
        w.bit(0)
    with pytest.raises(ValueError):
        w.bit(6)


def test_has_ones_run_examples():
    assert has_ones_run(W("110"), 2) is True
    assert has_ones_run(W("0101"), 2) is False
    for n in range(1, 8):
        assert has_ones_run(BitWord(n, 0), 1) is False
    assert has_ones_run(W("111"), 4) is False  # s > n
    with pytest.raises(ValueError):
        has_ones_run(W("101"), 0)


def test_has_ones_run_against_oracle():
    for n in range(0, 9):
        for w in all_words(n):
            for s in range(1, n + 2):
                assert has_ones_run(w, s) == oracle_has_run(str(w), s)


def test_is_fibonacci_examples():
    assert is_fibonacci(W("0101"))
    assert not is_fibonacci(W("0110"))
    assert is_fibonacci(W("10010"))
    assert is_fibonacci(BitWord(0, 0))


def test_is_lucas_examples():
    assert is_lucas(W("1010"))
    assert not is_lucas(W("1001"))
    assert is_lucas(W("10100"))
    assert not is_lucas(W("1"))  # b_1 * b_1 = 1
    assert is_lucas(W("0"))
    assert is_lucas(BitWord(0, 0))


def test_is_lucas_equals_fibonacci_plus_ends():
    for n in range(0, 10):
        for w in all_words(n):
            expect = is_fibonacci(w) and not (n >= 1 and w.bit(1) == 1 and w.bit(n) == 1)
            assert is_lucas(w) == expect


def test_circulation_examples():
    assert circulation(W("0011"), 1) == W("0011")
    assert circulation(W("1101111"), 3) == W("0111111")
    assert circulation(W("100"), 2) == W("001")
    with pytest.raises(ValueError):
        circulation(W("100"), 0)
    with pytest.raises(ValueError):
        circulation(W("100"), 4)


def test_circulation_against_oracle():
    for n in range(1, 9):
        for w in all_words(n):
            for i in range(1, n + 1):
                assert str(circulation(w, i)) == oracle_rotation(str(w), i)


def test_circular_run_examples():
    assert has_circular_ones_run(W("1001"), 2) is True
    assert has_circular_ones_run(W("101010"), 2) is False
    assert has_circular_ones_run(W("1111110"), 6) is True
    assert has_circular_ones_run(W("1111111"), 7) is True
    assert has_circular_ones_run(W("1111111"), 8) is False  # s > n


def test_circular_run_is_or_over_circulations():
    for n in range(1, 11):
        for w in all_words(n):
            for s in range(1, n + 1):
                direct = has_circular_ones_run(w, s)
                via_rotations = any(
                    has_ones_run(circulation(w, i), s) for i in range(1, n + 1)
                )
                assert direct == via_rotations


def test_circular_run_rotation_invariant():
    for n in range(1, 9):
        for w in all_words(n):
            for s in range(1, n + 1):
                base = has_circular_ones_run(w, s)
                for i in range(1, n + 1):
                    assert has_circular_ones_run(circulation(w, i), s) == base


def test_membership_examples():
    assert is_member(LUCAS, W("10010"))
    assert not is_member(gen_lucas(7), W("1111111"))
    # cyclic run of length 6 inside 1111101: confirmed by scanning rotations
    assert oracle_has_cyclic_run("1111101", 6)
    assert not is_member(gen_lucas(6), W("1111101"))
    assert is_member(HYPERCUBE, W("1111111"))


def test_generalized_two_matches_plain_kinds():
    for n in range(0, 10):
        for w in all_words(n):
            assert is_member(gen_fibonacci(2), w) == is_fibonacci(w)
            # the cyclic and end-to-end conditions agree from length 2 up
            if n >= 2:
                assert is_member(gen_lucas(2), w) == is_lucas(w)
    # the single length where they differ: the one-letter word "1"
    assert is_member(gen_lucas(2), W("1")) and not is_lucas(W("1"))


def test_gen_lucas_monotone_in_run_length():
    for n in range(1, 9):
        for w in all_words(n):
            for s in range(1, n + 1):
                if is_member(gen_lucas(s), w):
                    assert is_member(gen_lucas(s + 1), w)


def test_family_validation_and_rendering():
    assert str(HYPERCUBE) == "qn"
    assert str(gen_fibonacci(3)) == "fib1s:3"
    assert str(gen_lucas(7)) == "lucas1s:7"
    for text in ("qn", "fib", "lucas", "fib1s:2", "lucas1s:11"):
        assert str(parse_family(text)) == text
    for bad in ("q", "lucas1s", "lucas1s:x", "fib1s:0", "lucas:3", ""):
        with pytest.raises(ValueError):
            parse_family(bad)
    with pytest.raises(ValueError):
        gen_lucas(0)


def test_enumerate_family_examples():
    lucas4 = [str(w) for w in enumerate_family(LUCAS, 4)]
    assert lucas4 == ["0000", "0001", "0010", "0100", "0101", "1000", "1010"]
    assert len(enumerate_family(LUCAS, 5)) == 11
    assert len(enumerate_family(HYPERCUBE, 3)) == 8
    assert enumerate_family(FIBONACCI, 0) == [BitWord(0, 0)]
    assert enumerate_family(LUCAS, 1) == [BitWord(1, 0)]


def test_enumerate_family_sorted_unique():
    for family in (HYPERCUBE, FIBONACCI, LUCAS, gen_fibonacci(3), gen_lucas(3)):
        for n in range(0, 9):
            out = enumerate_family(family, n)
            assert out == sorted(out)
            assert len(set(out)) == len(out)
            for w in out:
                assert is_member(family, w)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "512")
    with pytest.raises(ResourceLimitError) as err:
        enumerate_family(LUCAS, 10)
    assert "512" in str(err.value)


def test_lucas_decomposition():
    # Luc_n = {0s : s in Fib_{n-1}} + {10s0 : s in Fib_{n-3}}, valid for
    # n = 1 and n >= 3 (at n = 2 the word 10 escapes both parts).
    for n in [1] + list(range(3, 15)):
        fib_prev = {str(w) for w in enumerate_family(FIBONACCI, n - 1)}
        fib_inner = (
            {str(w) for w in enumerate_family(FIBONACCI, n - 3)} if n >= 3 else set()
        )
        left = {"0" + s for s in fib_prev}
        right = {"10" + s + "0" for s in fib_inner}
        assert left.isdisjoint(right)
        assert left | right == {str(w) for w in enumerate_family(LUCAS, n)}


def test_count_weight_level_examples():
    assert count_weight_level(LUCAS, 5, 2) == 5
    for n in range(6, 21):
        assert count_weight_level(LUCAS, n, 2) == n * (n - 3) // 2
        assert count_weight_level(LUCAS, n, 3) == n * (n - 4) * (n - 5) // 6
        assert count_weight_level(LUCAS, n, 2, leading_one=True) == n - 3
    for n in range(0, 15):
        assert count_weight_level(LUCAS, n, 0) == 1


def test_count_weight_level_matches_enumeration():
    families = (HYPERCUBE, FIBONACCI, LUCAS, gen_fibonacci(3), gen_lucas(4))
    for family in families:
        for n in range(0, 12):
            members = enumerate_family(family, n)
            for k in range(0, n + 1):
                expected = sum(1 for w in members if w.weight() == k)
                assert count_weight_level(family, n, k) == expected
                lead = sum(
                    1 for w in members if w.weight() == k and n >= 1 and w.bit(1) == 1
                )
                assert count_weight_level(family, n, k, leading_one=True) == lead


def test_count_weight_level_closed_forms():
    for n in range(0, 15):
        for k in range(0, n + 1):
            assert count_weight_level(HYPERCUBE, n, k) == math.comb(n, k)
            gamma = count_weight_level(FIBONACCI, n, k)
            if n - k + 1 >= k >= 0:
                assert gamma == math.comb(n - k + 1, k)
            else:
                assert gamma == 0


def test_count_weight_level_rejects_bad_weight():
    with pytest.raises(ValueError):
        count_weight_level(LUCAS, 5, 6)
    with pytest.raises(ValueError):
        count_weight_level(LUCAS, 5, -1)
