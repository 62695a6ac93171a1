"""Binary words and the forbidden-run vertex families of the cube graphs.

A word b_1...b_n is packed into a single integer with b_1 as the most
significant of the n used bits, so ascending integer order matches the
left-to-right string order used everywhere in output.

Families:
  qn         all words (hypercube Q_n)
  fib        no 11 substring (Fibonacci strings)
  lucas      no 11 substring, and not both b_1 = b_n = 1 (Lucas strings)
  fib1s:s    no run of s consecutive ones
  lucas1s:s  no run of s consecutive ones in the cyclic order

Membership of one word is tested on its packed integer.  A whole family is
listed from a 2^n-bit integer over the word space, one bit per word: a
member has a clear bit in each forbidden window of positions, which is an
OR of per-coordinate masks, so no candidate is tested one by one.  The
masks take O(n · 2^n / 8) bytes, so the listing is held to the
enumeration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator

from .limits import check_cap

MAX_LENGTH = 62


@dataclass(frozen=True, order=True)
class BitWord:
    """A binary string of length 0..62, integer-packed (b_1 most significant)."""

    length: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.length <= MAX_LENGTH:
            raise ValueError(f"word length must be in 0..{MAX_LENGTH}, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bits 0b{self.bits:b} do not fit in {self.length} positions")

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        if text.strip("01"):
            raise ValueError(f"word must contain only 0/1 characters: {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b") if self.length else ""

    def bit(self, j: int) -> int:
        """Value of b_j, positions counted 1..n from the left."""
        if not 1 <= j <= self.length:
            raise ValueError(f"position {j} out of range 1..{self.length}")
        return (self.bits >> (self.length - j)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()


KIND_HYPERCUBE = "qn"
KIND_FIBONACCI = "fib"
KIND_LUCAS = "lucas"
KIND_GEN_FIBONACCI = "fib1s"
KIND_GEN_LUCAS = "lucas1s"

_PLAIN_KINDS = (KIND_HYPERCUBE, KIND_FIBONACCI, KIND_LUCAS)
_GEN_KINDS = (KIND_GEN_FIBONACCI, KIND_GEN_LUCAS)


@dataclass(frozen=True)
class Family:
    """A named vertex-membership predicate over words of any one length.

    The generalized kinds carry the run-length parameter s >= 1.  s = 1 is
    degenerate (only 0^n survives) but well defined by the same rule.
    """

    kind: str
    s: int | None = None

    def __post_init__(self):
        if self.kind in _PLAIN_KINDS:
            if self.s is not None:
                raise ValueError(f"family {self.kind!r} takes no run parameter")
        elif self.kind in _GEN_KINDS:
            if not isinstance(self.s, int) or self.s < 1:
                raise ValueError(f"family {self.kind!r} needs an integer run length s >= 1")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.s is None else f"{self.kind}:{self.s}"


HYPERCUBE = Family(KIND_HYPERCUBE)
FIBONACCI = Family(KIND_FIBONACCI)
LUCAS = Family(KIND_LUCAS)


def gen_fibonacci(s: int) -> Family:
    """Words with no run of s consecutive ones."""
    return Family(KIND_GEN_FIBONACCI, s)


def gen_lucas(s: int) -> Family:
    """Words with no cyclic run of s consecutive ones."""
    return Family(KIND_GEN_LUCAS, s)


def parse_family(text: str) -> Family:
    """Parse a family spec string: qn | fib | lucas | fib1s:<s> | lucas1s:<s>."""
    kind, sep, param = text.partition(":")
    if not sep:
        if kind in _PLAIN_KINDS:
            return Family(kind)
        raise ValueError(f"invalid family spec {text!r}")
    if kind in _GEN_KINDS:
        try:
            s = int(param)
        except ValueError:
            raise ValueError(f"invalid run length in family spec {text!r}") from None
        return Family(kind, s)
    raise ValueError(f"invalid family spec {text!r}")


# ---------------------------------------------------------------------------
# Run predicates on packed integers
# ---------------------------------------------------------------------------

def _has_run(bits: int, s: int) -> bool:
    # After k rounds of v &= v >> 1, bit i survives iff a run of k+1 ones
    # starts there, so s-1 rounds detect runs of length >= s.
    v = bits
    for _ in range(s - 1):
        v &= v >> 1
        if not v:
            return False
    return v != 0


def _has_cyclic_run(bits: int, n: int, s: int) -> bool:
    # A cyclic run of an n-word is a linear run of w||w; the first 2n-1
    # characters already contain every cyclic run once (see the
    # rotation-invariance test for the exhaustive cross-check).
    if s > n:
        return False
    return _has_run(((bits << n) | bits) >> 1, s)


def has_ones_run(w: BitWord, s: int) -> bool:
    """True iff 1^s occurs as a contiguous substring of the word."""
    if s < 1:
        raise ValueError(f"run length must be positive, got {s}")
    if s > w.length:
        return False
    return _has_run(w.bits, s)


def is_fibonacci(w: BitWord) -> bool:
    """True iff the word has no 11 substring."""
    return is_member(FIBONACCI, w)


def is_lucas(w: BitWord) -> bool:
    """True iff the word is Fibonacci and its first and last bits are not both 1."""
    return is_member(LUCAS, w)


def circulation(w: BitWord, i: int) -> BitWord:
    """The i-th circulation b_i...b_n b_1...b_{i-1} (a left rotation)."""
    if not 1 <= i <= w.length:
        raise ValueError(f"circulation index {i} out of range 1..{w.length}")
    n, r = w.length, i - 1
    rotated = ((w.bits << r) | (w.bits >> (n - r))) & ((1 << n) - 1)
    return BitWord(n, rotated)


def has_circular_ones_run(w: BitWord, s: int) -> bool:
    """True iff some circulation of the word contains 1^s as a substring."""
    if s < 1:
        raise ValueError(f"run length must be positive, got {s}")
    return _has_cyclic_run(w.bits, w.length, s)


def membership_test(family: Family, n: int) -> Callable[[int], bool]:
    """Packed-integer membership predicate for the family at length n."""
    kind, s = family.kind, family.s
    if kind == KIND_HYPERCUBE:
        return lambda bits: True
    if kind == KIND_FIBONACCI:
        return lambda bits: bits & (bits >> 1) == 0
    if kind == KIND_LUCAS:
        if n == 0:
            return lambda bits: True
        top = 1 << (n - 1)
        return lambda bits: bits & (bits >> 1) == 0 and not (bits & top and bits & 1)
    if kind == KIND_GEN_FIBONACCI:
        return lambda bits: not _has_run(bits, s)
    return lambda bits: not _has_cyclic_run(bits, n, s)


def is_member(family: Family, w: BitWord) -> bool:
    """Whether the word belongs to the family at its own length."""
    return membership_test(family, w.length)(w.bits)


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

def check_length(n: int):
    """Refuse a word length outside 0..MAX_LENGTH."""
    if not 0 <= n <= MAX_LENGTH:
        raise ValueError(f"length must be in 0..{MAX_LENGTH}, got {n}")


def coordinate_masks(n: int) -> list[int]:
    """The 2^n-bit masks over the word space of the words with one bit clear.

    Bit w of the b-th mask is set when the packed word w has bit b clear.
    Each mask is built by doubling its period-2^(b+1) pattern, in
    O(2^n / 64) word operations.
    """
    size = 1 << n
    low = []
    for b in range(n):
        clear, period = (1 << (1 << b)) - 1, 2 << b
        while period < size:
            clear |= clear << period
            period <<= 1
        low.append(clear)
    return low


# Maps the '0'/'1' characters of a binary numeral to the flag bytes 0/1.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def iter_family_bits(family: Family, n: int) -> Iterator[int]:
    """An iterator over the packed members of the family at length n, ascending.

    The members are found as one 2^n-bit integer over the word space, in
    which bit w stands for the word w.  A member has a clear bit in each
    forbidden window of consecutive (for the Lucas kinds, cyclically
    consecutive) positions, so the members are the AND over the windows of
    the OR of the window's coordinate masks.  The masks take
    O(n · 2^n / 8) bytes, so the bitmap is held to the enumeration cap,
    which is checked before it is built.
    """
    check_length(n)
    size = 1 << n
    check_cap("enum_cap", size, f"enumeration at n={n} of 2^{n} words")
    kind = family.kind
    if kind == KIND_HYPERCUBE:
        return iter(range(size))
    s = 2 if family.s is None else family.s
    if kind in (KIND_FIBONACCI, KIND_GEN_FIBONACCI):
        windows = [range(b, b + s) for b in range(n - s + 1)]
    elif s <= n or kind == KIND_LUCAS:
        # The Lucas rule on b_1 and b_n is the cyclic window (n-1, 0); at
        # n = 1 it is (0, 0), which leaves Lucas n=1 = {0}.
        windows = [[(b + j) % n for j in range(s)] for b in range(n)]
    else:
        windows = []
    low = coordinate_masks(n)
    members = (1 << size) - 1
    for window in windows:
        some_clear = 0
        for b in window:
            some_clear |= low[b]
        members &= some_clear
    flags = format(members, f"0{size}b").encode()[::-1].translate(_DIGIT_FLAGS)
    return compress(range(size), flags)


def enumerate_family(family: Family, n: int) -> list[BitWord]:
    """All members of the family at length n, ascending, duplicate-free."""
    return [BitWord(n, bits) for bits in iter_family_bits(family, n)]


def _nck(a: int, b: int) -> int:
    # Binomial with the counting convention used throughout: any index
    # outside 0 <= b <= a counts zero arrangements.
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def count_weight_level(family: Family, n: int, k: int, leading_one: bool = False) -> int:
    """Number of weight-k members of the family at length n.

    Closed forms cover the hypercube, Fibonacci, and Lucas kinds (with the
    leading_one flag restricting to words starting with 1); the generalized
    kinds are counted by enumeration.
    """
    check_length(n)
    if not 0 <= k <= n:
        raise ValueError(f"weight {k} out of range 0..{n}")
    kind = family.kind
    if kind == KIND_HYPERCUBE:
        return _nck(n - 1, k - 1) if leading_one else _nck(n, k)
    if kind == KIND_FIBONACCI:
        return _nck(n - k, k - 1) if leading_one else _nck(n - k + 1, k)
    if kind == KIND_LUCAS:
        if leading_one:
            return _nck(n - 1 - k, k - 1)
        return _nck(n - k, k) + _nck(n - k - 1, k - 1)
    count = 0
    top = 1 << (n - 1) if n else 0
    for bits in iter_family_bits(family, n):
        if bits.bit_count() == k and (not leading_one or bits & top):
            count += 1
    return count
