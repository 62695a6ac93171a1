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

Each family is defined once, by its forbidden windows (_windows): sets of
positions that a member must not have all set.  A run of s ones, linear or
cyclic, is a window of s positions, and the Lucas rule on b_1 and b_n is
the window (n-1, 0).  One word is a member iff its packed integer has a
clear bit in every window mask.  A whole family is listed from a 2^n-bit
integer over the word space, one bit per word: the words with a clear bit
in a window are an OR of per-coordinate masks, so no candidate is tested
one by one.  The masks take O(n · 2^n / 8) bytes, so the listing is held
to the enumeration cap.
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
# Forbidden windows and membership
# ---------------------------------------------------------------------------

def _windows(family: Family, n: int) -> list[int]:
    """The forbidden windows of the family at length n, as masks of packed bit positions.

    A word is a member iff it has a clear bit in every window, that is
    bits & m != m for each mask m.  A window is s consecutive positions, or
    for the Lucas kinds s cyclically consecutive ones, with s = 2 for fib
    and lucas.  The positions are OR-ed into the mask, so the Lucas window
    (n-1, 0), which is the rule on b_1 and b_n, is (0, 0) at n = 1 and
    leaves Lucas n=1 = {0}.  lucas1s:s with s > n has no window.
    """
    kind = family.kind
    if kind == KIND_HYPERCUBE:
        return []
    s = 2 if family.s is None else family.s
    run = (1 << s) - 1
    if kind in (KIND_FIBONACCI, KIND_GEN_FIBONACCI):
        return [run << b for b in range(n - s + 1)]
    if s > n and kind == KIND_GEN_LUCAS:
        return []
    # The positions of run << b past n - 1 fold back down to 0, 1, ...
    full = (1 << n) - 1
    return [(run << b | run << b >> n) & full for b in range(n)]


def membership_test(family: Family, n: int) -> Callable[[int], bool]:
    """Packed-integer membership predicate for the family at length n."""
    windows = _windows(family, n)
    return lambda bits: all([bits & m != m for m in windows])


def is_member(family: Family, w: BitWord) -> bool:
    """Whether the word belongs to the family at its own length."""
    return membership_test(family, w.length)(w.bits)


def has_ones_run(w: BitWord, s: int) -> bool:
    """True iff 1^s occurs as a contiguous substring of the word."""
    if s < 1:
        raise ValueError(f"run length must be positive, got {s}")
    return not is_member(gen_fibonacci(s), w)


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
    return not is_member(gen_lucas(s), w)


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


# The '0'/'1' characters of a binary numeral and the flag bytes 0/1, each way.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def flags_of_bitmap(bitmap: int) -> bytes:
    """Byte i is 1 when bit i is set: the binary numeral, low bit first, up to the top set bit."""
    return bin(bitmap)[:1:-1].encode().translate(_DIGIT_FLAGS)


def bitmap_of_flags(flags: bytes | bytearray) -> int:
    """Bit i is set when byte i is 1, 0 for no bytes; read as a binary numeral, which is
    faster than setting the bits of an int one by one or packing them into bytes."""
    return int(flags.translate(_FLAG_DIGITS)[::-1] or b"0", 2)


def family_bitmap(family: Family, n: int) -> int:
    """The members of the family at length n as one 2^n-bit integer over the word space.

    Bit w is set when the packed word w is a member.  A member has a clear
    bit in each window of _windows, so the members are the AND over the
    windows of the OR of the window's coordinate masks; a family with no
    window is every word.  The masks take O(n · 2^n / 8) bytes, so the
    bitmap is held to the enumeration cap, which is checked before it is
    built.
    """
    check_length(n)
    size = 1 << n
    check_cap("enum_cap", size, f"enumeration at n={n} of 2^{n} words")
    windows = _windows(family, n)
    members = (1 << size) - 1
    if not windows:
        return members
    low = coordinate_masks(n)
    for window in windows:
        some_clear = 0
        for b in range(n):
            if window >> b & 1:
                some_clear |= low[b]
        members &= some_clear
    return members


def iter_family_bits(family: Family, n: int) -> Iterator[int]:
    """An iterator over the packed members of the family at length n, ascending.

    The members are read off family_bitmap, which is built, and held to the
    enumeration cap, when this is called.
    """
    members = family_bitmap(family, n)
    return compress(range(1 << n), flags_of_bitmap(members))


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
