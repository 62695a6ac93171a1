"""Hamming codes of length 2^p - 1 and the coset constructions they carry.

The parity-check matrix H has p rows and n = 2^p - 1 columns, column j
being the p-bit binary representation of j.  A word is a codeword iff its
syndrome (the XOR of the indices of its one-positions) is zero, and the
nonzero syndrome of a non-codeword names the unique position to flip, so
decoding to the nearest codeword is one syndrome and one bit flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .limits import ResourceLimitError
from .words import BitWord, gen_lucas
from .graphs import InducedGraph, VertexSet, build_graph

# Codeword materialization is only offered up to this p; for p = 5 the
# code object still decodes and tests membership.
MATERIALIZE_MAX_P = 4

S_KIND_FULL = "n"
S_KIND_MINUS_1 = "n-1"
S_KIND_MINUS_2 = "n-2"
S_KINDS = (S_KIND_FULL, S_KIND_MINUS_1, S_KIND_MINUS_2)


@dataclass(frozen=True)
class HammingCode:
    """The Hamming code with parameter p, acting on words of length 2^p - 1."""

    p: int
    n: int = field(init=False)

    def __post_init__(self):
        if not 2 <= self.p <= 5:
            raise ValueError(f"p must be in 2..5, got {self.p}")
        object.__setattr__(self, "n", (1 << self.p) - 1)

    def size(self) -> int:
        return 1 << (self.n - self.p)

    def syndrome_bits(self, bits: int) -> int:
        """XOR of the positions (1-based from the left) holding a 1.

        Bit i of that XOR is the parity of the ones under row i of H.  The
        one at bit k of the packed n-bit word is at position n - k.
        """
        n = self.n
        syn = 0
        while bits:
            low = bits & -bits
            syn ^= n - (low.bit_length() - 1)
            bits ^= low
        return syn

    def _check_length(self, w: BitWord):
        if w.length != self.n:
            raise ValueError(f"word length {w.length} does not match code length {self.n}")

    def is_codeword(self, w: BitWord) -> bool:
        self._check_length(w)
        return self.syndrome_bits(w.bits) == 0

    def decode_bits(self, bits: int) -> int:
        """The packed codeword at Hamming distance <= 1 from a packed n-bit word."""
        syn = self.syndrome_bits(bits)
        return bits ^ (1 << (self.n - syn)) if syn else bits

    def decode(self, w: BitWord) -> BitWord:
        """The unique codeword at Hamming distance <= 1 from the word."""
        self._check_length(w)
        return BitWord(self.n, self.decode_bits(w.bits))

    def codeword_bits(self) -> list[int]:
        """All codewords as packed integers, ascending, in a fresh list."""
        if self.p > MATERIALIZE_MAX_P:
            raise ResourceLimitError(
                f"materializing 2^{self.n - self.p} codewords refused for p={self.p};"
                " membership and decoding remain available",
                "hamming_materialize_max_p",
                MATERIALIZE_MAX_P,
            )
        return list(_codeword_bits(self.p))

    def codewords(self) -> list[BitWord]:
        return [BitWord(self.n, bits) for bits in self.codeword_bits()]

    def translate(self, t: BitWord) -> list[BitWord]:
        """The coset {c + t}, ascending (still a perfect code of Q_n)."""
        self._check_length(t)
        return [BitWord(self.n, bits) for bits in sorted(c ^ t.bits for c in self.codeword_bits())]

    def min_distance(self) -> int:
        """Minimum pairwise distance; for a linear code, the minimum nonzero weight."""
        return min(bits.bit_count() for bits in self.codeword_bits() if bits)

    def parity_check_rows(self) -> list[int]:
        """Row masks of H, packed like words: row i covers positions j with bit i of j set."""
        rows = []
        for i in range(self.p):
            mask = 0
            for j in range(1, self.n + 1):
                if j >> i & 1:
                    mask |= 1 << (self.n - j)
            rows.append(mask)
        return rows


@cache
def _codeword_bits(p: int) -> tuple[int, ...]:
    """The codewords of the Hamming code with parameter p, packed, ascending.

    One generator row per data position j (not a power of two): a 1 at j
    and at the parity positions 2^i for the set bits i of j, so its
    syndrome is j ^ j = 0.  Each row alone holds its data position, so the
    2^(n-p) sums of rows are distinct: the whole code.  A Gray-code walk
    visits them by flipping one row per step.  Computed once per p.
    """
    n = (1 << p) - 1
    rows = []
    for j in range(1, n + 1):
        if j & (j - 1):
            row = 1 << (n - j)
            for i in range(p):
                if j >> i & 1:
                    row |= 1 << (n - (1 << i))
            rows.append(row)
    words = [0]
    word = 0
    for k in range(1, 1 << len(rows)):
        word ^= rows[(k & -k).bit_length() - 1]
        words.append(word)
    words.sort()
    return tuple(words)


def build_hamming(p: int) -> HammingCode:
    """Construct the Hamming code for p in 2..5 and assert its basic facts."""
    code = HammingCode(p)
    all_ones = (1 << code.n) - 1
    # Each position appears in 2^(p-1) columns of every row, an even count,
    # so the all-ones word is always a codeword; the coset construction
    # below silently depends on this.
    assert code.syndrome_bits(all_ones) == 0
    if p <= MATERIALIZE_MAX_P:
        assert len(code.codeword_bits()) == code.size()
    return code


def construct_gen_lucas_code(p: int, s_kind: str) -> VertexSet:
    """A perfect code in the circular-run graph named by s_kind.

    s_kind selects the forbidden cyclic run length s relative to n = 2^p - 1:
      "n"    the coset H + 0^{n-1}1 inside the graph missing only 1^n
      "n-1"  the Hamming code minus 1^n, in the graph missing N[1^n]
      "n-2"  the same punctured code, one graph further down
    The result is bound to the freshly built graph and is checked for
    membership along the way.
    """
    if s_kind not in S_KINDS:
        raise ValueError(f"s_kind must be one of {S_KINDS}, got {s_kind!r}")
    code = build_hamming(p)
    n = code.n
    s = {S_KIND_FULL: n, S_KIND_MINUS_1: n - 1, S_KIND_MINUS_2: n - 2}[s_kind]
    graph = build_graph(gen_lucas(s), n)
    all_ones = (1 << n) - 1
    if s_kind == S_KIND_FULL:
        members = [bits ^ 1 for bits in code.codeword_bits()]
    else:
        members = [bits for bits in code.codeword_bits() if bits != all_ones]
    mask = 0
    for bits in members:
        i = graph.index.get(bits)
        if i is None:
            raise AssertionError(
                f"constructed codeword {BitWord(n, bits)} fell outside the graph"
            )
        mask |= 1 << i
    return VertexSet(graph, mask)
