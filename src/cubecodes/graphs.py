"""Induced subgraphs of the hypercube: neighborhoods, distances, exports.

Vertices are family members at a fixed length, stored ascending; the dense
vertex id of a word is its rank in that order, which is stable across runs.
Vertex sets are bitmaps over dense ids, packed into a single integer.
Neighbors are probed on demand: the n one-bit flips of a word are looked up
in the word index, which is built at the first probe, and nothing is stored
per vertex.  closed_mask ORs the ids the index finds straight into N[i]'s
bitmap, with no neighbor_ids list or sort; level_degree_profile filters each
weight level's words once and counts a vertex's flips among the target
level's words with a set intersection, with no index probe.  Questions
about the whole graph are answered without probing, on 2^n-bit bitmaps
over the word space: bit w is set when the packed word w is in the set.
Flipping coordinate b of every word in such a bitmap is one shift pair
under a coordinate mask, O(2^n / 64) word operations.  Connectivity floods
the vertex bitmap with these flips, in O(sweeps · n · 2^n / 64) word
operations, where the sweep count is at most the diameter + 1; cover_bitmaps
sums the closed neighborhoods of a set of words in O(n · 2^n / 64), which
decides the perfect-code predicates of codes.py.  A family's graph is listed
from the family's word bitmap, which it keeps as its vertex bitmap; a graph
built from a list of words builds that bitmap once, at its first use.  Every
bitmap is held to the enumeration cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice
from operator import lt
from typing import Callable, Collection, Iterator

from .limits import check_cap
from .words import (
    BitWord,
    Family,
    bitmap_of_flags,
    check_length,
    coordinate_masks,
    family_bitmap,
    flags_of_bitmap,
    membership_test,
)


def hamming_distance(x: BitWord, y: BitWord) -> int:
    """Number of positions in which two equal-length words differ."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    return (x.bits ^ y.bits).bit_count()


def _check_bitmap_cap(n: int) -> None:
    check_cap("enum_cap", 1 << n, f"the word bitmap at n={n} of 2^{n} bits")


def word_bitmap(n: int, words: Collection[int]) -> int:
    """The 2^n-bit bitmap over the word space of packed n-bit words.

    Held to the enumeration cap, as the family bitmap of build_graph is; a
    word outside 0..2^n - 1 is refused with a ValueError that names it.
    """
    _check_bitmap_cap(n)
    if words:
        low, high = min(words), max(words)
        if low < 0 or high >> n:
            raise ValueError(f"word {low if low < 0 else high} does not fit in {n} bits")
    flags = bytearray(1 << n)
    for bits in words:
        flags[bits] = 1
    return bitmap_of_flags(flags)


def _flipped(words: int, b: int, clear: int) -> int:
    """The word bitmap with coordinate b of every word flipped.

    clear is coordinate_masks(n)[b]: a shift up by 2^b sets bit b of the
    words where it is clear, and a shift down clears it where it is set.
    """
    step = 1 << b
    return ((words & clear) << step) | ((words >> step) & clear)


# Byte i of id_mask's flag sum, 2 or 3, as the binary digit of the vertex's id bit.
_ID_DIGITS = bytes.maketrans(b"\2\3", b"01")


class InducedGraph:
    """The subgraph of Q_n induced by a fixed set of words.

    Immutable after construction; adjacency is exactly the single-bit-flip
    relation restricted to the vertex set.  The constructor takes a strictly
    ascending list of words, which it checks and copies; build_graph lists
    a family's members from its word bitmap instead, through from_bitmap.
    The word index, from vertex word to id, is built at the first probe
    (neighbor_ids, id_of, membership of a word in a VertexSet, the search's
    symmetry group, export) and kept.
    """

    def __init__(self, n: int, vertices: list[int], family: Family | None = None):
        check_length(n)
        vertices = list(vertices)
        if not all(map(lt, vertices, islice(vertices, 1, None))):
            raise ValueError("vertices must be strictly ascending")
        # Ascending, so the two ends bound every word.
        if vertices and not (vertices[0] >= 0 and vertices[-1] < 1 << n):
            raise ValueError(f"vertex words must fit in {n} bits")
        self._init(n, vertices, None, family)

    @classmethod
    def from_bitmap(cls, n: int, words: int, family: Family | None = None) -> "InducedGraph":
        """The graph on the words of a word bitmap, which it keeps as its vertex bitmap.

        The vertices are read off the bitmap, ascending by construction.  The
        bitmap is held to the enumeration cap and must lie in the 2^n words.
        """
        check_length(n)
        _check_bitmap_cap(n)
        if words < 0 or words >> (1 << n):
            raise ValueError(f"word bitmap has bits past the 2^{n} words")
        graph = cls.__new__(cls)
        graph._init(n, list(compress(range(1 << n), flags_of_bitmap(words))), words, family)
        return graph

    def _init(self, n: int, vertices: list[int], vertex_bitmap: int | None, family: Family | None):
        self.n = n
        self.family = family
        self.vertices = vertices
        self._vertex_bitmap = vertex_bitmap
        # The XOR masks of the n one-bit flips.
        self._flips = [1 << b for b in range(n)]

    @cached_property
    def index(self) -> dict[int, int]:
        """The id of each vertex word, built at the first probe and kept."""
        return dict(zip(self.vertices, count()))

    def __len__(self) -> int:
        return len(self.vertices)

    def id_mask(self, words: int) -> int:
        """The id bitmap of the vertices among the words of a word bitmap.

        Words that are not vertices are dropped.  Vertex i is the i-th set
        bit of the vertex bitmap, so the word bitmap's flags are compressed
        by the vertex bitmap's, with no index probe: twice the vertex flags
        plus the flags of the words that are vertices is 2 or 3 at a vertex
        and 0 elsewhere, with no carry between bytes, and translate deletes
        the 0s and reads 2 and 3 as the digits 0 and 1.
        """
        vertex_words = self.vertex_bitmap()
        vertex_flags = flags_of_bitmap(vertex_words)
        both = int.from_bytes(vertex_flags, "little") * 2 + int.from_bytes(
            flags_of_bitmap(words & vertex_words), "little"
        )
        digits = both.to_bytes(len(vertex_flags), "little").translate(_ID_DIGITS, b"\0")
        return int(digits[::-1] or b"0", 2)

    def word(self, i: int) -> BitWord:
        return BitWord(self.n, self.vertices[i])

    def words(self) -> list[BitWord]:
        return [BitWord(self.n, bits) for bits in self.vertices]

    def id_of(self, w: BitWord) -> int:
        """Dense id of a vertex; rejects words outside the graph."""
        if w.length != self.n:
            raise ValueError(f"word length {w.length} does not match graph length {self.n}")
        i = self.index.get(w.bits)
        if i is None:
            raise ValueError(f"word {w} is not a vertex of this graph")
        return i

    def neighbor_ids(self, i: int) -> list[int]:
        """Ascending ids of the one-bit flips of vertex i that are vertices."""
        bits = self.vertices[i]
        index = self.index
        found = []
        for f in self._flips:
            j = index.get(bits ^ f)
            if j is not None:
                found.append(j)
        found.sort()
        return found

    def closed_mask(self, i: int) -> int:
        """Bitmap of N[i]: the vertex and its neighbors.

        The ids of the vertex's one-bit flips that are vertices are ORed in
        as the index finds them, with no neighbor list.
        """
        bits = self.vertices[i]
        index = self.index
        mask = 1 << i
        for f in self._flips:
            j = index.get(bits ^ f)
            if j is not None:
                mask |= 1 << j
        return mask

    def degree(self, i: int) -> int:
        return len(self.neighbor_ids(i))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as id pairs (i, j) with i < j, in ascending order."""
        for i in range(len(self.vertices)):
            for j in self.neighbor_ids(i):
                if i < j:
                    yield (i, j)

    def edge_count(self) -> int:
        return sum(len(self.neighbor_ids(i)) for i in range(len(self.vertices))) // 2

    def graph_distance(self, u: BitWord, v: BitWord) -> int | None:
        """BFS distance between two vertices; None when unreachable."""
        src, dst = self.id_of(u), self.id_of(v)
        if src == dst:
            return 0
        dist = {src: 0}
        queue = deque([src])
        while queue:
            i = queue.popleft()
            d = dist[i] + 1
            for j in self.neighbor_ids(i):
                if j not in dist:
                    if j == dst:
                        return d
                    dist[j] = d
                    queue.append(j)
        return None

    def vertex_bitmap(self) -> int:
        """The vertex words as a word bitmap, kept from from_bitmap or built on the first call.

        Every call is held to the enumeration cap, so a graph over it raises
        the ResourceLimitError that names enum_cap.
        """
        _check_bitmap_cap(self.n)
        if self._vertex_bitmap is None:
            self._vertex_bitmap = word_bitmap(self.n, self.vertices)
        return self._vertex_bitmap

    def cover_bitmaps(self, words: int) -> tuple[int, int]:
        """The vertex words that N[words] covers at least once and at least twice.

        words is a word bitmap, and N[w] is w with its n one-bit flips, so
        words and its n flips are summed into saturating once/twice bitmaps,
        both kept to the vertex words: O(n · 2^n / 64) word operations,
        held to the enumeration cap.
        """
        vertex_words = self.vertex_bitmap()
        once, twice = words, 0
        for b, clear in enumerate(coordinate_masks(self.n)):
            term = _flipped(words, b, clear)
            twice |= once & term
            once |= term
        return once & vertex_words, twice & vertex_words

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0.

        The reached words are a bitmap over the word space, so no vertex is
        probed: each coordinate's flips are added and kept to the vertex
        words.  Whole sweeps over b = 0..n-1 repeat until one adds nothing,
        at O(n · 2^n / 64) word operations each.  Each sweep extends the
        reached set by at least one BFS layer, so there are at most
        diameter + 1 sweeps; a family closed under clearing a bit is
        reached from 0^n in one sweep, which sets each member's bits in
        ascending order, and confirmed by a second.  The bitmap is held to
        the enumeration cap.
        """
        if not self.vertices:
            return True
        words = self.vertex_bitmap()
        low = coordinate_masks(self.n)
        reached = 1 << self.vertices[0]
        while True:
            before = reached
            for b, clear in enumerate(low):
                reached |= _flipped(reached, b, clear) & words
            if reached == before:
                return reached == words

    def level_degree_profile(
        self,
        k_from: int,
        k_to: int,
        restrict: Callable[[BitWord], bool] | None = None,
    ) -> list[int]:
        """Per-vertex counts of weight-k_to neighbors, over weight-k_from vertices.

        The levels must be adjacent.  An optional restriction predicate
        filters both the profiled vertices and the neighbors counted.  Each
        level's words are filtered once, the predicate called on level words
        only, and a vertex's count is how many of its n one-bit flips are
        among the target level's words.
        """
        if abs(k_from - k_to) != 1:
            raise ValueError(f"levels must be adjacent, got {k_from} and {k_to}")
        if not (0 <= k_from <= self.n and 0 <= k_to <= self.n):
            raise ValueError(f"levels must lie in 0..{self.n}")

        def level(k: int) -> list[int]:
            words = [bits for bits in self.vertices if bits.bit_count() == k]
            if restrict is None:
                return words
            return [bits for bits in words if restrict(BitWord(self.n, bits))]

        targets = set(level(k_to))
        flips = self._flips
        return [len(targets.intersection([bits ^ f for f in flips])) for bits in level(k_from)]

    # -- export ------------------------------------------------------------

    def to_json_dict(self, code: "VertexSet | None" = None) -> dict:
        """JSON-ready adjacency dump with stable key and element order."""
        out = {
            "n": self.n,
            "family": str(self.family) if self.family is not None else None,
            "vertices": [str(w) for w in self.words()],
            "edges": [[i, j] for i, j in self.edges()],
        }
        if code is not None:
            self._check_same_graph(code)
            out["code"] = sorted(code.ids())
        return out

    def to_dot(self, code: "VertexSet | None" = None) -> str:
        """DOT text: every vertex declared, one line per edge, byte-stable."""
        if code is not None:
            self._check_same_graph(code)
        name = str(self.family) if self.family is not None else "induced"
        lines = [f'graph "{name} n={self.n}" {{']
        for i, w in enumerate(self.words()):
            mark = " [style=filled]" if code is not None and code.mask >> i & 1 else ""
            lines.append(f'  "{w}"{mark};')
        for i, j in self.edges():
            lines.append(f'  "{self.word(i)}" -- "{self.word(j)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _check_same_graph(self, vs: "VertexSet"):
        if vs.graph is not self:
            raise ValueError("vertex set belongs to a different graph")


@dataclass(frozen=True)
class VertexSet:
    """A set of vertices of one graph, as a bitmap over dense ids."""

    graph: InducedGraph
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> len(self.graph):
            raise ValueError("bitmap contains ids outside the graph")

    @classmethod
    def from_words(cls, graph: InducedGraph, words) -> "VertexSet":
        mask = 0
        for w in words:
            mask |= 1 << graph.id_of(w)
        return cls(graph, mask)

    @classmethod
    def from_ids(cls, graph: InducedGraph, ids) -> "VertexSet":
        mask = 0
        for i in ids:
            if not 0 <= i < len(graph):
                raise ValueError(f"vertex id {i} out of range")
            mask |= 1 << i
        return cls(graph, mask)

    @classmethod
    def from_family(cls, graph: InducedGraph, family: Family) -> "VertexSet":
        """The vertices of the graph that are members of the family at the graph's length."""
        return cls(graph, bitmap_of_flags(bytes(map(membership_test(family, graph.n), graph.vertices))))

    def ids(self) -> list[int]:
        """Member ids, ascending."""
        return list(compress(count(), flags_of_bitmap(self.mask)))

    def word_bits(self) -> list[int]:
        """Member words, packed, ascending."""
        return list(compress(self.graph.vertices, flags_of_bitmap(self.mask)))

    def words(self) -> list[BitWord]:
        return [BitWord(self.graph.n, bits) for bits in self.word_bits()]

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, w) -> bool:
        if isinstance(w, BitWord):
            i = self.graph.index.get(w.bits) if w.length == self.graph.n else None
            return i is not None and bool(self.mask >> i & 1)
        return 0 <= w < len(self.graph) and bool(self.mask >> w & 1)


def build_graph(family: Family, n: int) -> InducedGraph:
    """Materialize the subgraph of Q_n induced by the family's members.

    The members are the family's word bitmap, held to the enumeration cap
    before it is built.  A family with more members, by the bitmap's
    popcount, than the graph cap is refused before any vertex is listed.
    Either rejection names the cap that was hit.
    """
    members = family_bitmap(family, n)
    check_cap("graph_cap", members.bit_count(), f"the {family} graph at n={n}")
    return InducedGraph.from_bitmap(n, members, family)


def closed_neighborhood(graph: InducedGraph, v: BitWord) -> VertexSet:
    """N[v]: the vertex together with its neighbors in the graph."""
    return VertexSet(graph, graph.closed_mask(graph.id_of(v)))
