"""Perfect-code predicates and an exact-cover search over induced graphs.

A perfect code is a vertex set whose closed neighborhoods partition the
vertex set.  Deciding or enumerating perfect codes is an exact-cover
problem: the universe is V(G) and the candidate blocks are the closed
neighborhoods N[v].  The search below is backtracking with the
minimum-remaining-values rule, run as one loop over an explicit stack of
branch points, so its depth is not bounded by Python's recursion limit.
At each node an uncovered vertex with no usable covering block is a dead
end, the lowest-id one with a single block is a forced move, and otherwise
the search branches on the uncovered vertex with the fewest usable blocks
(ties to the lowest id), trying them in candidate order.

The cover state has two representations, picked from the vertex count,
which differ in how soon they see a dead end.  Below COUNTED_MIN_VERTICES,
uncovered vertices and usable blocks are bitmaps, and each node re-counts
candidates by popcount in id order up to the first vertex with at most one
usable block; a vertex left with none at a higher id is found only after
the forced moves below it.  From COUNTED_MIN_VERTICES up, every vertex's
count of the blocks that cover it and are available or chosen is also
kept, as a few bit planes over the ids, so an uncovered vertex counts its
usable blocks and a covered one exactly 1, which is never read.  A move
sums the masks of the blocks it drops, less its own, into planes (walking
the ids from the top, the three low planes held in locals) and subtracts
them with one ripple borrow, a node reads the least count by narrowing the
uncovered bitmap plane by plane, and it is a dead end as soon as a count
reaches 0.  These hot bit operations take only non-negative operands,
a ^ (a & b) for a & ~b and the top id by bit_length for the lowest by
x & -x, because CPython's &, | and ^ copy and complement a negative
operand before they work on it.  The node keeps the vertices
of least count it narrowed to, and a move that leaves one of them
uncovered with no usable block skips the count update: it marks the state
dead, and the node below ends as a dead end.  Below such a vertex the
bitmap state makes only forced moves, with no branch point and no
solution, so both give the same branch points, counts and witnesses, and
the counted state searches fewer nodes.

The search skips subtrees that a symmetry maps onto a sibling already
searched, and enumerate counts each subtree it keeps once for every one it
stands for.  G is the group generated by the rotation of the n coordinates
and their reversal, each kept only if it maps the vertex set and the set
of allowed blocks onto themselves; it is built once per search, checking
each generator in O(V), and a generator that fails is dropped.  Each
element is held as a list of vertex ids, the id of each vertex's image, so
the search below the group build works on ids alone.  A coordinate
permutation moves no Hamming distance, so every element of G is an
automorphism of the graph that maps allowed blocks to allowed blocks.  For
lucas, lucas1s:s, and qn (also with the codewords held to a rotation- and
reversal-invariant set, such as the members of lucas1s:s) G is the
dihedral group of order 2n; for fib and fib1s:s (s < n), whose runs are
linear, the reversal alone.  At each branch point H is the stabilizer in G
of the chosen blocks: the elements that map all of them onto themselves.
If g in H maps candidate c to a later candidate c', then g maps the codes
that contain the chosen blocks and c one-to-one onto those that contain
them and c', so the subtree of c' holds as many codes as that of c; in
first and prove_none mode the search went through c's subtree without
finding one, or it would have stopped.  So a branch point tries only the
first candidate of each H-orbit, in candidate order.  Each node carries a
weight, 1 at the root: a kept candidate c gets its branch point's weight
times |H.c & candidates|, the number of candidates its orbit holds, and a
code found counts its weight.  The candidates all cover the vertex decided
on, so no code contains two of them, and the weighted count is the count
of the plain tree (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998).  This only removes subtrees: the MRV choices, the
candidate order, statuses, counts and first-mode witnesses, seeded or not,
are those of the plain tree, and nodes, which counts the pruned tree, can
only fall.  By induction over the skipped siblings every code is the
G-image of a code the pruned tree reaches, so an enumeration that lists
its codes expands those over G.

The search core, _cover, runs a whole search on id bitmaps and reads no
graph: given the block masks, the allowed ids and the group as id
permutations, it picks the cover state, ends with a final status and
expands a listing under the group.  Its graph adapter search_constrained
runs every search in the calling process: it checks the budgets and the
engine cap and builds the masks from graph.closed_mask, the group with
_symmetry_group, the one step that reads words, and the seeded order.
_cover reads COUNTED_MIN_VERTICES and search_constrained _symmetry_group
when called, so tests patch these module names to force a cover state or
the plain tree, also on relations no graph gives.

For even n, search_constrained also bans, before the search, every block
that overlaps N[v] for a vertex v of full degree, bar v's own, and every
block if two such vertices lie within distance 2 or one is not allowed.
Such a v, all n of whose one-bit flips are vertices, lies in every perfect
code, by the parity argument in _ban_by_parity.  For odd n nothing is
banned, and the search tree is as it was.

Verdicts are three-valued: a search that hits its node or time budget
reports budget-exceeded and never masquerades as an exhaustion proof.
Both budgets are tested at every node, so a time budget stops the search
within one node of its deadline.
"""

from __future__ import annotations

import array
import random
import time
from dataclasses import dataclass
from itertools import compress

from .limits import ResourceLimitError, check_cap, default_node_budget, default_time_budget
from .graphs import InducedGraph, VertexSet, word_bitmap
from .words import flags_of_bitmap

MODE_FIRST = "first"
MODE_PROVE_NONE = "prove_none"
MODE_ENUMERATE = "enumerate"

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"
STATUS_ENUMERATED = "enumerated"
STATUS_BUDGET = "budget-exceeded"


def _as_code(graph: InducedGraph, code) -> VertexSet:
    if isinstance(code, VertexSet):
        if code.graph is not graph:
            raise ValueError("code belongs to a different graph")
        return code
    return VertexSet.from_words(graph, code)


def _covers(graph: InducedGraph, code) -> tuple[int, int]:
    """Word bitmaps of the vertices the members' closed neighborhoods cover at least once and twice."""
    return graph.cover_bitmaps(word_bitmap(graph.n, _as_code(graph, code).word_bits()))


def is_code(graph: InducedGraph, code) -> bool:
    """True iff the members' closed neighborhoods are pairwise disjoint.

    That is, no vertex is covered twice.  Decided on word bitmaps in
    O(n · 2^n / 64) word operations; a graph whose 2^n words exceed the
    enumeration cap raises ResourceLimitError.
    """
    return not _covers(graph, code)[1]


def is_dominating(graph: InducedGraph, code) -> bool:
    """True iff every vertex lies in some member's closed neighborhood.

    That is, every vertex is covered at least once.  Decided on word
    bitmaps in O(n · 2^n / 64) word operations; a graph whose 2^n words
    exceed the enumeration cap raises ResourceLimitError.
    """
    return _covers(graph, code)[0] == graph.vertex_bitmap()


def is_perfect_code(graph: InducedGraph, code) -> bool:
    """True iff the closed neighborhoods of the members partition V(G).

    That is, every vertex is covered exactly once.  Decided on word
    bitmaps in O(n · 2^n / 64) word operations; a graph whose 2^n words
    exceed the enumeration cap raises ResourceLimitError.
    """
    once, twice = _covers(graph, code)
    return once == graph.vertex_bitmap() and not twice


@dataclass
class SearchOutcome:
    """Result of a perfect-code search.

    status is one of found, exhausted, enumerated, budget-exceeded;
    exhausted is only ever reported after a provably complete search.
    """

    status: str
    witness: VertexSet | None = None
    count: int | None = None
    witnesses: list[VertexSet] | None = None
    nodes: int = 0
    millis: int = 0
    seed: int = 0

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            n = self.witness.graph.n
            out["witness"] = [format(bits, f"0{n}b") if n else "" for bits in self.witness.word_bits()]
        if self.count is not None:
            out["count"] = self.count
        out["nodes"] = self.nodes
        out["millis"] = self.millis
        out["seed"] = self.seed
        return out


# From this vertex count up, the search keeps per-vertex candidate counts up
# to date instead of re-counting them by popcount at every node.  Below it
# the scan finds a forced vertex within a few popcounts, and the per-move
# bookkeeping costs more than it saves.  Counted / bitmap time of a full
# find_perfect_code enumerate call on the default tree (pruned by symmetry,
# parity bans at even n), set-up included; min of 9 and of 15 interleaved
# in-process runs, which agreed within 0.1, busy 2-CPU host, Python 3.11:
#
#   vertices  graph                                   nodes        counted / bitmap
#   76-89     Lucas n=9, Fibonacci n=9                27, 66       1.04-1.06, 0.82-0.83
#   99-128    the n=7 graphs: Q7, lucas1s:4..7,       158-1535     0.99-2.79
#             fib1s:5..7
#   123-322   Lucas n=10, 12, Fibonacci n=10, Q8,     1-25         0.85-1.04
#             lucas1s:3..7 n=8, fib1s:3..7 n=8
#   199-233   Lucas n=11, Fibonacci n=11              315, 414     0.51-0.63
#
# nodes is the bitmap state's count.  Every even-n graph above is decided
# by the parity bans in at most 25 nodes, so set-up dominates there and the
# state hardly matters.  Of the graphs that branch, the n=7 ones, which
# branch more and prune less, lose in the counted state (lucas1s:4 breaks
# even), Lucas n=9 breaks even, Fibonacci n=9 gains, and the two above 128
# vertices (Q7's count) gain.
COUNTED_MIN_VERTICES = 129


class _Blocks:
    """The blocks of an exact cover over ids 0..len(masks) - 1, as bitmaps over the ids.

    masks[v] is the block of id v.  The relation must be symmetric and
    reflexive: u is in masks[v] iff v is in masks[u], and v is in masks[v].
    So the blocks that cover u are the ids of masks[u], and the blocks that
    overlap masks[v] are the ids in the masks of its members.  The closed
    neighborhoods N[v] of a graph are such blocks.
    """

    def __init__(self, masks: list[int]):
        self.masks = masks
        self._ball2: dict[int, int] = {}

    def conflicts(self, v: int) -> int:
        """Vertices whose block overlaps N[v] (the radius-2 ball around v)."""
        m = self._ball2.get(v)
        if m is None:
            m = 0
            mm = self.masks[v]
            while mm:
                top = mm.bit_length() - 1
                m |= self.masks[top]
                mm ^= 1 << top
            self._ball2[v] = m
        return m


class _BitmapCover:
    """Cover state as two bitmaps; candidate counts are re-counted at every node."""

    __slots__ = ("blocks", "uncovered", "available")

    def __init__(self, blocks: _Blocks, uncovered: int, available: int):
        self.blocks = blocks
        self.uncovered = uncovered
        self.available = available

    def copy(self) -> _BitmapCover:
        return _BitmapCover(self.blocks, self.uncovered, self.available)

    def select(self) -> int:
        """Usable blocks covering the vertex the search decides on next.

        The blocks of the uncovered vertices are read in id order by a
        compress over the uncovered bitmap's flags, up to the first with at
        most one usable block.
        """
        available = self.available
        best_count = None
        best_cands = 0
        for mask in compress(self.blocks.masks, flags_of_bitmap(self.uncovered)):
            cands = mask & available
            c = cands.bit_count()
            if c <= 1:
                return cands
            if best_count is None or c < best_count:
                best_count = c
                best_cands = cands
        return best_cands

    def take(self, v: int):
        """Choose block v: cover N[v] and drop every block that overlaps it."""
        self.uncovered ^= self.blocks.masks[v]
        self.available ^= self.blocks.conflicts(v) & self.available


def _sum_blocks(masks: list[int], ids: int) -> list[int]:
    """Bit planes of how many of the blocks in the id bitmap ids cover each vertex.

    Plane i holds bit i of every vertex's count; each block is added with a
    ripple carry, and there are just enough planes for the largest count.
    The ids are walked from the top down, each cleared with
    1 << (ids.bit_length() - 1), so no negative temporary is made; a sum
    does not depend on the order.  The three low planes are held in locals,
    and a carry past the third ripples on through a list of the higher ones.
    """
    p0 = p1 = p2 = 0
    high: list[int] = []
    while ids:
        top = ids.bit_length() - 1
        ids ^= 1 << top
        mask = masks[top]
        carry = p0 & mask
        p0 ^= mask
        if carry:
            mask = p1 & carry
            p1 ^= carry
            if mask:
                carry = p2 & mask
                p2 ^= mask
                if carry:
                    for i, p in enumerate(high):
                        high[i] = p ^ carry
                        carry &= p
                        if not carry:
                            break
                    else:
                        high.append(carry)
    if high:
        return [p0, p1, p2, *high]
    return [p0, p1, p2] if p2 else [p0, p1] if p1 else [p0] if p0 else []


class _CountedCover:
    """Cover state that keeps each vertex's count of usable blocks as bit planes.

    planes[i] is a bitmap over the ids that holds bit i of every vertex's
    count of the blocks that cover it and are available or chosen.  An
    available block never holds a covered vertex: a block through a vertex
    of N[c] overlaps N[c], so it was dropped when c was taken.  So an
    uncovered vertex counts its usable blocks, and a covered one exactly 1,
    the chosen block that covers it.  A move v subtracts the counts of the
    blocks it drops other than v, all available, so it never borrows past
    the top plane; the root's largest count, at most n + 1, sets how many
    planes there are.  select() narrows within the uncovered bitmap, so it
    never reads a covered vertex's count, and it picks the uncovered vertex
    of least count, the lowest id among equals, as the popcount scan would;
    one with no usable block gives no candidates, so the node is a dead end
    as soon as a count reaches 0.  Every bitwise operand here is
    non-negative (a ^ (a & b) for a & ~b), because CPython copies and
    complements a negative one before it works on it.

    select() also keeps least, the bitmap of the uncovered vertices of least
    count, which copy() copies.  Before a move updates the planes, it looks
    for a vertex of least that the move leaves uncovered with no usable
    block; a least kept from an earlier node can only miss one.  If there is
    one, the node below is a dead end, so the move sets only the bitmaps and
    leaves the state dead, planes None.  select() on a dead state returns 0,
    so the node below still counts and ends as the dead end it is; no move
    is taken from a dead state, nor is it copied.
    """

    __slots__ = ("blocks", "uncovered", "available", "planes", "least")

    def __init__(
        self, blocks: _Blocks, uncovered: int, available: int, planes: list[int] | None, least: int = 0
    ):
        self.blocks = blocks
        self.uncovered = uncovered
        self.available = available
        self.planes = planes
        self.least = least

    @classmethod
    def root(cls, blocks: _Blocks, available: int) -> _CountedCover:
        masks = blocks.masks
        return cls(blocks, (1 << len(masks)) - 1, available, _sum_blocks(masks, available))

    def copy(self) -> _CountedCover:
        return _CountedCover(self.blocks, self.uncovered, self.available, self.planes.copy(), self.least)

    def select(self) -> int:
        """Usable blocks covering the vertex the search decides on next; 0 on a dead state."""
        planes = self.planes
        if planes is None:
            return 0
        m = self.uncovered
        for p in reversed(planes):
            clear = m ^ (m & p)
            if clear:
                m = clear
        self.least = m
        return self.blocks.masks[(m ^ (m - 1)).bit_length() - 1] & self.available

    def take(self, v: int):
        """Choose block v: cover N[v] and drop every block that overlaps it."""
        blocks = self.blocks
        masks = blocks.masks
        available = self.available
        drop = blocks.conflicts(v) & available
        self.available = left = available ^ drop
        # Block v was available, so it holds only uncovered vertices.
        self.uncovered = uncovered = self.uncovered ^ masks[v]
        # A vertex of least count left uncovered with no usable block makes
        # the node below a dead end, which reads no count.
        rest = self.least & uncovered
        while rest:
            top = rest.bit_length() - 1
            if not masks[top] & left:
                self.planes = None
                return
            rest ^= 1 << top
        # Block v is dropped but chosen, so its vertices keep it in their counts.
        dropped = _sum_blocks(masks, drop ^ (1 << v))
        planes = self.planes
        # planes -= dropped: one full subtractor per plane, on every vertex at once.
        borrow = 0
        for i, d in enumerate(dropped):
            p = planes[i]
            x = p ^ d
            planes[i] = x ^ borrow
            borrow = (d ^ (d & p)) | (borrow ^ (borrow & x))
        i = len(dropped)
        while borrow:
            p = planes[i]
            planes[i] = p ^ borrow
            borrow ^= borrow & p
            i += 1


# Bit order reversed within each byte value.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_words(words, n: int) -> list[int]:
    """Each n-bit word with its n bits in reverse order.

    Each word is packed into one array item; reversing the bits of every
    byte and then the bytes of every item reverses the item's bits, which
    then end in the item's top n positions.
    """
    flipped = array.array("Q")
    flipped.frombytes(array.array("Q", words).tobytes().translate(_REVERSED_BYTES))
    flipped.byteswap()
    shift = 8 * flipped.itemsize - n
    return [w >> shift for w in flipped]


def _symmetry_group(graph: InducedGraph, allowed: int) -> list[list[int]]:
    """The rotations and reversals of the coordinates that map the search onto itself.

    allowed is the bitmap of the ids whose blocks are allowed; the others
    are banned.  Each element is a list g of vertex ids, g[x] the id of the
    image of vertex x.  The rotation by one position and the reversal are
    checked once each, in O(V), as id maps read off graph.index with map: a
    generator is kept only if every image is a vertex and the banned ids map
    to banned ids.  It is then one-to-one on ids and on the banned ids, so it
    maps the vertices, the banned and the allowed blocks onto themselves,
    and it moves no Hamming distance, so it is an automorphism of the graph.
    The group the kept generators generate is built by composing their
    lists, in O(n · V), and returned less its identity, each element once:
    the powers of the rotation, then the reversal followed by each of them.
    Below n = 3 the group is left empty: there the rotation is the reversal
    or the identity.
    """
    n = graph.n
    if n < 3:
        return []
    words = graph.vertices
    index = graph.index
    banned = set(VertexSet(graph, ((1 << len(words)) - 1) & ~allowed).ids())

    def id_map(images: list[int]) -> list[int] | None:
        try:
            g = list(map(index.__getitem__, images))
        except KeyError:  # an image is not a vertex
            return None
        return g if banned.issuperset(map(g.__getitem__, banned)) else None

    full = (1 << n) - 1
    m = n - 1
    identity = list(range(len(words)))
    rotations = []
    rotation = id_map([((w << 1) | (w >> m)) & full for w in words])
    if rotation is not None:
        power = rotation
        while power != identity:
            rotations.append(power)
            power = [rotation[x] for x in power]
    reversal = id_map(_reversed_words(words, n))
    if reversal is None or reversal == identity or reversal in rotations:
        return rotations
    return [*rotations, reversal, *([g[x] for x in reversal] for g in rotations)]


def _stabilizer(group: list[list[int]], chosen: list[int]) -> list[list[int]]:
    """The elements of the group that map the chosen blocks onto themselves."""
    taken = set(chosen)
    kept = []
    for g in group:
        for x in chosen:
            if g[x] not in taken:
                break
        else:
            kept.append(g)
    return kept


def _firsts(group: list[list[int]], tries: list[int], weight: int) -> tuple[list[int], list[int]]:
    """The first of tries in each orbit of the group, in the order of tries,
    and each one's weight: weight times how many of tries its orbit holds."""
    last = tries[-1]
    orbit_of: dict[int, int] = {}  # id -> index of its orbit's first try
    firsts = []
    weights = []
    for x in tries:
        j = orbit_of.get(x)
        if j is not None:
            weights[j] += weight
            continue
        if x != last:  # no later try to look up
            j = len(firsts)
            orbit_of.update({g[x]: j for g in group})
        firsts.append(x)
        weights.append(weight)
    return firsts, weights


def _images(group: list[list[int]], code: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The code and its images under the group, each as its ids in ascending order."""
    return {tuple(sorted(code)), *(tuple(sorted([g[x] for x in code])) for g in group)}


def _ordered(cands: int, order: list[int] | None) -> list[int]:
    """The ids of the bitmap cands, ascending or, given an order, by their rank in it."""
    out = []
    while cands:
        top = cands.bit_length() - 1
        out.append(top)
        cands ^= 1 << top
    if order is None:
        out.reverse()
    else:
        out.sort(key=order.__getitem__)
    return out


def _cover(masks, allowed, group, order, mode, node_budget, deadline, collect):
    """Search the exact covers of the ids by the blocks in masks, using only allowed ones.

    masks is a symmetric, reflexive relation as _Blocks takes it, allowed
    the bitmap of the usable block ids, and group a list of id permutations
    that map the blocks and the allowed ones onto themselves, [] for the
    plain tree; order ranks the ids for the candidate order, None for
    ascending ids.  The root state is counted from COUNTED_MIN_VERTICES ids
    up.  Returns (status, nodes, weighted count, codes) with a final status.
    first and prove_none share one path, which stops at the first code, its
    id tuple in codes; an enumeration with collect expands the codes it
    reaches under the group into every code, as many as the weighted count
    (or this raises), in ascending order.

    chosen holds the blocks taken above the current node, and weight is its
    weight, 1 at the root.  Each node covers the vertex that state.select()
    picks: no usable block is a dead end, one is a forced move applied to
    the node's own state, and more push a branch point whose children each
    get a copy of it (the last child takes the original).  Each node first
    tests the node budget and the deadline.

    A frame is [state, candidates, next index, len(chosen), weights].  When
    it is pushed, chosen holds exactly the blocks above it, and its
    candidates are cut to the first of each orbit of their stabilizer;
    weights holds each kept candidate's weight.  A code found adds its
    node's weight to count.
    """
    if len(masks) >= COUNTED_MIN_VERTICES:
        state = _CountedCover.root(_Blocks(masks), allowed)
    else:
        state = _BitmapCover(_Blocks(masks), (1 << len(masks)) - 1, allowed)
    stop = mode != MODE_ENUMERATE
    nodes = count = 0
    codes: list[tuple[int, ...]] = []
    stack: list[list] = []
    chosen: list[int] = []
    weight = 1
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return STATUS_BUDGET, nodes, count, codes
        if deadline is not None and time.monotonic() > deadline:
            return STATUS_BUDGET, nodes, count, codes
        if not state.uncovered:
            count += weight
            if collect or stop:
                codes.append(tuple(chosen))
            if stop:
                return STATUS_FOUND, nodes, count, codes
        else:
            cands = state.select()
            if cands & (cands - 1):
                tries, weights = _firsts(_stabilizer(group, chosen), _ordered(cands, order), weight)
                stack.append([state, tries, 0, len(chosen), weights])
            elif cands:
                v = cands.bit_length() - 1
                state.take(v)
                chosen.append(v)
                continue
        if not stack:
            break
        frame = stack[-1]
        base, tries, i, depth, weights = frame
        if i + 1 < len(tries):
            frame[2] = i + 1
            state = base.copy()
        else:
            stack.pop()
            state = base
        weight = weights[i]
        del chosen[depth:]
        v = tries[i]
        state.take(v)
        chosen.append(v)
    if stop:
        return STATUS_EXHAUSTED, nodes, count, codes
    if collect:
        listed = {code for sol in codes for code in _images(group, sol)}
        if len(listed) != count:
            raise RuntimeError(f"listed {len(listed)} codes, but the weighted count is {count}")
        codes = sorted(listed)
    return STATUS_ENUMERATED, nodes, count, codes


def _normalize_mode(mode: str) -> str:
    mode = mode.replace("-", "_")
    if mode not in (MODE_FIRST, MODE_PROVE_NONE, MODE_ENUMERATE):
        raise ValueError(f"unknown search mode {mode!r}")
    return mode


def _candidate_order(n_vertices: int, seed: int) -> list[int] | None:
    if seed == 0:
        return None
    ranks = list(range(n_vertices))
    random.Random(seed).shuffle(ranks)
    return ranks


def _ban_by_parity(masks: list[int], allowed: int, n: int) -> int:
    """allowed less every block that overlaps the block of a vertex of full degree, bar its own.

    For even n a vertex v of full degree, whose block N[v] holds n + 1 ids
    (all n of its one-bit flips are vertices), lies in every perfect code,
    also when the codewords are held to a set (Biggs, "Perfect codes in
    graphs", J. Combin. Theory B 15, 1973).  Let A be the
    closed-neighborhood matrix and x a code's indicator, so A·x = 1 over
    the integers, and let y be the indicator of N[v].  Then
    yᵀ·A·x = |N[v]| = n + 1, which is odd, and yᵀ·A·x is the sum over w of
    |N[w] ∩ N[v]|·x_w.  That is n + 1 at w = v; 2 at Hamming distance 1 or
    2, the two vertices or the two common neighbors, both flips of v; and 0
    further out.  So x_v ≡ 1 (mod 2), and no code holds another block that
    overlaps N[v].  For odd n, n + 1 is even, the sum says nothing of x_v,
    and search_constrained does not call this.

    The vertices of full degree are taken in id order.  One that is not
    allowed at its turn, banned from the start or by an earlier one within
    distance 2, lies in no code, and then 0 is returned, so that either
    cover state ends at its root.  One that is allowed bans the rest of its
    radius-2 ball, so each later one within distance 2 of it is then not
    allowed at its turn.  Every automorphism maps the vertices of full
    degree onto themselves, so the bans keep every element of the group.
    """
    blocks = _Blocks(masks)
    for v, mask in enumerate(masks):
        if mask.bit_count() == n + 1:
            if not allowed >> v & 1:
                return 0
            allowed ^= (blocks.conflicts(v) & allowed) ^ (1 << v)
    return allowed


def search_constrained(
    graph: InducedGraph,
    codewords: VertexSet | None,
    mode: str = MODE_FIRST,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    seed: int = 0,
    collect_witnesses: bool = False,
) -> SearchOutcome:
    """Search perfect codes whose codewords all lie in the codewords vertex set.

    codewords is read as is_perfect_code reads a code, and None allows every
    vertex.  Blocks N[v] of the vertices outside it are removed from the
    cover; the universe to dominate is still all of V(G).  Budgets default
    to the CUBECODES_BUDGET_NODES / CUBECODES_BUDGET_SECONDS environment
    caps, and must be non-negative, as must the seed.

    The search runs in the calling process, with one node count and one
    deadline, both tested at every node.  It prunes by the group that
    _symmetry_group builds, a module name that tests patch for the plain
    tree, and _cover picks the cover state, gives the status and lists the
    codes: an enumeration with collect_witnesses lists every code, in
    ascending order of their id tuples.

    For even n, before the search starts, _ban_by_parity bans every block
    that overlaps N[v], bar v's own, for each vertex v of full degree, which
    lies in every perfect code; its docstring has the proof.  For odd n
    nothing is banned.
    """
    if node_budget is None:
        node_budget = default_node_budget()
    if time_budget is None:
        time_budget = default_time_budget()
    mode = _normalize_mode(mode)
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be non-negative, got {time_budget} s")
    if seed < 0:  # random.Random seeds with abs(seed): -5 would run seed 5's order
        raise ValueError(f"seed must be non-negative, got {seed}")
    n_vertices = len(graph)
    check_cap("engine_cap", n_vertices, f"a search on {n_vertices} vertices")
    masks = [graph.closed_mask(i) for i in range(n_vertices)]
    allowed = (1 << n_vertices) - 1 if codewords is None else _as_code(graph, codewords).mask
    started = time.monotonic()
    deadline = started + time_budget if time_budget is not None else None
    if graph.n % 2 == 0:
        allowed = _ban_by_parity(masks, allowed, graph.n)
    status, nodes, count, found = _cover(
        masks, allowed, _symmetry_group(graph, allowed), _candidate_order(n_vertices, seed), mode,
        node_budget, deadline, collect_witnesses,
    )
    listed = status == STATUS_ENUMERATED and collect_witnesses
    return SearchOutcome(
        status=status,
        witness=VertexSet.from_ids(graph, found[0]) if status == STATUS_FOUND else None,
        count=count if status == STATUS_ENUMERATED else None,
        witnesses=[VertexSet.from_ids(graph, code) for code in found] if listed else None,
        nodes=nodes,
        millis=int((time.monotonic() - started) * 1000),
        seed=seed,
    )


def find_perfect_code(graph: InducedGraph, mode: str = MODE_FIRST, **kwargs) -> SearchOutcome:
    """Decide, refute, or enumerate perfect codes of the graph."""
    return search_constrained(graph, None, mode, **kwargs)


# ---------------------------------------------------------------------------
# Independent oracles (used to cross-check the engine, never by it)
# ---------------------------------------------------------------------------

# The most vertices the naive scan takes: it scans 2^|V| subsets.
NAIVE_SUBSET_LIMIT = 24


def enumerate_perfect_codes_naive(graph: InducedGraph) -> int:
    """Count perfect codes by scanning all 2^|V| vertex subsets, up to NAIVE_SUBSET_LIMIT vertices."""
    n_vertices = len(graph)
    if n_vertices > NAIVE_SUBSET_LIMIT:
        raise ResourceLimitError(
            f"naive scan over 2^{n_vertices} subsets refused (limit 2^{NAIVE_SUBSET_LIMIT})",
            "naive_subset_limit",
            NAIVE_SUBSET_LIMIT,
        )
    masks = [graph.closed_mask(i) for i in range(n_vertices)]
    full = (1 << n_vertices) - 1
    count = 0
    for subset in range(1 << n_vertices):
        cover = 0
        m = subset
        ok = True
        while m:
            low = m & -m
            nb = masks[low.bit_length() - 1]
            if cover & nb:
                ok = False
                break
            cover |= nb
            m ^= low
        if ok and cover == full:
            count += 1
    return count


def count_perfect_codes_dfs(
    graph: InducedGraph,
    codewords: VertexSet | None = None,
) -> int:
    """Count perfect codes by always covering the lowest uncovered vertex.

    Only the vertices of codewords, read as is_perfect_code reads a code,
    may be codewords; None allows every vertex.  Structurally unlike the
    engine: no candidate ordering, no conflict propagation, no forced-move
    handling; disjointness is re-checked against the covered set at every
    step.  The covered sets still to extend are kept on an explicit stack,
    so a code of any size needs no recursion.
    """
    masks = [graph.closed_mask(i) for i in range(len(graph))]
    full = (1 << len(graph)) - 1
    allowed = full if codewords is None else _as_code(graph, codewords).mask
    total = 0
    stack = [0]
    while stack:
        covered = stack.pop()
        if covered == full:
            total += 1
            continue
        free = full ^ covered
        u = (free & -free).bit_length() - 1
        cands = masks[u] & allowed
        while cands:
            lowc = cands & -cands
            nb = masks[lowc.bit_length() - 1]
            cands ^= lowc
            if not covered & nb:
                stack.append(covered | nb)
    return total
