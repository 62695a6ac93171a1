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
count of usable blocks is also kept, as a few bit planes over the ids: a
move sums the masks of the blocks it drops into planes and subtracts them
with one ripple borrow, a node reads the least count by narrowing the
uncovered bitmap plane by plane, and it is a dead end as soon as a count
reaches 0.  Below such a vertex the bitmap state makes only forced moves,
with no branch point and no solution, so both give the same branch points,
counts and witnesses, and the counted state searches fewer nodes.

The search skips subtrees that a symmetry maps onto a sibling already
searched, and enumerate counts each subtree it keeps once for every one it
stands for.  G is the group generated by the rotation of the n coordinates
and their reversal, each kept only if it maps the vertex set and the set of
allowed blocks onto themselves; it is built once per search, checking each
generator in O(V), and a generator that fails is dropped.  A coordinate
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
only fall.  H depends only on the chosen blocks, so a split leaves the
tree as it is.  By induction over the skipped siblings every code is the
G-image of a code the pruned tree reaches, so an enumeration that lists
its codes expands those over G.

A search that runs longer than SPLIT_AFTER_S on a host with several CPUs
hands its open subtrees to forked worker processes, which run the same loop
on them and send their results back through a pipe each; merged in DFS
order, they give the serial node counts, counts and witnesses.

search_constrained is the one function that builds and runs a search.  It
reads COUNTED_MIN_VERTICES, SPLIT_AFTER_S, CHECK_EVERY, _split_workers and
_symmetry_group when called, so tests force a cover state, a split, a clock
stride or the plain tree by patching these module names, not through
parameters.

Verdicts are three-valued: a search that hits its node or time budget
reports budget-exceeded and never masquerades as an exhaustion proof.
"""

from __future__ import annotations

import array
import random
import time
from dataclasses import dataclass

from .limits import ResourceLimitError, check_cap, default_node_budget, default_time_budget
from .graphs import InducedGraph, VertexSet

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


def _cover_counts(graph: InducedGraph, code) -> bytearray:
    """Entry j: how many members' closed neighborhoods hold vertex j.

    A count is at most n + 1 <= 63, so a byte holds it.
    """
    code = _as_code(graph, code)
    counts = bytearray(len(graph))
    for i in code.ids():
        counts[i] += 1
        for j in graph.neighbor_ids(i):
            counts[j] += 1
    return counts


def is_code(graph: InducedGraph, code) -> bool:
    """True iff the members' closed neighborhoods are pairwise disjoint.

    That is, no vertex is covered more than once.
    """
    return max(_cover_counts(graph, code), default=0) <= 1


def is_dominating(graph: InducedGraph, code) -> bool:
    """True iff every vertex lies in some member's closed neighborhood.

    That is, no vertex is covered 0 times.
    """
    return 0 not in _cover_counts(graph, code)


def is_perfect_code(graph: InducedGraph, code) -> bool:
    """True iff the closed neighborhoods of the members partition V(G).

    That is, every vertex is covered exactly once.
    """
    return _cover_counts(graph, code).count(1) == len(graph)


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
            out["witness"] = [str(w) for w in self.witness.words()]
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
# search (enumerate on the plain tree, before it was pruned by symmetry;
# best of 21 interleaved runs, busy 2-CPU host, Python 3.11):
#
#   vertices  graph                                   counted / bitmap
#   76-89     Lucas n=9, Fibonacci n=9                0.84-0.96
#   99-128    the n=7 graphs: Q7, lucas1s:4..7,       1.24-2.17
#             fib1s:5..7
#   123       Lucas n=10                              0.98
#   131-149   lucas1s:3 n=8, Fibonacci n=10,          0.48-0.86
#             fib1s:3 n=8
#   191-208   lucas1s:4 n=8, Lucas n=11, fib1s:4 n=8  0.45-0.61
#   223-256   lucas1s:5..7 n=8, fib1s:5..7 n=8,       0.38-0.57
#             Fibonacci n=11, Q8
#   322       Lucas n=12                              0.43
#
# Lucas and Fibonacci graphs break even near 90 vertices, but the n=7
# graphs, which branch more and prune less, do not; every graph measured
# above 128 vertices (Q7's count) gains.  On the weighted, symmetry-pruned
# enumerate tree the n=7 graphs still lose (two rounds, same method): Q7
# 1.81-1.97, lucas1s:7 1.65-2.14, fib1s:6 1.90-2.15, lucas1s:4 1.14-1.17.
COUNTED_MIN_VERTICES = 129

# The search reads the clock every CHECK_EVERY nodes, for its deadline and
# its split alike.  A node costs at most about 60 us on the graphs measured
# (Lucas n=16, 2,207 vertices), so a time budget overshoots by about 2 ms;
# one read (about 0.1 us) is under 0.1% of the 4 us nodes of the n=7 graphs.
CHECK_EVERY = 32

# A search that has run this long splits into its open subtrees, which the
# CPUs this process may use then search in forked worker processes.  A
# split costs about 3 ms (fork, then reaping the child), so a search that
# splits near its end runs slower.  Serial time / time split at 30 ms of
# prove-none, medians of 15 interleaved runs (5 on Lucas n=16), two rounds
# on a busy 2-CPU host:
#
#   graph           plain tree                pruned by symmetry
#   Fibonacci n=13    899 nodes  1.00-1.02x     899 nodes  0.90-1.00x
#   Lucas n=13        716        1.00-1.08x     507        0.98-0.99x
#   Lucas n=14      1,896        0.93-1.13x   1,427        0.99-1.01x
#   Fibonacci n=14  2,405        0.93-1.23x   2,405        1.32-1.37x
#   Lucas n=15      4,752        1.03-1.49x   1,737        1.07-1.18x
#   Lucas n=16     14,833        1.80-1.90x  10,300        1.88-1.93x
#
# The pruned column was measured when each branch point's group was cut
# only against the blocks taken since the branch point above; the
# stabilizer of all chosen blocks now takes Lucas n=14 to 1,424 nodes and
# n=15 to 1,672, with the other counts unchanged.  Pruned Lucas n=15 (about
# 60-95 ms serial) ends soon after the split, and one subtree held most of
# the work left (557 of about 680 nodes), so the second process has little
# to do; splitting it at 10 or 20 ms did not help either.  On the plain
# tree the refute benchmark (20 s runs, rescaled to a quiet host) read:
#
#   split after  runs  frontier_s (Lucas n=15)  wall_s
#   10 ms        2     0.0701-0.0727 s          0.204-0.208 s
#   15 ms        2     0.0725-0.0726 s          0.207-0.208 s
#   20 ms        4     0.0710-0.0726 s          0.204-0.209 s
#   30 ms        4     0.0748-0.0764 s          0.213-0.219 s
#
# 10-20 ms gained about 5% on the plain tree, but on the pruned tree Lucas
# n=15 gains nothing at 10 or 20 ms (above), and a change moves the split of
# every refute search that runs near it.  The n=7 graphs do not bear on
# the choice: enumerate is pruned by symmetry too, and their longest search,
# the 1,535-node enumeration of lucas1s:7 or fib1s:7, takes about 4 ms
# (Q7's, 635 nodes, about 2 ms; best of 21 runs on a busy host), far below
# any of these values.  So 30 ms is kept.
SPLIT_AFTER_S = 0.03

# At most this many open subtrees are handed out: their indices, 4 bytes
# each, then fit in one pipe buffer on every platform.  With more open the
# search goes on and tries again at the next clock read.
_MAX_SUBTREES = 1024

# run() status of a search that stopped to hand out its open subtrees.
_SPLIT = "split"


class _Blocks:
    """The closed-neighborhood blocks N[v] of one graph, as bitmaps over ids.

    A graph over the engine cap is refused here, before any search state.
    """

    def __init__(self, graph: InducedGraph):
        check_cap("engine_cap", len(graph), f"a search on {len(graph)} vertices")
        self.masks = [graph.closed_mask(i) for i in range(len(graph))]
        self._ball2: dict[int, int] = {}

    def conflicts(self, v: int) -> int:
        """Vertices whose block overlaps N[v] (the radius-2 ball around v)."""
        m = self._ball2.get(v)
        if m is None:
            m = 0
            mm = self.masks[v]
            while mm:
                low = mm & -mm
                m |= self.masks[low.bit_length() - 1]
                mm ^= low
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
        """Usable blocks covering the vertex the search decides on next."""
        masks = self.blocks.masks
        available = self.available
        best_count = None
        best_cands = 0
        m = self.uncovered
        while m:
            low = m & -m
            m ^= low
            cands = masks[low.bit_length() - 1] & available
            c = cands.bit_count()
            if c <= 1:
                return cands
            if best_count is None or c < best_count:
                best_count = c
                best_cands = cands
        return best_cands

    def take(self, v: int):
        """Choose block v: cover N[v] and drop every block that overlaps it."""
        self.uncovered &= ~self.blocks.masks[v]
        self.available &= ~self.blocks.conflicts(v)


def _sum_blocks(masks: list[int], ids: int) -> list[int]:
    """Bit planes of how many of the blocks in the id bitmap ids cover each vertex.

    Plane i holds bit i of every vertex's count; each block is added with a
    ripple carry, and there are just enough planes for the largest count.
    """
    planes: list[int] = []
    while ids:
        low = ids & -ids
        ids ^= low
        carry = masks[low.bit_length() - 1]
        for i, p in enumerate(planes):
            planes[i] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


class _CountedCover:
    """Cover state that keeps each vertex's count of usable blocks as bit planes.

    planes[i] is a bitmap over the ids that holds bit i of every vertex's
    count.  An available block never holds a covered vertex: a block
    through a vertex of N[c] overlaps N[c], so it was dropped when c was
    taken.  So a covered vertex counts 0, and a move, which subtracts the
    counts of the blocks it drops, never borrows past the top plane; the
    root's largest count, at most n + 1, sets how many planes there are.
    select() reads the uncovered vertex of least count, the lowest id among
    equals, as the popcount scan would; one with no usable block gives no
    candidates, so the node is a dead end as soon as a count reaches 0.
    """

    __slots__ = ("blocks", "uncovered", "available", "planes")

    def __init__(self, blocks: _Blocks, uncovered: int, available: int, planes: list[int]):
        self.blocks = blocks
        self.uncovered = uncovered
        self.available = available
        self.planes = planes

    @classmethod
    def root(cls, blocks: _Blocks, available: int) -> _CountedCover:
        masks = blocks.masks
        return cls(blocks, (1 << len(masks)) - 1, available, _sum_blocks(masks, available))

    def copy(self) -> _CountedCover:
        return _CountedCover(self.blocks, self.uncovered, self.available, self.planes.copy())

    def select(self) -> int:
        """Usable blocks covering the vertex the search decides on next."""
        m = self.uncovered
        for p in reversed(self.planes):
            clear = m & ~p
            if clear:
                m = clear
        return self.blocks.masks[(m & -m).bit_length() - 1] & self.available

    def take(self, v: int):
        """Choose block v: cover N[v] and drop every block that overlaps it."""
        blocks = self.blocks
        gone = blocks.conflicts(v)
        dropped = _sum_blocks(blocks.masks, gone & self.available)
        planes = self.planes
        # planes -= dropped: one full subtractor per plane, on every vertex at once.
        borrow = 0
        for i, d in enumerate(dropped):
            p = planes[i]
            x = p ^ d
            planes[i] = x ^ borrow
            borrow = (d & ~p) | (borrow & ~x)
        i = len(dropped)
        while borrow:
            p = planes[i]
            planes[i] = p ^ borrow
            borrow &= ~p
            i += 1
        self.uncovered &= ~blocks.masks[v]
        self.available &= ~gone


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


def _symmetry_group(graph: InducedGraph, allowed: int) -> list[tuple[list[int], int, int]]:
    """The rotations and reversals of the coordinates that map the search onto itself.

    allowed is the bitmap of the ids whose blocks are allowed, and the words
    of the vertices outside it are the banned words; there are none when it
    holds every id.  The rotation by one position and the reversal are
    checked, each in O(V): one that maps the vertex words and the banned
    words into themselves maps each set onto itself, since it is one-to-one
    on words.  It moves no Hamming distance, so it is an automorphism of the
    graph that maps the allowed blocks onto the allowed blocks.  A generator that fails
    is dropped.  The group they generate is returned less its identity, as
    elements (source, k, n - k): vertex x goes to the word source[x] rotated
    left by k positions, where source is the vertex words or their
    reversals.  Below n = 3 the group is left empty: there the rotation is
    the reversal or the identity.
    """
    n = graph.n
    if n < 3:
        return []
    words = graph.vertices
    index = graph.index
    banned = {words[i] for i in VertexSet(graph, ((1 << len(words)) - 1) & ~allowed).ids()}
    full = (1 << n) - 1
    m = n - 1
    rotations = range(1, n)
    if not (all([((w << 1) | (w >> m)) & full in index for w in words])
            and all([((w << 1) | (w >> m)) & full in banned for w in banned])):
        rotations = ()
    group = [(words, k, n - k) for k in rotations]
    reversals = _reversed_words(words, n)
    if all([w in index for w in reversals]) and all([w in banned for w in _reversed_words(banned, n)]):
        group += [(reversals, k, n - k) for k in (0, *rotations)]
    return group


class _Orbits:
    """The group G of one search, as _symmetry_group returns it, and the pruning's steps."""

    __slots__ = ("group", "words", "index", "full")

    def __init__(self, graph: InducedGraph, allowed: int):
        self.group = _symmetry_group(graph, allowed)
        self.words = graph.vertices
        self.index = graph.index
        self.full = (1 << graph.n) - 1

    def stabilizer(self, chosen: list[int]) -> list:
        """The elements of G that map the chosen blocks onto themselves."""
        if not self.group:
            return []
        words = self.words
        full = self.full
        taken = {words[x] for x in chosen}
        kept = []
        for g in self.group:
            source, k, m = g
            for x in chosen:
                w = source[x]
                if ((w << k) | (w >> m)) & full not in taken:
                    break
            else:
                kept.append(g)
        return kept

    def firsts(self, group: list, tries: list[int], weight: int) -> tuple[list[int], list[int]]:
        """The first of tries in each orbit of the group, in the order of tries,
        and each one's weight: weight times how many of tries its orbit holds."""
        words = self.words
        full = self.full
        last = tries[-1]
        orbit_of: dict[int, int] = {}  # word -> index of its orbit's first try
        firsts = []
        weights = []
        for x in tries:
            j = orbit_of.get(words[x])
            if j is not None:
                weights[j] += weight
                continue
            if x != last:  # no later try to look up
                j = len(firsts)
                orbit_of.update({((source[x] << k) | (source[x] >> m)) & full: j for source, k, m in group})
            firsts.append(x)
            weights.append(weight)
        return firsts, weights

    def images(self, code: tuple[int, ...]) -> set[tuple[int, ...]]:
        """The code and its images under G, each as its ids in ascending order."""
        index = self.index
        full = self.full
        out = {tuple(sorted(code))}
        for source, k, m in self.group:
            out.add(tuple(sorted(index[((source[x] << k) | (source[x] >> m)) & full] for x in code)))
        return out


class _CoverSearch:
    """One backtracking run on an explicit stack of branch points."""

    def __init__(self, order, node_budget, deadline, stop_at_first, collect, orbits, split_at=None):
        self.order = order
        self.node_budget = node_budget
        self.deadline = deadline
        self.stop_at_first = stop_at_first
        self.orbits = orbits
        self.split_at = split_at
        self.nodes = 0
        self.count = 0
        self.solutions: list[tuple[int, ...]] | None = [] if collect else None
        self.witness: tuple[int, ...] | None = None
        # After a split: (base state, block to take or None, blocks chosen
        # above, weight of the subtree's first node).
        self.subtrees: list[tuple] = []

    def run(self, state, chosen: list[int], weight: int) -> str | None:
        """Search below state; STATUS_FOUND, STATUS_BUDGET or _SPLIT, or None once complete.

        chosen holds the blocks taken above state, and grows as the search
        does; weight is state's weight.  Each node covers the vertex that
        state.select() picks: no usable block is a dead end, one is a forced
        move applied to the node's own state, and more push a branch point
        whose children each get a copy of it (the last child takes the
        original).  At a clock read, every CHECK_EVERY nodes, past split_at,
        the run keeps its open subtrees and stops.

        A frame is [state, candidates, next index, len(chosen), weights].
        When it is pushed, chosen holds exactly the blocks above it, and its
        candidates are cut to the first of each orbit of their stabilizer;
        weights holds each kept candidate's weight.  A code found adds its
        node's weight to count.
        """
        node_budget = self.node_budget
        deadline = self.deadline
        split_at = self.split_at
        orbits = self.orbits
        check_every = CHECK_EVERY
        nodes = self.nodes
        next_check = nodes + check_every
        stack: list[list] = []
        try:
            while True:
                if nodes >= next_check:
                    next_check += check_every
                    now = time.monotonic()
                    if deadline is not None and now > deadline:
                        return STATUS_BUDGET
                    if split_at is not None and now >= split_at and self._split(state, chosen, stack, weight):
                        return _SPLIT
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return STATUS_BUDGET
                if not state.uncovered:
                    self.count += weight
                    if self.solutions is not None:
                        self.solutions.append(tuple(chosen))
                    if self.stop_at_first:
                        self.witness = tuple(chosen)
                        return STATUS_FOUND
                else:
                    cands = state.select()
                    if cands & (cands - 1):
                        tries, weights = orbits.firsts(orbits.stabilizer(chosen), self._ordered(cands), weight)
                        stack.append([state, tries, 0, len(chosen), weights])
                    elif cands:
                        v = cands.bit_length() - 1
                        state.take(v)
                        chosen.append(v)
                        continue
                if not stack:
                    return None
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
        finally:
            self.nodes = nodes

    def _split(self, state, chosen, stack, weight) -> bool:
        """Keep the open subtrees in DFS order, if there are 2 to _MAX_SUBTREES.

        The node about to be searched comes first, with its weight, then,
        for each frame from the top of the stack down, its untried
        candidates tries[i:], each with the blocks above the frame and its
        own weight.
        """
        if not 2 <= 1 + sum(len(frame[1]) - frame[2] for frame in stack) <= _MAX_SUBTREES:
            return False
        subtrees = [(state, None, tuple(chosen), weight)]
        for base, tries, i, depth, weights in reversed(stack):
            above = tuple(chosen[:depth])
            subtrees.extend((base, tries[j], above, weights[j]) for j in range(i, len(tries)))
        self.subtrees = subtrees
        return True

    def run_subtree(self, i: int) -> tuple:
        """Search open subtree i to its end: (status, nodes, count, solutions, witness).

        The subtree's state is built here, by the process that claimed it.
        """
        base, v, above, weight = self.subtrees[i]
        chosen = list(above)
        if v is None:
            state = base
        else:
            state = base.copy()
            state.take(v)
            chosen.append(v)
        sub = _CoverSearch(
            self.order, None, self.deadline, self.stop_at_first, self.solutions is not None, self.orbits,
        )
        status = sub.run(state, chosen, weight)
        return status, sub.nodes, sub.count, sub.solutions, sub.witness

    def merge(self, results: dict[int, tuple]) -> str | None:
        """Add the subtree results in DFS order, up to the first found code.

        That is where the serial loop would have stopped, so the nodes,
        count, solutions and witness are the serial ones.  A subtree out of
        time makes the whole search budget-exceeded, counting the nodes of
        every subtree searched.
        """
        if any(result[0] == STATUS_BUDGET for result in results.values()):
            self.nodes += sum(result[1] for result in results.values())
            return STATUS_BUDGET
        for i in range(len(self.subtrees)):
            status, nodes, count, solutions, witness = results[i]
            self.nodes += nodes
            self.count += count
            if solutions:
                self.solutions.extend(solutions)
            if status is not None:
                self.witness = witness
                return status
        return None

    def _ordered(self, cands: int) -> list[int]:
        out = []
        while cands:
            low = cands & -cands
            out.append(low.bit_length() - 1)
            cands ^= low
        if self.order is not None:
            out.sort(key=self.order.__getitem__)
        return out


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


def _run_split(search: _CoverSearch, workers: int) -> str | None:
    """Search the open subtrees in this process and workers - 1 forked children.

    Every process claims subtree indices from one pipe, shallowest (last in
    DFS order, and largest) first, until none is left or one of its own
    subtrees runs out of time.  Each child then writes its results, a dict
    from subtree index to result, with marshal into a pipe that it alone
    writes, and this process reads every child's pipe to its end once its
    own claims are done.  A child writes only after its last claim, so a
    full pipe never holds back a claim.  A subtree after one with a found
    code is still searched, to its own first code at most, and merge drops
    it, as the serial loop never reaches it.  A child that fails makes this
    raise.
    """
    # Only a split search needs these; the module imports none of them.
    import marshal
    import os

    n_subtrees = len(search.subtrees)
    tasks_r, tasks_w = os.pipe()
    os.write(tasks_w, b"".join(i.to_bytes(4, "little") for i in reversed(range(n_subtrees))))
    os.close(tasks_w)

    def claims():
        while data := os.read(tasks_r, 4):
            i = int.from_bytes(data, "little")
            result = search.run_subtree(i)
            yield i, result
            if result[0] == STATUS_BUDGET:
                return

    children: list[tuple[int, int]] = []  # (pid, read end of the child's results pipe)
    finished = False
    try:
        for _ in range(min(workers, n_subtrees) - 1):
            results_r, results_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results_r)
                os.close(results_w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(results_r)
                    with open(results_w, "wb") as out:
                        marshal.dump(dict(claims()), out)
                    code = 0
                finally:
                    # No atexit handlers, no flush of the stdio buffers copied from the parent.
                    os._exit(code)
            os.close(results_w)
            children.append((pid, results_r))
        results = dict(claims())
        for _, results_r in children:
            # marshal.load on a file would make a call for every value it reads.
            with open(results_r, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                results.update(marshal.loads(data))
            except EOFError:  # empty or cut short: a child that failed
                pass
        finished = True
    finally:
        os.close(tasks_r)
        for _, results_r in children:
            os.close(results_r)
        if not finished:
            import signal  # only here: once imported, a module stays in memory

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)  # the search failed or was interrupted
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    if any(statuses):
        raise RuntimeError(f"a search worker process failed (wait statuses {statuses})")
    return search.merge(results)


def _split_workers() -> int:
    """Processes a search may use: the CPUs this process may run on, or 1.

    A search stays in one process where os.fork is missing, and beside other
    threads, which a fork would not copy.
    """
    import os
    import sys

    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


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
    caps, and must be non-negative.

    Five module names are read at each call, and tests patch them to force
    a cover state, a split, a clock stride or the plain tree:
    COUNTED_MIN_VERTICES picks the state, a search with no node budget
    (which stays one global count) splits over the _split_workers()
    processes, if more than one, at the first clock read, every CHECK_EVERY
    nodes, past SPLIT_AFTER_S that finds at least two open subtrees, and
    every search prunes by the group _symmetry_group builds.  An
    enumeration with collect_witnesses lists every code: the codes the
    pruned tree reaches and their images under that group, as many as the
    weighted count (or this raises), in ascending order of their id tuples.
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
    workers = _split_workers() if node_budget is None else 1
    blocks = _Blocks(graph)
    n_vertices = len(graph)

    allowed = (1 << n_vertices) - 1 if codewords is None else _as_code(graph, codewords).mask

    started = time.monotonic()
    deadline = started + time_budget if time_budget is not None else None
    split_at = started + SPLIT_AFTER_S if workers > 1 else None
    orbits = _Orbits(graph, allowed)
    if n_vertices >= COUNTED_MIN_VERTICES:
        root = _CountedCover.root(blocks, allowed)
    else:
        root = _BitmapCover(blocks, (1 << n_vertices) - 1, allowed)
    search = _CoverSearch(
        _candidate_order(n_vertices, seed),
        node_budget,
        deadline,
        mode in (MODE_FIRST, MODE_PROVE_NONE),
        collect_witnesses and mode == MODE_ENUMERATE,
        orbits,
        split_at,
    )
    status = search.run(root, [], 1)
    if status == _SPLIT:
        status = _run_split(search, workers)
    if status is None:
        status = STATUS_ENUMERATED if mode == MODE_ENUMERATE else STATUS_EXHAUSTED
    witnesses = None
    if status == STATUS_ENUMERATED and search.solutions is not None:
        listed = {code for sol in search.solutions for code in orbits.images(sol)}
        if len(listed) != search.count:
            raise RuntimeError(f"listed {len(listed)} codes, but the weighted count is {search.count}")
        witnesses = [VertexSet.from_ids(graph, code) for code in sorted(listed)]
    return SearchOutcome(
        status=status,
        witness=VertexSet.from_ids(graph, search.witness) if search.witness is not None else None,
        count=search.count if status == STATUS_ENUMERATED else None,
        witnesses=witnesses,
        nodes=search.nodes,
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
    step.
    """
    masks = [graph.closed_mask(i) for i in range(len(graph))]
    full = (1 << len(graph)) - 1
    allowed = full if codewords is None else _as_code(graph, codewords).mask

    def rec(covered: int) -> int:
        if covered == full:
            return 1
        low = (~covered & full) & -(~covered & full)
        u = low.bit_length() - 1
        total = 0
        cands = masks[u] & allowed
        while cands:
            lowc = cands & -cands
            v = lowc.bit_length() - 1
            cands ^= lowc
            nb = masks[v]
            if not covered & nb:
                total += rec(covered | nb)
        return total

    return rec(0)
