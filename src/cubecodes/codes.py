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
the forced moves below it.  From COUNTED_MIN_VERTICES up, each vertex also
keeps its count of usable blocks, a move decrements only the members of
the blocks it drops, and a node is a dead end as soon as a count reaches
0.  Below such a vertex the bitmap state makes only forced moves, with no
branch point and no solution, so both give the same branch points, counts
and witnesses, and the counted state searches fewer nodes.

A search that runs longer than SPLIT_AFTER_S on a host with several CPUs
hands its open subtrees to forked worker processes, which run the same loop
on them and send their results back through a pipe each; merged in DFS
order, they give the serial node counts, counts and witnesses.

search_constrained is the one function that builds and runs a search.  It
reads COUNTED_MIN_VERTICES, SPLIT_AFTER_S, CHECK_EVERY and _split_workers
when called, so tests force a cover state, a split or a clock stride by
patching these module names, not through parameters.

Verdicts are three-valued: a search that hits its node or time budget
reports budget-exceeded and never masquerades as an exhaustion proof.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .limits import ResourceLimitError, check_cap, default_node_budget, default_time_budget
from .words import BitWord
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


def _disjoint_cover(graph: InducedGraph, code) -> int | None:
    """Union of the members' closed neighborhoods, or None if two of them meet."""
    code = _as_code(graph, code)
    cover = 0
    for i in code.ids():
        nb = graph.closed_mask(i)
        if cover & nb:
            return None
        cover |= nb
    return cover


def is_code(graph: InducedGraph, code) -> bool:
    """True iff the members' closed neighborhoods are pairwise disjoint."""
    return _disjoint_cover(graph, code) is not None


def is_dominating(graph: InducedGraph, code) -> bool:
    """True iff every vertex lies in some member's closed neighborhood."""
    code = _as_code(graph, code)
    cover = 0
    for i in code.ids():
        cover |= graph.closed_mask(i)
    return cover == (1 << len(graph)) - 1


def is_perfect_code(graph: InducedGraph, code) -> bool:
    """True iff the closed neighborhoods of the members partition V(G)."""
    return _disjoint_cover(graph, code) == (1 << len(graph)) - 1


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
# search (best of 21 interleaved runs, 2-CPU host, Python 3.11):
#
#   vertices  graph                                   counted / bitmap
#   76-89     Lucas n=9, Fibonacci n=9                0.96-1.04
#   99-128    the n=7 graphs: Q7, lucas1s:4..7,       1.25-2.54
#             fib1s:5..7
#   123       Lucas n=10                              0.92-0.97
#   131-149   lucas1s:3 n=8, Fibonacci n=10,          0.75-0.83
#             fib1s:3 n=8
#   191-208   lucas1s:4 n=8, Lucas n=11, fib1s:4 n=8  0.48-0.62
#   223-256   lucas1s:5..7 n=8, fib1s:5..7 n=8,       0.41-0.67
#             Fibonacci n=11, Q8
#   322       Lucas n=12                              0.44
#
# Lucas and Fibonacci graphs break even near 90 vertices, but the n=7
# graphs, which branch more and prune less, do not; every graph measured
# above 128 vertices (Q7's count) gains.
COUNTED_MIN_VERTICES = 129

# The search reads the clock every CHECK_EVERY nodes, for its deadline and
# its split alike.  A node costs at most about 60 us on the graphs measured
# (Lucas n=16, 2,207 vertices), so a time budget overshoots by about 2 ms;
# one read (about 0.1 us) is under 0.1% of the 4 us nodes of the n=7 graphs.
CHECK_EVERY = 32

# A search that has run this long splits into its open subtrees, which the
# CPUs this process may use then search in forked worker processes.  A
# split costs about 3 ms (fork, then reaping the child), so a search that
# splits near its end runs slower: on a busy 2-CPU host, split at 30 ms,
# prove-none on Fibonacci n=13 (899 nodes, 33 ms serial) ran at 0.91x of
# serial, Lucas n=13 (716, 26 ms) at 0.99x, Lucas and Fibonacci n=14 (1.9k
# and 2.4k nodes) at 1.2x, Lucas n=15 (4.8k) at 1.4x and n=16 (15k) at
# 1.6x.  The refute benchmark (20 s runs, rescaled to a quiet host):
#
#   split after  runs  frontier_s (Lucas n=15)  wall_s
#   10 ms        2     0.0701-0.0727 s          0.204-0.208 s
#   15 ms        2     0.0725-0.0726 s          0.207-0.208 s
#   20 ms        4     0.0710-0.0726 s          0.204-0.209 s
#   30 ms        4     0.0748-0.0764 s          0.213-0.219 s
#
# 10-20 ms gain about 5%, but the longest search of the n=7 graphs, the
# 3,169-node enumeration of Q7 (6.5 ms on a quiet host), then splits on a
# busy host: at 20 ms it split in 2 of 300 runs that took 9-34 ms (median
# 16 ms), at 30 ms in none, so 30 ms is kept.
SPLIT_AFTER_S = 0.03

# At most this many open subtrees are handed out: their indices, 4 bytes
# each, then fit in one pipe buffer on every platform.  With more open the
# search goes on and tries again at the next clock read.
_MAX_SUBTREES = 1024

# run() status of a search that stopped to hand out its open subtrees.
_SPLIT = "split"

# Count held by a covered vertex: larger than any candidate count, even
# after the decrements of the move that covers it.
_COVERED = 1 << 62


class _Blocks:
    """The closed-neighborhood blocks N[v] of one graph, as bitmaps over ids.

    A graph over the engine cap is refused here, before any search state.
    """

    def __init__(self, graph: InducedGraph):
        check_cap("engine_cap", len(graph), f"a search on {len(graph)} vertices")
        self.masks = [graph.closed_mask(i) for i in range(len(graph))]
        self.members: list[tuple[int, ...]] | None = None
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


class _CountedCover:
    """Cover state that keeps each vertex's candidate count up to date.

    counts[u] is the number of usable blocks covering the uncovered vertex u;
    covered vertices hold _COVERED.  low holds the uncovered vertices whose
    count is exactly 1.  A move decrements only the members of the blocks it
    drops.  A state is dead once some uncovered vertex has no usable block:
    root() starts dead when a vertex has no allowed block, and take() turns
    dead at the decrement that reaches 0 and stops there, leaving the other
    fields stale.  A dead state is a dead end: select() gives no candidates,
    so it is never a branch base, and its uncovered bitmap still holds the
    vertex, so it never reads as a solution.  Otherwise select() reads the
    same vertex the popcount scan would.
    """

    __slots__ = ("blocks", "uncovered", "available", "counts", "low", "dead")

    def __init__(self, blocks: _Blocks, uncovered: int, available: int, counts: list[int], low: int,
                 dead: bool = False):
        self.blocks = blocks
        self.uncovered = uncovered
        self.available = available
        self.counts = counts
        self.low = low
        self.dead = dead

    @classmethod
    def root(cls, blocks: _Blocks, available: int) -> _CountedCover:
        masks = blocks.masks
        ids = list(range(len(masks)))  # one int object per id, shared by all blocks
        members = []
        for mask in masks:
            block = []
            while mask:
                low = mask & -mask
                block.append(ids[low.bit_length() - 1])
                mask ^= low
            members.append(tuple(block))
        blocks.members = members
        counts = [(mask & available).bit_count() for mask in masks]
        low = 0
        for u, c in enumerate(counts):
            if c == 1:
                low |= 1 << u
        return cls(blocks, (1 << len(masks)) - 1, available, counts, low, 0 in counts)

    def copy(self) -> _CountedCover:
        return _CountedCover(self.blocks, self.uncovered, self.available, self.counts.copy(), self.low)

    def select(self) -> int:
        """Usable blocks covering the vertex the search decides on next."""
        if self.dead:
            return 0
        low = self.low
        if low:
            u = (low & -low).bit_length() - 1
        else:
            counts = self.counts
            u = counts.index(min(counts))
        return self.blocks.masks[u] & self.available

    def take(self, v: int):
        """Choose block v: cover N[v] and drop every block that overlaps it."""
        blocks = self.blocks
        members = blocks.members
        counts = self.counts
        for x in members[v]:
            counts[x] = _COVERED
        gone = blocks.conflicts(v)
        dropped = gone & self.available
        low = self.low
        while dropped:
            bit = dropped & -dropped
            dropped ^= bit
            for x in members[bit.bit_length() - 1]:
                c = counts[x] - 1
                counts[x] = c
                if c <= 1:
                    if not c:
                        self.dead = True
                        return
                    low |= 1 << x
        self.uncovered &= ~blocks.masks[v]
        self.available &= ~gone
        self.low = low & self.uncovered


class _CoverSearch:
    """One backtracking run on an explicit stack of branch points."""

    def __init__(self, order, node_budget, deadline, stop_at_first, collect, split_at=None):
        self.order = order
        self.node_budget = node_budget
        self.deadline = deadline
        self.stop_at_first = stop_at_first
        self.split_at = split_at
        self.nodes = 0
        self.count = 0
        self.solutions: list[tuple[int, ...]] | None = [] if collect else None
        self.witness: tuple[int, ...] | None = None
        # After a split: (base state, block to take or None, blocks chosen above).
        self.subtrees: list[tuple] = []

    def run(self, state, chosen: list[int]) -> str | None:
        """Search below state; STATUS_FOUND, STATUS_BUDGET or _SPLIT, or None once complete.

        chosen holds the blocks taken above state, and grows as the search
        does.  Each node covers the vertex that state.select() picks: no
        usable block is a dead end, one is a forced move applied to the
        node's own state, and more push a branch point whose children each
        get a copy of it (the last child takes the original).  At a clock
        read, every CHECK_EVERY nodes, past split_at, the run keeps its open
        subtrees and stops.
        """
        node_budget = self.node_budget
        deadline = self.deadline
        split_at = self.split_at
        check_every = CHECK_EVERY
        nodes = self.nodes
        next_check = nodes + check_every
        stack: list[list] = []  # [state, candidates, next index, len(chosen)]
        try:
            while True:
                if nodes >= next_check:
                    next_check += check_every
                    now = time.monotonic()
                    if deadline is not None and now > deadline:
                        return STATUS_BUDGET
                    if split_at is not None and now >= split_at and self._split(state, chosen, stack):
                        return _SPLIT
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return STATUS_BUDGET
                if not state.uncovered:
                    self.count += 1
                    if self.solutions is not None:
                        self.solutions.append(tuple(chosen))
                    if self.stop_at_first:
                        self.witness = tuple(chosen)
                        return STATUS_FOUND
                else:
                    cands = state.select()
                    if cands & (cands - 1):
                        stack.append([state, self._ordered(cands), 0, len(chosen)])
                    elif cands:
                        v = cands.bit_length() - 1
                        state.take(v)
                        chosen.append(v)
                        continue
                if not stack:
                    return None
                frame = stack[-1]
                base, tries, i, depth = frame
                if i + 1 < len(tries):
                    frame[2] = i + 1
                    state = base.copy()
                else:
                    stack.pop()
                    state = base
                del chosen[depth:]
                v = tries[i]
                state.take(v)
                chosen.append(v)
        finally:
            self.nodes = nodes

    def _split(self, state, chosen, stack) -> bool:
        """Keep the open subtrees in DFS order, if there are 2 to _MAX_SUBTREES.

        The node about to be searched comes first, then, for each frame from
        the top of the stack down, its untried candidates tries[i:].
        """
        if not 2 <= 1 + sum(len(tries) - i for _, tries, i, _ in stack) <= _MAX_SUBTREES:
            return False
        subtrees = [(state, None, tuple(chosen))]
        for base, tries, i, depth in reversed(stack):
            above = tuple(chosen[:depth])
            subtrees.extend((base, v, above) for v in tries[i:])
        self.subtrees = subtrees
        return True

    def run_subtree(self, i: int) -> tuple:
        """Search open subtree i to its end: (status, nodes, count, solutions, witness).

        The subtree's state is built here, by the process that claimed it.
        """
        base, v, above = self.subtrees[i]
        chosen = list(above)
        if v is None:
            state = base
        else:
            state = base.copy()
            state.take(v)
            chosen.append(v)
        sub = _CoverSearch(self.order, None, self.deadline, self.stop_at_first, self.solutions is not None)
        status = sub.run(state, chosen)
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
    forbidden: Callable[[BitWord], bool] | None,
    mode: str = MODE_FIRST,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    seed: int = 0,
    collect_witnesses: bool = False,
) -> SearchOutcome:
    """Search perfect codes whose codewords all avoid the forbidden predicate.

    Blocks N[v] with forbidden(v) are removed from the cover; the universe
    to dominate is still all of V(G).  Budgets default to the
    CUBECODES_BUDGET_NODES / CUBECODES_BUDGET_SECONDS environment caps, and
    must be non-negative.

    Four module names are read at each call, and tests patch them to force
    a cover state, a split or a clock stride: COUNTED_MIN_VERTICES picks the
    state, and a search with no node budget (which stays one global count)
    splits over the _split_workers() processes, if more than one, at the
    first clock read, every CHECK_EVERY nodes, past SPLIT_AFTER_S that finds
    at least two open subtrees.
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

    allowed = 0
    if forbidden is None:
        allowed = (1 << n_vertices) - 1
    else:
        for i in range(n_vertices):
            if not forbidden(graph.word(i)):
                allowed |= 1 << i

    started = time.monotonic()
    deadline = started + time_budget if time_budget is not None else None
    split_at = started + SPLIT_AFTER_S if workers > 1 else None
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
        split_at,
    )
    status = search.run(root, [])
    if status == _SPLIT:
        status = _run_split(search, workers)
    if status is None:
        status = STATUS_ENUMERATED if mode == MODE_ENUMERATE else STATUS_EXHAUSTED
    witnesses = None
    if status == STATUS_ENUMERATED and search.solutions is not None:
        witnesses = [VertexSet.from_ids(graph, sol) for sol in sorted(search.solutions)]
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

def enumerate_perfect_codes_naive(graph: InducedGraph, limit: int = 24) -> int:
    """Count perfect codes by scanning all 2^|V| vertex subsets."""
    n_vertices = len(graph)
    if n_vertices > limit:
        raise ResourceLimitError(
            f"naive scan over 2^{n_vertices} subsets refused (limit 2^{limit})",
            "naive_subset_limit",
            limit,
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
    forbidden: Callable[[BitWord], bool] | None = None,
) -> int:
    """Count perfect codes by always covering the lowest uncovered vertex.

    Structurally unlike the engine: no candidate ordering, no conflict
    propagation, no forced-move handling; disjointness is re-checked
    against the covered set at every step.
    """
    masks = [graph.closed_mask(i) for i in range(len(graph))]
    allowed = 0
    for i in range(len(graph)):
        if forbidden is None or not forbidden(graph.word(i)):
            allowed |= 1 << i
    full = (1 << len(graph)) - 1

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
