"""Perfect-code predicates and an exact-cover search over induced graphs.

A perfect code is a vertex set whose closed neighborhoods partition the
vertex set.  Deciding or enumerating perfect codes is an exact-cover
problem: the universe is V(G) and the candidate blocks are the closed
neighborhoods N[v].  The search below is backtracking with the
minimum-remaining-values rule, run as one loop over an explicit stack of
branch points, so its depth is not bounded by Python's recursion limit.
At each node the lowest-id uncovered vertex with at most one usable
covering block decides the move: none is a dead end, one is a forced move.
Otherwise the search branches on the uncovered vertex with the fewest
usable blocks (ties to the lowest id), trying them in candidate order.

The cover state has two representations that give the same search tree,
picked from the vertex count.  Below COUNTED_MIN_VERTICES, uncovered
vertices and usable blocks are bitmaps and each node re-counts candidates
by popcount.  From it up, each vertex also keeps its count of usable
blocks, and a move decrements only the members of the blocks it drops.

Verdicts are three-valued: a search that hits its node or time budget
reports budget-exceeded and never masquerades as an exhaustion proof.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .limits import ResourceLimitError, default_node_budget, default_time_budget, engine_cap
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


def is_code(graph: InducedGraph, code) -> bool:
    """True iff the members' closed neighborhoods are pairwise disjoint."""
    code = _as_code(graph, code)
    cover = 0
    for i in code.ids():
        nb = graph.closed_mask(i)
        if cover & nb:
            return False
        cover |= nb
    return True


def is_dominating(graph: InducedGraph, code) -> bool:
    """True iff every vertex lies in some member's closed neighborhood."""
    code = _as_code(graph, code)
    cover = 0
    for i in code.ids():
        cover |= graph.closed_mask(i)
    return cover == (1 << len(graph)) - 1


def is_perfect_code(graph: InducedGraph, code) -> bool:
    """True iff the closed neighborhoods of the members partition V(G)."""
    code = _as_code(graph, code)
    cover = 0
    for i in code.ids():
        nb = graph.closed_mask(i)
        if cover & nb:
            return False
        cover |= nb
    return cover == (1 << len(graph)) - 1


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
# bookkeeping costs more than it saves: twice the time on the n=7 graphs
# (99-128 vertices), break-even at about 190-200 vertices on Lucas,
# Fibonacci and circular-run graphs, and 0.7x from about 210 vertices on.
COUNTED_MIN_VERTICES = 200

# Count held by a covered vertex: larger than any candidate count, even
# after the decrements of the move that covers it.
_COVERED = 1 << 62


class _Blocks:
    """The closed-neighborhood blocks N[v] of one graph, as bitmaps over ids."""

    def __init__(self, masks: list[int]):
        self.masks = masks
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
    count is at most 1.  A move decrements only the members of the blocks it
    drops, and select() reads the same vertex the popcount scan would.
    """

    __slots__ = ("blocks", "uncovered", "available", "counts", "low")

    def __init__(self, blocks: _Blocks, uncovered: int, available: int, counts: list[int], low: int):
        self.blocks = blocks
        self.uncovered = uncovered
        self.available = available
        self.counts = counts
        self.low = low

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
            if c <= 1:
                low |= 1 << u
        return cls(blocks, (1 << len(masks)) - 1, available, counts, low)

    def copy(self) -> _CountedCover:
        return _CountedCover(self.blocks, self.uncovered, self.available, self.counts.copy(), self.low)

    def select(self) -> int:
        """Usable blocks covering the vertex the search decides on next."""
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
                    low |= 1 << x
        self.uncovered &= ~blocks.masks[v]
        self.available &= ~gone
        self.low = low & self.uncovered


class _CoverSearch:
    """One backtracking run on an explicit stack of branch points."""

    def __init__(self, order, node_budget, deadline, stop_at_first, collect):
        self.order = order
        self.node_budget = node_budget
        self.deadline = deadline
        self.stop_at_first = stop_at_first
        self.nodes = 0
        self.count = 0
        self.solutions: list[tuple[int, ...]] | None = [] if collect else None
        self.witness: tuple[int, ...] | None = None

    def run(self, state) -> str | None:
        """Search below state; STATUS_FOUND or STATUS_BUDGET, or None once complete.

        Each node covers the vertex that state.select() picks: no usable block
        is a dead end, one is a forced move applied to the node's own state,
        and more push a branch point whose children each get a copy of it
        (the last child takes the original).
        """
        node_budget = self.node_budget
        deadline = self.deadline
        chosen: list[int] = []
        stack: list[list] = []  # [state, candidates, next index, len(chosen)]
        while True:
            self.nodes += 1
            if node_budget is not None and self.nodes > node_budget:
                return STATUS_BUDGET
            if deadline is not None and self.nodes % 1024 == 0 and time.monotonic() > deadline:
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

    def _ordered(self, cands: int) -> list[int]:
        out = []
        while cands:
            low = cands & -cands
            out.append(low.bit_length() - 1)
            cands ^= low
        if self.order is not None:
            out.sort(key=self.order.__getitem__)
        return out


def _closed_masks(graph: InducedGraph) -> list[int]:
    cap = engine_cap()
    if len(graph) > cap:
        raise ResourceLimitError(
            f"search on {len(graph)} vertices exceeds the engine cap of {cap}"
            " (raise CUBECODES_ENGINE_CAP to override)",
            "engine_cap",
            cap,
        )
    return [graph.closed_mask(i) for i in range(len(graph))]


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
    CUBECODES_BUDGET_NODES / CUBECODES_BUDGET_SECONDS environment caps.
    """
    return _search(
        graph,
        forbidden,
        mode,
        len(graph) >= COUNTED_MIN_VERTICES,
        node_budget=node_budget,
        time_budget=time_budget,
        seed=seed,
        collect_witnesses=collect_witnesses,
    )


def _search(
    graph: InducedGraph,
    forbidden: Callable[[BitWord], bool] | None,
    mode: str,
    counted: bool,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    seed: int = 0,
    collect_witnesses: bool = False,
) -> SearchOutcome:
    """search_constrained with the cover-state representation given by counted."""
    mode = _normalize_mode(mode)
    masks = _closed_masks(graph)
    n_vertices = len(masks)
    if node_budget is None:
        node_budget = default_node_budget()
    if time_budget is None:
        time_budget = default_time_budget()

    allowed = 0
    if forbidden is None:
        allowed = (1 << n_vertices) - 1
    else:
        for i in range(n_vertices):
            if not forbidden(graph.word(i)):
                allowed |= 1 << i

    deadline = time.monotonic() + time_budget if time_budget is not None else None
    started = time.monotonic()
    blocks = _Blocks(masks)
    if counted:
        root = _CountedCover.root(blocks, allowed)
    else:
        root = _BitmapCover(blocks, (1 << n_vertices) - 1, allowed)
    search = _CoverSearch(
        _candidate_order(n_vertices, seed),
        node_budget,
        deadline,
        mode in (MODE_FIRST, MODE_PROVE_NONE),
        collect_witnesses and mode == MODE_ENUMERATE,
    )
    status = search.run(root)
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
