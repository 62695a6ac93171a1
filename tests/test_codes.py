"""Perfect-code predicates and the exact-cover search engine."""

import math
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from cubecodes import (
    BitWord,
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    ResourceLimitError,
    VertexSet,
    build_graph,
    circulation,
    count_perfect_codes_dfs,
    enumerate_perfect_codes_naive,
    find_perfect_code,
    gen_fibonacci,
    gen_lucas,
    has_circular_ones_run,
    is_code,
    is_dominating,
    is_perfect_code,
    search_constrained,
)
from cubecodes import codes
from cubecodes.codes import CHECK_EVERY, COUNTED_MIN_VERTICES
from cubecodes.graphs import InducedGraph

W = BitWord.from_string


def forced_search(graph, forbidden, mode, counted, *, split_after=None, workers=1,
                  check_every=CHECK_EVERY, **kwargs):
    """search_constrained in the counted or the bitmap state, split as given.

    Patches the four module names the search reads when called:
    codes.COUNTED_MIN_VERTICES, codes.SPLIT_AFTER_S, codes._split_workers
    and codes.CHECK_EVERY.  With split_after None or workers 1 the run is
    serial, however long it takes.
    """
    if split_after is None:
        split_after, workers = codes.SPLIT_AFTER_S, 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "COUNTED_MIN_VERTICES", 0 if counted else len(graph) + 1)
        patch.setattr(codes, "SPLIT_AFTER_S", split_after)
        patch.setattr(codes, "_split_workers", lambda: workers)
        patch.setattr(codes, "CHECK_EVERY", check_every)
        return search_constrained(graph, forbidden, mode, **kwargs)


def test_is_code_examples():
    q3 = build_graph(HYPERCUBE, 3)
    assert is_code(q3, [W("000"), W("111")])
    g4 = build_graph(LUCAS, 4)
    # 0001 lies in both closed neighborhoods
    assert not is_code(g4, [W("0000"), W("0101")])
    assert is_code(g4, [])
    with pytest.raises(ValueError):
        is_code(g4, [W("0110")])


def test_is_dominating_examples():
    g3 = build_graph(LUCAS, 3)
    assert is_dominating(g3, [W("000")])
    g4 = build_graph(LUCAS, 4)
    assert not is_dominating(g4, [W("0000")])  # 0101 is at distance 2
    assert is_dominating(g4, g4.words())
    assert not is_dominating(g4, [])


def test_is_perfect_code_examples():
    g2 = build_graph(LUCAS, 2)
    assert is_perfect_code(g2, [W("00")])
    g4 = build_graph(LUCAS, 4)
    for w in g4.words():
        assert not is_perfect_code(g4, [w])
    g0 = build_graph(LUCAS, 0)
    assert is_perfect_code(g0, [BitWord(0, 0)])


def test_perfect_code_is_code_and_dominating():
    # exhaustively on the 4-dimensional Lucas cube: all 2^7 subsets
    g = build_graph(LUCAS, 4)
    words = g.words()
    for m in range(1 << len(words)):
        subset = [words[i] for i in range(len(words)) if m >> i & 1]
        expect = is_code(g, subset) and is_dominating(g, subset)
        assert is_perfect_code(g, subset) == expect


def test_code_set_partition_arithmetic():
    # for any perfect code, closed neighborhood sizes sum to |V|
    for family, n in ((HYPERCUBE, 3), (HYPERCUBE, 7), (LUCAS, 3)):
        g = build_graph(family, n)
        out = find_perfect_code(g, "enumerate", collect_witnesses=True)
        assert out.count >= 1
        for witness in out.witnesses:
            total = sum(len(g.neighbor_ids(i)) + 1 for i in witness.ids())
            assert total == len(g)
            if family is HYPERCUBE:
                assert len(witness) * (n + 1) == 1 << n


def test_find_first_on_small_lucas():
    g = build_graph(LUCAS, 3)
    out = find_perfect_code(g, "first")
    assert out.status == "found"
    assert [str(w) for w in out.witness.words()] == ["000"]
    assert is_perfect_code(g, out.witness)


def test_prove_none_lucas_4_and_5():
    for n in (4, 5):
        out = find_perfect_code(build_graph(LUCAS, n), "prove_none")
        assert out.status == "exhausted"


def test_enumerate_q3_lists_antipodal_pairs():
    q3 = build_graph(HYPERCUBE, 3)
    out = find_perfect_code(q3, "enumerate", collect_witnesses=True)
    assert out.status == "enumerated"
    assert out.count == 4
    found = {frozenset(str(w) for w in ws.words()) for ws in out.witnesses}
    assert found == {
        frozenset({"000", "111"}),
        frozenset({"001", "110"}),
        frozenset({"010", "101"}),
        frozenset({"011", "100"}),
    }
    assert enumerate_perfect_codes_naive(q3) == 4
    assert count_perfect_codes_dfs(q3) == 4


def test_enumerate_matches_naive_on_small_families():
    for family, n_top in ((LUCAS, 6), (FIBONACCI, 5), (HYPERCUBE, 4)):
        for n in range(0, n_top + 1):
            g = build_graph(family, n)
            if len(g) > 20:
                continue
            assert find_perfect_code(g, "enumerate").count == enumerate_perfect_codes_naive(g)


def test_enumerate_matches_naive_on_random_subgraphs():
    rng = random.Random(1905)
    for _ in range(25):
        n = rng.randint(3, 5)
        size = rng.randint(2, min(16, 1 << n))
        g = InducedGraph(n, sorted(rng.sample(range(1 << n), size)))
        naive = enumerate_perfect_codes_naive(g)
        assert find_perfect_code(g, "enumerate").count == naive
        assert count_perfect_codes_dfs(g) == naive


def test_budget_exceeded_is_reported():
    g = build_graph(LUCAS, 12)
    out = find_perfect_code(g, "prove_none", node_budget=10)
    assert out.status == "budget-exceeded"
    assert out.nodes == 11
    # a zero time budget trips at the first deadline check
    out = find_perfect_code(build_graph(LUCAS, 14), "prove_none", time_budget=0.0)
    assert out.status == "budget-exceeded"


@pytest.mark.parametrize(
    "budgets",
    [{"node_budget": -5}, {"time_budget": -0.5}, {"time_budget": math.nan}],
)
def test_malformed_budget_is_refused(budgets):
    with pytest.raises(ValueError, match="budget must be non-negative"):
        search_constrained(build_graph(LUCAS, 12), None, "prove_none", **budgets)


@pytest.mark.parametrize("name, value", [("CUBECODES_BUDGET_SECONDS", "nan"), ("CUBECODES_BUDGET_NODES", "-5")])
def test_malformed_env_budget_names_the_variable(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        find_perfect_code(build_graph(LUCAS, 12), "prove_none")


@pytest.mark.parametrize("split_after, workers", [(None, 1), (0.05, 2)])
def test_time_budget_stops_near_its_deadline(split_after, workers):
    # Lucas n=17 prove-none (134k nodes) takes seconds, serial or split over
    # two processes; both stop within a few clock reads of 0.25 s.
    g = build_graph(LUCAS, 17)
    start = time.monotonic()
    out = forced_search(g, None, "prove_none", True, time_budget=0.25, split_after=split_after, workers=workers)
    assert out.status == "budget-exceeded"
    assert time.monotonic() - start < 1.5


def test_seeded_search_same_verdict():
    g = build_graph(LUCAS, 9)
    base = find_perfect_code(g, "prove_none")
    for seed in (1, 2, 42):
        out = find_perfect_code(g, "prove_none", seed=seed)
        assert out.status == base.status == "exhausted"
        assert out.seed == seed
    q7 = build_graph(HYPERCUBE, 7)
    for seed in (0, 7, 99):
        assert find_perfect_code(q7, "enumerate", seed=seed).count == 240


def test_fixed_seed_reproduces_witness():
    q7 = build_graph(HYPERCUBE, 7)
    for seed in (0, 5):
        first = find_perfect_code(q7, "first", seed=seed)
        again = find_perfect_code(q7, "first", seed=seed)
        assert first.witness.mask == again.witness.mask


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("CUBECODES_BUDGET_NODES", "10")
    out = find_perfect_code(build_graph(LUCAS, 12), "prove_none")
    assert out.status == "budget-exceeded"
    monkeypatch.delenv("CUBECODES_BUDGET_NODES")
    out = find_perfect_code(build_graph(LUCAS, 12), "prove_none")
    assert out.status == "exhausted"


def test_found_witnesses_revalidate():
    for family, n in ((HYPERCUBE, 7), (LUCAS, 2), (FIBONACCI, 3)):
        g = build_graph(family, n)
        out = find_perfect_code(g, "first")
        assert out.status == "found"
        assert is_perfect_code(g, out.witness)


def test_search_constrained_q3():
    q3 = build_graph(HYPERCUBE, 3)
    out = search_constrained(q3, lambda w: has_circular_ones_run(w, 2), "prove_none")
    assert out.status == "exhausted"
    # brute force over the 4 allowed codewords confirms
    allowed = [w for w in q3.words() if not has_circular_ones_run(w, 2)]
    assert {str(w) for w in allowed} == {"000", "001", "010", "100"}
    for m in range(1 << len(allowed)):
        subset = [allowed[i] for i in range(len(allowed)) if m >> i & 1]
        assert not is_perfect_code(q3, subset)


def test_search_constrained_q7():
    q7 = build_graph(HYPERCUBE, 7)
    for s in range(2, 7):
        out = search_constrained(
            q7, lambda w, s=s: has_circular_ones_run(w, s), "prove_none"
        )
        assert out.status == "exhausted", s
    out = search_constrained(q7, lambda w: has_circular_ones_run(w, 7), "first")
    assert out.status == "found"
    assert all(str(w) != "1111111" for w in out.witness.words())
    assert is_perfect_code(q7, out.witness)


def test_rotation_maps_codes_to_codes():
    out = search_constrained(
        build_graph(HYPERCUBE, 7), lambda w: has_circular_ones_run(w, 7), "first"
    )
    g = build_graph(gen_lucas(7), 7)
    code = VertexSet.from_words(g, out.witness.words())
    assert is_perfect_code(g, code)
    rotated = VertexSet.from_words(g, [circulation(w, 2) for w in code.words()])
    assert is_perfect_code(g, rotated)


def test_outcome_json_shape():
    g = build_graph(LUCAS, 3)
    payload = find_perfect_code(g, "first").to_json_dict()
    assert list(payload) == ["status", "witness", "nodes", "millis", "seed"]
    payload = find_perfect_code(g, "enumerate").to_json_dict()
    assert list(payload) == ["status", "count", "nodes", "millis", "seed"]
    payload = find_perfect_code(build_graph(LUCAS, 4), "prove_none").to_json_dict()
    assert list(payload) == ["status", "nodes", "millis", "seed"]


def test_engine_vertex_cap():
    with pytest.raises(ResourceLimitError):
        find_perfect_code(build_graph(HYPERCUBE, 13))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (
            lambda: search_constrained(build_graph(LUCAS, 3), None, "sideways"),
            ValueError,
            "unknown search mode 'sideways'",
        ),
        (
            lambda: enumerate_perfect_codes_naive(InducedGraph(5, list(range(25)))),
            ResourceLimitError,
            r"2\^25 subsets refused",
        ),
    ],
    ids=["unknown-mode", "naive-scan-too-large"],
)
def test_search_input_rejected(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_foreign_code_rejected():
    g = build_graph(LUCAS, 4)
    other = build_graph(LUCAS, 4)
    code = VertexSet.from_words(other, [W("0000")])
    with pytest.raises(ValueError):
        is_perfect_code(g, code)


# ---------------------------------------------------------------------------
# The two cover-state representations against each other and the oracles
# ---------------------------------------------------------------------------

def _fingerprint(out):
    witness = None if out.witness is None else out.witness.mask
    witnesses = None if out.witnesses is None else [w.mask for w in out.witnesses]
    return out.status, out.nodes, out.count, witness, witnesses


def _verdict(out):
    """The fingerprint without the node count."""
    status, _, count, witness, witnesses = _fingerprint(out)
    return status, count, witness, witnesses


def search_both(graph, forbidden, mode, **kwargs):
    """Run the bitmap and the counted state on one input: (bitmap, counted).

    They reach the same status, count, witness and witnesses.  The counted
    state ends a node as soon as a vertex has no usable block left, where
    the bitmap state may first make forced moves, so it never searches more.
    """
    bitmap = forced_search(graph, forbidden, mode, False, **kwargs)
    counted = forced_search(graph, forbidden, mode, True, **kwargs)
    assert _verdict(bitmap) == _verdict(counted)
    assert counted.nodes <= bitmap.nodes
    return bitmap, counted


def search_split(graph, forbidden, mode, **kwargs):
    """search_both, then the same search split at once over 2 and over 3 processes.

    The split comes at the first clock read with two open subtrees: after
    every node with the bitmap state, every 4 nodes with the counted one.
    Each split run gives the serial run of its own state, nodes included.
    """
    serial = search_both(graph, forbidden, mode, **kwargs)
    for workers, counted, check_every in ((2, False, 1), (3, True, 4)):
        split = forced_search(
            graph, forbidden, mode, counted,
            split_after=0.0, workers=workers, check_every=check_every, **kwargs,
        )
        assert _fingerprint(split) == _fingerprint(serial[counted]), (workers, counted)
    return serial


def check_against_oracles(graph, forbidden=None, seeds=(0, 5)):
    """Enumerate and first mode, serial and split; counts must match the oracles."""
    count = None
    for seed in seeds:
        out, _ = search_split(graph, forbidden, "enumerate", seed=seed, collect_witnesses=True)
        assert out.status == "enumerated"
        assert count in (None, out.count)
        count = out.count
        for witness in out.witnesses:
            assert is_perfect_code(graph, witness)
            assert forbidden is None or not any(forbidden(w) for w in witness.words())
        first, _ = search_split(graph, forbidden, "first", seed=seed)
        if count:
            assert first.status == "found" and is_perfect_code(graph, first.witness)
        else:
            assert first.status == "exhausted"
    assert count == count_perfect_codes_dfs(graph, forbidden)
    if forbidden is None and len(graph) <= 14:
        assert count == enumerate_perfect_codes_naive(graph)
    return count


def test_representations_agree_on_families():
    for family in (HYPERCUBE, FIBONACCI, LUCAS):
        for n in range(0, 10):
            g = build_graph(family, n)
            if len(g) <= 128:
                check_against_oracles(g)
            else:  # Q8 is exhausted in 712 nodes; Q9 needs far more
                outs = search_both(g, None, "enumerate", node_budget=3000)
                assert [(out.status, out.nodes) for out in outs] == 2 * [
                    ("enumerated", 712) if n == 8 else ("budget-exceeded", 3001)
                ]
                if n == 8:
                    assert [out.nodes for out in search_split(g, None, "enumerate")] == [712, 712]
    for s in range(2, 8):
        for family in (gen_lucas(s), gen_fibonacci(s)):
            check_against_oracles(build_graph(family, 7), seeds=(0, s))
    q7 = build_graph(HYPERCUBE, 7)
    for s in range(2, 8):
        avoid = lambda w, s=s: has_circular_ones_run(w, s)
        assert check_against_oracles(q7, avoid, seeds=(0, s)) == (0 if s < 7 else 210)


@st.composite
def induced_graphs(draw, max_words=24):
    n = draw(st.integers(1, 6))
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(max_words, 1 << n)))
    return InducedGraph(n, sorted(words))


@settings(max_examples=80)
@given(graph=induced_graphs(), banned=st.none() | st.sets(st.integers(0, 63)), seed=st.integers(1, 10**6))
def test_representations_agree_on_random_graphs(graph, banned, seed):
    forbidden = None if banned is None else (lambda w: w.bits in banned)
    check_against_oracles(graph, forbidden, seeds=(0, seed))


def test_node_counts_are_pinned():
    # Sizes of the MRV search tree, bitmap and counted state: a change to the
    # selection rule, the tie-break, the candidate order or the dead-end
    # test moves them.
    for family, n, mode, bitmap_nodes, counted_nodes in (
        (LUCAS, 10, "prove_none", 142, 95),
        (LUCAS, 12, "prove_none", 521, 303),
        (LUCAS, 13, "prove_none", 1461, 716),
        (LUCAS, 14, "prove_none", 3919, 1896),
        (FIBONACCI, 13, "prove_none", 1835, 899),
        (HYPERCUBE, 7, "enumerate", 3169, 3169),
    ):
        g = build_graph(family, n)
        bitmap, counted = search_split(g, None, mode)
        assert (bitmap.nodes, counted.nodes) == (bitmap_nodes, counted_nodes), (family, n)
        nodes = counted_nodes if len(g) >= COUNTED_MIN_VERTICES else bitmap_nodes
        assert find_perfect_code(g, mode).nodes == nodes
    assert len(build_graph(HYPERCUBE, 7)) < COUNTED_MIN_VERTICES <= len(build_graph(LUCAS, 12))


def test_counted_state_stops_at_a_vertex_without_blocks():
    # Every block covering the last vertex is banned, so the counted state
    # starts dead.  With every block of vertex 0 but its own banned too, the
    # bitmap state first makes forced moves from vertex 0 on.  The DFS
    # oracle reaches the last vertex only after covering all the others, in
    # under 0.1 s on Lucas n=9 but over a minute on n=12.
    for n in (9, 12):
        g = build_graph(LUCAS, n)
        last = len(g) - 1
        dead = {g.word(i).bits for i in [last, *g.neighbor_ids(last)]}
        forced = dead | {g.word(i).bits for i in g.neighbor_ids(0)}
        for banned in (dead, forced):
            forbidden = lambda w: w.bits in banned
            bitmap, counted = search_both(g, forbidden, "prove_none")
            assert (counted.status, counted.nodes) == ("exhausted", 1)
            if n == 9:
                assert count_perfect_codes_dfs(g, forbidden) == 0
        assert bitmap.nodes > 1


def test_split_node_counts_are_pinned():
    # Long enough to split on a host with two CPUs; the tree stays the serial one.
    for family, n, nodes in ((LUCAS, 15, 4752), (FIBONACCI, 14, 2405)):
        out = find_perfect_code(build_graph(family, n), "prove_none")
        assert (out.status, out.nodes) == ("exhausted", nodes), (family, n)


def test_split_over_more_workers_than_cpus():
    # Workers contend for the task pipe; every subtree is still searched
    # once, and the merge is the serial result.
    workers = len(os.sched_getaffinity(0)) + 3
    for family, n, mode in ((FIBONACCI, 12, "prove_none"), (HYPERCUBE, 7, "enumerate")):
        g = build_graph(family, n)
        counted = len(g) >= COUNTED_MIN_VERTICES
        serial = forced_search(g, None, mode, counted, collect_witnesses=True)
        split = forced_search(
            g, None, mode, counted, collect_witnesses=True,
            split_after=0.0, workers=workers, check_every=8,
        )
        assert _fingerprint(split) == _fingerprint(serial), (family, n)


def test_split_stops_at_the_serial_witness():
    # Every split point of a first-mode search that branches: the witness is
    # the serial one, and so is the node count, whatever later subtrees the
    # other workers searched.
    q7 = build_graph(HYPERCUBE, 7)
    avoid = lambda w: has_circular_ones_run(w, 7)
    for seed in (0, 3, 11):
        serial = forced_search(q7, avoid, "first", False, seed=seed)
        for check_every in range(1, serial.nodes):
            split = forced_search(
                q7, avoid, "first", False, seed=seed,
                split_after=0.0, workers=2, check_every=check_every,
            )
            assert _fingerprint(split) == _fingerprint(serial), (seed, check_every)


def disjoint_k2_pieces(n_pieces):
    """Disjoint K2 pieces {x0, x1}, x of even weight: 2^n_pieces perfect codes."""
    xs = [x for x in range(1 << 10) if x.bit_count() % 2 == 0][:n_pieces]
    return InducedGraph(11, sorted(x << 1 | b for x in xs for b in (0, 1)))


@pytest.mark.parametrize("check_every", [4, 6, 8])
def test_split_results_of_many_workers_stay_apart(check_every):
    # Each worker sends thousands of witnesses, records far longer than an
    # atomic pipe write; no worker's records may mix with another's.  Mixed
    # records depend on how the processes interleave, so each split runs
    # several times.
    g = disjoint_k2_pieces(14)
    serial = forced_search(g, None, "enumerate", False, collect_witnesses=True)
    assert serial.count == 1 << 14
    for attempt in range(5):
        split = forced_search(
            g, None, "enumerate", False, collect_witnesses=True,
            split_after=0.0, workers=4, check_every=check_every,
        )
        assert _fingerprint(split) == _fingerprint(serial), attempt


@pytest.mark.parametrize("failing, error", [("child", RuntimeError), ("parent", ZeroDivisionError)])
def test_split_raises_when_a_process_fails(monkeypatch, failing, error):
    # A subtree search that raises in a forked worker fails the whole search;
    # one that raises in this process propagates.  Either way every worker
    # is reaped, which the conftest fixture checks.  The other processes
    # pause before each subtree, so the failing ones get subtrees to claim.
    parent = os.getpid()
    run_subtree = codes._CoverSearch.run_subtree

    def failing_run_subtree(search, i):
        if (os.getpid() != parent) == (failing == "child"):
            raise ZeroDivisionError("subtree search failed")
        time.sleep(0.05)
        return run_subtree(search, i)

    monkeypatch.setattr(codes._CoverSearch, "run_subtree", failing_run_subtree)
    with pytest.raises(error, match="worker" if failing == "child" else "subtree"):
        forced_search(build_graph(LUCAS, 12), None, "prove_none", True, split_after=0.0, workers=3, check_every=8)


def test_split_closes_its_pipes_when_fork_fails(monkeypatch):
    # The second fork fails: the error propagates, the first worker is
    # reaped, and no pipe end stays open.
    fork = os.fork
    forks = []

    def failing_fork():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        forced_search(build_graph(LUCAS, 12), None, "prove_none", True, split_after=0.0, workers=3, check_every=8)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.fixture
def counted_forks(monkeypatch):
    """Split every search at its first clock read and count the forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(codes, "SPLIT_AFTER_S", 0.0)
    return forks


def test_split_uses_every_cpu_and_only_one_thread(counted_forks):
    g = build_graph(LUCAS, 12)
    assert find_perfect_code(g, "prove_none").nodes == 303
    assert len(counted_forks) == len(os.sched_getaffinity(0)) - 1
    counted_forks.clear()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert find_perfect_code(g, "prove_none").nodes == 303
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert find_perfect_code(g, "prove_none", node_budget=10**6).nodes == 303
    assert counted_forks == []


def test_deep_search_needs_no_recursion():
    # 512 disjoint K2 pieces {x0, x1} with x of even weight: no edges run
    # between pieces, so first mode branches once per piece, 512 deep.
    g = disjoint_k2_pieces(512)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        outs = search_both(g, None, "first")
    finally:
        sys.setrecursionlimit(limit)
    for out in outs:
        assert out.status == "found" and out.nodes == 513
        assert len(out.witness) == 512 and is_perfect_code(g, out.witness)
