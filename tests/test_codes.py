"""Perfect-code predicates and the exact-cover search engine."""

import math
import os
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cubecodes import (
    BitWord,
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    ResourceLimitError,
    VertexSet,
    build_graph,
    circulation,
    construct_gen_lucas_code,
    count_perfect_codes_dfs,
    enumerate_perfect_codes_naive,
    find_perfect_code,
    gen_fibonacci,
    gen_lucas,
    has_circular_ones_run,
    is_code,
    is_dominating,
    is_perfect_code,
    parse_family,
    search_constrained,
)
from cubecodes import codes
from cubecodes.codes import COUNTED_MIN_VERTICES
from cubecodes.graphs import InducedGraph

W = BitWord.from_string


def forced_search(graph, codewords, mode, counted, **kwargs):
    """search_constrained in the counted or the bitmap state.

    Patches codes.COUNTED_MIN_VERTICES, which the search reads when called.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "COUNTED_MIN_VERTICES", 0 if counted else len(graph) + 1)
        return search_constrained(graph, codewords, mode, **kwargs)


def no_symmetry(graph, allowed):
    """The trivial group: patched in for codes._symmetry_group, it gives the plain tree."""
    return []


def codewords_outside(graph, banned):
    """The vertices of the graph whose words are not in banned."""
    return VertexSet.from_ids(graph, [i for i, bits in enumerate(graph.vertices) if bits not in banned])


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


def test_validators_on_the_p4_construction():
    code = construct_gen_lucas_code(4, "n-2")  # 2,047 members in 32,737 vertices
    graph = code.graph
    assert is_perfect_code(graph, code)
    member = code.ids()[0]
    neighbor = graph.neighbor_ids(member)[0]
    dropped = VertexSet(graph, code.mask ^ 1 << member)
    assert is_code(graph, dropped) and not is_dominating(graph, dropped)
    assert not is_code(graph, VertexSet(graph, code.mask | 1 << neighbor))
    assert not is_perfect_code(graph, VertexSet(graph, dropped.mask | 1 << neighbor))


def test_validators_on_the_empty_graph():
    empty = InducedGraph(3, [])
    assert is_code(empty, []) and is_dominating(empty, []) and is_perfect_code(empty, [])


def cover_counts(graph, code):
    """Oracle for the validators: entry j counts the members whose closed neighborhood holds j."""
    counts = [0] * len(graph)
    for i in code.ids():
        counts[i] += 1
        for j in graph.neighbor_ids(i):
            counts[j] += 1
    return counts


def check_validators(graph, code):
    counts = cover_counts(graph, code)
    assert is_code(graph, code) == (max(counts, default=0) <= 1)
    assert is_dominating(graph, code) == (0 not in counts)
    assert is_perfect_code(graph, code) == (counts.count(1) == len(graph))


def greedy_code(graph, order):
    """A code that takes each vertex in order whose closed neighborhood is still uncovered."""
    covered = chosen = 0
    for i in order:
        mask = graph.closed_mask(i)
        if not covered & mask:
            covered |= mask
            chosen |= 1 << i
    return VertexSet(graph, chosen)


def sample_codes(graph, rng):
    """Codes of every kind for the validators: empty, whole, sparse, greedy and one off greedy."""
    ids = range(len(graph))
    yield VertexSet(graph, 0)
    yield VertexSet.from_ids(graph, ids)
    for density in (0.05, 0.2):
        yield VertexSet.from_ids(graph, [i for i in ids if rng.random() < density])
    for _ in range(3):
        code = greedy_code(graph, rng.sample(ids, len(graph)))
        yield code
        if len(graph):
            yield VertexSet(graph, code.mask ^ 1 << rng.randrange(len(graph)))


@pytest.mark.parametrize("kind", ["qn", "fib", "lucas", "fib1s", "lucas1s"])
def test_validators_match_the_cover_counts_on_families(kind):
    rng = random.Random(kind)
    for n in range(11):
        plain = kind in ("qn", "fib", "lucas")
        for spec in [kind] if plain else [f"{kind}:{s}" for s in range(1, n + 1)]:
            graph = build_graph(parse_family(spec), n)
            for code in sample_codes(graph, rng):
                check_validators(graph, code)


@pytest.mark.parametrize("validator", [is_code, is_dominating, is_perfect_code])
def test_validators_hold_the_word_bitmap_to_the_enumeration_cap(monkeypatch, validator):
    graph = InducedGraph(7, [0, 1, 3])
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "100")
    with pytest.raises(ResourceLimitError, match="CUBECODES_ENUM_CAP") as err:
        validator(graph, [W("0000000")])
    assert err.value.cap_name == "enum_cap"
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "128")
    assert validator(graph, [W("0000001")])  # N[0000001] is the whole graph


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


@pytest.mark.parametrize("counted", [True, False], ids=["counted", "bitmap"])
def test_zero_time_budget_stops_at_once(counted):
    # Lucas n=5 prove-none takes 5 nodes counted and 7 on bitmaps; the
    # deadline is tested at the first of them, as the node budget is.
    g = build_graph(LUCAS, 5)
    assert forced_search(g, None, "prove_none", counted).nodes == (5 if counted else 7)
    out = forced_search(g, None, "prove_none", counted, time_budget=0.0)
    assert out.status == "budget-exceeded"
    assert out.nodes <= 1
    out = forced_search(g, None, "prove_none", counted, node_budget=0)
    assert (out.status, out.nodes) == ("budget-exceeded", 1)


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


def test_time_budget_stops_near_its_deadline():
    # Lucas n=17 prove-none (88k nodes) takes seconds; the search stops
    # within one node of 0.25 s.
    g = build_graph(LUCAS, 17)
    start = time.monotonic()
    out = forced_search(g, None, "prove_none", True, time_budget=0.25)
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
    out = search_constrained(q3, VertexSet.from_family(q3, gen_lucas(2)), "prove_none")
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
        out = search_constrained(q7, VertexSet.from_family(q7, gen_lucas(s)), "prove_none")
        assert out.status == "exhausted", s
    out = search_constrained(q7, VertexSet.from_family(q7, gen_lucas(7)), "first")
    assert out.status == "found"
    assert all(str(w) != "1111111" for w in out.witness.words())
    assert is_perfect_code(q7, out.witness)


def test_rotation_maps_codes_to_codes():
    q7 = build_graph(HYPERCUBE, 7)
    out = search_constrained(q7, VertexSet.from_family(q7, gen_lucas(7)), "first")
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
    # the allowed codewords of a search are read the same way
    for search in (lambda: search_constrained(g, code, "prove_none"), lambda: count_perfect_codes_dfs(g, code)):
        with pytest.raises(ValueError, match="belongs to a different graph"):
            search()


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


def search_both(graph, codewords, mode, **kwargs):
    """Run the bitmap and the counted state on one input: (bitmap, counted).

    They reach the same status, count, witness and witnesses.  The counted
    state ends a node as soon as a vertex has no usable block left, where
    the bitmap state may first make forced moves, so it never searches more.
    """
    bitmap = forced_search(graph, codewords, mode, False, **kwargs)
    counted = forced_search(graph, codewords, mode, True, **kwargs)
    assert _verdict(bitmap) == _verdict(counted)
    assert counted.nodes <= bitmap.nodes
    return bitmap, counted


def check_against_oracles(graph, codewords=None, seeds=(0, 5)):
    """Enumerate, listing the codes and weighted, and first mode, in both cover states.

    Counts must match the oracles, and the listed codes must not depend on
    the seed.
    """
    count = listed = None
    for seed in seeds:
        out, _ = search_both(graph, codewords, "enumerate", seed=seed, collect_witnesses=True)
        assert out.status == "enumerated"
        masks = [w.mask for w in out.witnesses]
        assert (count, listed) in ((None, None), (out.count, masks))
        count, listed = out.count, masks
        for witness in out.witnesses:
            assert is_perfect_code(graph, witness)
            assert codewords is None or witness.mask & ~codewords.mask == 0
        weighted, _ = search_both(graph, codewords, "enumerate", seed=seed)
        assert (weighted.status, weighted.count) == ("enumerated", count)
        first, _ = search_both(graph, codewords, "first", seed=seed)
        if count:
            assert first.status == "found" and is_perfect_code(graph, first.witness)
        else:
            assert first.status == "exhausted"
    assert count == count_perfect_codes_dfs(graph, codewords)
    if codewords is None and len(graph) <= 14:
        assert count == enumerate_perfect_codes_naive(graph)
    return count


def test_representations_agree_on_families():
    for family in (HYPERCUBE, FIBONACCI, LUCAS):
        for n in range(0, 10):
            g = build_graph(family, n)
            if len(g) <= 128:
                check_against_oracles(g)
            else:  # Q8 is exhausted in 120 nodes, 712 on the plain tree; Q9 needs far more
                outs = search_both(g, None, "enumerate", node_budget=3000)
                assert [(out.status, out.nodes) for out in outs] == 2 * [
                    ("enumerated", 120) if n == 8 else ("budget-exceeded", 3001)
                ]
                if n == 8:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(codes, "_symmetry_group", no_symmetry)
                        assert [out.nodes for out in search_both(g, None, "enumerate")] == [712, 712]
    for s in range(2, 8):
        for family in (gen_lucas(s), gen_fibonacci(s)):
            check_against_oracles(build_graph(family, 7), seeds=(0, s))
    q7 = build_graph(HYPERCUBE, 7)
    for s in range(2, 8):
        avoid = VertexSet.from_family(q7, gen_lucas(s))
        assert check_against_oracles(q7, avoid, seeds=(0, s)) == (0 if s < 7 else 210)


@st.composite
def induced_graphs(draw, max_words=24):
    n = draw(st.integers(1, 6))
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(max_words, 1 << n)))
    return InducedGraph(n, sorted(words))


@given(graph=induced_graphs())
def test_blocks_are_the_vertex_and_its_neighbor_ids_on_random_graphs(graph):
    # The search's blocks come from closed_mask, which shares no code with neighbor_ids.
    for i in range(len(graph)):
        assert graph.closed_mask(i) == sum(1 << j for j in [i, *graph.neighbor_ids(i)])


@given(graph=induced_graphs(), data=st.data())
@example(graph=InducedGraph(0, [0]), data=None)
@example(graph=InducedGraph(0, []), data=None)
@example(graph=InducedGraph(4, []), data=None)
def test_validators_match_the_cover_counts_on_random_graphs(graph, data):
    if data is None:
        candidates = [VertexSet(graph, 0), VertexSet.from_ids(graph, range(len(graph)))]
    else:
        ids = data.draw(st.sets(st.integers(0, len(graph) - 1)))
        order = data.draw(st.permutations(range(len(graph))))
        candidates = [VertexSet.from_ids(graph, ids), greedy_code(graph, order)]
    for code in candidates:
        check_validators(graph, code)


@settings(max_examples=80)
@given(graph=induced_graphs(), banned=st.none() | st.sets(st.integers(0, 63)), seed=st.integers(1, 10**6))
def test_representations_agree_on_random_graphs(graph, banned, seed):
    codewords = None if banned is None else codewords_outside(graph, banned)
    check_against_oracles(graph, codewords, seeds=(0, seed))


def test_node_counts_are_pinned(monkeypatch):
    # Sizes of the MRV search tree, bitmap and counted state, first plain
    # and then pruned by symmetry: a change to the selection rule, the
    # tie-break, the candidate order, the dead-end test or the group moves
    # them.
    for family, n, mode, plain, pruned in (
        (LUCAS, 10, "prove_none", (142, 95), (116, 77)),
        (LUCAS, 12, "prove_none", (521, 303), (218, 137)),
        (LUCAS, 13, "prove_none", (1461, 716), (1057, 507)),
        (LUCAS, 14, "prove_none", (3919, 1896), (2940, 1424)),
        (FIBONACCI, 12, "prove_none", (659, 332), (410, 224)),
        (FIBONACCI, 13, "prove_none", (1835, 899), (1835, 899)),
        (HYPERCUBE, 7, "enumerate", (3169, 3169), (635, 635)),
    ):
        g = build_graph(family, n)
        state = 1 if len(g) >= COUNTED_MIN_VERTICES else 0
        for group, (bitmap_nodes, counted_nodes) in ((no_symmetry, plain), (codes._symmetry_group, pruned)):
            monkeypatch.setattr(codes, "_symmetry_group", group)
            bitmap, counted = search_both(g, None, mode)
            assert (bitmap.nodes, counted.nodes) == (bitmap_nodes, counted_nodes), (family, n)
            assert find_perfect_code(g, mode).nodes == (bitmap_nodes, counted_nodes)[state]
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
            codewords = codewords_outside(g, banned)
            bitmap, counted = search_both(g, codewords, "prove_none")
            assert (counted.status, counted.nodes) == ("exhausted", 1)
            if n == 9:
                assert count_perfect_codes_dfs(g, codewords) == 0
        assert bitmap.nodes > 1


def check_planes(state):
    """The counted state's bit planes against a recount of its usable blocks.

    Each uncovered vertex counts the available blocks that cover it, each
    covered vertex 0, and select() names the uncovered vertex of least
    count, the lowest id among equals.
    """
    masks = state.blocks.masks
    ids = range(len(masks))
    counts = [(masks[u] & state.available).bit_count() if state.uncovered >> u & 1 else 0 for u in ids]
    assert [sum((p >> u & 1) << i for i, p in enumerate(state.planes)) for u in ids] == counts
    if state.uncovered:
        least = min((u for u in ids if state.uncovered >> u & 1), key=counts.__getitem__)
        assert state.select() == masks[least] & state.available


def graph_blocks(graph):
    """The closed neighborhoods of the graph as the search's blocks, as search_constrained builds them."""
    return codes._Blocks([graph.closed_mask(i) for i in range(len(graph))])


def walk_counted_cover(graph, allowed, rnd, walks=4):
    """Random moves from the root of the counted state, checked after every one.

    Before some moves the state is copied, and each walk after the first
    goes on from the last copy left, which the moves since must not have
    touched.
    """
    root = codes._CountedCover.root(graph_blocks(graph), allowed)
    copies = [(root, list(root.planes))]
    for _ in range(walks):
        if not copies:
            break
        state, planes = copies.pop()
        assert state.planes == planes
        check_planes(state)
        while state.available:
            if rnd.random() < 0.25:
                copies.append((state.copy(), list(state.planes)))
            state.take(rnd.choice(VertexSet(graph, state.available).ids()))
            check_planes(state)


@settings(max_examples=100)
@given(graph=induced_graphs(max_words=64), data=st.data())
def test_plane_counts_match_a_recount_on_random_graphs(graph, data):
    allowed = data.draw(st.integers(0, (1 << len(graph)) - 1))
    walk_counted_cover(graph, allowed, data.draw(st.randoms(use_true_random=False)))


def test_plane_counts_match_a_recount_on_families():
    rnd = random.Random(1)
    for family in (HYPERCUBE, FIBONACCI, LUCAS):
        for n in range(0, 13 if family is not HYPERCUBE else 9):
            g = build_graph(family, n)
            full = (1 << len(g)) - 1
            for allowed in (full, full & ~(1 << rnd.randrange(len(g))), rnd.getrandbits(len(g))):
                walk_counted_cover(g, allowed, rnd)


def test_counted_state_holds_a_count_of_63():
    # 0^62 and its 62 neighbours: N[0^62] is the whole graph, so the root
    # counts 63 blocks there, which takes a sixth plane.
    star = InducedGraph(62, [0] + [1 << b for b in range(62)])
    root = codes._CountedCover.root(graph_blocks(star), (1 << 63) - 1)
    assert len(root.planes) == 6
    walk_counted_cover(star, (1 << 63) - 1, random.Random(3))
    assert count_perfect_codes_dfs(star) == 1
    enumerated = forced_search(star, None, "enumerate", True, collect_witnesses=True)
    assert (enumerated.status, enumerated.count) == ("enumerated", 1)
    assert [w.words() for w in enumerated.witnesses] == [[BitWord(62, 0)]]
    assert forced_search(star, None, "first", True).witness.words() == [BitWord(62, 0)]


@st.composite
def reflexive_relations(draw, max_ids=12):
    """Block masks over up to max_ids ids from a random symmetric, reflexive relation."""
    k = draw(st.integers(0, max_ids))
    masks = [1 << i for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def exact_covers(masks, allowed):
    """Every set of allowed ids whose blocks partition all ids, as ascending id tuples, by a subset scan."""
    full = (1 << len(masks)) - 1
    found = []
    for subset in range(1 << len(masks)):
        if subset & ~allowed:
            continue
        ids = [i for i in range(len(masks)) if subset >> i & 1]
        if sum(masks[i].bit_count() for i in ids) == len(masks) and sum(masks[i] for i in ids) == full:
            found.append(tuple(ids))
    return sorted(found)


@settings(max_examples=150)
@given(masks=reflexive_relations(), data=st.data())
def test_cover_core_matches_a_subset_scan_on_random_relations(masks, data):
    # The core takes block masks, not a graph: these relations need not be
    # the closed neighborhoods of any cube graph.
    full = (1 << len(masks)) - 1
    allowed = data.draw(st.sampled_from([full]) | st.integers(0, full))
    order = data.draw(st.none() | st.permutations(range(len(masks))).map(list))
    expected = exact_covers(masks, allowed)
    for counted in (False, True):
        def root():
            blocks = codes._Blocks(masks)
            if counted:
                return codes._CountedCover.root(blocks, allowed)
            return codes._BitmapCover(blocks, full, allowed)

        status, nodes, count, listed = codes._cover(root(), [], order, None, None, True, False)
        assert (status, count) == (None, len(expected)), counted
        assert sorted(tuple(sorted(code)) for code in listed) == expected, counted
        assert codes._cover(root(), [], order, None, None, False, False)[1:] == (nodes, count, [])
        status, _, _, first = codes._cover(root(), [], order, None, None, False, True)
        if expected:
            assert status == codes.STATUS_FOUND and tuple(sorted(first[0])) in expected
        else:
            assert (status, first) == (None, [])


def test_frontier_node_counts_are_pinned(monkeypatch):
    # The longest prove-none searches of the refute benchmark workload, plain
    # and pruned by symmetry, at the default settings.
    for family, n, plain, pruned in ((LUCAS, 15, 4752, 1672), (FIBONACCI, 14, 2405, 2405)):
        g = build_graph(family, n)
        for group, nodes in ((no_symmetry, plain), (codes._symmetry_group, pruned)):
            monkeypatch.setattr(codes, "_symmetry_group", group)
            out = find_perfect_code(g, "prove_none")
            assert (out.status, out.nodes) == ("exhausted", nodes), (family, n)


def test_search_runs_in_one_process(monkeypatch):
    # Lucas n=15 prove-none runs for tens of milliseconds, to its end in
    # this process.
    def no_fork():
        raise AssertionError("the search forked")

    monkeypatch.setattr(os, "fork", no_fork)
    out = find_perfect_code(build_graph(LUCAS, 15), "prove_none")
    assert (out.status, out.nodes) == ("exhausted", 1672)


def disjoint_k2_pieces(n_pieces):
    """Disjoint K2 pieces {x0, x1}, x of even weight: 2^n_pieces perfect codes."""
    xs = [x for x in range(1 << 10) if x.bit_count() % 2 == 0][:n_pieces]
    return InducedGraph(11, sorted(x << 1 | b for x in xs for b in (0, 1)))


def test_enumerate_lists_the_codes_of_disjoint_pieces():
    # 2^14 codes, one leaf each: each piece offers two blocks and no symmetry
    # joins them.
    g = disjoint_k2_pieces(14)
    out = forced_search(g, None, "enumerate", False, collect_witnesses=True)
    assert (out.status, out.count, len(out.witnesses)) == ("enumerated", 1 << 14, 1 << 14)
    assert count_perfect_codes_dfs(g) == 1 << 14


def test_group_is_built_once_per_pruning_search(monkeypatch):
    # Also for an enumeration that lists its codes and for a first-mode
    # search that never backtracks.
    builds = []
    symmetry_group = codes._symmetry_group

    def counted_group(graph, allowed):
        builds.append(1)
        return symmetry_group(graph, allowed)

    monkeypatch.setattr(codes, "_symmetry_group", counted_group)
    g = build_graph(LUCAS, 12)
    for mode in ("first", "prove_none"):
        for node_budget in (None, 10**6):
            builds.clear()
            assert find_perfect_code(g, mode, node_budget=node_budget).nodes == 137
            assert builds == [1], (mode, node_budget)
    builds.clear()
    assert find_perfect_code(g, "enumerate").count == 0
    assert builds == [1]
    builds.clear()
    assert find_perfect_code(g, "enumerate", collect_witnesses=True).witnesses == []
    assert builds == [1]
    builds.clear()
    out = find_perfect_code(disjoint_k2_pieces(8), "first")
    assert (out.status, out.nodes, len(builds)) == ("found", 9, 1)


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


# ---------------------------------------------------------------------------
# Symmetry pruning: the group, and the pruned tree against the plain one
# ---------------------------------------------------------------------------

def dihedral_images(bits, n):
    """The words of the rotations of an n-bit word and of their reversals."""
    rotations = [str(circulation(BitWord(n, bits), i)) for i in range(1, n + 1)]
    return {int(text, 2) for r in rotations for text in (r, r[::-1])}


def group_maps(words, group):
    """Each group element, a list g of ids with g[x] the id of x's image, as a
    dict from vertex word to image word."""
    return [{words[x]: words[g[x]] for x in range(len(words))} for g in group]


def expected_group_size(graph, banned):
    """Elements other than the identity of the group that the rotation and the
    reversal generate, counting each generator only if it maps the vertex
    words and the banned words onto themselves, and each element once as a
    map of the vertex words; for n >= 3."""
    n = graph.n
    vertices = set(graph.vertices)

    def rotate(w, k):
        return int(str(circulation(BitWord(n, w), k + 1)), 2)

    def reverse(w):
        return int(str(BitWord(n, w))[::-1], 2)

    def keeps(image):
        return {image(w) for w in vertices} == vertices and {image(w) for w in banned} == banned

    rotations = range(n) if keeps(lambda w: rotate(w, 1)) else (0,)
    reflections = (False, True) if keeps(reverse) else (False,)
    maps = {
        tuple(rotate(reverse(w) if reflect else w, k) for w in graph.vertices)
        for k in rotations for reflect in reflections
    }
    return len(maps - {tuple(graph.vertices)})


def audit_pruning(patch):
    """Check each pruning branch point's group and cut.

    The group must be exactly the elements of G that map all chosen blocks
    onto themselves: each of them makes a skipped candidate safe, and the
    group may depend on nothing else.
    The test reads the chosen blocks and G from the caller, codes._cover,
    where chosen holds exactly the blocks above the frame being pushed, and
    works the stabilizer out from the image set of each element.  The kept
    candidates must be the first of each orbit, and each one's weight the
    frame's weight times the number of candidates in its orbit.
    """
    firsts = codes._firsts

    def audited(group, tries, weight):
        caller = sys._getframe(1).f_locals
        chosen = caller["chosen"]
        taken = set(chosen)
        assert group == [g for g in caller["group"] if {g[x] for x in chosen} == taken]
        kept, weights = firsts(group, tries, weight)

        def orbit(x):
            return {x} | {g[x] for g in group}

        assert kept == [x for i, x in enumerate(tries) if not any(x in orbit(y) for y in tries[:i])]
        assert weights == [weight * sum(y in orbit(x) for y in tries) for x in kept]
        return kept, weights

    patch.setattr(codes, "_firsts", audited)


def test_refute_ops_keep_status_and_never_search_more(monkeypatch):
    # The prove-none ops of the refute benchmark workload, pruned and plain.
    ops = [(LUCAS, n) for n in range(4, 16)] + [(FIBONACCI, n) for n in range(4, 15)]
    graphs = {op: build_graph(*op) for op in ops}
    audit_pruning(monkeypatch)
    pruned = {op: find_perfect_code(g, "prove_none") for op, g in graphs.items()}
    monkeypatch.setattr(codes, "_symmetry_group", no_symmetry)
    for op, g in graphs.items():
        plain = find_perfect_code(g, "prove_none")
        assert pruned[op].status == plain.status == "exhausted", op
        assert pruned[op].nodes <= plain.nodes, op


@st.composite
def symmetric_searches(draw):
    """A cube graph, a banned set closed under rotation and reversal, a seed.

    Lucas cubes up to n = 9 and hypercubes up to n = 7, where the DFS
    oracle takes at most about 0.1 s, and the n = 7 graphs of the cyclic
    and linear run families, which have few codes for their size.
    """
    family, n = draw(st.sampled_from(
        [(LUCAS, n) for n in range(3, 10)] + [(HYPERCUBE, n) for n in range(3, 8)]
        + [(make(s), 7) for make in (gen_lucas, gen_fibonacci) for s in range(3, 8)]
    ))
    graph = build_graph(family, n)
    picks = draw(st.sets(st.sampled_from(graph.vertices), max_size=4))
    banned = set()
    for bits in picks:
        banned |= dihedral_images(bits, n)
    return graph, banned, draw(st.just(0) | st.integers(1, 10**6))


@settings(max_examples=150)
@given(case=symmetric_searches())
@example(case=(build_graph(HYPERCUBE, 7), set(), 3))
@example(case=(build_graph(HYPERCUBE, 7), {0b1111111}, 0))
@example(case=(build_graph(HYPERCUBE, 7), {0b1111111}, 5))
def test_pruning_agrees_with_the_oracle_and_the_plain_tree(case):
    # Statuses, witnesses, enumerate's weighted count and the listed codes
    # are those of the plain tree and the DFS oracle; the pruned tree is
    # never larger.
    graph, banned, seed = case
    codewords = codewords_outside(graph, banned)
    assert len(codes._symmetry_group(graph, codewords.mask)) == expected_group_size(graph, banned) > 0
    count = count_perfect_codes_dfs(graph, codewords)
    runs = (("first", False), ("prove_none", False), ("enumerate", False), ("enumerate", True))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "_symmetry_group", no_symmetry)
        plain = [search_constrained(graph, codewords, mode, seed=seed, collect_witnesses=listing)
                 for mode, listing in runs]
    for (mode, listing), plain_out in zip(runs, plain):
        with pytest.MonkeyPatch.context() as patch:
            audit_pruning(patch)
            pruned = search_constrained(graph, codewords, mode, seed=seed, collect_witnesses=listing)
        if mode == "enumerate":
            assert (pruned.status, pruned.count) == ("enumerated", count)
        else:
            assert pruned.status == ("found" if count else "exhausted")
        assert _verdict(pruned) == _verdict(plain_out)
        assert pruned.nodes <= plain_out.nodes
    assert {w.mask for w in pruned.witnesses} == {w.mask for w in plain_out.witnesses}
    assert len(pruned.witnesses) == count


@pytest.mark.parametrize(
    "family, counted, count, nodes",
    [(HYPERCUBE, True, 240, 635), (gen_lucas(7), False, 210, 1535)],
    ids=["qn", "lucas1s:7"],
)
def test_weighted_enumerate_counts_every_code(family, counted, count, nodes):
    # The weighted count of the pruned tree is the oracle's.  A deadline far
    # off, tested at every node, leaves the run as it is.
    g = build_graph(family, 7)
    out = forced_search(g, None, "enumerate", counted)
    assert (out.status, out.count, out.nodes) == ("enumerated", count, nodes)
    assert count == count_perfect_codes_dfs(g)
    timed = forced_search(g, None, "enumerate", counted, time_budget=3600.0)
    assert _fingerprint(timed) == _fingerprint(out)


def test_listed_codes_are_every_code(monkeypatch):
    # The listing expands the codes the pruned tree reaches over the group:
    # all 240 codes of Q7 in the 635 nodes of the weighted count, closed
    # under the group, in ascending order of their ids.
    q7 = build_graph(HYPERCUBE, 7)
    weighted = find_perfect_code(q7, "enumerate")
    listed = find_perfect_code(q7, "enumerate", collect_witnesses=True)
    assert (weighted.count, weighted.nodes) == (240, 635)
    assert (listed.count, listed.nodes) == (240, 635)
    ids = [tuple(w.ids()) for w in listed.witnesses]
    assert ids == sorted(ids)
    found = {frozenset(q7.vertices[i] for i in w.ids()) for w in listed.witnesses}
    assert len(found) == 240 == count_perfect_codes_dfs(q7)
    assert all(is_perfect_code(q7, w) for w in listed.witnesses)
    group = codes._symmetry_group(q7, (1 << len(q7)) - 1)
    assert len(group) == 13
    for image in group_maps(q7.vertices, group):
        assert {frozenset(image[w] for w in code) for code in found} == found
    # Codes left unexpanded fall short of the weighted count.
    monkeypatch.setattr(codes, "_images", lambda group, code: {tuple(sorted(code))})
    with pytest.raises(RuntimeError, match="weighted count is 240"):
        find_perfect_code(q7, "enumerate", collect_witnesses=True)


def test_branch_point_cut_to_one_candidate_is_pushed():
    # Q7 less 0^7, 1^7 and the rotations of 0000101, with no codeword of
    # weight one: a branch point of this search is cut to one candidate,
    # which is pushed, its weight the size of its orbit.  Each group below
    # it is the stabilizer of all chosen blocks, so the search ends in 9
    # nodes; a group cut only against the blocks taken since the branch
    # point above, a subgroup of it, took 11.
    cut = {0, 0b1111111} | dihedral_images(0b0000101, 7)
    g = InducedGraph(7, [w for w in range(128) if w not in cut])
    codewords = codewords_outside(g, dihedral_images(0b0000001, 7))
    assert count_perfect_codes_dfs(g, codewords) == 0
    for mode in ("first", "prove_none"):
        outs = search_both(g, codewords, mode)
        assert [(out.status, out.nodes) for out in outs] == 2 * [("exhausted", 9)], mode


def test_group_of_each_family():
    # The dihedral group of order 2n where runs are cyclic, the reversal
    # alone where they are linear; each element maps the vertex words onto
    # themselves.
    for family, n, size in (
        (LUCAS, 9, 17), (gen_lucas(3), 8, 15), (HYPERCUBE, 6, 11),
        (FIBONACCI, 9, 1), (gen_fibonacci(3), 8, 1), (LUCAS, 2, 0), (HYPERCUBE, 1, 0),
    ):
        g = build_graph(family, n)
        group = codes._symmetry_group(g, codewords_outside(g, set()).mask)
        assert len(group) == size, (family, n)
        maps = group_maps(g.vertices, group)
        assert all(set(image.values()) == set(g.vertices) for image in maps)
        assert all(any(w != v for w, v in image.items()) for image in maps)
        assert len({tuple(sorted(image.items())) for image in maps}) == size
    fib = build_graph(FIBONACCI, 9)
    [reversal] = group_maps(fib.vertices, codes._symmetry_group(fib, codewords_outside(fib, set()).mask))
    assert all(image == int(str(BitWord(9, w))[::-1], 2) for w, image in reversal.items())


def test_group_drops_the_rotation_a_banned_set_breaks():
    g = build_graph(LUCAS, 8)
    banned = {0b00000001, 0b10000000}  # closed under reversal, not rotation
    [reversal] = group_maps(g.vertices, codes._symmetry_group(g, codewords_outside(g, banned).mask))
    assert reversal[0b00000001] == 0b10000000
    assert codes._symmetry_group(g, codewords_outside(g, {0b00000001}).mask) == []
    assert len(codes._symmetry_group(g, codewords_outside(g, dihedral_images(0b00000101, 8)).mask)) == 15


@settings(max_examples=200)
@given(graph=induced_graphs(max_words=64), banned=st.sets(st.integers(0, 63), max_size=6))
def test_group_keeps_only_generators_that_map_the_search_onto_itself(graph, banned):
    banned = {w for w in banned if w in graph.index}
    group = codes._symmetry_group(graph, codewords_outside(graph, banned).mask)
    if graph.n < 3:
        assert group == []
        return
    assert len(group) == expected_group_size(graph, banned)
    for image in group_maps(graph.vertices, group):
        assert set(image.values()) == set(graph.vertices)
        assert {image[w] for w in banned} == banned


def check_id_permutations(graph, allowed, group):
    """Each element is a bijection on the ids that maps each closed
    neighbourhood N[x] onto N[g[x]] and the allowed ids into themselves, and
    the group with the identity is closed under composition and holds no
    element twice."""
    ids = range(len(graph))
    elements = {tuple(ids)} | {tuple(g) for g in group}
    assert len(elements) == len(group) + 1
    for g in group:
        assert sorted(g) == list(ids)
        for x in ids:
            assert sum(1 << g[y] for y in VertexSet(graph, graph.closed_mask(x)).ids()) == graph.closed_mask(g[x])
            assert not allowed >> x & 1 or allowed >> g[x] & 1
    for a in elements:
        for b in elements:
            assert tuple(a[y] for y in b) in elements


def test_group_elements_are_id_permutations_on_families():
    for family in (HYPERCUBE, FIBONACCI, LUCAS, gen_lucas(3), gen_fibonacci(3)):
        for n in range(0, 10):
            g = build_graph(family, n)
            for banned in (set(), dihedral_images(g.vertices[-1], n)):
                allowed = codewords_outside(g, banned).mask
                check_id_permutations(g, allowed, codes._symmetry_group(g, allowed))


@settings(max_examples=200)
@given(graph=induced_graphs(max_words=64), banned=st.sets(st.integers(0, 63), max_size=6), closed=st.booleans())
def test_group_elements_are_id_permutations_on_random_graphs(graph, banned, closed):
    # With closed, the words and the banned words are closed under rotation
    # and reversal, so both generators are kept.
    n = graph.n
    if closed:
        graph = InducedGraph(n, sorted({w for v in graph.vertices for w in dihedral_images(v, n)}))
        banned = {w for v in banned if v >> n == 0 for w in dihedral_images(v, n)}
    allowed = codewords_outside(graph, banned).mask
    group = codes._symmetry_group(graph, allowed)
    if n < 3:
        assert group == []
    else:
        assert len(group) == expected_group_size(graph, {w for w in banned if w in graph.index})
    check_id_permutations(graph, allowed, group)
