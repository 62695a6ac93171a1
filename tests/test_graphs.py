"""Induced graphs: adjacency, neighborhoods, distances, profiles, exports."""

import json

import pytest
from hypothesis import example, given, strategies as st

from cubecodes import (
    BitWord,
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    ResourceLimitError,
    VertexSet,
    build_graph,
    circulation,
    closed_neighborhood,
    gen_fibonacci,
    gen_lucas,
    hamming_distance,
    parse_family,
)
from cubecodes import graphs
from cubecodes.graphs import InducedGraph, word_bitmap
from cubecodes.words import flags_of_bitmap, iter_family_bits
import cubecodes.words as words_module

W = BitWord.from_string


def test_build_graph_counts():
    g4 = build_graph(LUCAS, 4)
    assert len(g4) == 7
    # Figure-checked: the 8 drawn edges of the 4-dimensional Lucas cube
    assert g4.edge_count() == 8
    g3 = build_graph(LUCAS, 3)
    assert len(g3) == 4 and g3.edge_count() == 3
    center = g3.id_of(W("000"))
    assert g3.degree(center) == 3  # star centered at 000
    q3 = build_graph(HYPERCUBE, 3)
    assert len(q3) == 8 and q3.edge_count() == 12
    g5 = build_graph(LUCAS, 5)
    assert len(g5) == 11 and g5.edge_count() == 15


def test_vertices_sorted_and_indexed():
    for family in (LUCAS, FIBONACCI, gen_lucas(3)):
        for n in range(0, 9):
            g = build_graph(family, n)
            assert g.vertices == sorted(g.vertices)
            for i, bits in enumerate(g.vertices):
                assert g.index[bits] == i


def test_adjacency_is_single_bit_flips():
    for n in range(0, 8):
        g = build_graph(LUCAS, n)
        for i in range(len(g)):
            for j in g.neighbor_ids(i):
                assert (g.vertices[i] ^ g.vertices[j]).bit_count() == 1
                assert i in g.neighbor_ids(j)  # symmetric
            assert i not in g.neighbor_ids(i)  # irreflexive
        assert sum(g.degree(i) for i in range(len(g))) == 2 * g.edge_count()


def test_closed_neighborhood_examples():
    g3 = build_graph(LUCAS, 3)
    nb = closed_neighborhood(g3, W("000"))
    assert {str(w) for w in nb.words()} == {"000", "001", "010", "100"}
    g4 = build_graph(LUCAS, 4)
    nb = closed_neighborhood(g4, W("0101"))
    assert {str(w) for w in nb.words()} == {"0101", "0001", "0100"}
    q3 = build_graph(HYPERCUBE, 3)
    nb = closed_neighborhood(q3, W("111"))
    assert {str(w) for w in nb.words()} == {"111", "110", "101", "011"}
    with pytest.raises(ValueError):
        closed_neighborhood(g4, W("1001"))  # not a Lucas string


def test_hamming_distance():
    assert hamming_distance(W("000"), W("111")) == 3
    assert hamming_distance(W("10100"), W("00101")) == 2
    for n in range(0, 7):
        for bits in range(1 << n):
            w = BitWord(n, bits)
            assert hamming_distance(w, w) == 0
    with pytest.raises(ValueError):
        hamming_distance(W("01"), W("011"))


def test_graph_distance_examples():
    g4 = build_graph(LUCAS, 4)
    assert g4.graph_distance(W("1000"), W("0001")) == 2
    g5 = build_graph(LUCAS, 5)
    # frozen golden value, equal to the Hamming distance by isometry
    assert g5.graph_distance(W("10100"), W("01010")) == 4
    assert g5.graph_distance(W("10100"), W("10100")) == 0
    with pytest.raises(ValueError):
        g5.graph_distance(W("10101"), W("00000"))


def test_graph_distance_dominates_hamming():
    g = build_graph(LUCAS, 6)
    words = g.words()
    for u in words:
        for v in words:
            d = g.graph_distance(u, v)
            assert d is not None
            assert d >= hamming_distance(u, v)


def _bfs_all(g, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbor_ids(i):
                if j not in dist:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def test_fibonacci_and_lucas_cubes_are_isometric():
    for family in (FIBONACCI, LUCAS):
        for n in range(0, 13):
            g = build_graph(family, n)
            for a in range(len(g)):
                dist = _bfs_all(g, a)
                assert len(dist) == len(g)
                for b, d in dist.items():
                    assert d == (g.vertices[a] ^ g.vertices[b]).bit_count()
    # the BFS oracle above agrees with graph_distance on a spot graph
    g5 = build_graph(LUCAS, 5)
    src = g5.id_of(W("10100"))
    dist = _bfs_all(g5, src)
    for b, d in dist.items():
        assert g5.graph_distance(W("10100"), g5.word(b)) == d


def test_unreachable_returns_none():
    g = InducedGraph(3, [0b000, 0b111])
    assert g.graph_distance(W("000"), W("111")) is None
    assert not g.is_connected()
    assert build_graph(LUCAS, 7).is_connected()


def test_rotation_is_automorphism():
    # relabeling every vertex by its second circulation preserves adjacency
    for n in range(2, 13):
        families = [LUCAS] + [gen_lucas(s) for s in range(1, n + 1)]
        for family in families:
            g = build_graph(family, n)
            image = {}
            for bits in g.vertices:
                rotated = circulation(BitWord(n, bits), 2).bits
                assert rotated in g.index
                image[bits] = rotated
            assert sorted(image.values()) == list(g.vertices)  # bijection
            for i, j in g.edges():
                a, b = image[g.vertices[i]], image[g.vertices[j]]
                assert g.index[b] in g.neighbor_ids(g.index[a])


def test_level_degree_profile_lucas9():
    g = build_graph(LUCAS, 9)
    assert set(g.level_degree_profile(2, 1)) == {2}
    assert set(g.level_degree_profile(3, 2)) == {3}
    assert set(g.level_degree_profile(4, 3)) == {4}
    starts_with_one = lambda w: w.bit(1) == 1
    assert set(g.level_degree_profile(3, 2, restrict=starts_with_one)) == {2}
    with pytest.raises(ValueError):
        g.level_degree_profile(2, 4)
    with pytest.raises(ValueError):
        g.level_degree_profile(9, 10)


def _reference_level_profile(g, k_from, k_to, restrict):
    """Per-vertex counts by a distance test against every kept vertex of the target level."""
    def kept(k):
        return [
            bits for bits in g.vertices
            if bits.bit_count() == k and (restrict is None or restrict(BitWord(g.n, bits)))
        ]

    targets = kept(k_to)
    return [sum((u ^ w).bit_count() == 1 for u in targets) for w in kept(k_from)]


@pytest.mark.parametrize("family", [HYPERCUBE, FIBONACCI, LUCAS, gen_lucas(3), gen_fibonacci(3)], ids=str)
def test_level_degree_profile_matches_a_reference_count(family):
    for n in range(11):
        g = build_graph(family, n)
        for restrict in (None, lambda w: w.bit(1) == 1, lambda w: w.bits % 3 != 1):
            for k_from in range(n + 1):
                for k_to in (k_from - 1, k_from + 1):
                    if 0 <= k_to <= n:
                        expected = _reference_level_profile(g, k_from, k_to, restrict)
                        assert g.level_degree_profile(k_from, k_to, restrict) == expected, (n, k_from, k_to)


def test_closed_mask_is_the_vertex_and_its_neighbor_ids_on_families():
    for n in range(10):
        for family in _every_family(n):
            g = build_graph(family, n)
            for i in range(len(g)):
                assert g.closed_mask(i) == sum(1 << j for j in [i, *g.neighbor_ids(i)]), (str(family), n, i)


def test_lone_one_neighbor_count():
    for n in range(6, 13):
        g = build_graph(LUCAS, n)
        top = g.id_of(BitWord(n, 1 << (n - 1)))  # the word 10^{n-1}
        weight2 = sum(1 for j in g.neighbor_ids(top) if g.vertices[j].bit_count() == 2)
        assert weight2 == n - 3


def test_vertex_set_basics():
    g = build_graph(LUCAS, 4)
    vs = VertexSet.from_words(g, [W("0000"), W("0101")])
    assert len(vs) == 2
    assert W("0101") in vs
    assert W("1010") not in vs
    assert sorted(str(w) for w in vs.words()) == ["0000", "0101"]
    with pytest.raises(ValueError):
        VertexSet.from_words(g, [W("0110")])
    with pytest.raises(ValueError):
        VertexSet.from_ids(g, [99])
    with pytest.raises(ValueError):
        VertexSet(g, 1 << 10)


@given(mask=st.integers(0, (1 << 128) - 1))
@example(mask=0)
@example(mask=(1 << 128) - 1)
def test_vertex_set_ids_are_the_set_bits_ascending(mask):
    vs = VertexSet(build_graph(HYPERCUBE, 7), mask)  # 128 vertices
    assert vs.ids() == [i for i in range(128) if mask >> i & 1]


@given(mask=st.integers(0, (1 << 47) - 1))
@example(mask=0)
@example(mask=(1 << 47) - 1)
def test_vertex_set_word_bits_are_the_members_words_ascending(mask):
    graph = build_graph(LUCAS, 8)  # 47 vertices, whose words are not their ids
    vs = VertexSet(graph, mask)
    assert vs.word_bits() == [graph.vertices[i] for i in vs.ids()]
    assert [w.bits for w in vs.words()] == vs.word_bits()


def test_vertex_set_contains_ids():
    vs = VertexSet.from_ids(build_graph(LUCAS, 3), [0, 3])
    assert 0 in vs
    assert 1 not in vs
    # ids outside 0..len-1 are not members, on either side
    assert all(i not in vs for i in (-1, -4, 4, 7))


@pytest.mark.parametrize(
    "graph_family, family, n",
    [
        (FIBONACCI, gen_lucas(3), 7),
        (LUCAS, gen_fibonacci(3), 7),
        (LUCAS, FIBONACCI, 6),
        (HYPERCUBE, gen_lucas(2), 5),
        (gen_lucas(4), gen_fibonacci(2), 6),
        (HYPERCUBE, gen_lucas(6), 5),
        (FIBONACCI, gen_fibonacci(9), 7),
        (LUCAS, LUCAS, 1),
        (HYPERCUBE, gen_lucas(1), 0),
    ],
    ids=str,
)
def test_vertex_set_from_family_is_the_listed_members(graph_family, family, n):
    g = build_graph(graph_family, n)
    expected = [g.index[bits] for bits in iter_family_bits(family, n) if bits in g.index]
    assert VertexSet.from_family(g, family).ids() == expected


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InducedGraph(3, [8]), "must fit in 3 bits"),
        (lambda: InducedGraph(3, [2, 1]), "strictly ascending"),
        (lambda: build_graph(LUCAS, 3).id_of(W("00")), "does not match graph length 3"),
        (lambda: InducedGraph(70, [1 << 65]), "length must be in 0..62"),
        (lambda: InducedGraph(-2, []), "length must be in 0..62"),
        (lambda: InducedGraph.from_bitmap(3, 1 << 8), "bits past the 2\\^3 words"),
        (lambda: InducedGraph.from_bitmap(3, -1), "bits past the 2\\^3 words"),
    ],
    ids=[
        "word-too-wide",
        "descending",
        "short-word",
        "length-too-long",
        "negative-length",
        "bitmap-too-wide",
        "negative-bitmap",
    ],
)
def test_malformed_graph_input_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "vertices, message",
    [([-1, 2], "must fit in 3 bits"), ([1, 8, 2], "strictly ascending")],
    ids=["negative-word", "descending-and-too-wide"],
)
def test_graph_input_order_is_checked_before_the_range_of_its_ends(vertices, message):
    with pytest.raises(ValueError, match=message):
        InducedGraph(3, vertices)


def test_graph_cap(monkeypatch):
    monkeypatch.setenv("CUBECODES_GRAPH_CAP", "100")
    with pytest.raises(ResourceLimitError):
        build_graph(HYPERCUBE, 10)
    with pytest.raises(ResourceLimitError):
        build_graph(LUCAS, 10)


@pytest.mark.parametrize("family", [LUCAS, FIBONACCI, gen_lucas(3)])
def test_graph_cap_refuses_a_family_before_listing_a_vertex(monkeypatch, family):
    # the members are counted on the family's word bitmap, so a family one
    # member over the cap is refused before any vertex is listed
    size = len(build_graph(family, 12))
    listed = []

    def recording(bitmap):
        listed.append(bitmap)
        return flags_of_bitmap(bitmap)

    monkeypatch.setattr(graphs, "flags_of_bitmap", recording)
    monkeypatch.setattr(words_module, "flags_of_bitmap", recording)
    monkeypatch.setenv("CUBECODES_GRAPH_CAP", str(size - 1))
    with pytest.raises(ResourceLimitError) as err:
        build_graph(family, 12)
    assert err.value.cap_name == "graph_cap"
    assert listed == []
    monkeypatch.setenv("CUBECODES_GRAPH_CAP", str(size))
    assert len(build_graph(family, 12)) == size


def _every_family(n):
    yield from (HYPERCUBE, FIBONACCI, LUCAS)
    for s in range(1, n + 2):
        yield gen_fibonacci(s)
        yield gen_lucas(s)


def test_family_graph_is_the_graph_of_its_listed_members():
    for n in range(11):
        for family in _every_family(n):
            g = build_graph(family, n)
            listed = InducedGraph(n, list(iter_family_bits(family, n)))
            assert g.vertices == listed.vertices, (str(family), n)
            assert g.vertex_bitmap() == listed.vertex_bitmap(), (str(family), n)
            assert g.index == listed.index, (str(family), n)
            masks = [g.closed_mask(i) for i in range(len(g))]
            assert masks == [listed.closed_mask(i) for i in range(len(g))], (str(family), n)


def test_graph_copies_the_callers_vertex_list():
    words = [0, 1, 3]
    g = InducedGraph(3, words)
    words.append(7)
    words[0] = 2
    assert len(g) == 3
    assert g.vertices == [0, 1, 3]
    assert g.index == {0: 0, 1: 1, 3: 2}


@pytest.mark.parametrize(
    "words, word",
    [([-1], -1), ([0, 8], 8), ([3, -2, 9], -2), ([7, 1 << 40], 1 << 40)],
    ids=["minus-one", "two-to-the-n", "negative-among-others", "far-too-wide"],
)
def test_word_bitmap_refuses_words_outside_the_word_space(words, word):
    with pytest.raises(ValueError, match=f"^word {word} does not fit in 3 bits$"):
        word_bitmap(3, words)


def test_word_bitmap_takes_both_ends_of_the_word_space():
    assert word_bitmap(3, [0, 7]) == 1 | 1 << 7
    assert word_bitmap(3, []) == 0
    assert word_bitmap(0, [0]) == 1


def test_large_graph_probes_neighbors_on_the_fly():
    g = build_graph(HYPERCUBE, 17)
    zero = W("0" * 17)
    assert g.degree(g.id_of(zero)) == 17
    one_step = W("0" * 16 + "1")
    assert g.graph_distance(zero, one_step) == 1
    nb = closed_neighborhood(g, zero)
    assert len(nb) == 18


def _reference_connected(n: int, words: list[int]) -> bool:
    """Breadth-first search over the word set itself, by single-bit flips."""
    members = set(words)
    if not members:
        return True
    start = min(members)
    reached = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for w in frontier:
            for b in range(n):
                x = w ^ (1 << b)
                if x in members and x not in reached:
                    reached.add(x)
                    next_frontier.append(x)
        frontier = next_frontier
    return reached == members


@st.composite
def cube_subsets(draw, max_n=7):
    """A word length n <= max_n and a set of words, drawn directly or as a complement."""
    n = draw(st.integers(0, max_n))
    drawn = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=24))
    if draw(st.booleans()):
        drawn = set(range(1 << n)) - drawn
    return n, sorted(drawn)


# 0, then 10^9, 110^8, ..., 1^10: bits set in descending order, one per sweep
DESCENDING_PATH = (10, [((1 << k) - 1) << (10 - k) for k in range(11)])


@given(case=cube_subsets(max_n=12))
@example(case=(3, []))
@example(case=(0, [0]))
@example(case=(3, [5]))
@example(case=(3, [0b000, 0b011]))
@example(case=(4, [0b0000, 0b0001, 0b1110, 0b1111]))
@example(case=(7, list(range(1 << 7))))
@example(case=(3, [0b011, 0b100]))  # 011 + 1 carries into 100: not an edge
@example(case=(3, [0b000, 0b011, 0b100]))  # 100 - 1 borrows from 011: not an edge
@example(case=DESCENDING_PATH)
@example(case=(10, DESCENDING_PATH[1][:6] + DESCENDING_PATH[1][7:]))  # the path cut
# smallest word not 0^n, joined and cut
@example(case=(6, [0b000011, 0b000111, 0b001111, 0b101111]))
@example(case=(6, [0b000011, 0b000111, 0b101111]))
# two components at distance 2: the subsets of {0, 1}, and those with bits 7, 8 added
@example(case=(9, [0, 1, 2, 3, 384, 385, 386, 387]))
@example(case=(12, sorted(set(range(1 << 12)) - {0, 5, 1 << 11, 4095})))
@example(case=(12, sorted(set(range(1 << 12)) - {1 << b for b in range(12)})))  # 0^n cut off
def test_is_connected_matches_reference_bfs(case):
    n, words = case
    assert InducedGraph(n, words).is_connected() == _reference_connected(n, words)


@pytest.mark.parametrize("kind", ["qn", "fib", "lucas", "fib1s", "lucas1s"])
def test_is_connected_matches_reference_bfs_on_families(kind):
    for n in range(13):
        plain = kind in ("qn", "fib", "lucas")
        specs = [kind] if plain else [f"{kind}:{s}" for s in range(1, n + 1)]
        for spec in specs:
            g = build_graph(parse_family(spec), n)
            assert g.is_connected() == _reference_connected(n, g.vertices), (spec, n)


def test_is_connected_holds_the_bitmap_to_the_enumeration_cap(monkeypatch):
    graph = InducedGraph(7, [0, 1, 3])
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "100")
    with pytest.raises(ResourceLimitError, match="CUBECODES_ENUM_CAP") as err:
        graph.is_connected()
    assert err.value.cap_name == "enum_cap"
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "128")
    assert graph.is_connected()


@given(case=cube_subsets())
@example(case=(0, [0]))
@example(case=(7, list(range(1 << 7))))
def test_neighbor_ids_are_every_flip_ascending(case):
    n, words = case
    g = InducedGraph(n, words)
    pairs = 0
    for i, a in enumerate(words):
        flips = [j for j, b in enumerate(words) if (a ^ b).bit_count() == 1]
        assert g.neighbor_ids(i) == flips
        pairs += len(flips)
    assert g.edge_count() * 2 == pairs


@given(case=cube_subsets())
@example(case=(0, [0]))
@example(case=(7, list(range(1 << 7))))
def test_closed_mask_is_the_vertex_and_its_neighbor_ids(case):
    g = InducedGraph(*case)
    for i in range(len(g)):
        assert g.closed_mask(i) == sum(1 << j for j in [i, *g.neighbor_ids(i)])


@given(case=cube_subsets(), chosen=st.sets(st.integers(0, (1 << 7) - 1), max_size=40))
@example(case=(0, [0]), chosen=set())
@example(case=(3, []), chosen={0, 7})
@example(case=(7, list(range(1 << 7))), chosen=set(range(1 << 7)))
def test_id_mask_is_the_ids_of_the_vertices_among_the_words(case, chosen):
    n, vertices = case
    g = InducedGraph(n, vertices)
    words = {w for w in chosen if w < 1 << n}
    expected = 0
    for w in words & set(vertices):
        expected |= 1 << g.id_of(BitWord(n, w))
    assert g.id_mask(word_bitmap(n, words)) == expected


def test_is_connected_large():
    graph = build_graph(gen_lucas(13), 15)
    assert len(graph) == 32737
    assert graph.is_connected()


def test_dot_export_golden():
    g = build_graph(LUCAS, 2)
    expected = (
        'graph "lucas n=2" {\n'
        '  "00";\n'
        '  "01";\n'
        '  "10";\n'
        '  "00" -- "01";\n'
        '  "00" -- "10";\n'
        "}\n"
    )
    assert g.to_dot() == expected
    assert g.to_dot() == g.to_dot()  # byte-stable


def test_dot_export_highlight():
    g = build_graph(LUCAS, 2)
    code = VertexSet.from_words(g, [W("00")])
    dot = g.to_dot(code)
    assert '  "00" [style=filled];' in dot
    assert '  "01";' in dot


def test_json_export():
    g = build_graph(LUCAS, 4)
    payload = g.to_json_dict()
    assert list(payload) == ["n", "family", "vertices", "edges"]
    assert payload["n"] == 4
    assert payload["family"] == "lucas"
    assert payload["vertices"] == ["0000", "0001", "0010", "0100", "0101", "1000", "1010"]
    assert len(payload["edges"]) == 8
    assert json.dumps(payload) == json.dumps(g.to_json_dict())  # stable
    empty = build_graph(FIBONACCI, 0).to_json_dict()
    assert empty["vertices"] == [""]
    assert empty["edges"] == []


def test_json_export_with_code():
    g = build_graph(LUCAS, 3)
    code = VertexSet.from_words(g, [W("000")])
    payload = g.to_json_dict(code)
    assert payload["code"] == [g.id_of(W("000"))]
    other = build_graph(LUCAS, 3)
    with pytest.raises(ValueError):
        other.to_json_dict(code)  # code bound to a different graph object
