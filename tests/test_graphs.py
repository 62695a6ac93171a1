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
    gen_lucas,
    hamming_distance,
)
from cubecodes import graphs
from cubecodes.graphs import InducedGraph
from cubecodes.words import iter_family_bits

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


def test_vertex_set_contains_ids():
    vs = VertexSet.from_ids(build_graph(LUCAS, 3), [0])
    assert 0 in vs
    assert 1 not in vs


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InducedGraph(3, [8]), "must fit in 3 bits"),
        (lambda: InducedGraph(3, [2, 1]), "strictly ascending"),
        (lambda: build_graph(LUCAS, 3).id_of(W("00")), "does not match graph length 3"),
    ],
    ids=["word-too-wide", "descending", "short-word"],
)
def test_malformed_graph_input_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_graph_cap(monkeypatch):
    monkeypatch.setenv("CUBECODES_GRAPH_CAP", "100")
    with pytest.raises(ResourceLimitError):
        build_graph(HYPERCUBE, 10)
    with pytest.raises(ResourceLimitError):
        build_graph(LUCAS, 10)


@pytest.mark.parametrize("family", [LUCAS, FIBONACCI, gen_lucas(3)])
def test_graph_cap_stops_the_scan_one_word_past_the_cap(monkeypatch, family):
    # a family over the cap used to be listed in full before it was refused
    taken = []

    def counting(family, n):
        for bits in iter_family_bits(family, n):
            taken.append(bits)
            yield bits

    monkeypatch.setattr(graphs, "iter_family_bits", counting)
    monkeypatch.setenv("CUBECODES_GRAPH_CAP", "100")
    with pytest.raises(ResourceLimitError) as err:
        build_graph(family, 12)
    assert err.value.cap_name == "graph_cap"
    assert len(taken) == 101


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
def cube_subsets(draw):
    """A word length n <= 7 and a set of words, drawn directly or as a complement."""
    n = draw(st.integers(0, 7))
    drawn = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=24))
    if draw(st.booleans()):
        drawn = set(range(1 << n)) - drawn
    return n, sorted(drawn)


@given(case=cube_subsets())
@example(case=(3, []))
@example(case=(0, [0]))
@example(case=(3, [5]))
@example(case=(3, [0b000, 0b011]))
@example(case=(4, [0b0000, 0b0001, 0b1110, 0b1111]))
@example(case=(7, list(range(1 << 7))))
def test_is_connected_matches_reference_bfs(case):
    n, words = case
    assert InducedGraph(n, words).is_connected() == _reference_connected(n, words)


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
