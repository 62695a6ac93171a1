"""Hamming codes, syndrome decoding, and the coset constructions."""

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from cubecodes import (
    BitWord,
    HYPERCUBE,
    ResourceLimitError,
    build_graph,
    build_hamming,
    construct_gen_lucas_code,
    hamming_distance,
    has_circular_ones_run,
    is_perfect_code,
)
from cubecodes import claims, hamming
from cubecodes.claims import _decode_escape
from cubecodes.graphs import InducedGraph

W = BitWord.from_string


def parity(x: int) -> int:
    return x.bit_count() & 1


def test_p2_codewords():
    code = build_hamming(2)
    assert code.n == 3
    assert [str(w) for w in code.codewords()] == ["000", "111"]
    assert code.min_distance() == 3


def test_p3_codewords():
    code = build_hamming(3)
    words = code.codewords()
    assert len(words) == 16 == (1 << 7) // 8
    assert any(str(w) == "1111111" for w in words)
    assert code.min_distance() == 3
    # brute-force oracle over all pairs
    assert min(hamming_distance(a, b) for a, b in itertools.combinations(words, 2)) == 3


def test_sizes_and_all_ones():
    for p in (2, 3, 4):
        code = build_hamming(p)
        n = code.n
        assert len(code.codeword_bits()) == (1 << n) // (n + 1) == code.size()
        assert code.is_codeword(BitWord(n, (1 << n) - 1))


def syndrome_by_positions(n: int, bits: int) -> int:
    """The definition: XOR of the 1-based positions, from the left, holding a 1."""
    syn = 0
    for position, digit in enumerate(format(bits, f"0{n}b"), 1):
        if digit == "1":
            syn ^= position
    return syn


def test_syndrome_and_codewords_match_the_definition():
    for p in (2, 3, 4):
        code = build_hamming(p)
        n = code.n
        syndromes = [syndrome_by_positions(n, bits) for bits in range(1 << n)]
        assert [code.syndrome_bits(bits) for bits in range(1 << n)] == syndromes
        assert code.codeword_bits() == [bits for bits in range(1 << n) if syndromes[bits] == 0]
        # The codewords are computed once per p; each call hands out its own list.
        handed_out = code.codeword_bits()
        handed_out.reverse()
        assert code.codeword_bits() == [bits for bits in range(1 << n) if syndromes[bits] == 0]


@given(bits=st.integers(0, (1 << 31) - 1))
@example(bits=0)
@example(bits=(1 << 31) - 1)
@example(bits=1 << 30)
def test_syndrome_of_31_bit_words_matches_the_definition(bits):
    assert build_hamming(5).syndrome_bits(bits) == syndrome_by_positions(31, bits)


def test_decode_bits_is_decode_on_every_word():
    for p in (2, 3, 4):
        code = build_hamming(p)
        n = code.n
        members = set(code.codeword_bits())
        for bits in range(1 << n):
            nearest = code.decode_bits(bits)
            assert nearest == code.decode(BitWord(n, bits)).bits
            assert nearest in members and (nearest ^ bits).bit_count() <= 1


def test_parity_check_annihilates_codewords():
    for p in (2, 3, 4):
        code = build_hamming(p)
        rows = code.parity_check_rows()
        assert len(rows) == p
        for bits in code.codeword_bits():
            assert all(parity(bits & row) == 0 for row in rows)
        # and rejects every non-codeword
        members = set(code.codeword_bits())
        for bits in range(1 << code.n):
            in_kernel = all(parity(bits & row) == 0 for row in rows)
            assert in_kernel == (bits in members)


def test_linearity():
    for p in (2, 3):
        code = build_hamming(p)
        members = set(code.codeword_bits())
        for a in members:
            for b in members:
                assert a ^ b in members


def test_decode_examples():
    code2 = build_hamming(2)
    assert code2.decode(W("110")) == W("111")
    code3 = build_hamming(3)
    assert code3.decode(W("1111111")) == W("1111111")
    for bits in range(1 << 7):
        u = BitWord(7, bits)
        c = code3.decode(u)
        assert code3.is_codeword(c)
        assert hamming_distance(u, c) <= 1
    with pytest.raises(ValueError):
        code3.decode(W("101"))


def test_decode_is_unique_nearest():
    # perfect-code totality: exactly one codeword within distance 1
    code = build_hamming(3)
    members = code.codewords()
    for bits in range(1 << 7):
        u = BitWord(7, bits)
        near = [c for c in members if hamming_distance(u, c) <= 1]
        assert near == [code.decode(u)]


def test_translate():
    code2 = build_hamming(2)
    assert [str(w) for w in code2.translate(W("000"))] == ["000", "111"]
    assert [str(w) for w in code2.translate(W("001"))] == ["001", "110"]
    code3 = build_hamming(3)
    coset = code3.translate(W("0000001"))
    assert len(coset) == 16
    assert all(str(w) != "1111111" for w in coset)
    q7 = build_graph(HYPERCUBE, 7)
    assert is_perfect_code(q7, coset)


def test_no_heavy_codewords():
    # distance 3 from the all-ones codeword rules out weights n-1 and n-2
    for p in (2, 3, 4):
        code = build_hamming(p)
        n = code.n
        weights = {bits.bit_count() for bits in code.codeword_bits()}
        assert n - 1 not in weights
        assert n - 2 not in weights


def test_perfect_in_hypercube():
    for p in (2, 3):
        code = build_hamming(p)
        graph = build_graph(HYPERCUBE, code.n)
        assert is_perfect_code(graph, code.codewords())


def test_p_bounds():
    with pytest.raises(ValueError):
        build_hamming(1)
    with pytest.raises(ValueError):
        build_hamming(6)


def test_translate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        build_hamming(2).translate(W("0001"))


def test_construction_beyond_caps_is_rejected():
    # p = 5 would need the 2^31-vertex graph, far past every cap
    with pytest.raises(ResourceLimitError):
        construct_gen_lucas_code(5, "n")


def test_p5_membership_only():
    code = build_hamming(5)
    assert code.n == 31
    all_ones = BitWord(31, (1 << 31) - 1)
    assert code.is_codeword(all_ones)
    flipped = BitWord(31, all_ones.bits ^ (1 << 7))
    assert not code.is_codeword(flipped)
    assert code.decode(flipped) == all_ones
    with pytest.raises(ResourceLimitError):
        code.codewords()


def test_construct_full_run_kinds():
    for p, size in ((2, 2), (3, 16)):
        code_set = construct_gen_lucas_code(p, "n")
        graph = code_set.graph
        n = graph.n
        assert len(graph) == (1 << n) - 1
        assert len(code_set) == size
        assert is_perfect_code(graph, code_set)
        assert all(str(w) != "1" * n for w in code_set.words())
    assert [str(w) for w in construct_gen_lucas_code(2, "n").words()] == ["001", "110"]


def test_construct_punctured_kinds():
    for p in (2, 3):
        for s_kind in ("n-1", "n-2"):
            code_set = construct_gen_lucas_code(p, s_kind)
            graph = code_set.graph
            n = graph.n
            assert len(code_set) == (1 << n) // (n + 1) - 1
            assert is_perfect_code(graph, code_set)
    with pytest.raises(ValueError):
        construct_gen_lucas_code(3, "n-3")


@pytest.mark.parametrize("s_kind", ["n", "n-1", "n-2"])
def test_construction_names_the_lowest_codeword_outside_the_graph(monkeypatch, s_kind):
    p = 3
    n = (1 << p) - 1
    members = construct_gen_lucas_code(p, s_kind).word_bits()
    dropped = {members[5], members[2]}
    built = hamming.build_graph

    def damaged(family, n):
        graph = built(family, n)
        return InducedGraph(n, [v for v in graph.vertices if v not in dropped], family)

    monkeypatch.setattr(hamming, "build_graph", damaged)
    lowest = BitWord(n, members[2])
    with pytest.raises(AssertionError, match=f"^constructed codeword {lowest} fell outside the graph$"):
        construct_gen_lucas_code(p, s_kind)


def test_punctured_constructions_build_no_word_index(monkeypatch):
    # prop-1n12 decides everything on word bitmaps: the construction, the
    # perfect-code check, the decode closure and connectivity
    graphs = []
    built = hamming.build_graph

    def recording(family, n):
        graphs.append(built(family, n))
        return graphs[-1]

    monkeypatch.setattr(hamming, "build_graph", recording)
    assert claims.check_punctured_constructions().verdict == "pass"
    assert len(graphs) == 6
    for graph in graphs:
        assert "index" not in graph.__dict__, (str(graph.family), graph.n)


def test_run_minus_one_graph_is_hypercube_without_ball():
    # deleting the closed neighborhood of 1^n leaves exactly this vertex set
    for n in (3, 7, 15):
        s = n - 1
        from cubecodes import gen_lucas

        graph = build_graph(gen_lucas(s), n)
        all_ones = (1 << n) - 1
        ball = {all_ones} | {all_ones ^ (1 << b) for b in range(n)}
        expected = sorted(set(range(1 << n)) - ball)
        assert graph.vertices == expected


def test_decode_closure_for_punctured_kinds():
    for p in (2, 3):
        code = build_hamming(p)
        n = code.n
        for s_kind in ("n-1", "n-2"):
            graph = construct_gen_lucas_code(p, s_kind).graph
            for bits in graph.vertices:
                assert code.decode(BitWord(n, bits)).bits in graph.index


def decode_loop_escape(code, graph):
    """Oracle for the closure: the first vertex, ascending, that decodes outside the graph."""
    for bits in graph.vertices:
        if code.decode_bits(bits) not in graph.index:
            return bits
    return None


@pytest.mark.parametrize("p", [2, 3, 4])
def test_bitmap_decode_closure_matches_the_decode_loop(p):
    code = build_hamming(p)
    codewords = code.codeword_bits()
    rng = random.Random(p)
    for s_kind in ("n-1", "n-2"):
        graph = construct_gen_lucas_code(p, s_kind).graph
        assert _decode_escape(graph, codewords) is None
        assert decode_loop_escape(code, graph) is None
        # Drop a few vertices, codewords among them, so that some decode
        # outside the graph; the bitmap must name the loop's first one.
        inside = [c for c in codewords if c in graph.index]
        for trial in range(4):
            dropped = set(rng.sample(graph.vertices, min(trial + 1, len(graph))))
            if trial % 2:
                dropped |= set(rng.sample(inside, min(trial, len(inside))))
            damaged = InducedGraph(graph.n, [v for v in graph.vertices if v not in dropped])
            assert _decode_escape(damaged, codewords) == decode_loop_escape(code, damaged), (s_kind, trial)


@given(p=st.sampled_from([2, 3]), data=st.data())
@example(p=2, data=None)
def test_bitmap_decode_closure_matches_the_decode_loop_on_random_graphs(p, data):
    code = build_hamming(p)
    n = code.n
    if data is None:  # the whole of Q_n, where every word decodes inside
        words = list(range(1 << n))
    else:
        words = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n)))
    graph = InducedGraph(n, words)
    assert _decode_escape(graph, code.codeword_bits()) == decode_loop_escape(code, graph)


def test_construction_words_avoid_the_run():
    for p in (2, 3, 4):
        for s_kind, s_of in (("n", lambda n: n), ("n-1", lambda n: n - 1), ("n-2", lambda n: n - 2)):
            code_set = construct_gen_lucas_code(p, s_kind)
            n = code_set.graph.n
            s = s_of(n)
            for w in code_set.words():
                assert not has_circular_ones_run(w, s)
