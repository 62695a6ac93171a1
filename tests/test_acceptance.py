"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion also enforces its stated time budget.
"""

import itertools
import random
import time

from cubecodes import (
    BitWord,
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    VertexSet,
    build_graph,
    build_hamming,
    construct_gen_lucas_code,
    count_perfect_codes_dfs,
    count_weight_level,
    enumerate_family,
    enumerate_perfect_codes_naive,
    find_perfect_code,
    gen_lucas,
    hamming_distance,
    is_perfect_code,
    search_constrained,
)
from cubecodes.claims import check_weight_counts
from cubecodes.cli import main
from cubecodes.graphs import InducedGraph

# frozen after the exact-cover engine and the independent low-bit DFS
# oracle agreed on the full enumeration
Q7_PERFECT_CODE_COUNT = 240


class _criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.1f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_lucas_nonexistence():
    with _criterion(1, "lucas perfect codes iff n <= 3 (n_max 14)", 60):
        assert main(["verify", "--claim", "thm-main", "--n-max", "14"]) == 0


def test_criterion_2_counting_identities():
    with _criterion(2, "weight-level counting identities", 5):
        report = check_weight_counts(n_max=14)
        assert report.verdict == "pass", report.evidence
        for n in range(6, 21):
            assert count_weight_level(LUCAS, n, 2) == n * (n - 3) // 2
            assert count_weight_level(LUCAS, n, 3) == n * (n - 4) * (n - 5) // 6


def test_criterion_3_hamming_properties():
    with _criterion(3, "hamming code properties p=2,3,4", 30):
        for p in (2, 3, 4):
            code = build_hamming(p)
            n = code.n
            words = code.codewords()
            assert len(words) == (1 << n) // (n + 1)
            assert min(
                hamming_distance(a, b) for a, b in itertools.combinations(words, 2)
            ) == 3
            assert BitWord(n, (1 << n) - 1) in words
            graph = build_graph(HYPERCUBE, n)
            assert is_perfect_code(graph, words)
            weights = {w.weight() for w in words}
            assert n - 1 not in weights and n - 2 not in weights


def test_criterion_4_gen_lucas_constructions():
    with _criterion(4, "constructions in circular-run graphs p=2,3,4", 120):
        for p in (2, 3, 4):
            for s_kind, expected in (
                ("n", lambda n: (1 << n) // (n + 1)),
                ("n-1", lambda n: (1 << n) // (n + 1) - 1),
                ("n-2", lambda n: (1 << n) // (n + 1) - 1),
            ):
                code_set = construct_gen_lucas_code(p, s_kind)
                graph = code_set.graph
                assert len(code_set) == expected(graph.n), (p, s_kind)
                assert is_perfect_code(graph, code_set), (p, s_kind)


def test_criterion_5_hypercube_avoidance():
    with _criterion(5, "no cyclic-run-free perfect code in Q_3, Q_7", 600):
        q3 = build_graph(HYPERCUBE, 3)
        out = search_constrained(q3, VertexSet.from_family(q3, gen_lucas(2)), "prove_none")
        assert out.status == "exhausted"
        q7 = build_graph(HYPERCUBE, 7)
        for s in range(2, 7):
            out = search_constrained(q7, VertexSet.from_family(q7, gen_lucas(s)), "prove_none")
            assert out.status == "exhausted", s
        engine_count = find_perfect_code(q7, "enumerate").count
        oracle_count = count_perfect_codes_dfs(q7)
        assert engine_count == oracle_count == Q7_PERFECT_CODE_COUNT


def test_criterion_6_fibonacci_cross_check():
    with _criterion(6, "fibonacci cubes: found n<=3, exhausted 4..14", 60):
        for n in range(0, 4):
            out = find_perfect_code(build_graph(FIBONACCI, n), "first")
            assert out.status == "found"
        for n in range(4, 15):
            out = find_perfect_code(build_graph(FIBONACCI, n), "prove_none")
            assert out.status == "exhausted", n


def test_criterion_7_proof_arithmetic():
    with _criterion(7, "divisibility arithmetic to 10^6", 5):
        for n in range(1, 10**6 + 1, 2):
            assert (n * n + 1) % 6 != 0
        for n in range(9, 10**6 + 1, 6):
            product = n * (n * n - 10 * n + 23)
            assert product % 6 == 0
            assert (product // 6) % 2 == 1


def test_criterion_8_engine_oracle_equivalence():
    with _criterion(8, "engine equals naive subset scan", 120):
        graphs = []
        for n in range(0, 7):
            for family in (LUCAS, FIBONACCI):
                g = build_graph(family, n)
                if len(g) <= 20:
                    graphs.append(g)
        rng = random.Random(20260809)
        for _ in range(50):
            n = rng.randint(3, 6)
            size = rng.randint(4, min(20, 1 << n))
            graphs.append(InducedGraph(n, sorted(rng.sample(range(1 << n), size))))
        nonzero = 0
        for g in graphs:
            naive = enumerate_perfect_codes_naive(g)
            assert find_perfect_code(g, "enumerate").count == naive
            nonzero += bool(naive)
        assert nonzero >= 10  # the comparison exercises real solution sets
