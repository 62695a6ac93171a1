"""Claim runners: verdicts, reproducibility, budget honesty, registry."""

import pytest

from cubecodes import CLAIM_IDS, FIBONACCI, LUCAS, claims, run_all, run_claim
from cubecodes.claims import (
    check_cover_count_arithmetic,
    check_fibonacci_nonexistence,
    check_full_run_construction,
    check_hypercube_avoidance,
    check_low_weight_structure,
    check_lucas_nonexistence,
    check_odd_square_arithmetic,
    check_punctured_constructions,
    check_weight_counts,
)

# ids frozen so downstream tooling can key on them
FROZEN_IDS = {
    "thm-main",
    "lemma-0n",
    "prop-count",
    "prop-qn-avoid",
    "prop-1n",
    "prop-1n12",
    "arith-lemma",
    "arith-thm",
}


def test_registry_covers_the_frozen_ids():
    assert FROZEN_IDS <= set(CLAIM_IDS)
    assert "fib-nonexistence" in CLAIM_IDS


def test_unknown_claim_rejected():
    with pytest.raises(ValueError) as err:
        run_claim("prop-unknown")
    assert "thm-main" in str(err.value)


def test_weight_counts_pass():
    report = check_weight_counts(n_max=12)
    assert report.verdict == "pass"
    assert report.params["n_max"] == 12
    assert report.evidence["levels_checked"] > 0


def test_lucas_nonexistence_small():
    report = check_lucas_nonexistence(n_max=8)
    assert report.verdict == "pass"
    assert report.evidence["exhausted_range"] == [4, 8]


def test_fibonacci_nonexistence_small():
    report = check_fibonacci_nonexistence(n_max=8)
    assert report.verdict == "pass"


@pytest.mark.parametrize("check", [check_lucas_nonexistence, check_fibonacci_nonexistence])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_nonexistence_below_n4_fails(check, n_max):
    # no n >= 4 would be searched, so the claim would pass unchecked
    report = check(n_max=n_max)
    assert report.verdict == "fail"
    assert report.evidence == {"n_max": n_max, "stage": "precondition n_max >= 4"}


@pytest.mark.parametrize(
    "check, n_max, stage",
    [
        (check_odd_square_arithmetic, 0, "precondition n_max >= 1"),
        (check_cover_count_arithmetic, 0, "precondition n_max >= 9"),
        (check_cover_count_arithmetic, 8, "precondition n_max >= 9"),
    ],
)
def test_arithmetic_below_the_first_value_fails(check, n_max, stage):
    # no odd n (arith-lemma) or n = 6p + 3 >= 9 (arith-thm) would be checked
    report = check(n_max=n_max)
    assert report.verdict == "fail"
    assert report.evidence == {"n_max": n_max, "stage": stage}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hypercube_avoidance_below_n3_fails(n):
    # Q_n with n < 3 has no run length s with 2 <= s <= n - 1 to check
    report = check_hypercube_avoidance(n_set=(3, n))
    assert report.verdict == "fail"
    assert report.evidence == {"n": n, "stage": "precondition n >= 3"}


@pytest.mark.parametrize(
    "check, name",
    [
        (check_low_weight_structure, "n_set"),
        (check_hypercube_avoidance, "n_set"),
        (check_full_run_construction, "p_set"),
        (check_punctured_constructions, "p_set"),
    ],
    ids=["lemma-0n", "prop-qn-avoid", "prop-1n", "prop-1n12"],
)
def test_empty_parameter_set_fails(check, name):
    # with nothing in the set, nothing would be checked
    report = check(**{name: ()})
    assert report.verdict == "fail"
    assert report.evidence == {name: [], "stage": f"precondition {name} is not empty"}


def test_budget_interruption_never_passes():
    report = check_lucas_nonexistence(n_max=14, node_budget=20)
    assert report.verdict == "skipped"
    # nodes sums the searches for n = 0..6 (32 nodes) and the one for n = 7,
    # which ran out of its budget of 20 at node 21
    assert list(report.evidence.items()) == [("nodes", 53), ("n", 7), ("reason", "budget")]


def test_budget_skip_counts_every_search_it_ran():
    for check in (check_lucas_nonexistence, check_fibonacci_nonexistence):
        up_to_6 = check(n_max=6).evidence["nodes"]
        report = check(n_max=14, node_budget=20)
        assert report.verdict == "skipped"
        assert report.evidence == {"nodes": up_to_6 + 21, "n": 7, "reason": "budget"}, check


def test_hypercube_avoidance_enumeration_budget_skips():
    # 1 node rules out s = 2 for n = 3; the enumeration, which lists Q3's
    # codes in 5 nodes, then runs out of a budget of 4
    report = check_hypercube_avoidance(n_set=(3,), node_budget=4)
    assert report.verdict == "skipped"
    # nodes counts the s = 2 search and the enumeration that ran out
    assert report.evidence == {"nodes": 6, "n": 3, "stage": "enumeration", "reason": "budget"}
    assert check_hypercube_avoidance(n_set=(3,), node_budget=5).verdict == "pass"


@pytest.mark.parametrize(
    "family, leading_one, n, k, evidence",
    [
        (LUCAS, False, 5, 2, "lucas"),
        (FIBONACCI, False, 4, 1, "fib"),
        (LUCAS, True, 5, 2, "lucas^1"),
        (LUCAS, True, 0, 0, "lucas^1"),
    ],
    ids=["lucas", "fib", "lucas-leading-one", "lucas-leading-one-n0"],
)
def test_failed_requirement_reports_where_it_failed(monkeypatch, family, leading_one, n, k, evidence):
    # one word too many in one weight level; at n = 0 there is no first
    # coordinate, so no word has a leading one
    count = claims.count_weight_level
    wrong = (family, n, k, leading_one)

    def off_by_one(*args, leading_one=False):
        level = count(*args, leading_one=leading_one)
        return level + 1 if (*args, leading_one) == wrong else level

    monkeypatch.setattr(claims, "count_weight_level", off_by_one)
    report = check_weight_counts(n_max=6)
    assert report.verdict == "fail"
    assert report.evidence == {"family": evidence, "n": n, "k": k}


def test_low_weight_structure_pass():
    report = check_low_weight_structure(n_set=(6, 7, 8, 9))
    assert report.verdict == "pass"


def test_low_weight_structure_rejects_small_n():
    report = check_low_weight_structure(n_set=(5,))
    assert report.verdict == "fail"


def test_arithmetic_claims():
    assert check_odd_square_arithmetic(n_max=100_000).verdict == "pass"
    assert check_cover_count_arithmetic(n_max=100_000).verdict == "pass"
    # spot values quoted with the claims
    assert (7 * 7 + 1) % 6 == 2
    assert (2 * 1 + 1) * (18 * 1 - 12 * 1 + 1) == 21  # p = 1, n = 9, odd


def test_hypercube_avoidance_n3():
    report = check_hypercube_avoidance(n_set=(3,))
    assert report.verdict == "pass"
    # nodes sums the s = 2 search (1 node) and the enumeration (5 nodes)
    assert report.evidence == {"perfect_code_counts": {"3": 4}, "s_checked": {"3": [2, 2]}, "nodes": 6}


def test_constructions_small():
    assert check_full_run_construction(p_set=(2, 3)).verdict == "pass"
    assert check_punctured_constructions(p_set=(2, 3)).verdict == "pass"


def test_decode_closure_failure_names_the_vertex(monkeypatch):
    # a code C = {1^n} that leaves the graph: 1^n is never a vertex of the
    # punctured graphs, so C ∩ V is empty and no vertex is covered
    decode_escape = claims._decode_escape
    monkeypatch.setattr(
        claims, "_decode_escape", lambda graph, codeword_bits: decode_escape(graph, [(1 << graph.n) - 1])
    )
    report = check_punctured_constructions(p_set=(2,))
    assert report.verdict == "fail"
    assert report.evidence == {
        "p": 2, "s_kind": "n-1", "stage": "decode closure", "vertex": "000",
    }


def test_reports_are_reproducible():
    a = check_weight_counts(n_max=10)
    b = check_weight_counts(n_max=10)
    assert a.to_json_dict() == b.to_json_dict()
    a = check_hypercube_avoidance(n_set=(3,))
    b = check_hypercube_avoidance(n_set=(3,))
    assert a.to_json_dict() == b.to_json_dict()


def test_report_json_shape():
    payload = check_weight_counts(n_max=6).to_json_dict()
    assert list(payload) == ["claim", "params", "verdict", "evidence"]


def test_run_all_forwards_applicable_params():
    reports = run_all(n_max=9, p_set=(2,))
    assert [r.claim for r in reports] == list(CLAIM_IDS)
    by_id = {r.claim: r for r in reports}
    assert by_id["prop-count"].params["n_max"] == 9
    assert by_id["prop-1n"].params["p_set"] == [2]
    # n_max must not leak into runners that do not take it
    assert "n_max" not in by_id["lemma-0n"].params
    assert all(r.verdict == "pass" for r in reports), [
        (r.claim, r.verdict) for r in reports
    ]
