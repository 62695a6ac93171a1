"""Runnable checks for the mathematical claims this library is built around.

Each runner exercises one claim and returns a structured report: the
parameters actually used, a verdict, and the evidence counts.  The claims
that search or build are checked to configurable desk-scale bounds; the
two arithmetic claims take no parameter, since they decide each statement
about all n over one period of residues of n.  A check either returns its
evidence, and passes, or raises `_Stop` with a fail or skip verdict and
the evidence of where it stopped.  A runner never reports pass when its
search budget was exhausted; that outcome is a skip, recorded as such.

Claim ids (stable, used by the command line):
  prop-count        weight-level counting formulas for the cube families
  thm-main          Lucas cubes admit a perfect code iff n <= 3
  lemma-0n          low-weight neighbor structure behind the n >= 6 argument
  arith-lemma       no odd n has 6 dividing n^2 + 1
  arith-thm         counting arithmetic behind the final divisibility clash
  prop-qn-avoid     no perfect code of Q_n avoids cyclic runs 1^s, 2 <= s <= n-1
  prop-1n           coset construction in the graph missing only 1^n
  prop-1n12         punctured-code constructions two graphs further down
  fib-nonexistence  Fibonacci cubes admit a perfect code iff n <= 3
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import asdict, dataclass, field

from .words import (
    BitWord,
    FIBONACCI,
    LUCAS,
    HYPERCUBE,
    count_weight_level,
    gen_lucas,
    iter_family_bits,
)
from .graphs import VertexSet, build_graph, word_bitmap
from .codes import (
    STATUS_BUDGET,
    STATUS_ENUMERATED,
    STATUS_EXHAUSTED,
    STATUS_FOUND,
    find_perfect_code,
    is_perfect_code,
    search_constrained,
)
from .hamming import (
    S_KIND_FULL,
    S_KIND_MINUS_1,
    S_KIND_MINUS_2,
    build_hamming,
    construct_gen_lucas_code,
)

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_SKIPPED = "skipped"


@dataclass
class ClaimReport:
    claim: str
    params: dict
    verdict: str
    evidence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Stop(Exception):
    """Ends a check early with a verdict other than pass and its evidence."""

    def __init__(self, verdict: str, **evidence):
        self.verdict = verdict
        self.evidence = evidence


def _report(claim: str, params: dict, body) -> ClaimReport:
    try:
        return ClaimReport(claim, params, VERDICT_PASS, body())
    except _Stop as stop:
        return ClaimReport(claim, params, stop.verdict, stop.evidence)


def _require(condition: bool, **evidence):
    if not condition:
        raise _Stop(VERDICT_FAIL, **evidence)


def _require_set(name: str, values):
    """Fail unless the parameter set values is not empty and holds no value twice."""
    _require(bool(values), **{name: []}, stage=f"precondition {name} is not empty")
    _require(
        len(set(values)) == len(values),
        **{name: list(values)},
        stage=f"precondition {name} has no repeated value",
    )


def _search_verdict(outcome, expect: str, spent: int = 0, **evidence):
    """Map an engine outcome onto claim bookkeeping, honoring budgets.

    spent is the node count of the check's earlier searches, so a skip
    reports the nodes of every search it ran.
    """
    if outcome.status == STATUS_BUDGET:
        raise _Stop(VERDICT_SKIPPED, nodes=spent + outcome.nodes, **evidence, reason="budget")
    _require(outcome.status == expect, status=outcome.status, **evidence)
    return outcome


# ---------------------------------------------------------------------------
# prop-count
# ---------------------------------------------------------------------------

def check_weight_counts(n_max: int = 14) -> ClaimReport:
    """Closed-form weight-level counts match enumeration, plus spot formulas."""
    params = {"n_max": n_max, "spot_n_range": [6, 20]}

    def body():
        levels = 0
        for n in range(n_max + 1):
            lucas_bits = list(iter_family_bits(LUCAS, n))
            top = 1 << n >> 1  # the first coordinate; 0 at n = 0, where no word has one
            lucas = Counter(b.bit_count() for b in lucas_bits)
            lead = Counter(b.bit_count() for b in lucas_bits if b & top)
            fib = Counter(b.bit_count() for b in iter_family_bits(FIBONACCI, n))
            for k in range(n + 1):
                _require(count_weight_level(LUCAS, n, k) == lucas[k], family="lucas", n=n, k=k)
                _require(count_weight_level(FIBONACCI, n, k) == fib[k], family="fib", n=n, k=k)
                _require(
                    count_weight_level(LUCAS, n, k, leading_one=True) == lead[k],
                    family="lucas^1", n=n, k=k,
                )
                levels += 3
        for n in range(6, 21):
            _require(count_weight_level(LUCAS, n, 2) == n * (n - 3) // 2, spot="k2", n=n)
            _require(count_weight_level(LUCAS, n, 3) == n * (n - 4) * (n - 5) // 6, spot="k3", n=n)
            _require(count_weight_level(LUCAS, n, 2, leading_one=True) == n - 3, spot="k2lead", n=n)
        _require(count_weight_level(LUCAS, 5, 2) == 5, spot="lambda_5_2")
        return {"levels_checked": levels, "spot_checks": 3 * 15 + 1}

    return _report("prop-count", params, body)


# ---------------------------------------------------------------------------
# thm-main / fib-nonexistence
# ---------------------------------------------------------------------------

def _nonexistence_scan(claim, family, n_max, node_budget, time_budget):
    params = {"family": str(family), "n_max": n_max}

    def body():
        _require(n_max >= 4, n_max=n_max, stage="precondition n_max >= 4")
        nodes_by_n = {}  # keyed by str(n), as JSON would key it
        for n in range(n_max + 1):
            graph = build_graph(family, n)
            # A first-code search that finds none has proved that none exists.
            outcome = _search_verdict(
                find_perfect_code(
                    graph, "first", node_budget=node_budget, time_budget=time_budget
                ),
                STATUS_FOUND if n < 4 else STATUS_EXHAUSTED,
                sum(nodes_by_n.values()),
                n=n,
            )
            if n < 4:
                _require(is_perfect_code(graph, outcome.witness), n=n, stage="revalidate")
                if family is LUCAS:
                    witness = [str(w) for w in outcome.witness.words()]
                    _require(witness == ["0" * n], n=n, witness=witness)
            nodes_by_n[str(n)] = outcome.nodes
        return {
            "found_up_to": 3,
            "exhausted_range": [4, n_max],
            "nodes": sum(nodes_by_n.values()),
            "nodes_by_n": nodes_by_n,
        }

    return _report(claim, params, body)


def check_lucas_nonexistence(
    n_max: int = 16,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> ClaimReport:
    """Lucas cubes: perfect code found for n <= 3, none exists for 4..n_max."""
    return _nonexistence_scan("thm-main", LUCAS, n_max, node_budget, time_budget)


def check_fibonacci_nonexistence(
    n_max: int = 14,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> ClaimReport:
    """Fibonacci cubes: perfect code found for n <= 3, none exists for 4..n_max."""
    return _nonexistence_scan("fib-nonexistence", FIBONACCI, n_max, node_budget, time_budget)


# ---------------------------------------------------------------------------
# lemma-0n
# ---------------------------------------------------------------------------

def check_low_weight_structure(n_set=tuple(range(6, 15))) -> ClaimReport:
    """Neighbor counts between low weight levels of the Lucas cube."""
    params = {"n_set": list(n_set)}

    def body():
        _require_set("n_set", n_set)
        for n in n_set:
            _require(n >= 6, n=n, stage="precondition n >= 6")
            graph = build_graph(LUCAS, n)
            starts_with_one = lambda w: w.bit(1) == 1
            # Subset comparisons: an empty weight level (e.g. level 4 at
            # n = 6, 7) satisfies the claim vacuously.
            _require(set(graph.level_degree_profile(2, 1)) <= {2}, n=n, check="a")
            top = graph.id_of(BitWord(n, 1 << (n - 1)))
            weight2 = sum(
                1 for j in graph.neighbor_ids(top) if graph.vertices[j].bit_count() == 2
            )
            _require(weight2 == n - 3, n=n, check="b", got=weight2)
            _require(set(graph.level_degree_profile(3, 2)) <= {3}, n=n, check="c")
            _require(set(graph.level_degree_profile(4, 3)) <= {4}, n=n, check="d")
            _require(
                set(graph.level_degree_profile(3, 2, restrict=starts_with_one)) <= {2},
                n=n,
                check="e",
            )
            if n % 2 == 1:
                level2 = count_weight_level(LUCAS, n, 2)
                _require(
                    level2 - (n - 3) - (n - 1) // 2 == (n * n - 6 * n + 7) // 2,
                    n=n,
                    check="f",
                )
        return {"n_set": list(n_set), "checks": ["a", "b", "c", "d", "e", "f(odd n)"]}

    return _report("lemma-0n", params, body)


# ---------------------------------------------------------------------------
# arith-lemma / arith-thm
# ---------------------------------------------------------------------------

def check_odd_square_arithmetic() -> ClaimReport:
    """No odd integer n has 6 dividing n^2 + 1.

    n^2 + 1 mod 6 depends only on n mod 6, so the odd residues 1, 3 and 5
    decide every odd n.  The evidence gives n^2 + 1 mod 6 at each.
    """

    def body():
        values = {str(r): (r * r + 1) % 6 for r in range(1, 6, 2)}
        _require(0 not in values.values(), square_plus_1_mod_6=values)
        return {"square_plus_1_mod_6": values}

    return _report("arith-lemma", {}, body)


def check_cover_count_arithmetic() -> ClaimReport:
    """The counting arithmetic behind the divisibility contradiction.

    For n = 6p + 3 the putative weight-3 leftover count n(n^2 - 10n + 23)/6
    is an odd integer, so never divisible by 4, and equals
    (2p + 1)(18p^2 - 12p + 1); 3 divides n(n - 3) exactly when 3 divides n;
    and the leftover count is |L_3| - |L_2|/3, checked times 6 in integers
    for n = 6..20.  An integer polynomial's value mod m depends only on
    n mod m.  The numerator is 6 times an odd integer iff it is 6 mod 12,
    so n = 3 and 9 mod 12, the residues of 6p + 3, decide the first
    statement for every p, and n mod 3 = 0, 1, 2 the third.  Both sides
    of the second, times 6, are cubics in p, equal since they agree at
    four values of p.  The evidence gives each residue's value and the p.
    """

    def body():
        numerator = lambda n: n * (n * n - 10 * n + 23)
        numerators = {str(r): numerator(r) % 12 for r in range(3, 12, 6)}
        _require(set(numerators.values()) == {6}, numerator_mod_12=numerators, stage="odd integer")
        points = list(range(4))
        for p in points:
            factored = 6 * (2 * p + 1) * (18 * p * p - 12 * p + 1)
            _require(factored == numerator(6 * p + 3), p=p, stage="factored form")
        products = {str(r): r * (r - 3) % 3 for r in range(3)}
        _require(
            all((value == 0) == (r == "0") for r, value in products.items()),
            n_times_n_minus_3_mod_3=products,
            stage="mult of 3",
        )
        for n in range(6, 21):
            difference = 6 * count_weight_level(LUCAS, n, 3) - 2 * count_weight_level(LUCAS, n, 2)
            _require(difference == numerator(n), n=n, stage="level difference")
        return {
            "numerator_mod_12": numerators,
            "factored_form_p": points,
            "n_times_n_minus_3_mod_3": products,
            "level_difference_n": [6, 20],
        }

    return _report("arith-thm", {}, body)


# ---------------------------------------------------------------------------
# prop-qn-avoid
# ---------------------------------------------------------------------------

def check_hypercube_avoidance(
    n_set=(3, 7),
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> ClaimReport:
    """No perfect code of Q_n has all codewords free of cyclic runs 1^s."""
    params = {"n_set": list(n_set)}

    def body():
        _require_set("n_set", n_set)
        counts = {}
        nodes = 0  # summed over every search
        for n in n_set:
            _require(n >= 3, n=n, stage="precondition n >= 3")
            graph = build_graph(HYPERCUBE, n)
            for s in range(2, n):
                outcome = search_constrained(
                    graph,
                    VertexSet.from_family(graph, gen_lucas(s)),
                    "prove_none",
                    node_budget=node_budget,
                    time_budget=time_budget,
                )
                _search_verdict(outcome, STATUS_EXHAUSTED, nodes, n=n, s=s)
                nodes += outcome.nodes
            enumeration = _search_verdict(
                find_perfect_code(
                    graph, "enumerate", node_budget=node_budget, time_budget=time_budget
                ),
                STATUS_ENUMERATED,
                nodes,
                n=n,
                stage="enumeration",
            )
            counts[str(n)] = enumeration.count
            nodes += enumeration.nodes
        return {
            "perfect_code_counts": counts,
            "s_checked": {str(n): [2, n - 1] for n in n_set},
            "nodes": nodes,
        }

    return _report("prop-qn-avoid", params, body)


# ---------------------------------------------------------------------------
# prop-1n / prop-1n12
# ---------------------------------------------------------------------------

def _orders_record(code) -> dict:
    graph = code.graph
    return {"code": len(code), "graph": len(graph), "connected": graph.is_connected()}


def check_full_run_construction(p_set=(2, 3, 4)) -> ClaimReport:
    """The translated Hamming code is perfect in the graph missing only 1^n."""
    params = {"p_set": list(p_set)}

    def body():
        _require_set("p_set", p_set)
        orders = {}
        for p in p_set:
            code = construct_gen_lucas_code(p, S_KIND_FULL)
            graph = code.graph
            n = graph.n
            _require(len(graph) == (1 << n) - 1, p=p, stage="graph order")
            _require(len(code) == (1 << n) // (n + 1), p=p, stage="code order")
            _require(is_perfect_code(graph, code), p=p, stage="perfect")
            orders[str(p)] = _orders_record(code)
        return {"orders": orders}

    return _report("prop-1n", params, body)


def _decode_escape(graph, codeword_bits) -> int | None:
    """The lowest vertex word whose nearest codeword is not a vertex, or None.

    codeword_bits lists the packed words of a code that is perfect in Q_n,
    so a word's nearest codeword is the one codeword within distance 1, and
    it is a vertex iff the word lies in N[C ∩ V].  The closure is
    V ⊆ N[C ∩ V], decided on word bitmaps in O(n · 2^n / 64) word
    operations; the word returned is the one an ascending decode loop
    would stop at.
    """
    vertex_words = graph.vertex_bitmap()
    covered, _ = graph.cover_bitmaps(word_bitmap(graph.n, codeword_bits) & vertex_words)
    escaped = vertex_words & ~covered
    return (escaped & -escaped).bit_length() - 1 if escaped else None


def check_punctured_constructions(p_set=(2, 3, 4)) -> ClaimReport:
    """The Hamming code minus 1^n is perfect two forbidden-run lengths down."""
    params = {"p_set": list(p_set)}

    def body():
        _require_set("p_set", p_set)
        orders = {}
        for p in p_set:
            codeword_bits = build_hamming(p).codeword_bits()
            for s_kind in (S_KIND_MINUS_1, S_KIND_MINUS_2):
                code = construct_gen_lucas_code(p, s_kind)
                graph = code.graph
                n = graph.n
                _require(
                    len(code) == (1 << n) // (n + 1) - 1, p=p, s_kind=s_kind, stage="order"
                )
                _require(is_perfect_code(graph, code), p=p, s_kind=s_kind, stage="perfect")
                # Decoding any vertex of the graph lands inside the graph.
                escape = _decode_escape(graph, codeword_bits)
                if escape is not None:
                    raise _Stop(
                        VERDICT_FAIL,
                        p=p,
                        s_kind=s_kind,
                        stage="decode closure",
                        vertex=str(BitWord(n, escape)),
                    )
                orders[f"p{p},{s_kind}"] = _orders_record(code)
        return {"orders": orders}

    return _report("prop-1n12", params, body)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CLAIM_RUNNERS = {
    "prop-count": check_weight_counts,
    "thm-main": check_lucas_nonexistence,
    "lemma-0n": check_low_weight_structure,
    "arith-lemma": check_odd_square_arithmetic,
    "arith-thm": check_cover_count_arithmetic,
    "prop-qn-avoid": check_hypercube_avoidance,
    "prop-1n": check_full_run_construction,
    "prop-1n12": check_punctured_constructions,
    "fib-nonexistence": check_fibonacci_nonexistence,
}

CLAIM_IDS = tuple(CLAIM_RUNNERS)


def _runner(claim_id: str):
    try:
        return CLAIM_RUNNERS[claim_id]
    except KeyError:
        raise ValueError(
            f"unknown claim id {claim_id!r}; valid ids: {', '.join(CLAIM_IDS)}"
        ) from None


def applicable_params(claim_id: str, params: dict) -> dict:
    """The entries of params that the claim's runner accepts."""
    accepted = inspect.signature(_runner(claim_id)).parameters
    return {k: v for k, v in params.items() if k in accepted}


def run_claim(claim_id: str, **params) -> ClaimReport:
    """Run one claim check by id, forwarding only the given parameters."""
    return _runner(claim_id)(**params)


def run_all(**params) -> list[ClaimReport]:
    """Run every claim check; parameters are forwarded where they apply."""
    return [run_claim(claim_id, **applicable_params(claim_id, params)) for claim_id in CLAIM_IDS]
