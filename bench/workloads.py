"""Workload definitions: the CLI ops each workload runs and how each is checked.

Every op is one `cubecodes.cli.main(argv)` call. Only the stable flags
--family --n --mode --seed --avoid-circular-run --format are passed in a
full-size run; budgets and --threads are never passed. The workload seed
picks the first-mode search seeds of `enumerate` and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("refute", "enumerate", "construct")

# The n = 7 graphs that carry perfect codes.
ENUMERATE_FAMILIES = (
    "qn", "lucas1s:4", "lucas1s:5", "lucas1s:6", "lucas1s:7", "fib1s:5", "fib1s:6", "fib1s:7",
)
ENUMERATE_N = 7
FIRST_SEEDS_PER_GRAPH = 20
CONSTRUCT_CLAIMS = ("prop-1n", "prop-1n12", "lemma-0n", "prop-count")

# Expected kinds of outcome.
EXPECT_EXHAUSTED = "exhausted"
EXPECT_ENUMERATED = "enumerated"
EXPECT_FOUND = "found"
EXPECT_PASS = "pass"

EXIT_OK = 0
EXIT_EXHAUSTED = 3


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    expect: str
    family: str | None = None
    n: int | None = None
    frontier: bool = False


def _search(family: str, n: int, mode: str, expect: str, *extra: str, key=None, frontier=False) -> Op:
    argv = ("search", "--family", family, "--n", str(n), "--mode", mode) + extra
    return Op(key or f"{mode}:{family}:{n}", argv, expect, family, n, frontier)


def _refute_ops(tiny: bool) -> list[Op]:
    lucas_top, fib_top = (8, 7) if tiny else (15, 14)
    ops = [
        _search("lucas", n, "prove-none", EXPECT_EXHAUSTED, frontier=n == lucas_top)
        for n in range(4, lucas_top + 1)
    ]
    ops += [_search("fib", n, "prove-none", EXPECT_EXHAUSTED) for n in range(4, fib_top + 1)]
    return ops


def _enumerate_ops(seed: int, tiny: bool) -> list[Op]:
    families = ENUMERATE_FAMILIES[:2] if tiny else ENUMERATE_FAMILIES
    per_graph = 2 if tiny else FIRST_SEEDS_PER_GRAPH
    rng = random.Random(seed)
    ops = []
    for family in families:
        ops.append(
            _search(family, ENUMERATE_N, "enumerate", EXPECT_ENUMERATED, frontier=family == "qn")
        )
        for _ in range(per_graph):
            k = rng.randrange(1, 1 << 31)
            ops.append(
                _search(family, ENUMERATE_N, "first", EXPECT_FOUND, "--seed", str(k),
                        key=f"first:{family}:{ENUMERATE_N}:seed={k}")
            )
    for s in range(2, 4 if tiny else ENUMERATE_N):
        ops.append(
            _search("qn", ENUMERATE_N, "prove-none", EXPECT_EXHAUSTED,
                    "--avoid-circular-run", str(s), key=f"avoid:qn:{ENUMERATE_N}:s={s}")
        )
    return ops


# Tiny runs shrink the claims through their range flags; full runs use the
# claims' own defaults.
_TINY_CLAIM_ARGS = {
    "prop-1n": ("--p-set", "2,3"),
    "prop-1n12": ("--p-set", "2,3"),
    "lemma-0n": ("--n-set", "6,7"),
    "prop-count": ("--n-max", "6"),
}


def _construct_ops(tiny: bool) -> list[Op]:
    ops = []
    for claim in CONSTRUCT_CLAIMS:
        argv = ("verify", "--claim", claim, "--format", "json")
        if tiny:
            argv += _TINY_CLAIM_ARGS[claim]
        ops.append(Op(f"verify:{claim}", argv, EXPECT_PASS, frontier=claim == "prop-1n12"))
    return ops


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The ops of one pass of the workload; the same seed gives the same ops."""
    if workload == "refute":
        return _refute_ops(tiny)
    if workload == "enumerate":
        return _enumerate_ops(seed, tiny)
    if workload == "construct":
        return _construct_ops(tiny)
    raise ValueError(f"unknown workload {workload!r}")


def parse_output(text: str) -> tuple[str, int | None]:
    """The op's output without its wall-clock field, so equal results compare
    equal, and the node count a search op printed (None for other outputs)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return text, None
    if not isinstance(payload, dict):
        return text, None
    payload.pop("millis", None)
    return json.dumps(payload, sort_keys=True), payload.get("nodes")


class Checker:
    """Checks op outputs against independent references, never the engine under test.

    Enumerate counts come from the lowest-vertex DFS oracle
    `count_perfect_codes_dfs`; first-mode witnesses are re-validated with
    `is_perfect_code` on a graph built here.
    """

    def __init__(self, cubecodes):
        self.cc = cubecodes
        self._graphs = {}
        self._oracle = {}

    def _graph(self, family: str, n: int):
        key = (family, n)
        if key not in self._graphs:
            self._graphs[key] = self.cc.build_graph(self.cc.parse_family(family), n)
        return self._graphs[key]

    def oracle_count(self, family: str, n: int) -> int:
        key = (family, n)
        if key not in self._oracle:
            self._oracle[key] = self.cc.count_perfect_codes_dfs(self._graph(family, n))
        return self._oracle[key]

    def check(self, op: Op, code, output: str) -> str | None:
        """None when the op's exit code and output are right, else the reason."""
        if op.expect == EXPECT_PASS:
            return self._check_claim(op, code, output)
        want_code = EXIT_EXHAUSTED if op.expect == EXPECT_EXHAUSTED else EXIT_OK
        if code != want_code:
            return f"exit {code!r}, expected {want_code}"
        try:
            payload = json.loads(output)
        except json.JSONDecodeError:
            return "output is not JSON"
        status = payload.get("status")
        if status != op.expect:
            return f"status {status!r}, expected {op.expect!r}"
        if op.expect == EXPECT_ENUMERATED:
            want = self.oracle_count(op.family, op.n)
            if payload.get("count") != want:
                return f"count {payload.get('count')!r}, oracle says {want}"
        if op.expect == EXPECT_FOUND:
            return self._check_witness(op, payload.get("witness"))
        return None

    def _check_witness(self, op: Op, witness) -> str | None:
        if not isinstance(witness, list) or not witness:
            return "no witness"
        graph = self._graph(op.family, op.n)
        words = []
        for text in witness:
            if not isinstance(text, str) or len(text) != op.n or set(text) - {"0", "1"}:
                return f"witness word {text!r} is not a length-{op.n} word"
            word = self.cc.BitWord.from_string(text)
            if word.bits not in graph.index:
                return f"witness word {text} is not a vertex"
            words.append(word)
        if len(set(witness)) != len(witness):
            return "witness repeats a word"
        if not self.cc.is_perfect_code(graph, self.cc.VertexSet.from_words(graph, words)):
            return "witness is not a perfect code"
        return None

    @staticmethod
    def _check_claim(op: Op, code, output: str) -> str | None:
        if code != EXIT_OK:
            return f"exit {code!r}, expected {EXIT_OK}"
        try:
            reports = json.loads(output)
        except json.JSONDecodeError:
            return "output is not JSON"
        claim = op.argv[2]
        if not isinstance(reports, list) or len(reports) != 1:
            return "expected exactly one claim report"
        report = reports[0]
        if report.get("claim") != claim or report.get("verdict") != EXPECT_PASS:
            return f"claim {report.get('claim')!r} verdict {report.get('verdict')!r}"
        return None
