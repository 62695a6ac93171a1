"""Command-line frontend: enumerate, search, verify, export.

Exit codes: 0 success (found/enumerated/all claims pass), 1 data or
resource error, 2 usage error, 3 search exhausted with no code,
4 budget exceeded or claims skipped on budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .limits import ResourceLimitError, non_negative
from .words import BitWord, Family, family_bitmap, gen_lucas, iter_family_bits, parse_family
from .graphs import VertexSet, build_graph
from .codes import STATUS_BUDGET, STATUS_EXHAUSTED, search_constrained
from .claims import (
    CLAIM_IDS,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIPPED,
    applicable_params,
    run_claim,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_BUDGET = 4


def _family_arg(text: str) -> Family:
    try:
        return parse_family(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _int_list_arg(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _run_length_arg(text: str) -> int:
    try:
        s = int(text)
    except ValueError:
        s = 0
    if s < 1:
        raise argparse.ArgumentTypeError(f"expected a positive run length, got {text!r}")
    return s


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_enumerate(args) -> int:
    if args.count:
        _emit(f"{family_bitmap(args.family, args.n).bit_count()}\n", args.output)
        return EXIT_OK
    width = args.n
    lines = []
    for bits in iter_family_bits(args.family, args.n):
        lines.append(format(bits, f"0{width}b") if width else "")
    _emit("".join(line + "\n" for line in lines), args.output)
    return EXIT_OK


def _cmd_search(args) -> int:
    graph = build_graph(args.family, args.n)
    codewords = None
    if args.avoid_circular_run is not None:
        codewords = VertexSet.from_family(graph, gen_lucas(args.avoid_circular_run))
    outcome = search_constrained(
        graph,
        codewords,
        args.mode,
        node_budget=args.budget_nodes,
        time_budget=args.budget_seconds,
        seed=args.seed,
    )
    _emit(json.dumps(outcome.to_json_dict()) + "\n", args.output)
    if outcome.status == STATUS_EXHAUSTED:
        return EXIT_EXHAUSTED
    if outcome.status == STATUS_BUDGET:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    budgets = {"node_budget": args.budget_nodes, "time_budget": args.budget_seconds}
    params = {name: value for name, value in budgets.items() if value is not None}
    # a range flag sets one parameter, which not every claim takes
    ranges = {
        "--n-max": ("n_max", args.n_max),
        "--p": ("p_set", None if args.p is None else [args.p]),
        "--p-set": ("p_set", args.p_set),
        "--n-set": ("n_set", args.n_set),
    }
    given = {flag: param for flag, param in ranges.items() if param[1] is not None}
    params.update(given.values())
    claim_ids = CLAIM_IDS if args.claim == "all" else (args.claim,)
    claim_params = {claim_id: applicable_params(claim_id, params) for claim_id in claim_ids}
    refused = [
        flag for flag, (name, _) in given.items() if any(name not in p for p in claim_params.values())
    ]
    if refused:
        args.usage_error(f"{', '.join(refused)} cannot be used with --claim {args.claim}")
    reports = [run_claim(claim_id, **p) for claim_id, p in claim_params.items()]
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports]) + "\n", args.output)
    else:
        lines = []
        for r in reports:
            lines.append(f"{r.verdict.upper():<8} {r.claim:<18} params={json.dumps(r.params)}")
            if r.verdict != VERDICT_PASS:
                lines.append(f"         evidence={json.dumps(r.evidence)}")
        _emit("".join(line + "\n" for line in lines), args.output)
    if any(r.verdict == VERDICT_FAIL for r in reports):
        return EXIT_ERROR
    if any(r.verdict == VERDICT_SKIPPED for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def _load_code_words(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return [line.strip() for line in text.splitlines() if line.strip()]
    if isinstance(payload, dict):
        payload = payload.get("witness")
    if isinstance(payload, list) and all(isinstance(item, str) for item in payload):
        return payload
    raise ValueError(f"cannot read a code from {path!r}")


def _cmd_export(args) -> int:
    graph = build_graph(args.family, args.n)
    code = None
    if args.highlight_code is not None:
        words = []
        for text in _load_code_words(args.highlight_code):
            w = BitWord.from_string(text)
            if w.length != graph.n or w.bits not in graph.index:
                raise ValueError(f"code word {text!r} is not a vertex of {args.family} n={args.n}")
            words.append(w)
        code = VertexSet.from_words(graph, words)
    if args.format == "dot":
        _emit(graph.to_dot(code), args.output)
    else:
        _emit(json.dumps(graph.to_json_dict(code)) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecodes",
        description="Perfect codes in hypercubes, Fibonacci/Lucas cubes, and their circular generalizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_help = "family spec: qn | fib | lucas | fib1s:<s> | lucas1s:<s>"
    # argparse reports their ValueError as "invalid non-negative int value"
    budget_nodes, budget_seconds = non_negative(int), non_negative(float)

    p_enum = sub.add_parser("enumerate", help="list the members of a family")
    p_enum.add_argument("--family", type=_family_arg, required=True, help=family_help)
    p_enum.add_argument("--n", type=int, required=True, help="word length")
    p_enum.add_argument("--count", action="store_true", help="print only the cardinality")
    p_enum.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_search = sub.add_parser("search", help="search perfect codes by exact cover")
    p_search.add_argument("--family", type=_family_arg, required=True, help=family_help)
    p_search.add_argument("--n", type=int, required=True, help="word length")
    p_search.add_argument(
        "--mode", choices=("first", "prove-none", "enumerate"), default="first"
    )
    p_search.add_argument(
        "--avoid-circular-run",
        type=_run_length_arg,
        metavar="S",
        default=None,
        help="restrict codewords to words with no cyclic run of S ones",
    )
    p_search.add_argument("--budget-nodes", type=budget_nodes, default=None)
    p_search.add_argument("--budget-seconds", type=budget_seconds, default=None)
    p_search.add_argument("--seed", type=int, default=0, help="search-order seed (0 = canonical)")
    p_search.add_argument("--output", "-o", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="run claim checks")
    p_verify.add_argument(
        "--claim",
        required=True,
        choices=CLAIM_IDS + ("all",),
        help="claim id to check, or all: " + ", ".join(CLAIM_IDS),
    )
    p_verify.add_argument("--n-max", type=non_negative(int), default=None)
    p_choice = p_verify.add_mutually_exclusive_group()
    p_choice.add_argument("--p", type=int, default=None, help="single Hamming parameter p")
    p_choice.add_argument("--p-set", type=_int_list_arg, default=None, help="e.g. 2,3,4")
    p_verify.add_argument("--n-set", type=_int_list_arg, default=None, help="e.g. 3,7")
    p_verify.add_argument("--budget-nodes", type=budget_nodes, default=None)
    p_verify.add_argument("--budget-seconds", type=budget_seconds, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output", "-o", default=None)
    p_verify.set_defaults(func=_cmd_verify, usage_error=p_verify.error)

    p_export = sub.add_parser("export", help="export a graph as DOT or JSON")
    p_export.add_argument("--family", type=_family_arg, required=True, help=family_help)
    p_export.add_argument("--n", type=int, required=True, help="word length")
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument(
        "--highlight-code",
        metavar="FILE",
        default=None,
        help="overlay a code: JSON search outcome, JSON array, or one word per line",
    )
    p_export.add_argument("--output", "-o", default=None)
    p_export.set_defaults(func=_cmd_export)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built at its first call and kept for the process.

    Building takes over ten times as long as parsing one command line, and
    parse_args changes nothing in the parser, so calls share it safely.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as e:
        print(f"cubecodes: resource limit: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as e:
        print(f"cubecodes: error: {e}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
