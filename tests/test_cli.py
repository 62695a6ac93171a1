"""Command-line behavior: output, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubecodes
from cubecodes import cli
from cubecodes.claims import CLAIM_IDS, ClaimReport
from cubecodes.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lucas4(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "lucas", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["0000", "0001", "0010", "0100", "0101", "1000", "1010"]


def test_enumerate_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "qn", "--n", "3", "--count")
    assert code == 0 and out == "8\n"
    code, out, _ = run_cli(
        capsys, "enumerate", "--family", "lucas1s:7", "--n", "7", "--count"
    )
    assert code == 0 and out == "127\n"


@pytest.mark.parametrize("family", ["qn", "fib", "lucas", "fib1s:3", "lucas1s:3"])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_enumerate_count_is_the_listings_length(capsys, family, n):
    code, listing, _ = run_cli(capsys, "enumerate", "--family", family, "--n", str(n))
    assert code == 0
    code, out, _ = run_cli(capsys, "enumerate", "--family", family, "--n", str(n), "--count")
    assert code == 0 and out == f"{len(listing.splitlines())}\n"


def test_enumerate_count_is_held_to_the_enumeration_cap(capsys, monkeypatch):
    monkeypatch.setenv("CUBECODES_ENUM_CAP", "16")
    assert run_cli(capsys, "enumerate", "--family", "qn", "--n", "4", "--count") == (0, "16\n", "")
    code, out, err = run_cli(capsys, "enumerate", "--family", "qn", "--n", "5", "--count")
    assert (code, out) == (1, "") and "CUBECODES_ENUM_CAP" in err


def test_enumerate_empty_word(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "fib", "--n", "0")
    assert code == 0 and out == "\n"


def test_invalid_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate", "--family", "nope", "--n", "3"])
    assert exit_info.value.code == 2


def test_search_prove_none_exit_3(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--family", "lucas", "--n", "4", "--mode", "prove-none"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "exhausted"
    assert payload["seed"] == 0


def test_search_first_witness(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--family", "lucas", "--n", "3", "--mode", "first"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["witness"] == ["000"]


@pytest.mark.parametrize("family", ["lucas", "fib", "qn"])
@pytest.mark.parametrize("n, word", [(0, ""), (1, "0")])
def test_search_witness_at_the_shortest_lengths(capsys, family, n, word):
    # At n=0 the one vertex is the empty word, printed as "", not as "0".
    code, out, _ = run_cli(capsys, "search", "--family", family, "--n", str(n))
    assert code == 0
    payload = json.loads(out)
    del payload["millis"]
    assert payload == {"status": "found", "witness": [word], "nodes": 2, "seed": 0}


# Seeded first-mode searches on n=7 graphs that carry perfect codes: each
# seed's node count and witness words, as the seeded candidate order gives them.
SEEDED_FIRST_CODES = {
    ("qn", 1): (17, "0000011 0001000 0010100 0011111 0100101 0101110 0110010 0111001 "
                    "1000110 1001101 1010001 1011010 1100000 1101011 1110111 1111100"),
    ("qn", 2): (17, "0000000 0000111 0011010 0011101 0101011 0101100 0110001 0110110 "
                    "1001001 1001110 1010011 1010100 1100010 1100101 1111000 1111111"),
    ("qn", 3): (17, "0000100 0001010 0010111 0011001 0100001 0101111 0110010 0111100 "
                    "1000011 1001101 1010000 1011110 1100110 1101000 1110101 1111011"),
    ("lucas1s:4", 1): (102, "0000000 0001011 0010110 0011101 0100111 0101100 0110001 0111010 "
                            "1000101 1001110 1010011 1011000 1100010 1101001 1110100"),
    ("lucas1s:4", 2): (111, "0000000 0001011 0010110 0011101 0100111 0101100 0110001 0111010 "
                            "1000101 1001110 1010011 1011000 1100010 1101001 1110100"),
    ("lucas1s:4", 3): (123, "0000000 0001101 0010111 0011010 0100011 0101110 0110100 0111001 "
                            "1000110 1001011 1010001 1011100 1100101 1101000 1110010"),
    ("fib1s:6", 1): (17, "0000011 0001110 0010000 0011101 0100101 0101000 0110110 0111011 "
                         "1000100 1001001 1010111 1011010 1100010 1101111 1110001 1111100"),
    ("fib1s:6", 2): (17, "0000111 0001001 0010000 0011110 0100100 0101010 0110011 0111101 "
                         "1000010 1001100 1010101 1011011 1100001 1101111 1110110 1111000"),
    ("fib1s:6", 3): (17, "0000010 0001100 0010111 0011001 0100001 0101111 0110100 0111010 "
                         "1000101 1001011 1010000 1011110 1100110 1101000 1110011 1111101"),
}


@pytest.mark.parametrize("family, seed", sorted(SEEDED_FIRST_CODES))
def test_seeded_first_search_is_pinned(capsys, family, seed):
    code, out, _ = run_cli(capsys, "search", "--family", family, "--n", "7", "--seed", str(seed))
    assert code == 0
    payload = json.loads(out)
    nodes, words = SEEDED_FIRST_CODES[family, seed]
    assert (payload["status"], payload["seed"]) == ("found", seed)
    assert (payload["nodes"], payload["witness"]) == (nodes, words.split())


def test_search_avoid_circular_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--family", "qn", "--n", "7",
        "--mode", "first", "--avoid-circular-run", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert "1111111" not in payload["witness"]
    code, out, _ = run_cli(
        capsys,
        "search", "--family", "qn", "--n", "7",
        "--mode", "prove-none", "--avoid-circular-run", "6",
    )
    assert code == 3


def test_search_budget_exit_4(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--family", "lucas", "--n", "12",
        "--mode", "prove-none", "--budget-nodes", "5",
    )
    assert code == 4
    assert json.loads(out)["status"] == "budget-exceeded"


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--budget-seconds", "nan"),
        ("--budget-seconds", "-1"),
        ("--budget-nodes", "-5"),
    ],
)
def test_malformed_budget_is_usage_error(capsys, command, flag, value):
    argv = ["search", "--family", "lucas", "--n", "12", "--mode", "prove-none"]
    if command == "verify":
        argv = ["verify", "--claim", "thm-main", "--n-max", "12"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_malformed_run_length_is_usage_error(capsys, value):
    # Refused by the parser, before any graph is built; a run longer than
    # the words forbids nothing, and stays valid.
    argv = ["search", "--family", "qn", "--n", "3", "--avoid-circular-run"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [value])
    assert exit_info.value.code == 2
    assert "--avoid-circular-run" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *argv, "4")
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_entrypoint_reports_length_beyond_the_word_limit():
    src = str(Path(cubecodes.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-m", "cubecodes.cli", "enumerate", "--family", "lucas", "--n", "63"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert child.returncode == 1
    assert "length must be in 0..62" in child.stderr
    assert child.stdout == ""


def test_back_to_back_calls_share_no_state(capsys):
    # main builds its parser once per process; a usage error in one call
    # leaves nothing behind for the next, and each subcommand's defaults
    # and usage errors stay its own.
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--claim", "prop-1n", "--n-max", "9"])
    assert exit_info.value.code == 2
    assert "--n-max cannot be used with --claim prop-1n" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "search", "--family", "lucas", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["witness"], payload["seed"]) == ("found", ["000"], 0)
    code, out, _ = run_cli(capsys, "verify", "--claim", "arith-thm", "--n-max", "10", "--format", "json")
    assert code == 0
    [report] = json.loads(out)
    assert (report["claim"], report["verdict"], report["params"]) == ("arith-thm", "pass", {"n_max": 10})
    with pytest.raises(SystemExit) as exit_info:
        main(["search", "--family", "lucas"])
    assert exit_info.value.code == 2
    assert "--n" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify", "--claim", "arith-thm", "--n-max", "10")
    assert code == 0 and out.startswith("PASS     arith-thm")


def test_search_enumerate_count(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--family", "qn", "--n", "3", "--mode", "enumerate"
    )
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_export_dot(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--family", "lucas", "--n", "4", "--format", "dot"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'graph "lucas n=4" {'
    assert sum(1 for line in lines if " -- " in line) == 8
    assert sum(1 for line in lines if line.startswith('  "') and " -- " not in line) == 7


def test_export_json_small(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--family", "lucas", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["00", "01", "10"]
    code, out, _ = run_cli(
        capsys, "export", "--family", "fib", "--n", "0", "--format", "json"
    )
    assert json.loads(out)["vertices"] == [""]


def test_export_is_byte_stable(capsys, tmp_path):
    first = tmp_path / "a.dot"
    second = tmp_path / "b.dot"
    assert main(["export", "--family", "lucas", "--n", "5", "-o", str(first)]) == 0
    assert main(["export", "--family", "lucas", "--n", "5", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_search_to_export_round_trip(capsys, tmp_path):
    outcome_path = tmp_path / "outcome.json"
    code = main([
        "search", "--family", "qn", "--n", "7", "--mode", "first",
        "--avoid-circular-run", "7", "-o", str(outcome_path),
    ])
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "export", "--family", "lucas1s:7", "--n", "7", "--format", "json",
        "--highlight-code", str(outcome_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["code"]) == 16


def test_export_plain_word_list(capsys, tmp_path):
    code_path = tmp_path / "code.txt"
    code_path.write_text("000\n")
    code, out, _ = run_cli(
        capsys,
        "export", "--family", "lucas", "--n", "3", "--format", "json",
        "--highlight-code", str(code_path),
    )
    assert code == 0
    assert json.loads(out)["code"] == [0]


def test_export_json_word_array(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text('["000"]')
    code, out, _ = run_cli(
        capsys,
        "export", "--family", "lucas", "--n", "3", "--format", "json",
        "--highlight-code", str(code_path),
    )
    assert code == 0
    assert json.loads(out)["code"] == [0]


@pytest.mark.parametrize(
    "text, n",
    [
        ("7", 3),
        ('{"witness": "000"}', 1),
        ('{"witness": [5]}', 3),
        ('{"witness": 5}', 3),
        ("[101]", 3),
        ('{"status": "exhausted"}', 3),
    ],
    ids=["scalar", "witness-string", "witness-int-item", "witness-scalar", "int-item", "no-witness"],
)
def test_export_rejects_json_scalar(capsys, tmp_path, text, n):
    code_path = tmp_path / "code.json"
    code_path.write_text(text)
    code, out, err = run_cli(
        capsys,
        "export", "--family", "lucas", "--n", str(n), "--highlight-code", str(code_path),
    )
    assert code == 1
    assert "cannot read a code" in err and out == ""


def test_export_rejects_foreign_code_word(capsys, tmp_path):
    code_path = tmp_path / "code.txt"
    code_path.write_text("0110\n")
    code, _, err = run_cli(
        capsys,
        "export", "--family", "lucas", "--n", "4", "--highlight-code", str(code_path),
    )
    assert code == 1
    assert "0110" in err


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "prop-count", "--n-max", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["claim"] == "prop-count"
    assert payload[0]["verdict"] == "pass"


def test_verify_reports_the_nodes_of_each_n(capsys):
    # thm-main gives the nodes of each n's search beside their total, and
    # no time, so two runs print the same bytes.
    argv = ["verify", "--claim", "thm-main", "--n-max", "8", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    [report] = json.loads(out)
    assert report["verdict"] == "pass"
    evidence = report["evidence"]
    assert evidence["nodes_by_n"] == {str(n): nodes for n, nodes in enumerate([2, 2, 2, 2, 6, 7, 11, 22, 41])}
    assert evidence["nodes"] == sum(evidence["nodes_by_n"].values()) == 95
    assert run_cli(capsys, *argv) == (0, out, "")


def test_verify_reports_the_nodes_of_the_avoidance_searches(capsys):
    # prop-qn-avoid sums its searches: s = 2 (1 node) and the listing of Q3's codes (5)
    code, out, _ = run_cli(capsys, "verify", "--claim", "prop-qn-avoid", "--n-set", "3", "--format", "json")
    assert code == 0
    [report] = json.loads(out)
    assert report["evidence"]["nodes"] == 6


def test_verify_unknown_claim_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--claim", "prop-none-such"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice" in captured.err and "prop-none-such" in captured.err
    assert captured.out == ""


def test_verify_budget_exit_4(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--claim", "thm-main", "--n-max", "12",
        "--budget-nodes", "10", "--format", "text",
    )
    assert code == 4
    assert "SKIPPED" in out


def test_verify_p_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "prop-1n", "--p", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["params"]["p_set"] == [3]


def test_verify_p_and_p_set_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--claim", "prop-1n", "--p", "3", "--p-set", "2,3"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--claim", "prop-1n", "--p-set", ","], "--p-set"),
        (["--claim", "lemma-0n", "--n-set", ""], "--n-set"),
        (["--claim", "thm-main", "--n-max", "-3"], "--n-max"),
        (["--claim", "prop-1n", "--p-set", "2,x"], "--p-set"),
    ],
)
def test_verify_range_that_checks_nothing_is_usage_error(capsys, argv, flag):
    # each used to print PASS after checking no parameter at all
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["--claim", "thm-main", "--n-max", "2"],
        ["--claim", "fib-nonexistence", "--n-max", "0"],
        ["--claim", "prop-qn-avoid", "--n-set", "0"],
        ["--claim", "arith-lemma", "--n-max", "0"],
        ["--claim", "arith-thm", "--n-max", "8"],
    ],
)
def test_verify_range_below_the_claim_fails(capsys, argv):
    # each used to print PASS with nothing of the claim's range searched
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out.startswith("FAIL") and "PASS" not in out and "precondition" in out


@pytest.mark.parametrize(
    "flags", [["--n-max", "6"], ["--p", "2"], ["--p-set", "2,3"], ["--n-set", "3"]]
)
def test_verify_all_refuses_range_flags(capsys, flags):
    # a range flag fits only some claims, and --claim all used to drop it
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--claim", "all", *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flags[0] in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "claim, flags",
    [
        ("arith-lemma", ["--p", "3"]),
        ("lemma-0n", ["--n-max", "8"]),
        ("prop-1n", ["--n-set", "3"]),
        ("thm-main", ["--p-set", "2,3"]),
    ],
)
def test_verify_refuses_a_range_flag_the_claim_does_not_take(capsys, claim, flags):
    # each used to print PASS with the flag dropped
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--claim", claim, *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flags[0] in captured.err and captured.out == ""


def test_verify_all_runs_every_claim_with_the_budgets(capsys, monkeypatch):
    calls = {}

    def run_claim(claim_id, **params):
        calls[claim_id] = params
        return ClaimReport(claim_id, params, "pass")

    monkeypatch.setattr(cli, "run_claim", run_claim)
    assert main(["verify", "--claim", "all", "--budget-nodes", "7", "--budget-seconds", "2"]) == 0
    assert list(calls) == list(CLAIM_IDS)
    searching = {"thm-main", "prop-qn-avoid", "fib-nonexistence"}
    for claim_id, params in calls.items():
        assert params == ({"node_budget": 7, "time_budget": 2.0} if claim_id in searching else {}), claim_id


def test_verify_all_json_is_pinned(capsys, monkeypatch):
    # The output holds no times, so it is the same bytes on every run and
    # every Python version; a change to any claim's verdict, parameters or
    # evidence, node counts included, shows here.
    for name in [name for name in os.environ if name.startswith("CUBECODES_")]:
        monkeypatch.delenv(name)
    code, out, _ = run_cli(capsys, "verify", "--claim", "all", "--format", "json")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / "verify_claim_all.json").read_bytes()


def test_help_lists_every_claim_id():
    parser = build_parser()
    # find the verify subparser help text and cross-check the id list
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    verify_parser = subparsers.choices["verify"]
    help_text = verify_parser.format_help()
    for claim_id in CLAIM_IDS:
        assert claim_id in help_text


@pytest.mark.parametrize(
    "name, value",
    [
        ("CUBECODES_BUDGET_NODES", "abc"),
        ("CUBECODES_BUDGET_SECONDS", "soon"),
        ("CUBECODES_BUDGET_SECONDS", "nan"),
        ("CUBECODES_BUDGET_NODES", "-5"),
        ("CUBECODES_ENGINE_CAP", "4k"),
    ],
)
def test_malformed_env_value_names_the_variable(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, _, err = run_cli(capsys, "search", "--family", "lucas", "--n", "4", "--mode", "prove-none")
    assert code == 1
    assert name in err and repr(value) in err


@pytest.mark.parametrize(
    "env, argv, name",
    [
        ({}, ["enumerate", "--family", "qn", "--n", "21", "--count"], "CUBECODES_ENUM_CAP"),
        ({}, ["search", "--family", "qn", "--n", "21"], "CUBECODES_ENUM_CAP"),
        (
            {"CUBECODES_GRAPH_CAP": "100"},
            ["search", "--family", "lucas", "--n", "12"],
            "CUBECODES_GRAPH_CAP",
        ),
        ({}, ["search", "--family", "qn", "--n", "13"], "CUBECODES_ENGINE_CAP"),
    ],
)
def test_resource_cap_names_its_variable(capsys, monkeypatch, env, argv, name):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert name in err
