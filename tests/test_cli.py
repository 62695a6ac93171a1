"""Command-line behavior: output, exit codes, round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cubecodes
from cubecodes import cli, codes
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


# Text left in stdout's buffer before the search, then the search split over
# two processes at its first clock read; the forks are counted on stderr.
_FORK_HYGIENE = """
import os, sys
from cubecodes import cli, codes
from cubecodes.cli import main

codes.SPLIT_AFTER_S = 0.0
codes._split_workers = lambda: 2
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
sys.stdout.write("buffered before the search\\n")
code = main(["search", "--family", "lucas", "--n", "12", "--mode", "prove-none"])
sys.stderr.write(f"forks={len(forks)}\\n")
sys.exit(code)
"""


def test_split_search_output_is_the_serial_one(capsys, monkeypatch):
    src = str(Path(cubecodes.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", _FORK_HYGIENE],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert child.returncode == 3, child.stderr
    assert child.stderr == "forks=1\n"
    lines = child.stdout.splitlines()
    assert lines[0] == "buffered before the search" and len(lines) == 2
    monkeypatch.setattr(codes, "_split_workers", lambda: 1)
    code, out, _ = run_cli(capsys, "search", "--family", "lucas", "--n", "12", "--mode", "prove-none")
    assert code == 3
    split, serial = json.loads(lines[1]), json.loads(out)
    del split["millis"], serial["millis"]
    assert split == serial


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
