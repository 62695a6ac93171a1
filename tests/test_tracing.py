"""The benchmark tracer (bench/tracing.py) still finds every package name it wraps.

The tracer patches functions and methods by name; a renamed one makes
install() fail, or leaves its layer unmeasured, so this checks both on a
small search, a small verify, a small construction with its
connectivity checks, and the punctured constructions of prop-1n12.
"""

import importlib.util
import sys
from pathlib import Path

from cubecodes import claims, cli, codes, graphs, hamming, words

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_measures_search_and_verify(capsys, monkeypatch):
    tracing = load_tracing(monkeypatch)
    search, closed_mask = codes.search_constrained, graphs.InducedGraph.closed_mask
    is_connected = graphs.InducedGraph.is_connected
    tracer = tracing.Tracer(
        dict(words=words, graphs=graphs, codes=codes, hamming=hamming, claims=claims, cli=cli)
    )
    tracer.install()
    try:
        argv = ["search", "--family", "lucas", "--n", "8", "--mode", "prove-none"]
        assert tracer.op(cli.main, argv) == 3
        searched = tracer.pass_totals()
        assert tracer.op(cli.main, ["verify", "--claim", "thm-main", "--n-max", "6"]) == 0
        verified = tracer.pass_totals()
        assert tracer.op(cli.main, ["verify", "--claim", "prop-1n", "--p-set", "2,3"]) == 0
        constructed = tracer.pass_totals()
    finally:
        tracer.restore()
    capsys.readouterr()
    assert {op for name, *_, op in tracer.spans if name == "codes.search"} == {0, 1}
    for totals in (searched, verified):
        assert totals["graphs.masks_s"] > 0 and totals["codes.nodes"] > 0
    assert verified["codes.validate_calls"] == 4  # the witnesses for n = 0..3
    assert cli.search_constrained is codes.search_constrained is search
    assert graphs.InducedGraph.closed_mask is closed_mask
    assert {op for name, *_, op in tracer.spans if name == "graphs.connect"} == {2}
    assert constructed["graphs.connect_s"] > 0 and constructed["graphs.build_s"] > 0
    assert graphs.InducedGraph.is_connected is is_connected


def test_tracer_measures_the_punctured_constructions(capsys, monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer(
        dict(words=words, graphs=graphs, codes=codes, hamming=hamming, claims=claims, cli=cli)
    )
    tracer.install()
    try:
        assert tracer.op(cli.main, ["verify", "--claim", "prop-1n12", "--p-set", "2,3"]) == 0
        totals = tracer.pass_totals()
    finally:
        tracer.restore()
    capsys.readouterr()
    assert totals["codes.validate_calls"] == 4  # p = 2, 3 at s = n-1 and n-2
    assert totals["hamming.construct_s"] > 0 and totals["graphs.build_s"] > 0


def test_tracer_measures_a_search_in_the_counted_state(capsys, monkeypatch):
    # Lucas n=12 has 322 vertices, so its search runs the counted cover
    # state, whose blocks are built with closed_mask as the bitmap state's are.
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer(
        dict(words=words, graphs=graphs, codes=codes, hamming=hamming, claims=claims, cli=cli)
    )
    tracer.install()
    try:
        argv = ["search", "--family", "lucas", "--n", "12", "--mode", "prove-none"]
        assert tracer.op(cli.main, argv) == 3
        totals = tracer.pass_totals()
    finally:
        tracer.restore()
    capsys.readouterr()
    assert len(graphs.build_graph(words.LUCAS, 12)) >= codes.COUNTED_MIN_VERTICES
    assert totals["graphs.masks_s"] > 0 and totals["codes.nodes"] == 25
