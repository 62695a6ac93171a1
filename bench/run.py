"""cubecodes benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload refute|enumerate|construct \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from any directory of a source checkout; the package is imported from
the checkout's `src/`, never from an installed copy. Each op is one
`cubecodes.cli.main([...])` call and the next op starts when the previous
one returns. Passes over the workload's ops repeat until `--seconds` have
elapsed; outputs are checked afterwards, outside every timed region.

End-to-end times are means over the run divided by the host's mean
slowdown, read from fixed reference work timed between ops (see
bench/README.md).
With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate, and the per-layer metrics are
printed. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a full record of the run,
with spans when traced, goes to bench/results/. Exit status: 0 when every
output is correct, 1 when an output is wrong, 2 when the checkout or the
arguments are unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 11
PROBE_READY = "ready"
# Host-speed readings: fixed reference work, timed between ops and set-up
# probes whenever READING_EVERY_S has passed since the last reading.
READING_EVERY_S = 0.5
# The reference work's fastest time on a quiet host (2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11.7). End-to-end times are rescaled to this speed; see
# bench/README.md.
REFERENCE_QUIET_S = 0.0156

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Checker, make_ops, parse_output  # noqa: E402

END_TO_END_METRICS = (
    ("wall_s", "s"),
    ("frontier_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


def hermetic_env() -> dict:
    """Unset every CUBECODES_* variable so caps and budgets take their defaults."""
    return {name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("CUBECODES_")}


def import_package():
    """Import cubecodes from this checkout's src/, or exit 2 when it is missing."""
    if not (SRC / "cubecodes" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cubecodes

    if Path(cubecodes.__file__).resolve().parent != SRC / "cubecodes":
        print(f"bench: imported cubecodes from {cubecodes.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cubecodes


def git_commit() -> str | None:
    """The checkout's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_op(main, op, tracer):
    """Run one op; returns (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.op(main, list(op.argv)) if tracer else main(list(op.argv))
        except SystemExit as e:
            code = e.code
        except Exception:  # a crashing op is a failed op; the run goes on
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("--family")
    parser.add_argument("--n", type=int)
    parser.add_argument("--mode", choices=("first", "enumerate"))
    parser.add_argument("--seed", type=int, default=0)
    return parser


def reference_work() -> float:
    """Seconds taken by fixed work that calls no package code.

    On a shared host the whole process runs faster or slower from second to
    second; this work's time is the reading of that speed. It mixes the kinds
    of work the package does, because they slow by different factors when the
    host is busy: integer arithmetic, a table of int keys, and argument
    parsing and JSON from the standard library.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {}
    for i in range(20_000):
        table[(i * 40503) & 0xFFFF] = i
    for key in range(0, 1 << 16, 3):
        total += table.get(key, 0)
    for i in range(40):
        ns = _reference_parser().parse_args(["--family", "qn", "--n", str(i), "--mode", "first"])
        words = [format(j, "07b") for j in range(16)]
        total += len(json.loads(json.dumps({"status": "found", "witness": words, "n": ns.n})))
    return time.perf_counter() - start


class Run:
    """Timed passes of one workload, the outputs they produced, and readings
    of the host's speed taken at a steady rate over the same period."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.op_times: list[list[float]] = []  # untraced passes, seconds per op
        self.traced_op_times: list[list[float]] = []
        self.layer_totals: list[dict] = []
        self.setup_times: list[float] = []
        self.readings: list[float] = []  # reference_work() seconds
        self._last_reading = 0.0
        self.outputs: dict[tuple, int] = {}  # (op index, exit code, output) -> times seen
        self.nodes: dict[str, set] = {}
        self.attempted = 0

    def _read_speed(self):
        """Take a reading of reference_work() when READING_EVERY_S has passed since the last."""
        if time.perf_counter() - self._last_reading >= READING_EVERY_S:
            self.readings.append(reference_work())
            self._last_reading = time.perf_counter()

    def passes(self, seconds: float, tracer=None, probe=None):
        """Repeat passes until `seconds` have elapsed.

        With a tracer, passes alternate untraced and traced; `probe`, when
        given, is called between passes, spread evenly over the run. Either
        way both kinds of sample meet the same machine load.
        """
        start = time.perf_counter()
        next_probe = start
        while True:
            traced = tracer is not None and len(self.traced_op_times) < len(self.op_times)
            if traced:
                tracer.install()
            try:
                times = self._pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.restore()
            if traced:
                self.traced_op_times.append(times)
                self.layer_totals.append(tracer.pass_totals())
            else:
                self.op_times.append(times)
            now = time.perf_counter()
            if probe is not None and now >= next_probe:
                self.setup_times.append(probe())
                next_probe = now + seconds / SETUP_PROBES
            if now - start >= seconds and (tracer is None or traced):
                break
        while probe is not None and len(self.setup_times) < SETUP_PROBES:
            self._read_speed()
            self.setup_times.append(probe())

    def _pass(self, tracer) -> list[float]:
        times = []
        for i, op in enumerate(self.ops):
            self._read_speed()
            elapsed, code, text = run_op(self.main, op, tracer)
            times.append(elapsed)
            output, nodes = parse_output(text)
            key = (i, code if isinstance(code, int) else str(code), output)
            self.outputs[key] = self.outputs.get(key, 0) + 1
            if nodes is not None:
                self.nodes.setdefault(op.key, set()).add(nodes)
            self.attempted += 1
        return times

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown over the run, against a quiet host."""
        return statistics.fmean(self.readings) / REFERENCE_QUIET_S

    @staticmethod
    def mean_pass(op_times) -> float:
        return statistics.fmean(map(sum, op_times))

    @property
    def frontier_times(self) -> list[float]:
        i = next(i for i, op in enumerate(self.ops) if op.frontier)
        return [times[i] for times in self.op_times]

    def check(self, checker) -> tuple[int, list]:
        failed, failures = 0, []
        for (i, code, text), seen in sorted(self.outputs.items()):
            reason = checker.check(self.ops[i], code, text)
            if reason is not None:
                failed += seen
                failures.append({"op": self.ops[i].key, "times": seen, "reason": reason,
                                 "exit": code, "output": text[:2000]})
        return failed, failures


def setup_probe(args):
    """A function timing process start to ready-for-the-first-op in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])

    def probe() -> float:
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line != PROBE_READY:
                raise RuntimeError(f"setup probe failed: {line!r}")
        return elapsed

    return probe


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env_unset = hermetic_env()
    cubecodes = import_package()
    from cubecodes import claims, cli, codes, graphs, hamming, limits, words

    ops = make_ops(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print(PROBE_READY, flush=True)
        return 0

    run = Run(cli.main, ops)
    if args.trace:
        from tracing import PER_LAYER_METRICS, Tracer, per_layer_metrics

        tracer = Tracer(dict(words=words, graphs=graphs, codes=codes, hamming=hamming,
                             claims=claims, cli=cli))
        run.passes(args.seconds, tracer)
        layer_metrics = per_layer_metrics(
            run.layer_totals, run.mean_pass(run.op_times), run.mean_pass(run.traced_op_times)
        )
        spans = tracer.spans
    else:
        run.passes(args.seconds, probe=setup_probe(args))
        spans = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, failures = run.check(Checker(cubecodes))
    attempted = run.attempted
    if args.trace:
        metrics = {name: {"value": layer_metrics[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        values = {
            "wall_s": run.mean_pass(run.op_times) / run.slowdown,
            "frontier_s": statistics.fmean(run.frontier_times) / run.slowdown,
            "setup_s": statistics.median(run.setup_times) / run.slowdown,
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_METRICS}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "env_unset": env_unset,
        "caps": {"enum_cap": limits.enum_cap(), "graph_cap": limits.graph_cap(),
                 "engine_cap": limits.engine_cap(), "budget_nodes": limits.default_node_budget(),
                 "budget_seconds": limits.default_time_budget()},
        "ops": [{"key": op.key, "argv": list(op.argv), "frontier": op.frontier} for op in ops],
        "ops_per_pass": len(ops),
        "passes": len(run.op_times) + len(run.traced_op_times),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "op_nodes": {key: sorted(v) for key, v in sorted(run.nodes.items())},
        "op_times": run.op_times,
        "traced_op_times": run.traced_op_times,
        "reference": {"quiet_s": REFERENCE_QUIET_S,
                      "slowdown": run.slowdown, "readings": run.readings},
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
    }
    if not args.trace:
        record["setup_times"] = run.setup_times
    else:
        record["layer_passes"] = run.layer_totals
        record["spans"] = spans
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
          f"passes {record['passes']}  (closed loop, 1 thread)")
    for name, metric in metrics.items():
        print(f"  {name:<22} {metric['value']:.6g} {metric['unit']}")
    walls = sorted(map(sum, run.op_times))
    print(f"  untraced pass time as measured: median {statistics.median(walls):.6g} s, "
          f"p90 {walls[int(0.9 * (len(walls) - 1))]:.6g} s, over {len(walls)} passes")
    print(f"  host slowdown against a quiet host: mean {run.slowdown:.3g}x "
          f"over {len(run.readings)} readings")
    print(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for failure in failures:
        print(f"  FAILED {failure['op']} x{failure['times']}: {failure['reason']}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
