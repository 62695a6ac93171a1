"""Compare two sets of benchmark result records.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records that bench/run.py writes to
bench/results/ (copy them aside between commits). For each workload and
end-to-end metric this prints both sides' median and quartiles and a
verdict against the bound in BENCHMARK.json:

  worse       the new median is worse than the base median by more than the bound
  unresolved  either side's quartile spread is wider than the bound
  better      the new side wins at least 9 of 10 seed-paired runs and the medians
              differ by more than the base side's quartile spread
  same        none of the above

Per-layer medians from traced records are printed without a verdict.
Node counts per op and the op list must agree exactly between records of
the same workload and seed. Exit status is 1 when any metric is worse or
any count disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if not r.get("tiny")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def by_seed(records: list[dict], workload: str, trace: int, metric: str) -> dict[int, float]:
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]:
            out.setdefault(r["seed"], r["metrics"][metric]["value"])
    return out


def verdict(base: dict, new: dict, bound: float, lower_is_better: bool) -> str:
    b, n = list(base.values()), list(new.values())
    b_med, n_med = statistics.median(b), statistics.median(n)
    worse_by = (n_med - b_med) if lower_is_better else (b_med - n_med)
    if b_med and worse_by / abs(b_med) > bound:
        return "worse"
    if spread(b) > bound or spread(n) > bound:
        return "unresolved"
    paired = sorted(set(base) & set(new))
    wins = sum(1 for s in paired if (new[s] < base[s] if lower_is_better else new[s] > base[s]))
    if paired and wins >= 0.9 * len(paired) and -worse_by > quartiles(b)[2] - quartiles(b)[0]:
        return "better"
    return "same"


def count_agreement(base: list[dict], new: list[dict]) -> list[str]:
    """Disagreements in the op list or per-op node counts between same-seed records."""
    problems = []
    groups: dict[tuple, list[dict]] = {}
    for r in base + new:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (workload, seed), records in sorted(groups.items()):
        first = records[0]
        for other in records[1:]:
            if [op["argv"] for op in other["ops"]] != [op["argv"] for op in first["ops"]]:
                problems.append(f"{workload} seed {seed}: op lists differ")
            if other["op_nodes"] != first["op_nodes"]:
                keys = sorted(k for k in set(first["op_nodes"]) | set(other["op_nodes"])
                              if first["op_nodes"].get(k) != other["op_nodes"].get(k))
                problems.append(f"{workload} seed {seed}: node counts differ on {', '.join(keys[:5])}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    failed = False
    print(f"{'workload':<10} {'metric':<22} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            b = by_seed(base, workload, 0, metric["name"])
            n = by_seed(new, workload, 0, metric["name"])
            if not b or not n:
                continue
            v = verdict(b, n, metric["bound"], metric["better"] == "lower")
            failed |= v == "worse"
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(q[1], q[0], q[2])
                     for q in (quartiles(list(b.values())), quartiles(list(n.values())))]
            print(f"{workload:<10} {metric['name']:<22} {cells[0]:>34} {cells[1]:>34}  {v}"
                  f"  (n={len(b)}/{len(n)}, bound {metric['bound']})")
        for metric in spec["per_layer"]:
            b = by_seed(base, workload, 1, metric["name"])
            n = by_seed(new, workload, 1, metric["name"])
            if b and n:
                print(f"{workload:<10} {metric['name']:<22} {statistics.median(b.values()):>34.5g}"
                      f" {statistics.median(n.values()):>34.5g}  ({metric['unit']})")
    problems = count_agreement(base, new)
    print("node and op counts: " + ("agree exactly" if not problems else "DISAGREE"))
    for problem in problems:
        print("  " + problem)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
