#!/usr/bin/env python3
"""Compares two sets of bench_e2e records: a parent set and a change set.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the JSON records bench_e2e writes to --out-dir
(one per workload, seed and trace flag; run.sh's default is
build-bench/e2e-out). Only untraced records are compared. For every
workload x end-to-end metric it prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

  better         the change wins at least 9 of every 10 seed-paired runs
                 (ties count for neither side) and the medians differ by
                 more than the parent's interquartile range
  worse          the change's median is worse than the parent's by more
                 than the metric's bound
  unresolved     neither, and the parent's own spread (IQR / median) is
                 wider than the bound, so "no regression" cannot be told
                 apart from noise
  no-regression  neither, and the parent's spread is within the bound

When the two sets were recorded on different hosts (CPU model, core
counts, compiler, flags or build type), on different graph files or
with different window lengths, it reports the numbers only and gives no
verdict. Exits 1 when any verdict
is "worse", else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "affinity_cpus", "cpu_model", "compiler", "cxx_flags",
             "build_type")


def load_records(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and record.get("schema") == 1 \
                and not record.get("trace"):
            records.append(record)
    return records


def comparable(records: list[dict]) -> bool:
    """True when every record ran on one host, each graph name always
    named the same graph file and each workload always measured the same
    window."""
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in records}
    graphs: dict[str, set[int]] = {}
    windows: dict[str, set[float]] = {}
    for r in records:
        graphs.setdefault(r["graph"]["name"], set()).add(
            r["graph"]["file_fnv1a"])
        windows.setdefault(r["workload"], set()).add(r.get("window_s"))
    if len(hosts) > 1:
        for host in sorted(hosts, key=str):
            print("  host:", dict(zip(HOST_KEYS, host)))
    return len(hosts) == 1 and all(
        len(d) == 1 for d in (*graphs.values(), *windows.values()))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: dict[int, float], change: dict[int, float]
            ) -> str:
    lower_is_better = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    if p_med == 0:
        return "unresolved"
    # Positive = the change is worse, as a share of the parent median.
    worse_share = (c_med - p_med) / p_med
    if not lower_is_better:
        worse_share = -worse_share
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds
               if (change[s] < parent[s]) == lower_is_better
               and change[s] != parent[s])
    if seeds and wins >= math.ceil(0.9 * len(seeds)) and worse_share < 0 \
            and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    if worse_share > bound:
        return "worse"
    if (p_q3 - p_q1) / p_med > bound:
        every_change_better = all(
            (c < p) == lower_is_better and c != p
            for c in change.values() for p in parent.values())
        return "no-regression" if every_change_better else "unresolved"
    return "no-regression"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCHMARK.json")
    args = parser.parse_args()

    benchmark = json.loads(args.benchmark.read_text())
    parent = load_records(args.parent)
    change = load_records(args.change)
    if not parent or not change:
        print("no untraced records in one of the directories",
              file=sys.stderr)
        return 2

    same_host = comparable(parent + change)
    if not same_host:
        print("hosts, graph files or windows differ between or within the "
              "sets: reporting only, no verdicts")

    for record in parent + change:
        if not record.get("correct") or record.get("failed"):
            print(f"warning: {record['workload']} seed {record['seed']} "
                  f"correct={record.get('correct')} "
                  f"failed={record.get('failed')}")

    any_worse = False
    workloads = sorted({r["workload"] for r in parent} |
                       {r["workload"] for r in change})
    header = (f"{'workload':22} {'metric':16} {'bound':>6} "
              f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'pairs':>5}  verdict")
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = {r["seed"]: r["metrics"][name]["value"] for r in parent
                 if r["workload"] == workload and name in r["metrics"]}
            c = {r["seed"]: r["metrics"][name]["value"] for r in change
                 if r["workload"] == workload and name in r["metrics"]}
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            result = verdict(metric, p, c) if same_host else "report-only"
            any_worse |= result == "worse"
            print(f"{workload:22} {name:16} {metric['bound']:6.0%} "
                  f"{pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
                  f"{len(set(p) & set(c)):5d}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
