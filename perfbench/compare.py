#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

Usage:
    python3 perfbench/compare.py OLD NEW [--manifest BENCHMARK.json]

OLD and NEW are result files: the concatenated standard output of
untraced runs (`--trace 0`), e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload fig6-cold --seed $s --seconds 12 --trace 0 >> old.txt
    done

Each run prints a `workload <name> ...` line and ends with its JSON result
line. A row compares the medians of NEW and OLD against the metric's
bound from BENCHMARK.json. When the run-to-run spread of either side
(interquartile range over median) is wider than the bound, the row reads
`unresolved` unless every NEW run is better than every OLD run. Exits 1
when any row is `worse`.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    """{workload: [result, ...]} from a file of run outputs."""
    runs = {}
    workload = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("workload "):
                workload = line.split()[1]
            elif line.startswith("{") and workload is not None:
                runs.setdefault(workload, []).append(json.loads(line))
                workload = None
    return runs


def spread(values):
    """Interquartile range over median, as `statistics.quantiles` gives it."""
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def verdict(old, new, better, bound):
    """One row's verdict and the relative change of the medians."""
    m_old, m_new = statistics.median(old), statistics.median(new)
    change = (m_new - m_old) / m_old if m_old else 0.0
    worse_by = change if better == "lower" else -change
    if better == "lower":
        all_better = max(new) < min(old)
    else:
        all_better = min(new) > max(old)
    if max(spread(old), spread(new)) > bound:
        return ("better" if all_better and worse_by < -bound else "unresolved"), change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "unchanged", change


def main(argv):
    default_manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                    "BENCHMARK.json")
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    ap.add_argument("old", help="result file of the baseline runs")
    ap.add_argument("new", help="result file of the candidate runs")
    ap.add_argument("--manifest", default=default_manifest, help="BENCHMARK.json with the bounds")
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    old, new = load_runs(args.old), load_runs(args.new)
    print(f"{'workload':<15} {'metric':<13} {'old':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13} {'bound':>6}  verdict")
    any_worse = False
    for workload in sorted(set(old) | set(new)):
        for m in metrics:
            name = m["name"]
            o = [r["metrics"][name]["value"] for r in old.get(workload, []) if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new.get(workload, []) if name in r["metrics"]]
            if not o or not n:
                print(f"{workload:<15} {name:<13} {'-':>12} {'-':>12} {'':>8} {'':>13} "
                      f"{m['bound']:>6.2f}  missing")
                continue
            v, change = verdict(o, n, m["better"], m["bound"])
            any_worse |= v == "worse"
            sp = f"{spread(o):.3f}/{spread(n):.3f}"
            print(f"{workload:<15} {name:<13} {statistics.median(o):>12.5g} "
                  f"{statistics.median(n):>12.5g} {change:>+8.1%} {sp:>13} "
                  f"{m['bound']:>6.2f}  {v} (n={len(o)}/{len(n)})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
