#!/usr/bin/env python3
"""Compare two sets of bench_pipeline runs metric by metric.

    python3 bench_pipeline/compare.py --base A1.json A2.json A3.json \\
                                      --head B1.json B2.json B3.json

Each file is one `bench_pipeline --out` result (any number of workloads).
Run the two sides alternately (A1, B1, A2, B2, ...) with the same seed and
duration; the i-th base run is paired with the i-th head run.

For every (workload, end-to-end metric) pair the medians and quartiles of
each side are compared with the bound BENCHMARK.json gives the metric:

  better      head wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than the base's quartile spread
  unresolved  the quartile spread of either side, as a share of the base
              median, is wider than the bound, unless every head run reads
              better than every base run
  worse       head's median is worse than base's by more than the bound
  unchanged   otherwise

The deterministic counters (row digests and engine work counts) must be
identical in every run of both sides.  Exit status: 0 when nothing is worse
or unresolved, no run failed, and the counters agree; 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    """Quartiles by linear interpolation between order statistics.  The
    'inclusive' method stays inside the sample; the default 'exclusive' one
    puts the quartiles of three runs at their minimum and maximum."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, head, better, bound):
    """Classify head against base; returns (verdict, signed worsening share)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    scale = abs(bm) if bm != 0 else 1.0
    worsening = sign * (hm - bm) / scale
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    spread = max(b3 - b1, h3 - h1) / scale
    if pairs and wins >= 0.9 * len(pairs) and abs(hm - bm) > (b3 - b1):
        return "better", worsening
    if spread > bound and not all_better:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    return "unchanged", worsening


def main():
    parser = argparse.ArgumentParser(description="Compare two sets of bench_pipeline runs.")
    parser.add_argument("--base", nargs="+", required=True, help="--out files of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="--out files of the change")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"),
                        help="file with the metric bounds (default: the repo's BENCHMARK.json)")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base_runs = load_runs(args.base)
    head_runs = load_runs(args.head)

    ok = True
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs):
            for name, wl in run["workloads"].items():
                if not wl["correct"] or wl["failed"] > 0:
                    print(f"{side} run {i + 1}: {name} not correct or had failed ops")
                    ok = False

    workloads = sorted(set(base_runs[0]["workloads"]) & set(head_runs[0]["workloads"]))
    print(f"{'workload':12} {'metric':20} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for wl in workloads:
        for m in metrics:
            base = [r["workloads"][wl]["metrics"][m["name"]]["value"] for r in base_runs
                    if m["name"] in r["workloads"].get(wl, {}).get("metrics", {})]
            head = [r["workloads"][wl]["metrics"][m["name"]]["value"] for r in head_runs
                    if m["name"] in r["workloads"].get(wl, {}).get("metrics", {})]
            if not base or not head:
                continue
            v, worsening = verdict(base, head, m["better"], m["bound"])
            ok = ok and v in ("better", "unchanged")
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            print(f"{wl:12} {m['name']:20} {bm:12.4g} [{b1:8.4g}, {b3:8.4g}] "
                  f"{hm:12.4g} [{h1:8.4g}, {h3:8.4g}] {100 * worsening:+7.2f}% "
                  f"{100 * m['bound']:5.0f}%  {v}")

    for wl in workloads:
        counters = [json.dumps(r["workloads"][wl].get("counters", {}), sort_keys=True)
                    for r in base_runs + head_runs if wl in r["workloads"]]
        same = len(set(counters)) == 1
        ok = ok and same
        print(f"{wl:12} deterministic counters: {'identical' if same else 'DIFFER'} "
              f"across {len(counters)} runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
