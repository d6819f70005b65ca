#!/usr/bin/env python3
"""Compare two sets of stamped e2ebench results of one workload.

    python3 e2ebench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a result written by run.py under .bench_build/e2ebench/
results/. Refuses to compare results from different hosts, nproc, build
types, workloads, trace modes or run lengths. Prints, per metric, each
side's median and quartiles and the change of the medians against the
bound BENCHMARK.json fixes (per-layer metrics have none). Exits 1 when
an end-to-end metric got worse by more than its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("host", "nproc", "build_type", "workload", "trace", "seconds")


def load(paths):
    results = [json.loads(Path(p).read_text()) for p in paths]
    for r in results:
        if "stamp" not in r:
            sys.exit(f"compare: {r.get('workload')} result has no stamp")
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    first = base[0]["stamp"]
    for r in base + new:
        for key in SAME:
            if r["stamp"][key] != first[key]:
                sys.exit(f"compare: refusing to compare results with "
                         f"different {key}: {first[key]!r} vs "
                         f"{r['stamp'][key]!r}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = []
    print(f"{first['workload']} trace={first['trace']} host={first['host']} "
          f"nproc={first['nproc']}: {len(base)} base vs {len(new)} new runs")
    for name, m in specs.items():
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b or not n:
            continue
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        if m["better"] == "higher":
            change = -change
        bound = m.get("bound")
        flag = ""
        if bound is not None and change > bound:
            flag = "  WORSE than bound"
            worse.append(name)
        print(f"  {name:<30} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  "
              f"worse by {change:+.2%}"
              f"{'' if bound is None else f' (bound {bound:.0%})'}{flag}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
