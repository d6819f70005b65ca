#!/usr/bin/env python3
"""End-to-end query benchmark: build, run one workload, check, report.

    python3 e2ebench/run.py --workload tc_chain_deep --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1

Builds the engine and the benchmark binary in Release under
.bench_build/e2ebench (refusing any other build type), runs it, stamps
the result with the source revision, host, nproc, build type, seed and
workload parameters, and writes it to .bench_build/e2ebench/results/. Every
metric is printed by name with its unit; the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. `--workload all` runs every
workload both ways. See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "mpqe_e2e"
BINARY_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {BENCH_DIR.name}/")
    return json.loads(path.read_text())


def cached_build_type():
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("engine sources (src/) not found; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    if cached_build_type() is None:
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path.relative_to(ROOT)})")
    build_type = cached_build_type()
    if build_type != "Release":
        fail(f"refusing a {build_type or 'unknown'} build; timings need "
             "Release (delete .bench_build/e2ebench to reconfigure)")
    return build_type


def source_revision():
    """The git SHA when the checkout is a repository, and always a digest
    of the engine and benchmark sources (a checkout need not be one)."""
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def stamp(build_type, args, params):
    sha, digest = source_revision()
    return {
        "git_sha": sha,
        "source_digest": digest,
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_ledger(result, errors):
    """The exact message ledger must repeat across runs at one seed."""
    ledger = result.get("ledger")
    if ledger is None:
        return
    path = BUILD_DIR / "ledger" / f"{result['workload']}-seed{result['seed']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous != ledger:
            errors.append(f"message ledger differs from an earlier run at "
                          f"this seed: {previous} vs {ledger}")
    else:
        path.write_text(json.dumps(ledger, sort_keys=True) + "\n")


def run_one(spec, args, build_type):
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = results_dir / f"{tag}.raw.json"
    spans_path = results_dir / f"{tag}.spans.json"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(raw_path)]
    if args.trace:
        command += ["--spans", str(spans_path)]
    raw_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(command, cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"mpqe_e2e exceeded {BINARY_TIMEOUT_S} s", code=1)
    if proc.returncode != 0 or not raw_path.is_file():
        fail(f"mpqe_e2e exited with code {proc.returncode}", code=1)
    result = json.loads(raw_path.read_text())

    errors = list(result["errors"])
    check_ledger(result, errors)
    measured = result["metrics"]
    metrics = {}
    for m in metric_specs:
        got = measured.get(m["name"])
        if got is None or got["value"] is None:
            fail(f"mpqe_e2e did not report {m['name']}", code=1)
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}", code=1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    result["stamp"] = stamp(build_type, args, result["params"])
    result["errors"] = errors
    artifact = results_dir / f"{tag}.json"
    artifact.write_text(json.dumps(result, indent=2) + "\n")

    st = result["stamp"]
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"host={st['host']} nproc={st['nproc']} build={build_type} "
          f"sha={st['git_sha'] or '-'} src={st['source_digest']}")
    print(f"  params {json.dumps(result['params'])}")
    for name, m in measured.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']:<10} {m['note']}")
    if result.get("ledger"):
        counts = " ".join(f"{k}={v}" for k, v in result["ledger"].items())
        print(f"  ledger (exact counts per query) {counts}")
    if args.trace:
        print(f"  spans {spans_path.relative_to(ROOT)}")
    print(f"  result {artifact.relative_to(ROOT)}")
    for e in errors:
        print(f"  ERROR {e}")
    return {
        "correct": not errors and result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    build_type = build()

    if args.workload != "all":
        print(json.dumps(run_one(spec, args, build_type)))
        return
    summary = {}
    for name in names:
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            summary[f"{name}/trace{trace}"] = run_one(spec, args, build_type)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
