#!/usr/bin/env python3
"""Fail if a recorded performance guard regresses.

Six modes:

Lineage overhead (default):

    bench_guard.py BENCH_obs.json fresh_micro.json

Plan-cache prepare speedup:

    bench_guard.py --prepare BENCH_engine.json [min_speedup]

Telemetry end-to-end qps:

    bench_guard.py --qps BENCH_on.json BENCH_off.json [min_ratio]

Vectorized segment kernel speedup:

    bench_guard.py --absorb fresh_micro.json [min_speedup]

Flight-recorder hop overhead:

    bench_guard.py --flight fresh_micro.json [max_ratio]

History regression (against the previous BENCH_history.jsonl entry):

    bench_guard.py --history BENCH_history.jsonl fresh_micro.json [max_ratio]

The --flight mode reads fresh google-benchmark output containing the
segment-hop pair BM_SegmentHopDedup (no observers) and
BM_SegmentHopFlight (a FlightSessionObserver feeding the lock-free
flight recorder — exactly the always-on tap every engine session runs
with) and fails if flight_on / flight_off exceeds max_ratio (default
1.05): the black box must cost at most 5% per hop, or it stops being
an always-on recorder.

The --history mode reads the JSONL benchmark history appended by
`scripts/bench.sh --append-history` (one object per commit: sha, date,
and the BM_SegmentHop* medians in ns) plus a fresh micro run, and
fails if any benchmark present in both regressed by more than
max_ratio (default 1.25 — absolute nanoseconds move with machine load,
so this is a coarse tripwire, not the ratio guards above). With fewer
than one prior entry the check passes vacuously.

The --absorb mode reads fresh google-benchmark output containing the
vectorized-kernel pairs BM_SegmentAbsorb/{0,1} and BM_SegmentJoin/{0,1}
and fails unless BOTH batch variants (/1) are at least min_speedup
(default 2) times faster than their row-at-a-time baselines (/0). Each
/0 arm reproduces the engine code the batch kernel replaced:
BM_SegmentAbsorb/0 is the goal node's per-row InsertRow plus a linear
scan over output groups (vs. /1: InsertSegment plus hash-map grouping
over 4096-row segments); BM_SegmentJoin/0 is the rule node's
scratch-Tuple copy into a std::unordered_set answer table (vs. /1: the
flat-arena InsertSegment kernel). Both benches count items = rows, so
the real_time ratio is the rows/s speedup. Medians are preferred when
the run carries repetitions.

The --qps mode compares two mpqe_bench_concurrent summaries — one run
with engine telemetry on, one with it off — and fails unless
qps_on / qps_off >= min_ratio (default 0.95): the telemetry layer
(query ids, session aggregation, gauge sampling, stats endpoint) may
cost at most 5% of end-to-end throughput. Every session's metrics are
a reduction of its result (no observer on the hop path), so this
end-to-end A/B is the one telemetry overhead guard.

The --prepare mode reads the summary written by mpqe_bench_concurrent
(scripts/bench.sh records it as BENCH_engine.json) and fails unless
the plan-cache hit path is at least min_speedup (default 10) times
faster than the cold compile on the transitive-closure example —
prepare_cold_ns / prepare_hit_ns >= min_speedup. A hit that slow means
the cache stopped short-circuiting parse/adorn/sips/graph-build.

Lineage mode: BENCH_obs.json is the recorded summary written by
scripts/bench.sh; fresh_micro.json is raw google-benchmark output.

Usage: bench_guard.py BENCH_obs.json fresh_micro.json

BENCH_obs.json is the recorded summary written by scripts/bench.sh; it
carries lineage_overhead_guard (the ceiling) and lineage_overhead_ratio
(the number recorded at commit time). fresh_micro.json is raw
google-benchmark output from a fresh run of the segment-hop pair, e.g.

  bench_runtime_micro --benchmark_filter='BM_SegmentHop(Dedup|Lineage)' \
      --benchmark_out=fresh_micro.json --benchmark_out_format=json

The guard recomputes lineage_on / lineage_off from the fresh run
(BM_SegmentHopLineage vs. BM_SegmentHopDedup — the identical
insert+forward loop over 128-row segments, with and without lineage
recording) and exits nonzero if the ratio exceeds the recorded guard.
Absolute hop times shift with hardware; the ratio is machine-portable,
which is why CI compares ratios and not nanoseconds.
"""

import json
import sys


def fail(msg):
    print(f"bench_guard: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_prepare(engine_path, min_speedup):
    doc = load(engine_path)
    cold = doc.get("prepare_cold_ns")
    hit = doc.get("prepare_hit_ns")
    if not isinstance(cold, (int, float)) or cold <= 0:
        fail(f"{engine_path} prepare_cold_ns is {cold!r}")
    if not isinstance(hit, (int, float)) or hit < 0:
        fail(f"{engine_path} prepare_hit_ns is {hit!r}")
    # A hit measured as 0 ns is below clock resolution — infinitely
    # faster than the cold compile, which trivially passes.
    speedup = float("inf") if hit == 0 else cold / hit
    if speedup < min_speedup:
        fail(f"plan-cache hit path is only {speedup:.1f}x faster than cold "
             f"prepare (cold={cold} ns, hit={hit} ns), expected >= "
             f"{min_speedup}x")
    cache = doc.get("plan_cache", {})
    if cache.get("hits", 0) < 1:
        fail(f"{engine_path} records no plan-cache hits")
    print(f"bench_guard: OK: plan-cache hit path {speedup:.1f}x faster than "
          f"cold prepare (cold={cold} ns, hit={hit} ns, guard "
          f">= {min_speedup}x)")
    sys.exit(0)


def micro_rows(fresh_path):
    """name -> real_time from raw google-benchmark output, preferring
    the median of repeated runs when --benchmark_repetitions was used
    (a lone sample sits too close to the ceiling to trust)."""
    fresh = load(fresh_path)
    rows, medians = {}, {}
    for b in fresh.get("benchmarks", []):
        if b.get("aggregate_name") == "median":
            medians[b["run_name"]] = b["real_time"]
        elif b.get("run_type") != "aggregate":
            rows[b["name"]] = b["real_time"]
    return medians if medians else rows


def check_qps(on_path, off_path, min_ratio):
    docs = {}
    for path, want in ((on_path, True), (off_path, False)):
        doc = load(path)
        if doc.get("telemetry") is not want:
            fail(f"{path} records telemetry={doc.get('telemetry')!r}, "
                 f"expected a telemetry-{'on' if want else 'off'} run")
        qps = doc.get("qps")
        if not isinstance(qps, (int, float)) or qps <= 0:
            fail(f"{path} qps is {qps!r}")
        docs[want] = qps
    ratio = docs[True] / docs[False]
    if ratio < min_ratio:
        fail(f"telemetry-on qps is {ratio:.3f}x the telemetry-off run "
             f"(on={docs[True]:.0f}, off={docs[False]:.0f}), "
             f"expected >= {min_ratio}")
    print(f"bench_guard: OK: telemetry-on qps {ratio:.3f}x of off "
          f"(on={docs[True]:.0f}, off={docs[False]:.0f}, guard "
          f">= {min_ratio})")
    sys.exit(0)


def check_absorb(fresh_path, min_speedup):
    rows = micro_rows(fresh_path)
    pairs = (("BM_SegmentAbsorb", "segment absorb (goal-node dedup)"),
             ("BM_SegmentJoin", "segment join (rule-node probe)"))
    for bench, what in pairs:
        row = rows.get(f"{bench}/0")
        batch = rows.get(f"{bench}/1")
        if not row or not batch:
            fail(f"{fresh_path} lacks {bench}/0 and {bench}/1 rows "
                 f"(got {sorted(rows)})")
        speedup = row / batch
        if speedup < min_speedup:
            fail(f"{what} batch kernel is only {speedup:.2f}x the "
                 f"row-at-a-time path (row={row:.0f} ns, "
                 f"batch={batch:.0f} ns), expected >= {min_speedup}x")
        print(f"bench_guard: OK: {what} batch kernel {speedup:.2f}x "
              f"row-at-a-time (guard >= {min_speedup}x)")
    sys.exit(0)


def check_flight(fresh_path, max_ratio):
    rows = micro_rows(fresh_path)
    off = rows.get("BM_SegmentHopDedup")
    on = rows.get("BM_SegmentHopFlight")
    if not off or not on:
        fail(f"{fresh_path} lacks BM_SegmentHopDedup/BM_SegmentHopFlight "
             f"rows (got {sorted(rows)})")
    ratio = on / off
    if ratio > max_ratio:
        fail(f"flight-recorder hop overhead ratio {ratio:.3f} exceeds guard "
             f"{max_ratio} (off={off:.0f} ns, on={on:.0f} ns) — the black "
             f"box must stay cheap enough to leave on")
    print(f"bench_guard: OK: flight-recorder hop overhead ratio {ratio:.3f} "
          f"<= guard {max_ratio}")
    sys.exit(0)


def check_history(history_path, fresh_path, max_ratio):
    try:
        with open(history_path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"cannot load {history_path}: {e}")
    if not lines:
        print("bench_guard: OK: history is empty, nothing to compare against")
        sys.exit(0)
    try:
        baseline = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{history_path} last line is not JSON: {e}")
    medians = baseline.get("medians_ns")
    if not isinstance(medians, dict) or not medians:
        fail(f"{history_path} last entry lacks a medians_ns object")

    rows = micro_rows(fresh_path)
    compared = regressed = 0
    for name, base in sorted(medians.items()):
        fresh = rows.get(name)
        if fresh is None or not isinstance(base, (int, float)) or base <= 0:
            continue
        compared += 1
        ratio = fresh / base
        marker = "OK"
        if ratio > max_ratio:
            regressed += 1
            marker = "REGRESSED"
        print(f"bench_guard: {marker}: {name} {ratio:.3f}x of "
              f"{baseline.get('sha', '?')[:12]} "
              f"(base={base:.0f} ns, fresh={fresh:.0f} ns)")
    if compared == 0:
        fail(f"no benchmark appears in both {history_path} and {fresh_path}")
    if regressed:
        fail(f"{regressed}/{compared} benchmark(s) regressed past "
             f"{max_ratio}x the previous history entry")
    print(f"bench_guard: OK: {compared} benchmark(s) within {max_ratio}x of "
          f"the previous history entry ({baseline.get('sha', '?')[:12]})")
    sys.exit(0)


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--prepare":
        if len(sys.argv) not in (3, 4):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        min_speedup = float(sys.argv[3]) if len(sys.argv) == 4 else 10.0
        check_prepare(sys.argv[2], min_speedup)
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--absorb":
        if len(sys.argv) not in (3, 4):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        min_speedup = float(sys.argv[3]) if len(sys.argv) == 4 else 2.0
        check_absorb(sys.argv[2], min_speedup)
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--flight":
        if len(sys.argv) not in (3, 4):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        max_ratio = float(sys.argv[3]) if len(sys.argv) == 4 else 1.05
        check_flight(sys.argv[2], max_ratio)
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--history":
        if len(sys.argv) not in (4, 5):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        max_ratio = float(sys.argv[4]) if len(sys.argv) == 5 else 1.25
        check_history(sys.argv[2], sys.argv[3], max_ratio)
        return
    if len(sys.argv) >= 2 and sys.argv[1] == "--qps":
        if len(sys.argv) not in (4, 5):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        min_ratio = float(sys.argv[4]) if len(sys.argv) == 5 else 0.95
        check_qps(sys.argv[2], sys.argv[3], min_ratio)
        return
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    obs_path, fresh_path = sys.argv[1:3]

    obs = load(obs_path)
    guard = obs.get("lineage_overhead_guard")
    if not isinstance(guard, (int, float)) or guard <= 1.0:
        fail(f"{obs_path} lineage_overhead_guard is {guard!r}, "
             f"expected a number > 1")
    recorded = obs.get("lineage_overhead_ratio")

    rows = micro_rows(fresh_path)
    off = rows.get("BM_SegmentHopDedup")
    on = rows.get("BM_SegmentHopLineage")
    if not off or not on:
        fail(f"{fresh_path} lacks BM_SegmentHopDedup/BM_SegmentHopLineage "
             f"rows (got {sorted(rows)})")

    ratio = on / off
    if ratio > guard:
        fail(f"segmented lineage overhead ratio {ratio:.3f} exceeds guard "
             f"{guard} (recorded at commit time: {recorded})")
    print(f"bench_guard: OK: segmented lineage overhead ratio {ratio:.3f} "
          f"<= guard {guard} (recorded: {recorded})")
    sys.exit(0)


if __name__ == "__main__":
    main()
