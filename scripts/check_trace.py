#!/usr/bin/env python3
"""Validate observability JSON artifacts.

Usage: check_trace.py trace.json            # Chrome trace (TraceExporter)
       check_trace.py --profile profile.json  # mpqe-profile-v5 (profiler)
       check_trace.py --lineage lineage.json  # mpqe-lineage-v1 (provenance)
       check_trace.py --prometheus scrape.txt [--queries querylog.json]
                                              # /metrics exposition + query log
       check_trace.py --flight dump.json [--expect-stall]
                                              # mpqe-flightdump-v1 (flight
                                              # recorder / watchdog bundle)

Trace checks (stdlib only, exit 0 = valid, 1 = invalid):
  * the file parses as JSON and has a non-empty "traceEvents" list;
  * every event carries the keys its phase type requires;
  * duration events ("X") have dur >= 0;
  * segment envelopes (send flows named "msg:tuple_segment" and their
    deliver slices "tuple_segment") carry an integer args.rows >= 1 —
    empty segments never ship;
  * flow starts ("s") and ends ("f") pair up one-to-one by id, and
    every flow end's timestamp is >= its start's (send happens-before
    delivery);
  * metadata ("M") names every thread that appears in events.

Profile checks (--profile, schema "mpqe-profile-v5"):
  * top-level schema marker, totals, phases, nodes, sccs all present;
  * every phase key names a session phase (network_wiring, run,
    drain, teardown) with a non-negative int, and all four are
    reported;
  * every node row has the full counter set (including the segment
    envelope counters segments_in/out and segment_rows_in/out), node
    ids are unique, and derived ratios (dup_hit_rate, selectivity,
    rows_per_segment_out, batch_dedup_hit_rate over tuples_in) are
    consistent with the raw counters;
  * segment rows imply segment envelopes and vice versa (a shipped
    segment is never empty);
  * estimate-bearing nodes carry est_log10_tuples and
    deviation_factor (>= 1);
  * node counter sums do not exceed the report totals, and
    msgs_sent == msgs_delivered (every run drains);
  * every scc row references known nodes and has tree_depth >= 1.

Lineage checks (--lineage, schema "mpqe-lineage-v1"):
  * top-level schema marker, stats and records present, record ids
    unique and non-negative, kinds in {edb, rule, union};
  * EDB records are leaves: no inputs, depth 0; derived records carry
    a non-empty inputs list;
  * referential integrity: every input id resolves to a record with a
    strictly smaller id (the derivation structure is a DAG), and every
    source id resolves;
  * rule records carry an integer rule index;
  * depth == 1 + max(depth of inputs) for derived records, and the
    stats block's edb_facts/derived/max_depth match the records.

Prometheus checks (--prometheus, text exposition format 0.0.4 as
served by the engine's GET /metrics and mpqe_query --metrics-out):
  * every sample line parses (name, optional {labels}, numeric value)
    and belongs to a family declared by a preceding # TYPE line with
    type counter, gauge or histogram;
  * no series (name + label set) appears twice;
  * counter and histogram samples are non-negative;
  * per histogram series: bucket counts are cumulative (non-decreasing
    in le order), the last bucket is le="+Inf" and equals _count, and
    _sum/_count are present;
  * the engine's core families are all present: plan-cache
    (mpqe_plan_cache_hit, mpqe_plan_cache_size), session latency
    (mpqe_engine_session_latency_ns), queue depth
    (mpqe_engine_pool_queue_depth), and message/segment traffic
    (mpqe_msg_sent, mpqe_msg_segment_rows);
  * with --queries, the mpqe-querylog-v1 document correlates with the
    scrape: query ids are unique and >= 1, and the log's completed
    total equals the scrape's mpqe_engine_session_latency_ns_count —
    every completed session shows up in both surfaces.

Flight dump checks (--flight, schema "mpqe-flightdump-v1" as written
by the stall watchdog, GET /debug/flight, and mpqe_query
--flight-dump):
  * top-level schema marker, reason in {stall, manual}, and the
    scalar block (query_id, stalled_ms, delivered, in_flight,
    stuck_scc) all present and well-typed;
  * events are time-ordered, every event has a known type name, and
    rows/aux are non-negative;
  * scc rows are unique by id; nontrivial sccs have members >= 1 and
    carry the Fig. 2 protocol block (wave, waiting_for, ...);
  * node rows are unique by id, reference known sccs, and carry
    labels;
  * a "stall" dump names a stuck_scc that resolves to a nontrivial
    scc row holding queued work, and carries at least one event;
  * with --expect-stall, reason must be "stall" (the CI stall-
    injection smoke asserts the watchdog actually fired).
"""

import json
import re
import sys
from collections import Counter

KNOWN_PHASES = {"X", "s", "f", "i", "C", "M", "B", "E"}

NODE_COUNTERS = [
    "fires", "requests_in", "tuples_in", "tuples_out", "dedup_hits",
    "msgs_in", "msgs_out", "segments_in", "segments_out", "segment_rows_in",
    "segment_rows_out", "batch_dedup_hits",
    "fire_ns", "queue_wait_ns",
]

TOTAL_COUNTERS = [
    "fires", "tuples_in", "tuples_out", "dedup_hits", "msgs_sent",
    "msgs_delivered", "fire_ns", "queue_wait_ns",
]

ROLES = {"goal", "rule", "edb", "cycle_ref"}
PHASE_KEYS = ["network_wiring_ns", "run_ns", "drain_ns", "teardown_ns"]


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_profile(path):
    report = load(path)
    if report.get("schema") != "mpqe-profile-v5":
        fail(f'schema is {report.get("schema")!r}, expected "mpqe-profile-v5"')
    for key in ("totals", "phases", "nodes", "sccs"):
        if key not in report:
            fail(f'top-level "{key}" missing')
    phases = report["phases"]
    for key, v in phases.items():
        if key not in PHASE_KEYS:
            fail(f'unknown phase "{key}"')
        if not isinstance(v, int) or v < 0:
            fail(f"phases.{key} is {v!r}, expected a non-negative int")
    for key in PHASE_KEYS:
        if key not in phases:
            fail(f'phases.{key} missing (every session reports it)')
    totals = report["totals"]
    for key in TOTAL_COUNTERS:
        v = totals.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"totals.{key} is {v!r}, expected a non-negative int")
    if totals["msgs_sent"] != totals["msgs_delivered"]:
        fail(f'msgs_sent {totals["msgs_sent"]} != '
             f'msgs_delivered {totals["msgs_delivered"]}')

    nodes = report["nodes"]
    if not isinstance(nodes, list) or not nodes:
        fail('"nodes" missing, not a list, or empty')
    seen_ids = set()
    sums = Counter()
    estimated = 0
    for i, n in enumerate(nodes):
        nid = n.get("id")
        if not isinstance(nid, int) or nid < 0:
            fail(f"node {i} has bad id {nid!r}")
        if nid in seen_ids:
            fail(f"duplicate node id {nid}")
        seen_ids.add(nid)
        if n.get("role") not in ROLES:
            fail(f'node {nid} has unknown role {n.get("role")!r}')
        if not isinstance(n.get("label"), str) or not n["label"]:
            fail(f"node {nid} lacks a label")
        for key in NODE_COUNTERS:
            v = n.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"node {nid}.{key} is {v!r}, expected non-negative int")
            sums[key] += v
        seen = n["tuples_in"] + n["dedup_hits"]
        want_rate = n["dedup_hits"] / seen if seen else 0.0
        if abs(n.get("dup_hit_rate", -1) - want_rate) > 1e-4:
            fail(f'node {nid} dup_hit_rate {n.get("dup_hit_rate")!r} '
                 f"inconsistent with counters (want {want_rate:.6f})")
        want_sel = n["tuples_out"] / n["tuples_in"] if n["tuples_in"] else 0.0
        if abs(n.get("selectivity", -1) - want_sel) > 1e-4:
            fail(f'node {nid} selectivity {n.get("selectivity")!r} '
                 f"inconsistent with counters (want {want_sel:.6f})")
        for way in ("in", "out"):
            segs, rows = n[f"segments_{way}"], n[f"segment_rows_{way}"]
            if (segs == 0) != (rows == 0) or rows < segs:
                fail(f"node {nid} segment_rows_{way} {rows} inconsistent "
                     f"with segments_{way} {segs} (segments are non-empty)")
        want_rps = (n["segment_rows_out"] / n["segments_out"]
                    if n["segments_out"] else 0.0)
        if abs(n.get("rows_per_segment_out", -1) - want_rps) > 1e-4:
            fail(f'node {nid} rows_per_segment_out '
                 f'{n.get("rows_per_segment_out")!r} inconsistent with '
                 f"counters (want {want_rps:.6f})")
        want_rpsi = (n["segment_rows_in"] / n["segments_in"]
                     if n["segments_in"] else 0.0)
        if abs(n.get("rows_per_segment_in", -1) - want_rpsi) > 1e-4:
            fail(f'node {nid} rows_per_segment_in '
                 f'{n.get("rows_per_segment_in")!r} inconsistent with '
                 f"counters (want {want_rpsi:.6f})")
        # Batch dedup hits are the subset of dedup hits from segment
        # arrivals, whose rows are tuples_in.
        if n["batch_dedup_hits"] > n["dedup_hits"]:
            fail(f'node {nid} batch_dedup_hits {n["batch_dedup_hits"]} '
                 f'exceeds dedup_hits {n["dedup_hits"]}')
        want_bhr = (n["batch_dedup_hits"] / n["tuples_in"]
                    if n["tuples_in"] else 0.0)
        if abs(n.get("batch_dedup_hit_rate", -1) - want_bhr) > 1e-4:
            fail(f'node {nid} batch_dedup_hit_rate '
                 f'{n.get("batch_dedup_hit_rate")!r} inconsistent with '
                 f"counters (want {want_bhr:.6f})")
        if "est_log10_tuples" in n:
            estimated += 1
            if not isinstance(n["est_log10_tuples"], (int, float)):
                fail(f"node {nid} est_log10_tuples is not a number")
            dev = n.get("deviation_factor")
            if not isinstance(dev, (int, float)) or dev < 1.0:
                fail(f"node {nid} deviation_factor {dev!r}, expected >= 1")

    # Node rows exclude the sink, so per-node sums are bounded by (not
    # equal to) the run totals.
    for node_key, total_key in (("fires", "fires"),
                                ("tuples_in", "tuples_in"),
                                ("tuples_out", "tuples_out"),
                                ("dedup_hits", "dedup_hits"),
                                ("msgs_out", "msgs_sent"),
                                ("msgs_in", "msgs_delivered")):
        if sums[node_key] > totals[total_key]:
            fail(f"sum of node {node_key} ({sums[node_key]}) exceeds "
                 f"totals.{total_key} ({totals[total_key]})")
    if estimated == 0:
        fail("no node carries a cost-model estimate")

    for s in report["sccs"]:
        members = s.get("members")
        if not isinstance(members, list) or not members:
            fail(f'scc {s.get("id")!r} has no members')
        for m in members:
            if m not in seen_ids:
                fail(f'scc {s.get("id")} references unknown node {m}')
        if s.get("leader") not in seen_ids:
            fail(f'scc {s.get("id")} leader {s.get("leader")!r} unknown')
        if not isinstance(s.get("tree_depth"), int) or s["tree_depth"] < 1:
            fail(f'scc {s.get("id")} tree_depth {s.get("tree_depth")!r}, '
                 f"expected >= 1")

    print(f"check_trace: OK: profile with {len(nodes)} nodes "
          f"({estimated} estimated), {len(report['sccs'])} scc(s), "
          f"{totals['msgs_sent']} msgs")
    sys.exit(0)


LINEAGE_KINDS = {"edb", "rule", "union"}


def check_lineage(path):
    report = load(path)
    if report.get("schema") != "mpqe-lineage-v1":
        fail(f'schema is {report.get("schema")!r}, expected "mpqe-lineage-v1"')
    for key in ("stats", "records"):
        if key not in report:
            fail(f'top-level "{key}" missing')
    records = report["records"]
    if not isinstance(records, list) or not records:
        fail('"records" missing, not a list, or empty')

    by_id = {}
    for i, r in enumerate(records):
        rid = r.get("id")
        if not isinstance(rid, int) or rid < 0:
            fail(f"record {i} has bad id {rid!r}")
        if rid in by_id:
            fail(f"duplicate record id {rid}")
        by_id[rid] = r
        kind = r.get("kind")
        if kind not in LINEAGE_KINDS:
            fail(f"record {rid} has unknown kind {kind!r}")
        if not isinstance(r.get("depth"), int) or r["depth"] < 0:
            fail(f"record {rid} has bad depth {r.get('depth')!r}")
        if not isinstance(r.get("display"), str) or not r["display"]:
            fail(f"record {rid} lacks a display string")
        if not isinstance(r.get("values"), list):
            fail(f"record {rid} lacks a values list")
        if kind == "edb":
            # EDB facts are leaves of the DAG.
            if r.get("inputs"):
                fail(f"edb record {rid} has inputs {r['inputs']!r}")
            if r["depth"] != 0:
                fail(f"edb record {rid} has depth {r['depth']}, expected 0")
        else:
            inputs = r.get("inputs")
            if not isinstance(inputs, list) or not inputs:
                fail(f"derived record {rid} lacks a non-empty inputs list")
        if kind == "rule" and not isinstance(r.get("rule"), int):
            fail(f"rule record {rid} lacks an integer rule index")

    edb_facts = derived = max_depth = 0
    for rid, r in by_id.items():
        if r["kind"] == "edb":
            edb_facts += 1
            continue
        derived += 1
        max_depth = max(max_depth, r["depth"])
        for inp in r["inputs"]:
            if inp not in by_id:
                fail(f"record {rid} input {inp} does not resolve")
            if inp >= rid:
                fail(f"record {rid} input {inp} does not precede it "
                     f"(derivation DAG violated)")
        if "source" in r and r["source"] not in by_id:
            fail(f"record {rid} source {r['source']} does not resolve")
        want = 1 + max(by_id[inp]["depth"] for inp in r["inputs"])
        if r["depth"] != want:
            fail(f"record {rid} depth {r['depth']} != 1 + max input depth "
                 f"({want})")

    stats = report["stats"]
    for key, got in (("edb_facts", edb_facts), ("derived", derived),
                     ("max_depth", max_depth)):
        if stats.get(key) != got:
            fail(f"stats.{key} is {stats.get(key)!r}, records say {got}")

    print(f"check_trace: OK: lineage with {edb_facts} EDB fact(s), "
          f"{derived} derived record(s), max depth {max_depth}")
    sys.exit(0)


REQUIRED_FAMILIES = [
    "mpqe_plan_cache_hit",
    "mpqe_plan_cache_size",
    "mpqe_engine_session_latency_ns",
    "mpqe_engine_pool_queue_depth",
    "mpqe_msg_sent",
    "mpqe_msg_segment_rows",
]

SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_labels(raw, lineno):
    labels = {}
    for m in LABEL_RE.finditer(raw or ""):
        labels[m.group(1)] = m.group(2)
    # Reject garbage the label regex silently skipped.
    stripped = LABEL_RE.sub("", raw or "").replace(",", "").strip()
    if stripped:
        fail(f"line {lineno}: unparseable label text {raw!r}")
    return labels


def histogram_base(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)], suffix
    return name, ""


def check_prometheus(scrape_path, queries_path):
    try:
        with open(scrape_path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(f"cannot load {scrape_path}: {e}")

    types = {}          # family -> counter|gauge|histogram
    seen_series = set()
    samples = 0
    # (histogram family, frozenset(labels minus le)) -> list of
    # (le, count) in file order, plus seen _sum/_count markers.
    hist_buckets = {}
    hist_parts = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family, mtype = parts[2], parts[3] if len(parts) > 3 else ""
                if mtype not in ("counter", "gauge", "histogram"):
                    fail(f"line {lineno}: family {family} has bad type "
                         f"{mtype!r}")
                if family in types:
                    fail(f"line {lineno}: duplicate TYPE for {family}")
                types[family] = mtype
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {lineno}: unparseable sample {line!r}")
        name, raw_labels, raw_value = m.groups()
        labels = parse_labels(raw_labels, lineno)
        try:
            value = float(raw_value)
        except ValueError:
            fail(f"line {lineno}: {name} has non-numeric value "
                 f"{raw_value!r}")
        base, suffix = histogram_base(name)
        if base in types and types[base] == "histogram" and suffix:
            family, mtype = base, "histogram"
        elif name in types:
            family, mtype = name, types[name]
            suffix = ""
        else:
            fail(f"line {lineno}: sample {name} has no preceding TYPE")
        series = (name, frozenset(labels.items()))
        if series in seen_series:
            fail(f"line {lineno}: duplicate series {name}{labels!r}")
        seen_series.add(series)
        if mtype in ("counter", "histogram") and value < 0:
            fail(f"line {lineno}: {mtype} {name} is negative ({value})")
        samples += 1

        if mtype == "histogram":
            key = (family,
                   frozenset(kv for kv in labels.items() if kv[0] != "le"))
            if suffix == "_bucket":
                le = labels.get("le")
                if le is None:
                    fail(f"line {lineno}: {name} bucket lacks an le label")
                hist_buckets.setdefault(key, []).append((lineno, le, value))
            else:
                hist_parts.setdefault(key, set()).add(suffix)

    for (family, labelset), buckets in hist_buckets.items():
        prev = -1.0
        for lineno, le, value in buckets:
            if value < prev:
                fail(f"line {lineno}: {family} bucket le={le} count {value} "
                     f"below preceding bucket ({prev}) — not cumulative")
            prev = value
        last_le = buckets[-1][1]
        if last_le != "+Inf":
            fail(f"{family}{dict(labelset)!r} last bucket is le={last_le}, "
                 f"expected +Inf")
        parts = hist_parts.get((family, labelset), set())
        for suffix in ("_sum", "_count"):
            if suffix not in parts:
                fail(f"{family}{dict(labelset)!r} lacks {family}{suffix}")

    missing = [f for f in REQUIRED_FAMILIES if f not in types]
    if missing:
        fail(f"required families missing from scrape: {missing} "
             f"(got {sorted(types)})")

    latency_count = None
    for line in text.splitlines():
        if line.startswith("mpqe_engine_session_latency_ns_count "):
            latency_count = float(line.split()[1])

    if queries_path is not None:
        log = load(queries_path)
        if log.get("schema") != "mpqe-querylog-v1":
            fail(f'query log schema is {log.get("schema")!r}, expected '
                 f'"mpqe-querylog-v1"')
        entries = log.get("queries")
        if not isinstance(entries, list):
            fail('query log lacks a "queries" list')
        ids = set()
        for i, q in enumerate(entries):
            qid = q.get("query_id")
            if not isinstance(qid, int) or qid < 1:
                fail(f"query log entry {i} has bad query_id {qid!r} "
                     f"(engine ids start at 1)")
            if qid in ids:
                fail(f"duplicate query_id {qid} in query log")
            ids.add(qid)
            if not q.get("text_hash"):
                fail(f"query {qid} lacks a text_hash")
            if "status" not in q:
                fail(f"query {qid} lacks a status")
        completed = log.get("completed")
        if not isinstance(completed, int) or completed < len(entries):
            fail(f"query log completed={completed!r} is less than the "
                 f"{len(entries)} retained entries")
        if latency_count is None:
            fail("scrape lacks mpqe_engine_session_latency_ns_count, "
                 "cannot correlate with the query log")
        if completed != int(latency_count):
            fail(f"query log says {completed} completed sessions but the "
                 f"scrape recorded {int(latency_count)} session latencies")

    correlated = (f", correlated with query log ({queries_path})"
                  if queries_path else "")
    print(f"check_trace: OK: prometheus scrape with {len(types)} families, "
          f"{samples} samples, {len(hist_buckets)} histogram series"
          f"{correlated}")
    sys.exit(0)


FLIGHT_EVENT_TYPES = {
    "session_start", "session_end", "send", "deliver", "node_fire",
    "phase", "termination", "stall", "watchdog_dump", "plan_prepare",
}


def check_flight(path, expect_stall):
    dump = load(path)
    if dump.get("schema") != "mpqe-flightdump-v1":
        fail(f'schema is {dump.get("schema")!r}, '
             f'expected "mpqe-flightdump-v1"')
    reason = dump.get("reason")
    if reason not in ("stall", "manual"):
        fail(f"reason is {reason!r}, expected 'stall' or 'manual'")
    if expect_stall and reason != "stall":
        fail(f"--expect-stall but reason is {reason!r} "
             f"(the watchdog never fired)")
    for key in ("query_id", "delivered", "in_flight"):
        v = dump.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{key} is {v!r}, expected a non-negative int")
    for key in ("stalled_ms", "stuck_scc"):
        if not isinstance(dump.get(key), int):
            fail(f"{key} is {dump.get(key)!r}, expected an int")
    for key in ("sccs", "nodes", "events"):
        if not isinstance(dump.get(key), list):
            fail(f'top-level "{key}" missing or not a list')

    sccs = {}
    for i, s in enumerate(dump["sccs"]):
        sid = s.get("scc")
        if not isinstance(sid, int):
            fail(f"scc row {i} has bad id {sid!r}")
        if sid in sccs:
            fail(f"duplicate scc row {sid}")
        sccs[sid] = s
        if not isinstance(s.get("queue_depth"), int) or s["queue_depth"] < 0:
            fail(f"scc {sid} queue_depth {s.get('queue_depth')!r} bad")
        if s.get("nontrivial"):
            if not isinstance(s.get("members"), int) or s["members"] < 1:
                fail(f"nontrivial scc {sid} has members "
                     f"{s.get('members')!r}, expected >= 1")
            for key in ("wave", "waves_started", "waiting_for", "idleness"):
                if not isinstance(s.get(key), int):
                    fail(f"nontrivial scc {sid} lacks protocol field {key}")
            for key in ("wave_active", "all_confirmed", "open_work",
                        "notice_pending"):
                if not isinstance(s.get(key), bool):
                    fail(f"nontrivial scc {sid} lacks protocol flag {key}")

    node_ids = set()
    for i, n in enumerate(dump["nodes"]):
        nid = n.get("node")
        if not isinstance(nid, int) or nid < 0:
            fail(f"node row {i} has bad id {nid!r}")
        if nid in node_ids:
            fail(f"duplicate node row {nid}")
        node_ids.add(nid)
        if not isinstance(n.get("label"), str) or not n["label"]:
            fail(f"node {nid} lacks a label")
        if n.get("scc") not in sccs:
            fail(f"node {nid} references unknown scc {n.get('scc')!r}")
        for key in ("queue_depth", "fires", "sends", "deliveries"):
            v = n.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"node {nid}.{key} is {v!r}, expected non-negative int")

    prev_ts = -1
    for i, e in enumerate(dump["events"]):
        if e.get("type") not in FLIGHT_EVENT_TYPES:
            fail(f"event {i} has unknown type {e.get('type')!r}")
        ts = e.get("ts_ns")
        if not isinstance(ts, int) or ts < 0:
            fail(f"event {i} has bad ts_ns {ts!r}")
        if ts < prev_ts:
            fail(f"event {i} ts_ns {ts} precedes event {i - 1} ({prev_ts}) "
                 f"— events not time-ordered")
        prev_ts = ts
        for key in ("rows", "aux"):
            v = e.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"event {i}.{key} is {v!r}, expected non-negative int")

    if reason == "stall":
        if not dump["events"]:
            fail("stall dump retains no events — the black box is empty")
        stuck = dump["stuck_scc"]
        if stuck < 0:
            fail("stall dump does not name a stuck_scc")
        row = sccs.get(stuck)
        if row is None:
            fail(f"stuck_scc {stuck} has no scc row")
        if not row.get("nontrivial"):
            fail(f"stuck_scc {stuck} is trivial — cannot wedge the Fig. 2 "
                 f"protocol")
        stuck_nodes = [n for n in dump["nodes"] if n.get("scc") == stuck]
        if not stuck_nodes:
            fail(f"stuck_scc {stuck} has no node rows")
        queued = row["queue_depth"] + sum(
            n["queue_depth"] for n in stuck_nodes)
        if queued == 0:
            fail(f"stuck_scc {stuck} holds no queued work — nothing is "
                 f"actually wedged")

    print(f"check_trace: OK: flight dump ({reason}) for query "
          f"{dump['query_id']}: {len(dump['events'])} event(s), "
          f"{len(sccs)} scc row(s), {len(node_ids)} node row(s), "
          f"stuck_scc={dump['stuck_scc']}")
    sys.exit(0)


def main():
    args = sys.argv[1:]
    if args and args[0] == "--profile":
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_profile(args[1])
        return
    if args and args[0] == "--lineage":
        if len(args) != 2:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_lineage(args[1])
        return
    if args and args[0] == "--prometheus":
        queries_path = None
        if len(args) == 4 and args[2] == "--queries":
            queries_path = args[3]
        elif len(args) != 2:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_prometheus(args[1], queries_path)
        return
    if args and args[0] == "--flight":
        expect_stall = "--expect-stall" in args[2:]
        rest = [a for a in args[1:] if a != "--expect-stall"]
        if len(rest) != 1:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_flight(rest[0], expect_stall)
        return
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]

    try:
        with open(path, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail('"traceEvents" missing, not a list, or empty')

    flow_starts = {}  # id -> ts
    flow_ends = {}
    named_threads = set()
    used_threads = set()
    counts = Counter()
    segment_events = 0

    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event {i} is not an object")
        ph = e.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"event {i} has unknown ph {ph!r}")
        counts[ph] += 1
        if "name" not in e:
            fail(f"event {i} ({ph}) lacks a name")
        if "pid" not in e:
            fail(f"event {i} ({ph}) lacks a pid")

        if ph == "M":
            if e["name"] == "thread_name":
                named_threads.add((e["pid"], e.get("tid")))
            continue

        if "ts" not in e:
            fail(f"event {i} ({ph}) lacks ts")
        if not isinstance(e["ts"], (int, float)) or e["ts"] < 0:
            fail(f"event {i} has bad ts {e['ts']!r}")
        used_threads.add((e["pid"], e.get("tid")))

        if (ph in ("s", "X") and
                e["name"] in ("msg:tuple_segment", "tuple_segment")):
            rows = (e.get("args") or {}).get("rows")
            if not isinstance(rows, int) or rows < 1:
                fail(f"segment event {i} ({e['name']}) has bad args.rows "
                     f"{rows!r}, expected an int >= 1")
            segment_events += 1

        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"X event {i} ({e['name']}) has bad dur {dur!r}")
        elif ph in ("s", "f"):
            fid = e.get("id")
            if fid is None:
                fail(f"flow event {i} ({e['name']}) lacks an id")
            bucket = flow_starts if ph == "s" else flow_ends
            if fid in bucket:
                fail(f"duplicate flow {ph} id {fid}")
            bucket[fid] = e["ts"]
        elif ph == "C":
            if not isinstance(e.get("args"), dict) or not e["args"]:
                fail(f"counter event {i} ({e['name']}) lacks args values")

    unmatched_starts = set(flow_starts) - set(flow_ends)
    unmatched_ends = set(flow_ends) - set(flow_starts)
    if unmatched_starts:
        fail(f"{len(unmatched_starts)} flow start(s) without an end, "
             f"e.g. {sorted(unmatched_starts)[0]}")
    if unmatched_ends:
        fail(f"{len(unmatched_ends)} flow end(s) without a start, "
             f"e.g. {sorted(unmatched_ends)[0]}")
    for fid, ts in flow_starts.items():
        if flow_ends[fid] < ts:
            fail(f"flow {fid} ends at {flow_ends[fid]} before its "
                 f"start at {ts}")

    unnamed = used_threads - named_threads
    if unnamed:
        fail(f"{len(unnamed)} thread(s) without thread_name metadata, "
             f"e.g. {sorted(unnamed)[0]}")

    summary = " ".join(f"{ph}={n}" for ph, n in sorted(counts.items()))
    print(f"check_trace: OK: {len(events)} events ({summary}), "
          f"{len(flow_starts)} matched flows, "
          f"{segment_events} segment envelope(s)")
    sys.exit(0)


if __name__ == "__main__":
    main()
