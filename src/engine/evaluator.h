// The run-time half of query evaluation (DESIGN.md §11): the option
// structs of the two lifecycle halves, the result of one session, and
// RunSession, which wires the process network of the paper's §3 over
// a compiled plan and runs it. Callers evaluate through the engine
// (engine/engine.h): Engine::Attach, Prepare, CreateSession, Run.
//
// Observability (see DESIGN.md § Observability): attach any number of
// ExecutionObservers via SessionOptions::observers — e.g. a
// TraceExporter for a chrome://tracing timeline, or a custom observer
// for test assertions. Named counters and histograms are a reduction
// of the finished session's result (AppendSessionMetrics), not an
// observer:
//   TraceExporter trace;
//   SessionOptions options;
//   options.observers.push_back(&trace);
//   auto session = engine.CreateSession(plan, options);
//   auto result = (*session)->Run();
//   trace.WriteFile("trace.json");   // load in chrome://tracing
//   MetricsRegistry metrics;
//   AppendSessionMetrics(*plan, *result, metrics);
//   std::cout << metrics.ToString();

#ifndef MPQE_ENGINE_EVALUATOR_H_
#define MPQE_ENGINE_EVALUATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/node_processes.h"
#include "graph/rule_goal_graph.h"
#include "msg/network.h"
#include "obs/flight_recorder.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "sips/strategy.h"

namespace mpqe {

class PreparedQuery;

// The options of an evaluation split along the engine lifecycle
// (DESIGN.md §11): PlanOptions govern query *compilation* (parse,
// validate, adorn, sips, graph build — everything a PreparedQuery
// caches), SessionOptions govern one *execution* of a compiled plan
// (scheduler, wire format, observers).

struct PlanOptions {
  // Information passing strategy name (see MakeStrategyByName):
  // "greedy" (the paper's default), "left_to_right", "qual_tree",
  // "qual_tree_or_greedy", "no_sips" (McKay-Shapiro-style baseline).
  std::string strategy = "greedy";

  GraphBuildOptions graph_options;

  /// Checks the plan options for configuration errors. The Status
  /// message names the offending field ("strategy: ...").
  Status Validate() const;
};

struct SessionOptions {
  SchedulerKind scheduler = SchedulerKind::kDeterministic;
  uint64_t seed = 1;    // kRandom
  int workers = 4;      // kThreaded

  // Answer tuples always travel as columnar TupleSegments
  // (msg/segment.h): a node accumulates the rows it emits on one
  // stream while handling one message into a single shared
  // kTupleSegment message; consumers dedup/join whole segments and
  // fan-out shares one segment object across consumers.
  //
  // Seal an accumulating segment once it reaches this many rows
  // (bounds per-handler buffering; must be >= 1). The per-tuple wire
  // is segment_max_rows = 1: one row per message, identical answers
  // and logical traffic.
  size_t segment_max_rows = 1024;

  // Safety valve against runaway computations (0 = unlimited).
  uint64_t max_messages = 0;

  // Execution observers (not owned; must outlive the evaluation).
  // They receive typed events from every layer — sends, deliveries,
  // node firings, phases, termination protocol. See obs/observer.h
  // for the callback set and threading contract.
  std::vector<ExecutionObserver*> observers;

  // Attach a ProfilingObserver for the run and fill
  // EvaluationResult::profile with per-node / per-SCC attribution and
  // §4.3 cost estimates sized from the database (see obs/profiler.h).
  // AppendSessionMetrics then also writes the per-node counters as
  // aggregated/node/<id>/<field> entries.
  bool profile = false;

  // Record derivation provenance: every tuple first inserted into any
  // node relation gets a stable id and a derivation record (rule,
  // node, ordered input tuples, source message), assembled into
  // EvaluationResult::lineage at the end of the run. Supports WHY
  // queries / minimal proof trees; see obs/lineage.h. Adds one branch
  // per insert when off; roughly doubles per-hop cost when on.
  bool lineage = false;

  // Engine log level ("debug", "info", "warning", "error", "off").
  // Empty defers to the MPQE_LOG_LEVEL environment variable; when
  // neither names a level, engine logging stays off entirely (no
  // observer is attached). Logging goes to stderr with thread tags and
  // never changes evaluation behavior or results.
  std::string log_level;

  // Stall watchdog (threaded scheduler only; the other schedulers
  // cannot stall silently): a monitor thread checks delivery progress
  // every watchdog_stall_ms. On each tick with no delivery for at
  // least that long it logs the nonempty mailboxes by SCC (WARNING)
  // and records a kStall flight record; once per stall episode it
  // builds a FlightDump diagnostic bundle — flight-recorder contents,
  // per-SCC Fig. 2 protocol state, per-node queue depths — and hands
  // it to SessionWiring::flight_dump_sink. 0 disables; CreateSession
  // replaces 0 with EngineOptions::watchdog_stall_ms.
  int watchdog_stall_ms = 0;

  // Fault injection for watchdog tests: park the process of this graph
  // node for fault_park_ms once, on its first work message
  // (node_processes.cc). kNoNode = off.
  NodeId fault_park_node = kNoNode;
  int fault_park_ms = 0;

  /// Checks the session options for configuration errors — workers <
  /// 1, out-of-range scheduler — and returns an InvalidArgument Status
  /// naming the offending field ("workers: ...") instead of letting
  /// the misconfiguration surface deep inside the run. Called by the
  /// session builder (Engine::CreateSession) and by RunSession.
  Status Validate() const;
};

// What the engine wires into one session beside the caller's
// SessionOptions. Engine::CreateSession fills it; callers never do.
struct SessionWiring {
  // Engine-minted stable query id (DESIGN.md §12), published to every
  // observer as a SessionStartEvent before any other event, so trace
  // spans, log lines, lineage dumps and the engine query log all carry
  // the same id. 0 when the engine runs with telemetry off; outputs
  // then stay id-free.
  uint64_t query_id = 0;

  // Engine telemetry sink (not owned). When set, the watchdog counts
  // its stalls and dumps there (watchdog/stalls, watchdog/dumps).
  EngineTelemetry* telemetry = nullptr;

  // Flight recorder sink (not owned; set when
  // EngineOptions::flight_recorder is on). When set, the session
  // attaches a FlightSessionObserver so sends, deliveries, node fires,
  // phases and termination-protocol events land in the engine's black
  // box (obs/flight_recorder.h).
  FlightRecorder* flight = nullptr;

  // Receives the watchdog's diagnostic bundle. Called on the monitor
  // thread while the session is stalled; must not block for long.
  // The engine serializes the dump and persists it to debug_dump_dir.
  // Unset drops dumps (the stall is still logged and counted).
  std::function<void(const FlightDump&)> flight_dump_sink;
};

// Per-node counter row (EvaluationResult::node_counters).
struct NodeCounters {
  NodeId node = kNoNode;
  EngineCounters counters;
};

struct EvaluationResult {
  // The goal relation (arity = the goal predicate's arity).
  Relation answers{0};

  // True when the computation finished through the end-message
  // protocol (the sink received `end`), as opposed to mere network
  // quiescence — Theorem 3.1 in action.
  bool ended_by_protocol = false;
  // True when every mailbox also drained (always checked after stop).
  bool quiescent_after = false;

  MessageStats message_stats;
  EngineCounters counters;
  GraphStats graph_stats;
  uint64_t delivered = 0;

  // Wall time of each session phase, indexed by Phase.
  std::array<uint64_t, static_cast<size_t>(Phase::kPhaseCount)> phase_ns{};

  // One row per graph node; `counters` is their sum. Use together
  // with RuleGoalGraph::NodeLabel to see where tuples accumulate.
  std::vector<NodeCounters> node_counters;

  // The profiler's report (set iff SessionOptions::profile), with
  // cost estimates already filled from the plan's cost parameters. Shared so the
  // result stays copyable.
  std::shared_ptr<const ProfileReport> profile;

  // The derivation DAG (set iff SessionOptions::lineage): one
  // record per distinct tuple, EDB leaves resolved, minimal depths
  // computed. Query with Match/FormatProof; see obs/lineage.h. Shared
  // so the result stays copyable.
  std::shared_ptr<const LineageReport> lineage;
};

/// Executes one query session over a compiled plan: wires one process
/// per graph node plus the answer sink, runs the scheduler, and
/// collects the goal relation. EDB leaves only probe the indexes the
/// plan pre-built on its snapshot; a missing one degrades to a scan.
/// QuerySession::Run lands here after taking the snapshot (exclusively
/// for lineage, which numbers the EDB rows in place); a direct caller
/// owns that guarantee.
StatusOr<EvaluationResult> RunSession(const PreparedQuery& plan,
                                      const SessionOptions& options,
                                      const SessionWiring& wiring);

/// Adds one finished session's metrics to `registry` (DESIGN.md §8), a
/// pure function of the result:
///   msg/sent/<kind>, msg/segment_rows   message_stats
///   msg/delivered                       delivered
///   node/fires, node/<id>/fires         node_counters
///   dedup/hits                          counters.duplicate_drops
///   termination/<event>                 protocol waves, conclusions and
///                                       the protocol message counts
///   phase/<name>/ns                     phase_ns (one sample each)
///   engine/*, run/*, predicate/*        counters, answers, node_counters
///   aggregated/node/<id>/<field>        profile, when the session profiled
/// Counters add, so one registry can sum any number of sessions.
void AppendSessionMetrics(const PreparedQuery& plan,
                          const EvaluationResult& result,
                          MetricsRegistry& registry);

}  // namespace mpqe

#endif  // MPQE_ENGINE_EVALUATOR_H_
