#include "engine/evaluator.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "obs/logging_observer.h"

namespace mpqe {

Status PlanOptions::Validate() const {
  StatusOr<std::unique_ptr<SipsStrategy>> made =
      MakeStrategyByName(strategy);
  if (!made.ok()) {
    return InvalidArgumentError(
        StrCat("strategy: ", made.status().message()));
  }
  if (graph_options.max_nodes < 1) {
    return InvalidArgumentError(
        StrCat("graph_options.max_nodes: must be >= 1, got ",
               graph_options.max_nodes));
  }
  return Status::Ok();
}

Status SessionOptions::Validate() const {
  switch (scheduler) {
    case SchedulerKind::kDeterministic:
    case SchedulerKind::kRandom:
    case SchedulerKind::kThreaded:
      break;
    default:
      return InvalidArgumentError(
          StrCat("scheduler: invalid value ", static_cast<int>(scheduler)));
  }
  // `workers` only drives the threaded scheduler, but a non-positive
  // count is nonsense under every configuration — reject it early so
  // a later scheduler switch does not start failing mysteriously.
  if (workers < 1) {
    return InvalidArgumentError(
        StrCat("workers: must be >= 1, got ", workers));
  }
  if (segment_max_rows < 1) {
    return InvalidArgumentError("segment_max_rows: must be >= 1");
  }
  // Empty log_level is fine (defers to MPQE_LOG_LEVEL); an explicit
  // but unknown name is a configuration error.
  StatusOr<std::optional<LogLevel>> level = EngineLogLevelFromName(log_level);
  if (!level.ok()) {
    return InvalidArgumentError(
        StrCat("log_level: ", level.status().message()));
  }
  if (watchdog_stall_ms < 0) {
    return InvalidArgumentError(
        StrCat("watchdog_stall_ms: must be >= 0, got ", watchdog_stall_ms));
  }
  if (fault_park_ms < 0) {
    return InvalidArgumentError(
        StrCat("fault_park_ms: must be >= 0, got ", fault_park_ms));
  }
  return Status::Ok();
}

namespace {

// The observers of one session: the caller's ExecutionObservers, plus
// (when configured) the flight recorder's, an internal MetricsObserver
// and the ones backing SessionOptions::profile, lineage and log_level.
// The internal observers live exactly as long as the session.
struct ScopedObservers {
  ObserverList list;
  std::optional<MetricsObserver> metrics;
  std::optional<ProfilingObserver> profiler;
  std::optional<LineageObserver> lineage;
  std::optional<LoggingObserver> logger;
  std::optional<FlightSessionObserver> flight;

  ScopedObservers(const SessionOptions& options,
                  const SessionWiring& wiring) {
    for (ExecutionObserver* o : options.observers) list.Add(o);
    if (wiring.flight != nullptr) {
      flight.emplace(wiring.flight, wiring.query_id);
      list.Add(&*flight);
    }
    if (options.metrics != nullptr) {
      metrics.emplace(options.metrics);
      list.Add(&*metrics);
    }
    if (options.profile) {
      profiler.emplace();
      list.Add(&*profiler);
    }
    if (options.lineage) {
      lineage.emplace();
      list.Add(&*lineage);
    }
    // No level resolved (neither the option nor MPQE_LOG_LEVEL names
    // one) means no observer at all — the zero-observer fast path
    // stays intact by default.
    std::optional<LogLevel> level = ResolveEngineLogLevel(options.log_level);
    if (level.has_value()) {
      logger.emplace(*level);
      list.Add(&*logger);
    }
  }
};

// RAII phase reporter: begin on construction, end on destruction.
class ScopedPhase {
 public:
  ScopedPhase(const ObserverList& list, Phase phase)
      : list_(list), phase_(phase) {
    if (list_.empty()) return;
    list_.NotifyPhase(PhaseEvent{phase_, /*begin=*/true});
  }
  ~ScopedPhase() {
    if (list_.empty()) return;
    list_.NotifyPhase(PhaseEvent{phase_, /*begin=*/false});
  }

 private:
  const ObserverList& list_;
  Phase phase_;
};

// The predicate a graph node computes/serves (for the per-predicate
// metric dump).
PredicateId NodePredicate(const GraphNode& node) {
  return node.kind == NodeKind::kRule ? node.rule.head.predicate
                                      : node.atom.predicate;
}

void DumpMetrics(MetricsRegistry& registry, const RuleGoalGraph& graph,
                 const EvaluationResult& result) {
  registry.GetCounter("engine/stored_tuples")
      .Increment(result.counters.stored_tuples);
  registry.GetCounter("engine/duplicate_drops")
      .Increment(result.counters.duplicate_drops);
  registry.GetCounter("engine/contexts").Increment(result.counters.contexts);
  registry.GetCounter("engine/max_node_relation")
      .Increment(result.counters.max_node_relation);
  registry.GetCounter("engine/protocol_waves")
      .Increment(result.counters.protocol_waves);
  registry.GetCounter("run/answers").Increment(result.answers.size());
  registry.GetCounter("run/delivered").Increment(result.delivered);
  registry.GetCounter("run/ended_by_protocol")
      .Increment(result.ended_by_protocol ? 1 : 0);

  const PredicatePool& predicates = graph.program().predicates();
  for (const NodeCounters& row : result.node_counters) {
    const std::string& name =
        predicates.Name(NodePredicate(graph.node(row.node)));
    registry.GetCounter(StrCat("predicate/", name, "/stored_tuples"))
        .Increment(row.counters.stored_tuples);
    registry.GetCounter(StrCat("predicate/", name, "/dedup_hits"))
        .Increment(row.counters.duplicate_drops);
  }
}

// Per-node profiler counters as aggregated/node/<id>/<field> metric
// entries (the MetricsRegistry dump is the one sink CI scrapes).
void DumpProfileMetrics(const ProfileReport& report,
                        MetricsRegistry& registry) {
  for (const NodeProfile& n : report.nodes) {
    std::string prefix = StrCat("aggregated/node/", n.node, "/");
    registry.GetCounter(StrCat(prefix, "fires")).Increment(n.fires);
    registry.GetCounter(StrCat(prefix, "tuples_in")).Increment(n.tuples_in);
    registry.GetCounter(StrCat(prefix, "tuples_out")).Increment(n.tuples_out);
    registry.GetCounter(StrCat(prefix, "dedup_hits")).Increment(n.dedup_hits);
    registry.GetCounter(StrCat(prefix, "msgs_in")).Increment(n.msgs_in);
    registry.GetCounter(StrCat(prefix, "msgs_out")).Increment(n.msgs_out);
    registry.GetCounter(StrCat(prefix, "segments_out")).Increment(n.segments_out);
    registry.GetCounter(StrCat(prefix, "segment_rows_out"))
        .Increment(n.segment_rows_out);
    registry.GetCounter(StrCat(prefix, "batch_rows_in"))
        .Increment(n.batch_rows_in);
    registry.GetCounter(StrCat(prefix, "batch_dedup_hits"))
        .Increment(n.batch_dedup_hits);
    registry.GetCounter(StrCat(prefix, "fire_ns")).Increment(n.fire_ns);
    registry.GetCounter(StrCat(prefix, "queue_wait_ns"))
        .Increment(n.queue_wait_ns);
  }
}

// The watchdog's per-tick log: one WARNING line with the nonempty
// mailboxes grouped by strong component (runs on the monitor thread;
// MPQE_LOG serializes whole lines).
void LogStall(const RuleGoalGraph& graph, const StallInfo& info) {
  std::map<int64_t, std::vector<std::pair<ProcessId, size_t>>> by_scc;
  std::string sink_detail;
  for (const auto& entry : info.queue_depths) {
    if (entry.first < static_cast<ProcessId>(graph.size())) {
      by_scc[graph.node(entry.first).scc_id].push_back(entry);
    } else {
      sink_detail += StrCat(" sink(depth ", entry.second, ")");
    }
  }
  std::string detail;
  for (const auto& [scc, rows] : by_scc) {
    detail += StrCat(" scc ", scc, "{");
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) detail += ", ";
      detail += StrCat("node ", rows[i].first, ": depth ", rows[i].second);
    }
    detail += "}";
  }
  MPQE_LOG(kWarning) << "[" << ThreadTag() << "] threaded run stalled "
                     << info.stalled_ms << "ms: delivered=" << info.delivered
                     << " in_flight=" << info.in_flight << detail
                     << sink_detail;
}

// Assembles the watchdog's diagnostic bundle: per-SCC Fig. 2 protocol
// state (leaders' TerminationParticipant exports), per-node queue
// depths and recent-activity accounting, and the time-ordered flight
// records of this session. Runs on the monitor thread while the
// workers are (by definition of a stall) not delivering; every source
// it reads is either immutable wiring state or a relaxed atomic.
FlightDump BuildFlightDump(const RuleGoalGraph& graph, const Database& db,
                           const std::vector<NodeProcessBase*>& node_processes,
                           const SessionWiring& wiring,
                           const StallInfo& info) {
  FlightDump dump;
  dump.reason = "stall";
  dump.query_id = wiring.query_id;
  dump.stalled_ms = info.stalled_ms;
  dump.delivered = info.delivered;
  dump.in_flight = info.in_flight;

  std::vector<uint64_t> depth_by_node(graph.size(), 0);
  std::map<int64_t, uint64_t> depth_by_scc;
  for (const auto& [pid, depth] : info.queue_depths) {
    if (pid < static_cast<ProcessId>(graph.size())) {
      depth_by_node[pid] = depth;
      depth_by_scc[graph.node(pid).scc_id] += depth;
    }
  }

  std::map<int64_t, FlightDumpScc> sccs;
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    const GraphNode& n = graph.node(id);
    FlightDumpScc& row = sccs[n.scc_id];
    row.scc = n.scc_id;
    ++row.members;
    if (!n.scc_is_trivial) {
      row.nontrivial = true;
      if (n.is_leader) {
        row.leader = id;
        TerminationState st = node_processes[id]->termination_state();
        row.wave_active = st.wave_active;
        row.wave = st.wave;
        row.waves_started = st.waves_started;
        row.waiting_for = st.waiting_for;
        row.all_confirmed = st.all_confirmed;
        row.idleness = st.idleness;
        row.open_work = st.subtree_open_work;
        row.notice_pending = st.notice_pending;
      }
    }
  }
  for (auto& [scc, row] : sccs) {
    auto it = depth_by_scc.find(scc);
    if (it != depth_by_scc.end()) row.queue_depth = it->second;
  }

  // The wedged component: deepest queues win; with every queue empty
  // (a protocol-level wedge), the first nontrivial SCC whose protocol
  // is visibly mid-flight.
  uint64_t best_depth = 0;
  for (const auto& [scc, depth] : depth_by_scc) {
    if (depth > best_depth) {
      best_depth = depth;
      dump.stuck_scc = scc;
    }
  }
  if (dump.stuck_scc == -1) {
    for (const auto& [scc, row] : sccs) {
      if (row.nontrivial &&
          (row.wave_active || row.waiting_for > 0 || row.notice_pending)) {
        dump.stuck_scc = scc;
        break;
      }
    }
  }
  dump.sccs.reserve(sccs.size());
  for (auto& [scc, row] : sccs) dump.sccs.push_back(row);

  if (wiring.flight != nullptr) {
    for (FlightRecord& r : wiring.flight->Snapshot()) {
      // The recorder is engine-wide; keep this session's records plus
      // engine-level ones (query_id 0: plan cache, lifecycle).
      if (wiring.query_id == 0 || r.query_id == wiring.query_id ||
          r.query_id == 0) {
        dump.events.push_back(r);
      }
    }
  }

  dump.nodes.reserve(graph.size());
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    FlightDumpNode row;
    row.node = id;
    row.label = graph.NodeLabel(id, &db.symbols());
    row.scc = graph.node(id).scc_id;
    row.queue_depth = depth_by_node[id];
    dump.nodes.push_back(std::move(row));
  }
  for (const FlightRecord& r : dump.events) {
    const auto type = static_cast<FlightEventType>(r.type);
    if (type == FlightEventType::kNodeFire) {
      if (r.a >= 0 && r.a < static_cast<int32_t>(dump.nodes.size())) {
        ++dump.nodes[r.a].fires;
        dump.nodes[r.a].last_fire_ts_ns = r.ts_ns;
      }
    } else if (type == FlightEventType::kSend) {
      if (r.a >= 0 && r.a < static_cast<int32_t>(dump.nodes.size())) {
        ++dump.nodes[r.a].sends;
      }
    } else if (type == FlightEventType::kDeliver) {
      if (r.b >= 0 && r.b < static_cast<int32_t>(dump.nodes.size())) {
        ++dump.nodes[r.b].deliveries;
        dump.nodes[r.b].last_delivery_ts_ns = r.ts_ns;
      }
    }
  }
  return dump;
}

// Identifies the session before any other event so every observer can
// stamp its output with the engine-minted query id. 0 means "telemetry
// off": no event, outputs stay id-free.
void StartSession(const SessionOptions& options, const SessionWiring& wiring,
                  const ObserverList& list) {
  if (wiring.query_id != 0 && !list.empty()) {
    list.NotifySessionStart(SessionStartEvent{wiring.query_id});
  }
  if (wiring.flight != nullptr) {
    // The black box gets the session header directly (scheduler kind +
    // worker count — the observer callbacks never see those).
    wiring.flight->RecordEvent(FlightEventType::kSessionStart,
                               wiring.query_id,
                               static_cast<int32_t>(options.scheduler),
                               options.workers);
  }
}

// Runs one session of `plan` with the session's observer set `scoped`
// (already started). Options are already validated. `db` is the plan's
// snapshot; only lineage writes to it (tuple-id allocators), and a
// lineage session holds the snapshot exclusively.
StatusOr<EvaluationResult> RunScoped(const PreparedQuery& plan, Database& db,
                                     const SessionOptions& options,
                                     const SessionWiring& wiring,
                                     ScopedObservers& scoped) {
  const RuleGoalGraph& graph = plan.graph();
  if (scoped.profiler.has_value()) {
    scoped.profiler->AttachGraph(&graph, &db.symbols());
  }
  if (scoped.lineage.has_value()) {
    scoped.lineage->AttachGraph(&graph, &db.symbols());
  }

  // Owned through a pointer so the session's teardown (destroying every
  // process with its relations and join state) runs inside its own
  // phase, after the drain.
  auto network = std::make_unique<Network>();
  for (ExecutionObserver* o : scoped.list.items()) network->AddObserver(o);
  EngineShared shared;
  shared.graph = &graph;
  shared.db = &db;
  shared.segment_max_rows = options.segment_max_rows;
  if (scoped.lineage.has_value()) {
    // Ids must be flowing before any process stores or serves a tuple:
    // number the EDB rows first (they are the smallest ids — leaves),
    // then hand the allocator to every node process via shared.
    shared.lineage_ids = scoped.lineage->ids();
    // Sorted so EDB fact ids (and thus pinned proof trees) are
    // deterministic — RelationNames follows hash-map order.
    std::vector<std::string> names = db.RelationNames();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      Relation* relation = db.GetMutableRelation(name);
      relation->EnableLineage(shared.lineage_ids);
      scoped.lineage->AttachEdbRelation(name, relation);
    }
  }
  shared.fault_park_node = options.fault_park_node;
  shared.fault_park_ms = options.fault_park_ms;

  std::vector<NodeProcessBase*> node_processes;
  SinkProcess* sink_ptr = nullptr;
  {
    ScopedPhase phase(scoped.list, Phase::kNetworkWiring);
    // One process per graph node (pid == node id), plus the sink. The
    // pid map is filled up front because process constructors plan
    // against it.
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      shared.node_pid.push_back(id);
    }
    node_processes.reserve(graph.size());
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      auto process = MakeNodeProcess(shared, id);
      node_processes.push_back(process.get());
      ProcessId pid = network->AddProcess(std::move(process));
      MPQE_CHECK(pid == id);
    }
    size_t goal_arity =
        graph.program().predicates().Arity(graph.program().GoalPredicate());
    auto sink = std::make_unique<SinkProcess>(shared.node_pid[graph.root()],
                                              goal_arity);
    sink_ptr = sink.get();
    shared.sink_pid = network->AddProcess(std::move(sink));

    // Engage the Fig. 2 protocol for members of nontrivial SCCs.
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      const GraphNode& n = graph.node(id);
      if (n.scc_is_trivial) continue;
      std::vector<ProcessId> children;
      for (NodeId c : n.bfst_children) children.push_back(shared.node_pid[c]);
      NodeId leader = graph.scc_leader(n.scc_id);
      node_processes[id]->ConfigureTermination(
          network.get(), n.is_leader, shared.node_pid[leader],
          n.bfst_parent == kNoNode ? kNoProcess
                                   : shared.node_pid[n.bfst_parent],
          std::move(children));
    }
    network->Start();
  }

  // Stall watchdog. Configured after wiring so the monitor handler can
  // read the node processes' termination state; the monitor thread
  // only exists while Network::Run executes, so every capture below
  // outlives it. The monitor fires only after a full watchdog_stall_ms
  // without a delivery, so every tick is past the threshold.
  if (options.scheduler == SchedulerKind::kThreaded &&
      options.watchdog_stall_ms > 0) {
    EngineTelemetry* telemetry = wiring.telemetry;
    const uint64_t query_id = wiring.query_id;
    // One dump per stall episode: a delivery in between starts a new
    // episode (only the monitor thread touches this state).
    struct WatchdogState {
      bool dumped = false;
      uint64_t delivered_at_dump = 0;
    };
    auto watchdog = std::make_shared<WatchdogState>();
    network->ConfigureStallMonitor(
        options.watchdog_stall_ms,
        [&graph, &db, &node_processes, &wiring, telemetry, query_id,
         watchdog](const StallInfo& info) {
          LogStall(graph, info);
          if (wiring.flight != nullptr) {
            wiring.flight->RecordEvent(
                FlightEventType::kStall, query_id,
                static_cast<int32_t>(
                    std::min<uint64_t>(info.in_flight, INT32_MAX)),
                -1, 0,
                static_cast<uint32_t>(
                    std::min<int64_t>(info.stalled_ms, UINT32_MAX)));
          }
          if (watchdog->dumped &&
              watchdog->delivered_at_dump == info.delivered) {
            return;  // already dumped this episode
          }
          watchdog->dumped = true;
          watchdog->delivered_at_dump = info.delivered;
          if (telemetry != nullptr) {
            telemetry->registry().GetCounter("watchdog/stalls").Increment();
          }
          FlightDump dump =
              BuildFlightDump(graph, db, node_processes, wiring, info);
          if (wiring.flight != nullptr) {
            wiring.flight->RecordEvent(
                FlightEventType::kWatchdogDump, query_id,
                static_cast<int32_t>(dump.stuck_scc));
          }
          if (wiring.flight_dump_sink) {
            if (telemetry != nullptr) {
              telemetry->registry().GetCounter("watchdog/dumps").Increment();
            }
            wiring.flight_dump_sink(dump);
          }
        });
  }

  StatusOr<RunResult> run = InternalError("scheduler did not run");
  {
    ScopedPhase phase(scoped.list, Phase::kRun);
    SchedulerParams params;
    params.seed = options.seed;
    params.workers = options.workers;
    params.max_messages = options.max_messages;
    run = network->Run(options.scheduler, params);
  }
  if (!run.ok()) return run.status();

  EvaluationResult result;
  {
    // Closed before the profiler's Finalize so the report sees it.
    ScopedPhase drain_phase(scoped.list, Phase::kDrain);
    result.answers = sink_ptr->answers();
    result.ended_by_protocol = sink_ptr->done();
    result.quiescent_after = network->TotalPending() == 0;
    result.message_stats = network->stats();
    result.graph_stats = graph.Stats();
    result.delivered = run->delivered;
    result.node_counters.reserve(node_processes.size());
    for (NodeId id = 0; id < static_cast<NodeId>(node_processes.size());
         ++id) {
      NodeCounters row;
      row.node = id;
      node_processes[id]->AccumulateCounters(row.counters);
      result.counters.Add(row.counters);
      result.node_counters.push_back(row);
    }
    if (options.metrics != nullptr) {
      DumpMetrics(*options.metrics, graph, result);
    }
  }
  {
    // Freeing the processes' relations, join contexts and mailboxes is
    // a real share of the wall time on wide joins. The node process
    // and sink pointers dangle from here on. Closed before the
    // profiler's Finalize so the report sees it.
    ScopedPhase teardown_phase(scoped.list, Phase::kTeardown);
    network.reset();
  }
  if (scoped.profiler.has_value()) {
    auto report = std::make_shared<ProfileReport>(scoped.profiler->Finalize());
    FillCostEstimates(graph, plan.cost_params(), *report);
    if (options.metrics != nullptr) {
      DumpProfileMetrics(*report, *options.metrics);
    }
    result.profile = std::move(report);
  }
  if (scoped.lineage.has_value()) {
    result.lineage =
        std::make_shared<const LineageReport>(scoped.lineage->Finalize());
  }
  if (!result.ended_by_protocol && !run->quiescent) {
    return InternalError(
        "evaluation stopped without protocol end or quiescence");
  }
  return result;
}

}  // namespace

StatusOr<EvaluationResult> RunSession(const PreparedQuery& plan,
                                      const SessionOptions& options,
                                      const SessionWiring& wiring) {
  MPQE_RETURN_IF_ERROR(options.Validate());
  ScopedObservers scoped(options, wiring);
  StartSession(options, wiring, scoped.list);
  return RunScoped(plan, plan.snapshot()->db_, options, wiring, scoped);
}

}  // namespace mpqe
