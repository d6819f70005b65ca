// The prepared-query engine API (DESIGN.md §11), the one way to
// evaluate a query: the three-object lifecycle that splits evaluation
// into compile-once / run-many.
//
//   Engine engine;                                 // worker pool + plan cache
//   auto snap = engine.Attach(std::move(db));      // immutable EDB snapshot
//   auto plan = engine.Prepare(snap, program_text) // parse+adorn+sips+graph,
//                                                  //   LRU-cached
//   auto session = engine.CreateSession(*plan);    // per-execution state
//   auto result = (*session)->Run();               // or engine.RunAsync(...)
//
// * Engine owns the worker pool and the plan cache. Prepare compiles a
//   program against one snapshot and caches the result keyed on the
//   canonicalized program text (which carries the goal adornment —
//   same rules, different query constants => distinct entries), the
//   plan options, and the snapshot uid. A repeat of the *raw* text
//   hits an alias key before the parser even runs, so the hit path is
//   a hash lookup (prepare_ns ~ 0).
//
// * DatabaseSnapshot wraps a Database the engine treats as immutable.
//   All catalog mutation — hash-index builds, relation creation inside
//   Program::Validate — happens at prepare time under the snapshot
//   mutex, and only while no session is running. Sessions then only
//   look up the pre-built indexes: shared reads, no locks, no writes.
//
// * PreparedQuery is an immutable compiled plan: its own Program copy,
//   the adorned rule/goal graph with sips choices baked in, the EDB
//   index specs, and the §4.3 cost-model parameters sized from the
//   snapshot. Any number of concurrent sessions may share one plan.
//
// * QuerySession is one execution: scheduler choice, wire format,
//   observers, profiling (SessionOptions), plus the engine's own wiring
//   (SessionWiring: query id, telemetry, flight recorder, dump sink).
//   Sessions with lineage enabled take the snapshot exclusively
//   (provenance instrumentation writes id allocators into the shared
//   relations); everything else runs concurrently.

#ifndef MPQE_ENGINE_ENGINE_H_
#define MPQE_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/evaluator.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "engine/stats_server.h"
#include "graph/rule_goal_graph.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "sips/cost_model.h"

namespace mpqe {

class Engine;
class PreparedQuery;
class QuerySession;

struct EngineOptions {
  // Worker-pool size; 0 picks from the hardware concurrency
  // (clamped to [2, 8]).
  int workers = 0;

  // Max resident plans in the LRU plan cache (>= 1).
  size_t plan_cache_capacity = 64;

  // Engine-wide telemetry (DESIGN.md §12): the one engine-lifetime
  // registry (plan_cache/hit, plan_cache/miss, plan_cache/evictions,
  // plan_cache/index_builds_skipped and engine/sessions counters;
  // engine/prepare_ns and engine/session_latency_ns histograms;
  // every completed session's metrics), the structured query log,
  // query-id minting, live gauges. On by default; the switch exists for
  // overhead A/B runs (bench/bench_concurrent --telemetry=off) — with
  // it off no engine metrics are recorded, no session result is
  // reduced into a registry, no query ids are minted and the stats
  // server cannot start.
  bool telemetry = true;

  // Query-log capacity and slow-query threshold (see obs/telemetry.h).
  TelemetryOptions telemetry_options = {};

  // TCP port of the built-in stats endpoint (GET /metrics, /queries,
  // /healthz on loopback; engine/stats_server.h). -1 = off (default);
  // 0 = ephemeral port (tests: read it back from stats_port());
  // >0 = that port. Requires `telemetry`.
  int stats_port = -1;

  // Bind address of the stats endpoint. Loopback unless explicitly
  // widened.
  std::string stats_bind_address = "127.0.0.1";

  // The engine black box (obs/flight_recorder.h): an always-on
  // lock-free ring of recent events every session feeds. Cheap enough
  // to leave on (CI guards <= 5% on the segment-hop bench); the switch
  // exists for overhead A/B runs. With it off, sessions record
  // nothing, /debug/flight serves an empty manual dump and the
  // watchdog still fires but its dumps carry no event history.
  bool flight_recorder = true;

  // Flight-recorder retention (per ring / ring count; see
  // FlightRecorderOptions).
  FlightRecorderOptions flight_recorder_options = {};

  // Default stall-watchdog threshold stamped into every session that
  // does not set its own SessionOptions::watchdog_stall_ms (threaded
  // scheduler only): a session with no delivery progress for this long
  // gets a diagnostic FlightDump (counted as watchdog/stalls +
  // watchdog/dumps, written to debug_dump_dir, served at
  // /debug/flight). 0 disables the engine-level default.
  int watchdog_stall_ms = 30000;

  // Directory for watchdog dump files (flight-<query_id>.json). Empty
  // = keep dumps in memory only (still served via /debug/flight).
  std::string debug_dump_dir = "";

  Status Validate() const;
};

// An EDB the engine treats as immutable. All plan-time mutation
// (validation-created relations, index builds) is serialized under the
// snapshot mutex and refused or degraded while sessions are running;
// run-time access is lock-free shared reads.
class DatabaseSnapshot {
 public:
  const Database& db() const { return db_; }
  // Distinguishes snapshots in plan-cache keys (plans bind to the
  // symbol table and catalog of one snapshot).
  uint64_t uid() const { return uid_; }
  const std::string& name() const { return name_; }

  /// Sessions currently executing against this snapshot.
  int running_sessions() const;

 private:
  friend class Engine;
  friend class QuerySession;
  // Lineage sessions number the EDB rows in place (under the exclusive
  // session).
  friend StatusOr<EvaluationResult> RunSession(const PreparedQuery& plan,
                                               const SessionOptions& options,
                                               const SessionWiring& wiring);

  DatabaseSnapshot(Database db, std::string name, uint64_t uid)
      : db_(std::move(db)), name_(std::move(name)), uid_(uid) {}

  /// Validates `program` against the snapshot catalog. With no session
  /// running this is Program::Validate(&db) (which may create missing
  /// EDB relations, empty). With sessions in flight the catalog is
  /// frozen: validation is read-only and a missing EDB relation is a
  /// FailedPrecondition instead of an implicit create.
  Status ValidateProgram(const Program& program);

  /// Builds the hash indexes in `specs` that do not exist yet. Builds
  /// happen only while no session is running (BeginSession shares this
  /// mutex, so there is no window); otherwise the missing ones are
  /// skipped and the plan's EDB leaves degrade to scans. Returns the
  /// number skipped.
  size_t EnsureIndexes(const std::vector<EdbIndexSpec>& specs);

  /// Registers a session start. Non-exclusive sessions admit any
  /// number of peers but no exclusive one; an exclusive session
  /// (lineage) requires the snapshot to itself.
  Status BeginSession(bool exclusive);
  void EndSession(bool exclusive);

  Database db_;
  std::string name_;
  uint64_t uid_;
  mutable std::mutex mutex_;
  int running_ = 0;
  bool exclusive_running_ = false;
};

// An immutable compiled plan. Produced by Engine::Prepare, shared (via
// shared_ptr) between the plan cache and any number of sessions.
class PreparedQuery {
 public:
  const Program& program() const { return *program_; }
  const RuleGoalGraph& graph() const { return *graph_; }
  const PlanOptions& plan_options() const { return plan_options_; }
  const std::shared_ptr<DatabaseSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// The canonicalized program text this plan was keyed on.
  const std::string& canonical_text() const { return canonical_text_; }

  /// The (relation, key columns) hash indexes the plan's EDB leaves
  /// probe, pre-built on the snapshot at prepare time.
  const std::vector<EdbIndexSpec>& index_specs() const {
    return index_specs_;
  }

  /// §4.3 cost-model parameters sized from the snapshot's actual EDB
  /// cardinalities (what EXPLAIN and the profiler use).
  const CostModelParams& cost_params() const { return cost_params_; }

  GraphStats graph_stats() const { return graph_->Stats(); }

  /// Wall time of the cold compile that built this plan (a cache hit
  /// returns the same object, so this does not change on hits —
  /// per-call timing lives in Engine::plan_cache_stats()).
  uint64_t prepare_ns() const { return prepare_ns_; }

  /// One-line human summary: nodes/edges/SCCs, strategy, indexes.
  std::string Describe() const;

 private:
  friend class Engine;
  PreparedQuery() = default;

  std::shared_ptr<DatabaseSnapshot> snapshot_;
  std::unique_ptr<Program> program_;  // graph_ points into this copy
  std::unique_ptr<RuleGoalGraph> graph_;
  PlanOptions plan_options_;
  std::string canonical_text_;
  std::vector<EdbIndexSpec> index_specs_;
  CostModelParams cost_params_;
  uint64_t prepare_ns_ = 0;
  // Sessions created over this plan so far — mutable bookkeeping on an
  // otherwise-immutable object; feeds QueryLogEntry::plan_reused
  // (every session after the first ran on a reused plan).
  mutable std::atomic<uint64_t> sessions_created_{0};
};

// One execution of a compiled plan. Single-use: Run() evaluates once
// (on the calling thread — use Engine::RunAsync or Engine::Submit for
// the worker pool) and stores the result.
class QuerySession {
 public:
  const SessionOptions& options() const { return options_; }
  const std::shared_ptr<const PreparedQuery>& plan() const { return plan_; }

  /// Evaluates the plan. Acquires the snapshot (shared, or exclusive
  /// when options().lineage is set), runs the process network, and
  /// releases it. Calling Run twice returns FailedPrecondition.
  StatusOr<EvaluationResult> Run();

  /// Wall time of the completed Run (0 before).
  uint64_t latency_ns() const { return latency_ns_; }

  /// The engine-minted stable query id correlating this session across
  /// trace spans, log lines, lineage dumps and the query log (0 when
  /// the engine runs with telemetry off).
  uint64_t query_id() const { return wiring_.query_id; }

 private:
  friend class Engine;
  QuerySession(std::shared_ptr<const PreparedQuery> plan,
               SessionOptions options, SessionWiring wiring)
      : plan_(std::move(plan)),
        options_(std::move(options)),
        wiring_(std::move(wiring)) {}

  std::shared_ptr<const PreparedQuery> plan_;
  SessionOptions options_;
  SessionWiring wiring_;
  // Whether this session reuses a plan another session already ran
  // (stamped at CreateSession; reported in the query log).
  bool plan_reused_ = false;
  std::atomic<bool> ran_{false};
  uint64_t latency_ns_ = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  // drains the queue and joins the workers

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Takes ownership of `db` as an immutable snapshot.
  std::shared_ptr<DatabaseSnapshot> Attach(Database db,
                                           std::string name = "");

  /// Compiles `program_text` (rules and queries only — facts belong in
  /// the snapshot) against `snapshot`, or returns the cached plan. The
  /// raw text is an alias key: a repeat Prepare with byte-identical
  /// text skips the parser entirely.
  StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      std::string_view program_text, const PlanOptions& options = {});

  /// As above for an already-parsed Program (constants must be
  /// interned in the snapshot's symbol table). Keyed on the
  /// canonicalized text.
  StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program& program, const PlanOptions& options = {});

  /// Builds a session over `plan` after validating `options`
  /// (InvalidArgument naming the offending field on misconfiguration).
  StatusOr<std::unique_ptr<QuerySession>> CreateSession(
      std::shared_ptr<const PreparedQuery> plan,
      const SessionOptions& options = {});

  /// Creates a session and runs it on the worker pool.
  std::future<StatusOr<EvaluationResult>> RunAsync(
      std::shared_ptr<const PreparedQuery> plan,
      const SessionOptions& options = {});

  /// Runs `fn` on the worker pool.
  std::future<void> Submit(std::function<void()> fn);

  /// Cache counters plus the duration of the most recent Prepare call
  /// (hit or cold) in last_prepare_ns.
  PlanCacheStats plan_cache_stats() const;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// The engine-wide telemetry (nullptr iff EngineOptions::telemetry
  /// is off): the cross-session registry, the query log, the /metrics
  /// payload source.
  EngineTelemetry* telemetry() const { return telemetry_.get(); }

  /// The bound port of the stats endpoint, or -1 when it is not
  /// running (off, or the bind failed — see stats_server_status()).
  int stats_port() const {
    return stats_server_ != nullptr ? stats_server_->port() : -1;
  }

  /// OK when the stats endpoint was not requested or is serving; the
  /// bind/listen error otherwise (the engine itself still works).
  const Status& stats_server_status() const { return stats_server_status_; }

  /// The engine's black box (nullptr iff EngineOptions::flight_recorder
  /// is off). Sessions record into it; the watchdog and /debug/flight
  /// read it.
  FlightRecorder* flight_recorder() const { return flight_.get(); }

  /// The most recent watchdog diagnostic bundle as mpqe-flightdump-v1
  /// JSON — or, when no watchdog has fired, a fresh "manual" dump of
  /// the recorder's current contents. This is what GET /debug/flight
  /// and `mpqe_query --flight-dump` serve.
  std::string FlightDumpJson() const;

  /// Dumps the watchdog has produced over the engine's lifetime.
  uint64_t watchdog_dumps() const {
    return watchdog_dumps_.load(std::memory_order_relaxed);
  }

 private:
  friend class QuerySession;

  StatusOr<std::shared_ptr<const PreparedQuery>> PrepareImpl(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program* program, std::string_view program_text,
      const PlanOptions& options);

  /// Compiles a plan (cold path; no cache involvement).
  StatusOr<std::shared_ptr<const PreparedQuery>> Compile(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program& program, std::string canonical_text,
      const PlanOptions& options);

  void WorkerLoop();
  /// Bumps an engine counter in the telemetry registry (no-op with
  /// telemetry off).
  void CountEngineEvent(const char* name, uint64_t delta = 1);
  /// The session watchdogs' dump sink: serialize once, retain as the
  /// latest dump, persist to debug_dump_dir when set.
  void HandleFlightDump(const FlightDump& dump);
  /// The gauge-refresh hook telemetry samples: plan-cache size /
  /// capacity / hit-rate, pool queue depth, worker count/utilization.
  void SampleEngineGauges(MetricsRegistry& registry);

  EngineOptions options_;
  PlanCache plan_cache_;
  std::atomic<uint64_t> last_prepare_ns_{0};
  std::atomic<uint64_t> next_snapshot_uid_{1};

  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<int> busy_workers_{0};
  std::vector<std::thread> workers_;

  // The black box. Sessions hold the raw pointer through
  // SessionWiring::flight; destroyed after the pool joins (and after
  // the stats server stops) so no recording or snapshotting thread can
  // outlive it.
  std::unique_ptr<FlightRecorder> flight_;
  // Latest watchdog bundle, pre-serialized (the monitor thread pays
  // the serialization once; /debug/flight is then a string copy).
  mutable std::mutex flight_dump_mutex_;
  std::string latest_flight_dump_json_;
  std::atomic<uint64_t> watchdog_dumps_{0};

  // Declared after the pool so they are destroyed first; ~Engine also
  // tears them down explicitly (server before telemetry — its handlers
  // read the telemetry registry).
  std::unique_ptr<EngineTelemetry> telemetry_;
  std::unique_ptr<StatsServer> stats_server_;
  Status stats_server_status_;
};

}  // namespace mpqe

#endif  // MPQE_ENGINE_ENGINE_H_
