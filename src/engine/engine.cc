#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "obs/prometheus.h"
#include "sips/strategy.h"

namespace mpqe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The non-text part of a plan-cache key: every input that changes the
// compiled plan besides the program itself.
std::string KeyPrefix(const DatabaseSnapshot& snapshot,
                      const PlanOptions& options) {
  return StrCat("snap=", snapshot.uid(), ";strategy=", options.strategy,
                ";max_nodes=", options.graph_options.max_nodes,
                ";coalesce=", options.graph_options.coalesce_nodes ? 1 : 0,
                ";");
}

}  // namespace

// ---------------------------------------------------------------------------
// EngineOptions

Status EngineOptions::Validate() const {
  if (workers < 0) {
    return InvalidArgumentError(
        StrCat("workers: must be >= 0 (0 = auto), got ", workers));
  }
  if (plan_cache_capacity < 1) {
    return InvalidArgumentError("plan_cache_capacity: must be >= 1");
  }
  MPQE_RETURN_IF_ERROR(telemetry_options.Validate());
  if (stats_port > 65535) {
    return InvalidArgumentError(
        StrCat("stats_port: must be <= 65535, got ", stats_port));
  }
  if (stats_port >= 0 && !telemetry) {
    return InvalidArgumentError(
        "stats_port: the stats endpoint serves telemetry; enable "
        "EngineOptions::telemetry");
  }
  if (watchdog_stall_ms < 0) {
    return InvalidArgumentError(
        StrCat("watchdog_stall_ms: must be >= 0, got ", watchdog_stall_ms));
  }
  if (flight_recorder && (flight_recorder_options.ring_capacity < 1 ||
                          flight_recorder_options.ring_count < 1)) {
    return InvalidArgumentError(
        "flight_recorder_options: ring_capacity and ring_count must be "
        ">= 1");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot

int DatabaseSnapshot::running_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

Status DatabaseSnapshot::ValidateProgram(const Program& program) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_ == 0 && !exclusive_running_) {
    return program.Validate(&db_);
  }
  // Sessions in flight: the catalog is frozen under them. Validate
  // without a database, then check EDB atoms against the catalog
  // read-only — a relation Program::Validate would have created is a
  // FailedPrecondition here.
  MPQE_RETURN_IF_ERROR(program.Validate(nullptr));
  for (const Rule& rule : program.rules()) {
    for (const Atom& atom : rule.body) {
      if (!program.IsEdb(atom.predicate)) continue;
      const std::string& name = program.predicates().Name(atom.predicate);
      const Relation* relation = db_.GetRelation(name);
      if (relation == nullptr) {
        return FailedPreconditionError(
            StrCat("EDB relation ", name,
                   " does not exist and cannot be created while ", running_,
                   " session(s) are running on snapshot ", uid_));
      }
      if (relation->arity() != atom.args.size()) {
        return InvalidArgumentError(
            StrCat("EDB predicate ", name, " used with arity ",
                   atom.args.size(), " but relation has arity ",
                   relation->arity()));
      }
    }
  }
  return Status::Ok();
}

size_t DatabaseSnapshot::EnsureIndexes(
    const std::vector<EdbIndexSpec>& specs) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t skipped = 0;
  for (const EdbIndexSpec& spec : specs) {
    Relation* relation = db_.GetMutableRelation(spec.relation);
    if (relation == nullptr) continue;
    size_t handle = 0;
    if (relation->FindIndex(spec.key_columns, &handle)) continue;
    if (running_ > 0 || exclusive_running_) {
      // Sessions are probing these relations right now; building would
      // race them. The plan's leaves degrade to scans for this index.
      ++skipped;
      continue;
    }
    relation->EnsureIndex(spec.key_columns);
  }
  return skipped;
}

Status DatabaseSnapshot::BeginSession(bool exclusive) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (exclusive_running_) {
    return FailedPreconditionError(
        StrCat("snapshot ", uid_,
               " is held exclusively by a lineage session"));
  }
  if (exclusive && running_ > 0) {
    return FailedPreconditionError(
        StrCat("lineage requires exclusive snapshot access, but ", running_,
               " session(s) are running on snapshot ", uid_));
  }
  ++running_;
  exclusive_running_ = exclusive;
  return Status::Ok();
}

void DatabaseSnapshot::EndSession(bool exclusive) {
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  if (exclusive) exclusive_running_ = false;
}

// ---------------------------------------------------------------------------
// PreparedQuery

std::string PreparedQuery::Describe() const {
  GraphStats stats = graph_->Stats();
  return StrCat("plan: nodes=", stats.node_count,
                " nontrivial_sccs=", stats.nontrivial_sccs,
                " strategy=", plan_options_.strategy,
                " edb_indexes=", index_specs_.size(),
                " prepare_ns=", prepare_ns_);
}

// ---------------------------------------------------------------------------
// QuerySession

StatusOr<EvaluationResult> QuerySession::Run() {
  bool expected = false;
  if (!ran_.compare_exchange_strong(expected, true)) {
    return FailedPreconditionError(
        "QuerySession::Run called twice; sessions are single-use");
  }
  DatabaseSnapshot& snapshot = *plan_->snapshot();
  // Lineage instrumentation writes tuple-id allocators into the shared
  // EDB relations, so it needs the snapshot to itself; everything else
  // shares.
  const bool exclusive = options_.lineage;
  MPQE_RETURN_IF_ERROR(snapshot.BeginSession(exclusive));

  EngineTelemetry* telemetry = wiring_.telemetry;
  if (telemetry != nullptr) telemetry->OnSessionStart();

  const uint64_t start = NowNs();
  StatusOr<EvaluationResult> result = RunSession(*plan_, options_, wiring_);
  latency_ns_ = NowNs() - start;
  snapshot.EndSession(exclusive);
  if (telemetry != nullptr) {
    telemetry->registry().GetHistogram("engine/session_latency_ns")
        .Record(latency_ns_);
  }

  if (wiring_.flight != nullptr) {
    const uint64_t rows = result.ok() ? result.value().answers.size() : 0;
    wiring_.flight->RecordEvent(
        FlightEventType::kSessionEnd, wiring_.query_id,
        result.ok() ? 1 : 0, -1,
        static_cast<uint32_t>(std::min<uint64_t>(rows, UINT32_MAX)));
  }

  if (telemetry != nullptr) {
    QueryLogEntry entry;
    entry.query_id = wiring_.query_id;
    entry.text_hash = HashQueryText(plan_->canonical_text());
    entry.plan_reused = plan_reused_;
    entry.rows_out = result.ok() ? result.value().answers.size() : 0;
    entry.wall_ns = latency_ns_;
    entry.status =
        result.ok() ? "ok" : StatusCodeToString(result.status().code());
    if (result.ok()) {
      AppendSessionMetrics(*plan_, *result, telemetry->registry());
      if (const ProfileReport* profile = result->profile.get()) {
        entry.fire_ns = profile->total_fire_ns;
        entry.queue_wait_ns = profile->total_queue_wait_ns;
      }
    }
    telemetry->OnSessionComplete(std::move(entry));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      plan_cache_(std::max<size_t>(1, options_.plan_cache_capacity)) {
  int n = options_.workers;
  if (n <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = static_cast<int>(std::clamp(hw, 2u, 8u));
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  if (options_.flight_recorder) {
    flight_ =
        std::make_unique<FlightRecorder>(options_.flight_recorder_options);
  }

  if (options_.telemetry) {
    telemetry_ = std::make_unique<EngineTelemetry>(options_.telemetry_options);
    // Pre-register the cumulative families so a scrape sees them (at
    // zero) before the first Prepare/Run.
    MetricsRegistry& registry = telemetry_->registry();
    registry.GetCounter("plan_cache/hit");
    registry.GetCounter("plan_cache/miss");
    registry.GetCounter("plan_cache/evictions");
    registry.GetCounter("plan_cache/index_builds_skipped");
    registry.GetCounter("engine/sessions");
    registry.GetHistogram("engine/prepare_ns");
    registry.GetHistogram("engine/session_latency_ns");
    // The message-layer families too: session registries only merge
    // non-zero counters, so without these a zero family would drop
    // out of the exposition instead of reporting 0 — and Prometheus
    // rate() needs the zero sample to exist. msg/sent/tuple is the
    // retired bare-tuple kind: it stays registered, always at 0, so
    // the per-kind family keeps its series.
    registry.GetCounter("msg/sent/tuple");
    registry.GetCounter("msg/sent/tuple_segment");
    registry.GetCounter("msg/delivered");
    registry.GetCounter("msg/segment_rows");
    registry.GetCounter("node/fires");
    registry.GetCounter("dedup/hits");
    registry.GetCounter("watchdog/stalls");
    registry.GetCounter("watchdog/dumps");
    telemetry_->StartSampling(
        [this](MetricsRegistry& r) { SampleEngineGauges(r); });

    if (options_.stats_port >= 0) {
      StatsServerOptions server_options;
      server_options.port = options_.stats_port;
      server_options.bind_address = options_.stats_bind_address;
      stats_server_ = std::make_unique<StatsServer>(server_options);
      EngineTelemetry* telemetry = telemetry_.get();
      stats_server_->AddRoute("/metrics", PrometheusContentType(),
                              [telemetry] {
                                telemetry->SampleNow();
                                return ToPrometheusText(telemetry->registry());
                              });
      stats_server_->AddRoute("/queries", "application/json", [telemetry] {
        return telemetry->QueryLogJson();
      });
      stats_server_->AddRoute("/healthz", "text/plain",
                              [] { return std::string("ok\n"); });
      stats_server_->AddRoute("/debug/flight", "application/json",
                              [this] { return FlightDumpJson(); });
      stats_server_status_ = stats_server_->Start();
      if (!stats_server_status_.ok()) stats_server_.reset();
    }
  }
}

Engine::~Engine() {
  // The stats server's handlers read the telemetry registry, so it
  // goes first. Then drain and join the pool BEFORE destroying
  // telemetry_: WorkerLoop runs every queued task during shutdown, and
  // pending RunAsync sessions hold the raw EngineTelemetry* stamped at
  // CreateSession — freeing it earlier is a use-after-free. The
  // sampler reading pool state is safe until members destruct.
  stats_server_.reset();
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    stopping_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  telemetry_.reset();
}

void Engine::SampleEngineGauges(MetricsRegistry& registry) {
  const PlanCacheStats cache = plan_cache_.stats();
  registry.GetGauge("plan_cache/size").Set(static_cast<double>(cache.size));
  registry.GetGauge("plan_cache/capacity")
      .Set(static_cast<double>(cache.capacity));
  const uint64_t lookups = cache.hits + cache.misses;
  registry.GetGauge("plan_cache/hit_rate")
      .Set(lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(lookups));
  size_t queue_depth;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    queue_depth = queue_.size();
  }
  registry.GetGauge("engine/pool_queue_depth")
      .Set(static_cast<double>(queue_depth));
  const int workers = static_cast<int>(workers_.size());
  registry.GetGauge("engine/workers").Set(static_cast<double>(workers));
  registry.GetGauge("engine/pool_utilization")
      .Set(workers == 0
               ? 0.0
               : static_cast<double>(
                     busy_workers_.load(std::memory_order_relaxed)) /
                     static_cast<double>(workers));
}

void Engine::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      pool_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before exiting: everything Submit accepted
      // runs, even if the Engine is being destroyed.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::future<void> Engine::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    queue_.emplace_back([task] { (*task)(); });
  }
  pool_cv_.notify_one();
  return future;
}

std::shared_ptr<DatabaseSnapshot> Engine::Attach(Database db,
                                                 std::string name) {
  uint64_t uid = next_snapshot_uid_.fetch_add(1, std::memory_order_relaxed);
  if (name.empty()) name = StrCat("snapshot-", uid);
  return std::shared_ptr<DatabaseSnapshot>(
      new DatabaseSnapshot(std::move(db), std::move(name), uid));
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Prepare(
    const std::shared_ptr<DatabaseSnapshot>& snapshot,
    std::string_view program_text, const PlanOptions& options) {
  return PrepareImpl(snapshot, nullptr, program_text, options);
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Prepare(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program& program,
    const PlanOptions& options) {
  return PrepareImpl(snapshot, &program, std::string_view(), options);
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::PrepareImpl(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program* program,
    std::string_view program_text, const PlanOptions& options) {
  if (snapshot == nullptr) {
    return InvalidArgumentError("Prepare: snapshot must not be null");
  }
  MPQE_RETURN_IF_ERROR(options.Validate());
  const uint64_t start = NowNs();
  auto record_prepare_ns = [this, start] {
    const uint64_t ns = NowNs() - start;
    last_prepare_ns_.store(ns, std::memory_order_relaxed);
    if (telemetry_) {
      telemetry_->registry().GetHistogram("engine/prepare_ns").Record(ns);
    }
  };

  const std::string prefix = KeyPrefix(*snapshot, options);

  // Fast path: byte-identical raw text seen before — no parse at all.
  std::string raw_key;
  if (program == nullptr) {
    raw_key = StrCat("raw;", prefix, program_text);
    if (std::shared_ptr<const PreparedQuery> plan =
            plan_cache_.Lookup(raw_key, /*count_miss=*/false)) {
      record_prepare_ns();
      CountEngineEvent("plan_cache/hit");
      if (flight_) {
        flight_->RecordEvent(FlightEventType::kPlanPrepare, 0, /*a=*/1);
      }
      return plan;
    }
  }

  // Parse (text path) and canonicalize.
  Program parsed;
  if (program == nullptr) {
    Status parse_status =
        ParseRulesInto(program_text, parsed, snapshot->db_.symbols());
    if (!parse_status.ok()) {
      CountEngineEvent("plan_cache/miss");
      return parse_status;
    }
    program = &parsed;
  }
  std::string canonical_text = program->ToString(&snapshot->db().symbols());
  std::string canonical_key = StrCat("canon;", prefix, canonical_text);

  std::shared_ptr<const PreparedQuery> plan =
      plan_cache_.Lookup(canonical_key);
  const bool hit = plan != nullptr;
  if (!hit) {
    MPQE_ASSIGN_OR_RETURN(
        plan, Compile(snapshot, *program, std::move(canonical_text), options));
    size_t evicted = plan_cache_.Insert(canonical_key, plan);
    if (evicted > 0) CountEngineEvent("plan_cache/evictions", evicted);
  }
  if (!raw_key.empty()) plan_cache_.AddAlias(raw_key, canonical_key);

  record_prepare_ns();
  CountEngineEvent(hit ? "plan_cache/hit" : "plan_cache/miss");
  if (flight_) {
    flight_->RecordEvent(FlightEventType::kPlanPrepare, 0,
                         /*a=*/hit ? 1 : 0);
  }
  return plan;
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Compile(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program& program,
    std::string canonical_text, const PlanOptions& options) {
  const uint64_t start = NowNs();
  auto plan = std::shared_ptr<PreparedQuery>(new PreparedQuery());
  plan->snapshot_ = snapshot;
  plan->plan_options_ = options;
  plan->canonical_text_ = std::move(canonical_text);
  // The graph keeps a pointer to its program, so the plan owns a copy
  // with the same lifetime.
  plan->program_ = std::make_unique<Program>(program);

  MPQE_RETURN_IF_ERROR(snapshot->ValidateProgram(*plan->program_));
  MPQE_ASSIGN_OR_RETURN(std::unique_ptr<SipsStrategy> strategy,
                        MakeStrategyByName(options.strategy));
  MPQE_ASSIGN_OR_RETURN(
      plan->graph_, RuleGoalGraph::Build(*plan->program_, *strategy,
                                         options.graph_options));
  // Decide and build physical access paths now so sessions never touch
  // the relation catalog.
  plan->index_specs_ = ComputeEdbIndexSpecs(*plan->graph_);
  size_t skipped = snapshot->EnsureIndexes(plan->index_specs_);
  if (skipped > 0) {
    CountEngineEvent("plan_cache/index_builds_skipped", skipped);
  }
  plan->cost_params_ =
      CostModelParamsFromDatabase(*plan->program_, snapshot->db());
  plan->prepare_ns_ = NowNs() - start;
  return std::shared_ptr<const PreparedQuery>(std::move(plan));
}

StatusOr<std::unique_ptr<QuerySession>> Engine::CreateSession(
    std::shared_ptr<const PreparedQuery> plan, const SessionOptions& options) {
  if (plan == nullptr) {
    return InvalidArgumentError("CreateSession: plan must not be null");
  }
  MPQE_RETURN_IF_ERROR(options.Validate());
  CountEngineEvent("engine/sessions");
  SessionOptions session_options = options;
  SessionWiring wiring;
  bool plan_reused = false;
  if (telemetry_) {
    // Mint the stable query id here — it identifies the session from
    // birth, whether or not Run is ever called.
    wiring.query_id = telemetry_->MintQueryId();
    wiring.telemetry = telemetry_.get();
    plan_reused =
        plan->sessions_created_.fetch_add(1, std::memory_order_relaxed) > 0;
  }
  wiring.flight = flight_.get();
  // Engine-level watchdog default; a session may set a tighter (or
  // looser) threshold of its own. Dumps persist through the engine.
  if (session_options.watchdog_stall_ms == 0) {
    session_options.watchdog_stall_ms = options_.watchdog_stall_ms;
  }
  if (session_options.watchdog_stall_ms > 0) {
    wiring.flight_dump_sink = [this](const FlightDump& dump) {
      HandleFlightDump(dump);
    };
  }
  auto session = std::unique_ptr<QuerySession>(new QuerySession(
      std::move(plan), std::move(session_options), std::move(wiring)));
  session->plan_reused_ = plan_reused;
  return session;
}

std::future<StatusOr<EvaluationResult>> Engine::RunAsync(
    std::shared_ptr<const PreparedQuery> plan, const SessionOptions& options) {
  auto promise =
      std::make_shared<std::promise<StatusOr<EvaluationResult>>>();
  std::future<StatusOr<EvaluationResult>> future = promise->get_future();
  StatusOr<std::unique_ptr<QuerySession>> session =
      CreateSession(std::move(plan), options);
  if (!session.ok()) {
    promise->set_value(session.status());
    return future;
  }
  auto shared_session =
      std::shared_ptr<QuerySession>(std::move(session).value());
  Submit([promise, shared_session] {
    promise->set_value(shared_session->Run());
  });
  return future;
}

void Engine::CountEngineEvent(const char* name, uint64_t delta) {
  if (telemetry_) telemetry_->registry().GetCounter(name).Increment(delta);
}

void Engine::HandleFlightDump(const FlightDump& dump) {
  // Runs on a stalled session's monitor thread: serialize once here so
  // /debug/flight is a string copy under the mutex.
  FlightDump annotated = dump;
  if (telemetry_) {
    for (const QueryLogEntry& entry : telemetry_->QueryLog()) {
      if (entry.query_id == dump.query_id) {
        annotated.query_log_entry_json = entry.ToJson();
        break;
      }
    }
  }
  std::string json = annotated.ToJson();
  watchdog_dumps_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(flight_dump_mutex_);
    latest_flight_dump_json_ = json;
  }
  MPQE_LOG(kWarning) << "watchdog: stall dump for query " << dump.query_id
                     << " (stuck_scc=" << dump.stuck_scc << ", "
                     << dump.events.size() << " events)";
  if (!options_.debug_dump_dir.empty()) {
    const std::string path = StrCat(options_.debug_dump_dir, "/flight-",
                                    dump.query_id, ".json");
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << json;
    } else {
      MPQE_LOG(kWarning) << "watchdog: cannot write dump to " << path;
    }
  }
}

std::string Engine::FlightDumpJson() const {
  {
    std::lock_guard<std::mutex> lock(flight_dump_mutex_);
    if (!latest_flight_dump_json_.empty()) return latest_flight_dump_json_;
  }
  // No watchdog has fired: a manual snapshot of the black box.
  FlightDump dump;
  if (flight_) dump.events = flight_->Snapshot();
  return dump.ToJson();
}

PlanCacheStats Engine::plan_cache_stats() const {
  PlanCacheStats stats = plan_cache_.stats();
  stats.last_prepare_ns = last_prepare_ns_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mpqe
