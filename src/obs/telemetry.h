// Engine-wide telemetry (DESIGN.md §12): the always-on, engine-scoped
// aggregation layer that every QuerySession reports into. Where the
// per-evaluation MetricsRegistry of PRs 2/3 dies with its session,
// EngineTelemetry outlives them all and is what the ops surface — the
// Prometheus exposition (obs/prometheus.h), the /metrics and /queries
// endpoints (engine/stats_server.h) and `mpqe_query --stats` — reads.
//
// Three pieces:
//
//  * an engine-lifetime MetricsRegistry. Counters and histograms from
//    each completed session merge in (MetricsRegistry::MergeFrom);
//    live *gauges* — active sessions, plan-cache size/hit-rate,
//    worker-pool utilization — are written in place or refreshed by
//    the sampler hook the Engine installs, which every scrape runs
//    synchronously (SampleNow). Stalls are not gauges: the session
//    watchdog's FlightDump (/debug/flight) carries their queue depths.
//
//  * a structured query log: a fixed-capacity ring buffer of
//    QueryLogEntry rows (query id, query text hash, plan reuse, rows
//    out, wall/queue/fire time, status), with a slow-query threshold
//    that marks and counts entries over `slow_query_ns`. Exposed as
//    JSON (QueryLogJson — the /queries payload) and by
//    `mpqe_query --stats`.
//
//  * the query-id mint: MintQueryId() hands out the stable ids
//    Engine::CreateSession stamps onto sessions; the id then travels
//    through trace spans, log lines, lineage output and the query log
//    (SessionStartEvent in obs/observer.h).
//
// Thread safety: the registry is internally synchronized; the ring and
// the sampler hook are guarded by one telemetry mutex. RecordQueryDone
// and scrapes may run concurrently with sessions and with each other.

#ifndef MPQE_OBS_TELEMETRY_H_
#define MPQE_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace mpqe {

struct TelemetryOptions {
  // Ring-buffer capacity of the query log (>= 1).
  size_t query_log_capacity = 256;

  // Sessions whose wall time exceeds this are flagged slow in the
  // query log and counted under telemetry/slow_queries. 0 disables.
  uint64_t slow_query_ns = 100'000'000;  // 100 ms

  // Deep per-session metrics (a MetricsObserver on the session's
  // network: per-message counters, handle-time histograms, per-node
  // fires) are collected for every Nth session and merged into the
  // engine registry on completion. Observation disables the network's
  // zero-observer fast path and costs real per-message time, so
  // always-on collection would blow the <= 5% qps budget on
  // message-heavy workloads; sampling keeps the cumulative families
  // moving at bounded cost. 1 = every session (full fidelity — what
  // the tests use), 0 = never. Sessions that bring their own registry
  // (SessionOptions::metrics) are unaffected. The query log and the
  // session-latency histogram still cover EVERY session.
  uint32_t session_metrics_every = 16;

  Status Validate() const;
};

// One completed query execution, as the ops surface sees it.
struct QueryLogEntry {
  uint64_t query_id = 0;
  // FNV-1a hash of the canonicalized program text — correlates repeats
  // of one query without retaining (possibly sensitive) query text.
  uint64_t text_hash = 0;
  // True when the session ran over a plan that was already compiled
  // (every session after a plan's first — the plan-cache payoff).
  bool plan_reused = false;
  uint64_t rows_out = 0;
  uint64_t wall_ns = 0;
  // Cumulative scheduler-queue wait and in-handler time across the
  // session's node processes (0 when the source metric was not
  // collected — queue_wait_ns needs profiling).
  uint64_t queue_wait_ns = 0;
  uint64_t fire_ns = 0;
  std::string status = "ok";  // "ok" or the failing Status code name
  bool slow = false;

  std::string ToJson() const;
};

/// The stable hash used for QueryLogEntry::text_hash (FNV-1a 64).
uint64_t HashQueryText(const std::string& text);

class EngineTelemetry {
 public:
  explicit EngineTelemetry(TelemetryOptions options = {});

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }

  /// The engine-lifetime registry every scrape serializes.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Next stable query id (1, 2, 3, ...).
  uint64_t MintQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Installs the gauge-refresh hook (the Engine's: plan-cache
  /// size/hit-rate, pool queue depth, utilization) and runs it once.
  /// Call once.
  void StartSampling(std::function<void(MetricsRegistry&)> sampler);

  /// Runs the sampler hook synchronously (every scrape calls this, so
  /// /metrics is never stale).
  void SampleNow();

  /// Session lifecycle: bumps the engine/active_sessions gauge.
  void OnSessionStart();

  /// Whether the next own-metrics session should collect deep metrics
  /// (every `session_metrics_every`th call returns true, starting with
  /// the first). Sessions with a caller-supplied registry skip this.
  bool ShouldSampleSessionMetrics() {
    uint32_t every = options_.session_metrics_every;
    if (every == 0) return false;
    return sampled_sessions_.fetch_add(1, std::memory_order_relaxed) %
               every ==
           0;
  }

  /// Session completion: merges the session's registry (pass nullptr
  /// when the session collected none), appends the query-log entry
  /// (stamping `slow` from the threshold), and updates the engine
  /// counters/histograms (telemetry/queries, telemetry/slow_queries,
  /// engine/query_wall_ns, engine/query_rows_out).
  void OnSessionComplete(QueryLogEntry entry,
                         const MetricsRegistry* session_metrics);

  /// Oldest-to-newest snapshot of the query log ring.
  std::vector<QueryLogEntry> QueryLog() const;

  /// {"queries": [...]} — the /queries payload.
  std::string QueryLogJson() const;

  uint64_t completed_queries() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t slow_queries() const {
    return slow_.load(std::memory_order_relaxed);
  }

 private:
  TelemetryOptions options_;
  MetricsRegistry registry_;
  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> slow_{0};
  std::atomic<uint64_t> sampled_sessions_{0};

  mutable std::mutex mutex_;  // ring + sampler hook
  std::deque<QueryLogEntry> ring_;
  std::function<void(MetricsRegistry&)> sampler_;
};

}  // namespace mpqe

#endif  // MPQE_OBS_TELEMETRY_H_
