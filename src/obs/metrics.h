// Named metrics for evaluations: monotonic counters, level gauges and
// log2-bucketed histograms, grouped in a MetricsRegistry. The registry
// is a view, not a source: a session's counters are EngineCounters,
// NodeCounters and MessageStats, which the network and the node
// processes keep anyway, and AppendSessionMetrics (engine/evaluator.h)
// reduces a finished session's result into a registry. The engine
// registry (obs/telemetry.h) sums every session that way.
//
// Naming convention: '/'-separated paths, lowest-cardinality prefix
// first — e.g. "msg/sent/tuple", "node/7/fires",
// "predicate/path/stored_tuples", "phase/run/ns". The Prometheus
// serializer (obs/prometheus.h) maps these paths onto metric families
// `mpqe_<subsystem>_<name>{label="..."}` (DESIGN.md §12).
//
// Thread safety: Counter::Increment, Gauge::Set/Add and
// Histogram::Record are lock-free (relaxed atomics); Get*() takes a
// registry mutex, so callers on hot paths should resolve references
// once and cache them.
//
// Dump determinism: every dump (ToString, ToJson, CounterRows,
// GaugeRows, HistogramNames — and the Prometheus exposition built on
// them) is sorted by metric name, independent of registration order
// and of the underlying container, so golden tests and scrape diffs
// are stable across runs and schedulers.

#ifndef MPQE_OBS_METRICS_H_
#define MPQE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpqe {

// A monotonic counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A level that can go up and down (active sessions, queue depths,
// cache occupancy, hit rates). Doubles, because Prometheus gauges are
// floats and ratios (plan-cache hit rate, worker utilization) are the
// main consumers. Set/Add are lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// A histogram over uint64 samples with power-of-two buckets: bucket b
// counts samples whose bit width is b (bucket 0 holds sample 0).
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Adds every sample of `other` into this histogram (bucket-wise;
  /// min/max/sum/count folded in).
  void MergeFrom(const Histogram& other);

  /// Upper-bound estimate of the p-th percentile (p in [0, 100]),
  /// resolved to bucket boundaries.
  uint64_t Percentile(double p) const;

  std::vector<uint64_t> BucketCounts() const;
  std::string ToString() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// A registry of named counters and histograms. Entries are created on
// first access and live as long as the registry; returned references
// are stable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Snapshot of all counters (sorted by name). Zero-valued counters
  /// are included — existence means the metric was registered.
  std::vector<std::pair<std::string, uint64_t>> CounterRows() const;
  /// Snapshot of all gauges (sorted by name).
  std::vector<std::pair<std::string, double>> GaugeRows() const;
  std::vector<std::string> HistogramNames() const;

  /// The named histogram, or nullptr if never registered (read-only
  /// companion to GetHistogram for serializers that must not create).
  const Histogram* FindHistogram(const std::string& name) const;

  /// Folds `other` into this registry: counters add, histograms merge
  /// sample-by-bucket. Gauges are *levels*, not deltas — they are
  /// skipped (an engine-wide gauge is sampled, never summed from
  /// per-session values).
  void MergeFrom(const MetricsRegistry& other);

  /// "name=value" per line for counters, then gauges, then one summary
  /// line per histogram — each section sorted by name.
  std::string ToString() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, p50, p95, p99}}} — machine-readable companion to
  /// the trace export. Keys come out sorted, so dumps diff cleanly
  /// across runs regardless of registration order.
  std::string ToJson() const;

  void Clear();

 private:
  // Sorted (name, entry) snapshots; callers hold no lock afterwards
  // because entry pointers are stable for the registry's lifetime.
  std::vector<std::pair<std::string, Counter*>> SortedCounters() const;
  std::vector<std::pair<std::string, Gauge*>> SortedGauges() const;
  std::vector<std::pair<std::string, Histogram*>> SortedHistograms() const;

  mutable std::mutex mutex_;
  // Unordered on purpose: Get*() is the hot path (plan-cache counters
  // on every Prepare); dump order is imposed by the Sorted* helpers.
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mpqe

#endif  // MPQE_OBS_METRICS_H_
