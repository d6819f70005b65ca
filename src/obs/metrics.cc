#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/string_util.h"

namespace mpqe {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::Record(uint64_t sample) {
  size_t bucket = static_cast<size_t>(std::bit_width(sample));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (sample < seen &&
         !min_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (sample > seen &&
         !max_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::Percentile(double p) const {
  uint64_t n = count();
  // Empty histogram: every percentile is 0 (and the rank arithmetic
  // below would be meaningless). ToString/ToJson rely on this.
  if (n == 0) return 0;
  // NaN slips through std::clamp (all comparisons false) and would
  // make the rank cast undefined; treat it as p0.
  if (std::isnan(p)) p = 0.0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank) {
      // Upper bound of bucket b: samples with bit width b, i.e. < 2^b.
      return b == 0 ? 0 : (b >= 64 ? UINT64_MAX : (uint64_t{1} << b) - 1);
    }
  }
  return max();
}

void Histogram::MergeFrom(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  uint64_t other_min = other.min_.load(std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (other_min < seen && !min_.compare_exchange_weak(
                                 seen, other_min, std::memory_order_relaxed)) {
  }
  uint64_t other_max = other.max();
  seen = max_.load(std::memory_order_relaxed);
  while (other_max > seen && !max_.compare_exchange_weak(
                                 seen, other_max, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

std::string Histogram::ToString() const {
  return StrCat("{count=", count(), " sum=", sum(), " min=", min(),
                " max=", max(), " p50<=", Percentile(50),
                " p95<=", Percentile(95), " p99<=", Percentile(99), "}");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = counters_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Counter>();
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = gauges_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Gauge>();
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = histograms_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Histogram>();
  return *it->second;
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, Counter*>>
MetricsRegistry::SortedCounters() const {
  std::vector<std::pair<std::string, Counter*>> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      rows.emplace_back(name, counter.get());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::pair<std::string, Gauge*>> MetricsRegistry::SortedGauges()
    const {
  std::vector<std::pair<std::string, Gauge*>> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      rows.emplace_back(name, gauge.get());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::pair<std::string, Histogram*>>
MetricsRegistry::SortedHistograms() const {
  std::vector<std::pair<std::string, Histogram*>> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      rows.emplace_back(name, histogram.get());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterRows()
    const {
  std::vector<std::pair<std::string, uint64_t>> rows;
  for (const auto& [name, counter] : SortedCounters()) {
    rows.emplace_back(name, counter->value());
  }
  return rows;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeRows()
    const {
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, gauge] : SortedGauges()) {
    rows.emplace_back(name, gauge->value());
  }
  return rows;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::vector<std::string> names;
  for (const auto& [name, histogram] : SortedHistograms()) {
    (void)histogram;
    names.push_back(name);
  }
  return names;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Snapshot `other` first: GetCounter/GetHistogram below take our own
  // mutex, and self-merge (or two registries merging into each other)
  // must not deadlock on lock order.
  for (const auto& [name, counter] : other.SortedCounters()) {
    uint64_t v = counter->value();
    if (v != 0) GetCounter(name).Increment(v);
  }
  for (const auto& [name, histogram] : other.SortedHistograms()) {
    if (histogram->count() != 0) GetHistogram(name).MergeFrom(*histogram);
  }
  // Gauges are levels, not deltas: summing them would be meaningless.
}

std::string MetricsRegistry::ToString() const {
  std::string out;
  for (const auto& [name, counter] : SortedCounters()) {
    out += StrCat(name, "=", counter->value(), "\n");
  }
  for (const auto& [name, gauge] : SortedGauges()) {
    out += StrCat(name, "=", gauge->value(), "\n");
  }
  for (const auto& [name, histogram] : SortedHistograms()) {
    out += StrCat(name, "=", histogram->ToString(), "\n");
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : SortedCounters()) {
    out += StrCat(first ? "" : ",", "\n    \"", name,
                  "\": ", counter->value());
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : SortedGauges()) {
    out += StrCat(first ? "" : ",", "\n    \"", name, "\": ", gauge->value());
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : SortedHistograms()) {
    out += StrCat(first ? "" : ",", "\n    \"", name, "\": {\"count\": ",
                  h->count(), ", \"sum\": ", h->sum(), ", \"min\": ", h->min(),
                  ", \"max\": ", h->max(), ", \"p50\": ", h->Percentile(50),
                  ", \"p95\": ", h->Percentile(95),
                  ", \"p99\": ", h->Percentile(99), "}");
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace mpqe
