#include "obs/telemetry.h"

#include <utility>

#include "common/string_util.h"

namespace mpqe {

Status TelemetryOptions::Validate() const {
  if (query_log_capacity < 1) {
    return InvalidArgumentError("query_log_capacity: must be >= 1");
  }
  return Status::Ok();
}

uint64_t HashQueryText(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return h;
}

std::string QueryLogEntry::ToJson() const {
  return StrCat("{\"query_id\": ", query_id, ", \"text_hash\": \"",
                text_hash,  // string: JSON numbers lose 64-bit precision
                "\", \"plan_reused\": ", plan_reused ? "true" : "false",
                ", \"rows_out\": ", rows_out, ", \"wall_ns\": ", wall_ns,
                ", \"queue_wait_ns\": ", queue_wait_ns,
                ", \"fire_ns\": ", fire_ns, ", \"status\": \"", status,
                "\", \"slow\": ", slow ? "true" : "false", "}");
}

EngineTelemetry::EngineTelemetry(TelemetryOptions options)
    : options_(std::move(options)) {
  if (options_.query_log_capacity < 1) options_.query_log_capacity = 1;
  // Register the always-present families up front so a scrape exposes
  // them (at zero) before the first query completes — scrapers rely on
  // family existence, not on traffic having happened.
  registry_.GetCounter("telemetry/queries");
  registry_.GetCounter("telemetry/slow_queries");
  registry_.GetCounter("telemetry/failed_queries");
  registry_.GetHistogram("engine/query_wall_ns");
  registry_.GetGauge("engine/active_sessions");
}

void EngineTelemetry::StartSampling(
    std::function<void(MetricsRegistry&)> sampler) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler_ = std::move(sampler);
  }
  SampleNow();
}

void EngineTelemetry::SampleNow() {
  std::function<void(MetricsRegistry&)> sampler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler = sampler_;
  }
  if (sampler) sampler(registry_);
}

void EngineTelemetry::OnSessionStart() {
  registry_.GetGauge("engine/active_sessions").Add(1.0);
}

void EngineTelemetry::OnSessionComplete(QueryLogEntry entry) {
  registry_.GetGauge("engine/active_sessions").Add(-1.0);
  entry.slow =
      options_.slow_query_ns > 0 && entry.wall_ns > options_.slow_query_ns;

  completed_.fetch_add(1, std::memory_order_relaxed);
  registry_.GetCounter("telemetry/queries").Increment();
  if (entry.slow) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    registry_.GetCounter("telemetry/slow_queries").Increment();
  }
  if (entry.status != "ok") {
    registry_.GetCounter("telemetry/failed_queries").Increment();
  }
  registry_.GetHistogram("engine/query_wall_ns").Record(entry.wall_ns);
  registry_.GetHistogram("engine/query_rows_out").Record(entry.rows_out);

  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(std::move(entry));
  while (ring_.size() > options_.query_log_capacity) ring_.pop_front();
}

std::vector<QueryLogEntry> EngineTelemetry::QueryLog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<QueryLogEntry>(ring_.begin(), ring_.end());
}

std::string EngineTelemetry::QueryLogJson() const {
  std::vector<QueryLogEntry> entries = QueryLog();
  std::string out = StrCat(
      "{\n  \"schema\": \"mpqe-querylog-v1\",\n  \"completed\": ",
      completed_queries(), ",\n  \"slow\": ", slow_queries(),
      ",\n  \"capacity\": ", options_.query_log_capacity,
      ",\n  \"queries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    out += StrCat("    ", entries[i].ToJson(),
                  i + 1 < entries.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mpqe
