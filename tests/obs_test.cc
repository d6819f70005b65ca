// Tests for the execution observability subsystem (src/obs/): the
// ExecutionObserver callback contract (including its threading
// guarantees under the threaded scheduler), the metrics registry, and
// the Chrome-trace exporter (golden summary + structural checks).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine_fixture.h"
#include "obs/logging_observer.h"
#include "obs/metrics.h"
#include "obs/trace_exporter.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

constexpr const char* kTc = R"(
  edge(1, 2). edge(2, 3).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  ?- tc(1, W).
)";

// ---------------------------------------------------------------------------
// Counter / Histogram / MetricsRegistry

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HistogramStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (uint64_t v : {1u, 2u, 4u, 100u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1107u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1107.0 / 5.0);
  // Percentiles report log2-bucket upper bounds.
  EXPECT_GE(h.Percentile(100.0), 1000u);
  EXPECT_LE(h.Percentile(0.0), 1u);
}

// Regression: every statistic on an empty histogram must be a defined
// zero, not rank arithmetic on count 0 (ToString/ToJson format empty
// histograms for every run that records no samples).
TEST(MetricsTest, EmptyHistogramStatisticsAreDefined) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(50.0), 0u);
  EXPECT_EQ(h.Percentile(95.0), 0u);
  EXPECT_EQ(h.Percentile(100.0), 0u);
  // Out-of-range and NaN percentiles are clamped, never UB.
  EXPECT_EQ(h.Percentile(-5.0), 0u);
  EXPECT_EQ(h.Percentile(200.0), 0u);
  EXPECT_EQ(h.Percentile(std::nan("")), 0u);
  h.Record(8);
  EXPECT_EQ(h.Percentile(std::nan("")), h.Percentile(0.0));
  std::string line = h.ToString();
  EXPECT_NE(line.find("count=1"), std::string::npos);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Increment(3);
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  registry.GetHistogram("h").Record(7);
  EXPECT_EQ(registry.GetHistogram("h").count(), 1u);
  EXPECT_NE(registry.ToString().find("x=3"), std::string::npos);
  registry.Clear();
  EXPECT_TRUE(registry.CounterRows().empty());
}

TEST(MetricsTest, RegistryJsonIsWellFormedish) {
  MetricsRegistry registry;
  registry.GetCounter("a/b").Increment(5);
  registry.GetHistogram("lat").Record(10);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a/b\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  while (!json.empty() && json.back() == '\n') json.pop_back();
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Session metrics

using CounterRows = std::vector<std::pair<std::string, uint64_t>>;

// Runs `text` once under the deterministic scheduler and fills
// `registry` with the session's metrics.
void RunSessionMetrics(const char* text, const PlanOptions& plan_options,
                       MetricsRegistry& registry) {
  auto unit = Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineFixture fixture(std::move(unit->database));
  auto plan = fixture.engine().Prepare(fixture.snapshot(), unit->program,
                                       plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = fixture.engine().CreateSession(*plan);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  AppendSessionMetrics(**plan, *result, registry);
}

// Every counter family, pinned exactly; the four session phases are
// timed once each.
void ExpectSessionMetrics(const char* text, const PlanOptions& plan_options,
                          const CounterRows& expected) {
  MetricsRegistry registry;
  RunSessionMetrics(text, plan_options, registry);
  EXPECT_EQ(registry.CounterRows(), expected);
  for (const char* phase : {"network_wiring", "run", "drain", "teardown"}) {
    EXPECT_EQ(registry.GetHistogram(StrCat("phase/", phase, "/ns")).count(),
              1u)
        << phase;
  }
}

TEST(SessionMetricsTest, ReductionPinsEveryCounter) {
  // Right-linear TC: one nontrivial SCC; its leader concludes once and
  // two members conclude on kSccConcluded.
  ExpectSessionMetrics(kTc, {}, {
      {"dedup/hits", 0}, {"engine/contexts", 14},
      {"engine/duplicate_drops", 0}, {"engine/max_node_relation", 2},
      {"engine/protocol_waves", 2}, {"engine/stored_tuples", 10},
      {"msg/delivered", 70}, {"msg/segment_rows", 14},
      {"msg/sent/batch", 0}, {"msg/sent/end", 14},
      {"msg/sent/end_confirmed", 2}, {"msg/sent/end_negative", 2},
      {"msg/sent/end_request", 4}, {"msg/sent/relation_request", 14},
      {"msg/sent/scc_concluded", 2}, {"msg/sent/tuple", 0},
      {"msg/sent/tuple_request", 18}, {"msg/sent/tuple_segment", 14},
      {"msg/sent/work_notice", 0},
      {"node/0/fires", 5}, {"node/1/fires", 5}, {"node/10/fires", 11},
      {"node/11/fires", 3}, {"node/12/fires", 5}, {"node/2/fires", 6},
      {"node/3/fires", 4}, {"node/4/fires", 2}, {"node/5/fires", 6},
      {"node/6/fires", 2}, {"node/7/fires", 9}, {"node/8/fires", 6},
      {"node/9/fires", 3}, {"node/fires", 67},
      {"predicate/edge/dedup_hits", 0}, {"predicate/edge/stored_tuples", 0},
      {"predicate/goal/dedup_hits", 0}, {"predicate/goal/stored_tuples", 4},
      {"predicate/tc/dedup_hits", 0}, {"predicate/tc/stored_tuples", 6},
      {"run/answers", 2}, {"run/delivered", 70},
      {"run/ended_by_protocol", 1},
      {"termination/answer_confirmed", 2},
      {"termination/answer_negative", 2}, {"termination/concluded", 3},
      {"termination/wave_started", 2}, {"termination/work_notice", 0},
  });

  // Nonlinear TC over a 4-cycle: `concluded` (7) also counts two
  // leader conclusions, which send no kSccConcluded (5 sent).
  ExpectSessionMetrics(R"(
    e(1, 2). e(2, 3). e(3, 4). e(4, 1).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )", {}, {
      {"dedup/hits", 65}, {"engine/contexts", 120},
      {"engine/duplicate_drops", 65}, {"engine/max_node_relation", 16},
      {"engine/protocol_waves", 21}, {"engine/stored_tuples", 53},
      {"msg/delivered", 273}, {"msg/segment_rows", 130},
      {"msg/sent/batch", 0}, {"msg/sent/end", 17},
      {"msg/sent/end_confirmed", 17}, {"msg/sent/end_negative", 29},
      {"msg/sent/end_request", 46}, {"msg/sent/relation_request", 16},
      {"msg/sent/scc_concluded", 5}, {"msg/sent/tuple", 0},
      {"msg/sent/tuple_request", 40}, {"msg/sent/tuple_segment", 103},
      {"msg/sent/work_notice", 0},
      {"node/0/fires", 7}, {"node/1/fires", 7}, {"node/10/fires", 41},
      {"node/11/fires", 23}, {"node/12/fires", 20}, {"node/2/fires", 27},
      {"node/3/fires", 4}, {"node/4/fires", 2}, {"node/5/fires", 58},
      {"node/6/fires", 24}, {"node/7/fires", 37}, {"node/8/fires", 13},
      {"node/9/fires", 5}, {"node/fires", 268},
      {"predicate/e/dedup_hits", 0}, {"predicate/e/stored_tuples", 0},
      {"predicate/goal/dedup_hits", 0}, {"predicate/goal/stored_tuples", 8},
      {"predicate/tc/dedup_hits", 65}, {"predicate/tc/stored_tuples", 45},
      {"run/answers", 4}, {"run/delivered", 273},
      {"run/ended_by_protocol", 1},
      {"termination/answer_confirmed", 17},
      {"termination/answer_negative", 29}, {"termination/concluded", 7},
      {"termination/wave_started", 21}, {"termination/work_notice", 0},
  });

  // Coalesced mutual recursion entered from outside at a non-leader
  // member: the footnote-4 work notices.
  PlanOptions coalesced;
  coalesced.graph_options.coalesce_nodes = true;
  ExpectSessionMetrics(R"(
    e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(2, 5).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), q(Z, Y).
    q(X, Y) :- e(X, Z), p(Z, Y).
    t(X, Y) :- e(X, Z), p(Z, V), q(V, Y).
    ?- t(1, W).
  )", coalesced, {
      {"dedup/hits", 6}, {"engine/contexts", 42},
      {"engine/duplicate_drops", 6}, {"engine/max_node_relation", 6},
      {"engine/protocol_waves", 5}, {"engine/stored_tuples", 39},
      {"msg/delivered", 136}, {"msg/segment_rows", 57},
      {"msg/sent/batch", 0}, {"msg/sent/end", 18},
      {"msg/sent/end_confirmed", 5}, {"msg/sent/end_negative", 10},
      {"msg/sent/end_request", 15}, {"msg/sent/relation_request", 15},
      {"msg/sent/scc_concluded", 3}, {"msg/sent/tuple", 0},
      {"msg/sent/tuple_request", 28}, {"msg/sent/tuple_segment", 39},
      {"msg/sent/work_notice", 3},
      {"node/0/fires", 5}, {"node/1/fires", 5}, {"node/10/fires", 19},
      {"node/2/fires", 5}, {"node/3/fires", 14}, {"node/4/fires", 2},
      {"node/5/fires", 21}, {"node/6/fires", 23}, {"node/7/fires", 7},
      {"node/8/fires", 10}, {"node/9/fires", 22}, {"node/fires", 133},
      {"predicate/e/dedup_hits", 0}, {"predicate/e/stored_tuples", 0},
      {"predicate/goal/dedup_hits", 0}, {"predicate/goal/stored_tuples", 6},
      {"predicate/p/dedup_hits", 3}, {"predicate/p/stored_tuples", 15},
      {"predicate/q/dedup_hits", 0}, {"predicate/q/stored_tuples", 12},
      {"predicate/t/dedup_hits", 3}, {"predicate/t/stored_tuples", 6},
      {"run/answers", 3}, {"run/delivered", 136},
      {"run/ended_by_protocol", 1},
      {"termination/answer_confirmed", 5},
      {"termination/answer_negative", 10}, {"termination/concluded", 4},
      {"termination/wave_started", 5}, {"termination/work_notice", 3},
  });
}

// ---------------------------------------------------------------------------
// Callback ordering contract

// Records phase begin/end events; they arrive strictly in evaluator
// order and properly nested (begin before end, one pair per phase).
class PhaseRecorder : public ExecutionObserver {
 public:
  void OnPhase(const PhaseEvent& event) override {
    log_.push_back({event.phase, event.begin});
  }
  const std::vector<std::pair<Phase, bool>>& log() const { return log_; }

 private:
  std::vector<std::pair<Phase, bool>> log_;
};

// Counts sends and keeps what RecordsEverySend checks: the kind of the
// first send, and whether a kEnd went back to that send's origin.
class SendCounter : public ExecutionObserver {
 public:
  void OnSend(const SendEvent& event) override {
    if (sends_ == 0) {
      first_kind_ = event.message->kind;
      origin_ = event.from;
    }
    ++sends_;
    if (event.message->kind == MessageKind::kEnd && event.to == origin_) {
      end_to_origin_ = true;
    }
  }
  uint64_t sends() const { return sends_; }
  MessageKind first_kind() const { return first_kind_; }
  bool end_to_origin() const { return end_to_origin_; }

 private:
  uint64_t sends_ = 0;
  MessageKind first_kind_ = MessageKind::kEnd;
  ProcessId origin_ = kNoProcess;
  bool end_to_origin_ = false;
};

TEST(ObserverTest, RecordsEverySend) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  SendCounter counter;
  SessionOptions options;
  options.observers.push_back(&counter);
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  // OnSend fires once per send the network counts.
  EXPECT_EQ(counter.sends(), result->message_stats.Total());
  // The first send is the sink's relation request to the root, and
  // the top-level end comes back to the sink.
  EXPECT_EQ(counter.first_kind(), MessageKind::kRelationRequest);
  EXPECT_TRUE(counter.end_to_origin());
}

TEST(ObserverTest, PhasesArriveInOrder) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  PhaseRecorder recorder;
  SessionOptions options;
  options.observers.push_back(&recorder);
  EngineFixture fixture(std::move(unit->database));
  ASSERT_TRUE(fixture.Run(unit->program, {}, options).ok());
  std::vector<std::pair<Phase, bool>> expected = {
      {Phase::kNetworkWiring, true}, {Phase::kNetworkWiring, false},
      {Phase::kRun, true},           {Phase::kRun, false},
      {Phase::kDrain, true},         {Phase::kDrain, false},
      {Phase::kTeardown, true},      {Phase::kTeardown, false},
  };
  EXPECT_EQ(recorder.log(), expected);
}

// Checks the documented threading contract while an evaluation runs:
//  * OnDeliver / OnNodeFire for one process never overlap (the
//    network serializes each process);
//  * for every (from, to) channel, the i-th OnSend precedes the i-th
//    OnDeliver (send happens-before delivery).
class ContractMonitor : public ExecutionObserver {
 public:
  void OnSend(const SendEvent& event) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sends_[{event.from, event.to}];
  }

  void OnDeliver(const DeliverEvent& event) override {
    EnterSerialized(event.to);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      uint64_t index = delivers_[{event.from, event.to}]++;
      if (index >= sends_[{event.from, event.to}]) {
        ++order_violations_;
      }
    }
    LeaveSerialized(event.to);
  }

  void OnNodeFire(const NodeFireEvent& event) override {
    EnterSerialized(event.pid);
    LeaveSerialized(event.pid);
  }

  uint64_t serialization_violations() const {
    return serialization_violations_.load();
  }
  uint64_t order_violations() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_violations_;
  }
  uint64_t total_delivers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto& [channel, count] : delivers_) total += count;
    return total;
  }

 private:
  void EnterSerialized(ProcessId pid) {
    ASSERT_LT(static_cast<size_t>(pid), in_callback_.size());
    int expected = 0;
    if (!in_callback_[pid].compare_exchange_strong(expected, 1)) {
      ++serialization_violations_;
    }
  }
  void LeaveSerialized(ProcessId pid) { in_callback_[pid].store(0); }

  mutable std::mutex mutex_;
  std::map<std::pair<ProcessId, ProcessId>, uint64_t> sends_;
  std::map<std::pair<ProcessId, ProcessId>, uint64_t> delivers_;
  uint64_t order_violations_ = 0;
  std::array<std::atomic<int>, 256> in_callback_{};
  std::atomic<uint64_t> serialization_violations_{0};
};

TEST(ObserverTest, ThreadedSchedulerHonorsContract) {
  for (int round = 0; round < 3; ++round) {
    Database db;
    ASSERT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
    Program program;
    ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    ContractMonitor monitor;
    SessionOptions options;
    options.scheduler = SchedulerKind::kThreaded;
    options.workers = 4;
    options.max_messages = 1000000;
    options.observers.push_back(&monitor);
    EngineFixture fixture(std::move(db));
    auto result = fixture.Run(program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(monitor.total_delivers(), 0u);
    EXPECT_EQ(monitor.serialization_violations(), 0u) << "round " << round;
    EXPECT_EQ(monitor.order_violations(), 0u) << "round " << round;
  }
}

// Counts every callback kind; used to check composition order.
class CountingObserver : public ExecutionObserver {
 public:
  explicit CountingObserver(std::vector<int>* order, int id)
      : order_(order), id_(id) {}
  void OnSend(const SendEvent&) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sends_;
    if (order_ != nullptr && sends_ == 1) order_->push_back(id_);
  }
  uint64_t sends() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sends_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<int>* order_;
  int id_;
  uint64_t sends_ = 0;
};

TEST(ObserverTest, ObserversComposeInRegistrationOrder) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  std::vector<int> first_event_order;
  CountingObserver a(&first_event_order, 1);
  CountingObserver b(&first_event_order, 2);
  SessionOptions options;
  options.observers.push_back(&a);
  options.observers.push_back(&b);
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(a.sends(), result->message_stats.Total());
  EXPECT_EQ(a.sends(), b.sends());
  EXPECT_EQ(first_event_order, (std::vector<int>{1, 2}));
}

TEST(ObserverTest, TerminationEventsOnCyclicWorkload) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 8).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());

  class TerminationRecorder : public ExecutionObserver {
   public:
    void OnTermination(const TerminationEvent& event) override {
      ++by_kind_[static_cast<size_t>(event.kind)];
    }
    uint64_t count(TerminationEvent::Kind kind) const {
      return by_kind_[static_cast<size_t>(kind)];
    }

   private:
    std::array<uint64_t,
               static_cast<size_t>(TerminationEvent::Kind::kKindCount)>
        by_kind_{};
  } recorder;

  SessionOptions options;
  options.observers.push_back(&recorder);
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program, {}, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->ended_by_protocol);
  EXPECT_GT(recorder.count(TerminationEvent::Kind::kWaveStarted), 0u);
  EXPECT_GT(recorder.count(TerminationEvent::Kind::kConcluded), 0u);
  EXPECT_EQ(recorder.count(TerminationEvent::Kind::kWaveStarted),
            result->counters.protocol_waves);
}

// ---------------------------------------------------------------------------
// Trace exporter

TEST(TraceExporterTest, StructurallySoundJson) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TraceExporter exporter;
  SessionOptions options;
  options.observers.push_back(&exporter);
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(exporter.event_count(), 0u);
  EXPECT_EQ(exporter.dropped_events(), 0u);

  std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("phase:run"), std::string::npos);
  EXPECT_NE(json.find("msg:relation_request"), std::string::npos);
  // Flow starts and ends pair up (every send is delivered).
  size_t starts = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\": \"s\"", pos)) != std::string::npos) {
    ++starts;
    ++pos;
  }
  pos = 0;
  while ((pos = json.find("\"ph\": \"f\"", pos)) != std::string::npos) {
    ++ends;
    ++pos;
  }
  EXPECT_EQ(starts, result->message_stats.Total());
  EXPECT_EQ(starts, ends);
}

TEST(TraceExporterTest, MaxEventsDropsInsteadOfGrowing) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TraceExporter::Options trace_options;
  trace_options.max_events = 5;
  TraceExporter exporter(trace_options);
  SessionOptions options;
  options.observers.push_back(&exporter);
  EngineFixture fixture(std::move(unit->database));
  ASSERT_TRUE(fixture.Run(unit->program, {}, options).ok());
  EXPECT_EQ(exporter.event_count(), 5u);
  EXPECT_GT(exporter.dropped_events(), 0u);
}

// The normalized (timestamp-free) trace of a tiny fixed query under
// the deterministic scheduler is bit-for-bit reproducible; the golden
// file pins the exporter's event stream. Regenerate with
//   MPQE_REGEN_GOLDEN=1 ./obs_test --gtest_filter='*GoldenSummary*'
TEST(TraceExporterTest, GoldenSummaryForTinyQuery) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TraceExporter exporter;
  SessionOptions options;  // deterministic scheduler
  options.observers.push_back(&exporter);
  EngineFixture fixture(std::move(unit->database));
  ASSERT_TRUE(fixture.Run(unit->program, {}, options).ok());
  std::string summary = exporter.NormalizedSummary();
  ASSERT_FALSE(summary.empty());

  const std::string path =
      std::string(MPQE_TESTDATA_DIR) + "/trace_summary_tc.golden";
  if (std::getenv("MPQE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << summary;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with MPQE_REGEN_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(summary, golden.str());
}

TEST(TraceExporterTest, WriteFileRejectsBadPath) {
  TraceExporter exporter;
  Status status = exporter.WriteFile("/nonexistent-dir/trace.json");
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------------------
// Event-name tables

// ---------------------------------------------------------------------------
// LoggingObserver (engine log lines)

TEST(LoggingObserverTest, EmitsLeveledThreadTaggedLines) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  std::ostringstream log;
  LoggingObserver logger(LogLevel::kInfo, &log);
  SessionOptions options;
  options.observers.push_back(&logger);
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  std::string text = log.str();
  EXPECT_NE(text.find("[INFO"), std::string::npos);
  EXPECT_NE(text.find("engine] phase run begin"), std::string::npos);
  EXPECT_NE(text.find("engine] phase run end"), std::string::npos);
  // Fig. 2 waves on the cyclic tc SCC.
  EXPECT_NE(text.find("wave 1 started"), std::string::npos);
  EXPECT_NE(text.find("concluded"), std::string::npos);
  // INFO filtering: the per-node protocol answers are DEBUG-only.
  EXPECT_EQ(text.find("end_confirmed"), std::string::npos);
}

TEST(LoggingObserverTest, DebugLevelAddsProtocolAnswers) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  std::ostringstream log;
  LoggingObserver logger(LogLevel::kDebug, &log);
  SessionOptions options;
  options.observers.push_back(&logger);
  EngineFixture fixture(std::move(unit->database));
  ASSERT_TRUE(fixture.Run(unit->program, {}, options).ok());
  EXPECT_NE(log.str().find("end_confirmed"), std::string::npos);
}

TEST(LoggingObserverTest, LevelNamesResolve) {
  auto level = EngineLogLevelFromName("debug");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(**level, LogLevel::kDebug);
  auto off = EngineLogLevelFromName("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->has_value());
  auto empty = EngineLogLevelFromName("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  EXPECT_FALSE(EngineLogLevelFromName("verbose").ok());
  // An explicit bad level is a Validate-time configuration error.
  SessionOptions options;
  options.log_level = "verbose";
  EXPECT_FALSE(options.Validate().ok());
  options.log_level = "info";
  options.watchdog_stall_ms = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ObserverTest, EnumNamesAreStable) {
  EXPECT_STREQ(PhaseToString(Phase::kNetworkWiring), "network_wiring");
  EXPECT_STREQ(PhaseToString(Phase::kDrain), "drain");
  EXPECT_STREQ(PhaseToString(Phase::kTeardown), "teardown");
  EXPECT_STREQ(NodeRoleToString(NodeRole::kRule), "rule");
  EXPECT_STREQ(
      TerminationEvent::KindToString(TerminationEvent::Kind::kConcluded),
      "concluded");
}

}  // namespace
}  // namespace mpqe
