// Tests for columnar tuple segments (msg/segment.h), the only wire
// format for answer tuples: the default row cap computes exactly the
// relations, duplicate drops and proof trees of the per-tuple wire
// (cap 1), across schedulers; a 2-row cap that splits every answer run
// still matches semi-naive on random programs; segment edge cases
// (empty, arity 0, flush at the size cap); and shared fan-out (one
// segment object sent to several consumers without copying rows).

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "datalog/parser.h"
#include "engine_fixture.h"
#include "msg/segment.h"
#include "obs/lineage.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// The per-tuple wire: every segment carries exactly one row.
SessionOptions PerTuple() {
  SessionOptions options;
  options.segment_max_rows = 1;
  return options;
}

// Records, per sent segment payload object, the set of destinations it
// traveled to, and the largest row count seen on the wire.
class SegmentRecorder : public ExecutionObserver {
 public:
  void OnSend(const SendEvent& event) override {
    const Message& m = *event.message;
    if (m.kind != MessageKind::kTupleSegment) return;
    const TupleSegment* segment = &m.segment();
    std::lock_guard<std::mutex> lock(mutex_);
    fanout_[segment].insert(event.to);
    max_rows_ = std::max(max_rows_, segment->num_rows);
    min_rows_ = std::min(min_rows_, segment->num_rows);
  }

  size_t max_rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_rows_;
  }

  size_t min_rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return min_rows_;
  }

  /// Number of distinct segment objects delivered to >= 2 consumers.
  size_t shared_segments() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t shared = 0;
    for (const auto& [ptr, destinations] : fanout_) {
      if (destinations.size() >= 2) ++shared;
    }
    return shared;
  }

 private:
  mutable std::mutex mutex_;
  std::map<const TupleSegment*, std::set<ProcessId>> fanout_;
  size_t max_rows_ = 0;
  size_t min_rows_ = ~size_t{0};
};

// ---------------------------------------------------------------------------
// TupleSegment basics

TEST(TupleSegmentTest, LayoutAndAccessors) {
  TupleSegment segment;
  segment.arity = 2;
  EXPECT_TRUE(segment.empty());
  segment.AppendRow(Tuple{Value::Int(1), Value::Int(2)});
  segment.AppendRow(Tuple{Value::Int(3), Value::Int(4)});
  EXPECT_FALSE(segment.empty());
  EXPECT_EQ(segment.num_rows, 2u);
  EXPECT_EQ(segment.values.size(), 4u);
  EXPECT_EQ(segment.row(1)[0], Value::Int(3));
  // No lineage column: every row reads kNoLineage.
  EXPECT_EQ(segment.row_lineage(0), kNoLineage);
  segment.lineage = {7, 9};
  EXPECT_EQ(segment.row_lineage(1), 9u);
}

TEST(TupleSegmentTest, ArityZeroRowsAreCounted) {
  // num_rows is explicit, so nullary tuples still count.
  TupleSegment segment;
  segment.arity = 0;
  segment.AppendRow(Tuple{});
  segment.AppendRow(Tuple{});
  EXPECT_EQ(segment.num_rows, 2u);
  EXPECT_TRUE(segment.values.empty());
  EXPECT_EQ(segment.row(1).size(), 0u);
}

TEST(TupleSegmentTest, EmptySegmentToleratedByConsumer) {
  // Producers never emit empty segments, but consumers must not
  // misbehave if handed one (defensive decoding).
  auto segment = std::make_shared<TupleSegment>();
  segment->arity = 2;
  SinkProcess sink(/*root_pid=*/0, /*answer_arity=*/2);
  sink.OnMessage(MakeTupleSegment(segment));
  EXPECT_TRUE(sink.answers().empty());
  EXPECT_FALSE(sink.done());
}

// ---------------------------------------------------------------------------
// Engine equivalence

TEST(SegmentTest, TransitiveClosureMatchesPerTuple) {
  // Nonlinear TC on a cycle: the tc relation grows to n^2 and answer
  // runs span many rows, so real multi-row segments travel.
  Database db1, db2;
  ASSERT_TRUE(workload::MakeCycle(db1, "edge", 12).ok());
  ASSERT_TRUE(workload::MakeCycle(db2, "edge", 12).ok());
  Program p1, p2;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), p1, db1).ok());
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), p2, db2).ok());
  EngineFixture f1(std::move(db1));
  EngineFixture f2(std::move(db2));
  auto segmented = f1.Run(p1);  // default row cap
  auto per_tuple = f2.Run(p2, {}, PerTuple());
  ASSERT_TRUE(segmented.ok()) << segmented.status();
  ASSERT_TRUE(per_tuple.ok());
  EXPECT_TRUE(segmented->answers == per_tuple->answers);
  EXPECT_TRUE(segmented->ended_by_protocol);

  const MessageStats& s = segmented->message_stats;
  const MessageStats& t = per_tuple->message_stats;
  EXPECT_GT(s.Count(MessageKind::kTupleSegment), 0u);
  EXPECT_GT(s.segment_rows, 0u);
  // Answers travel only in segments: the retired kTuple kind is never
  // sent, and at cap 1 every segment carries exactly one row.
  EXPECT_EQ(s.Count(MessageKind::kTuple), 0u);
  EXPECT_EQ(t.Count(MessageKind::kTuple), 0u);
  EXPECT_EQ(t.Count(MessageKind::kTupleSegment), t.segment_rows);
  // Identical logical traffic; far fewer physical messages, since the
  // default cap packs most rows into multi-row segments.
  EXPECT_EQ(s.ComputationTotal(), t.ComputationTotal());
  EXPECT_LT(s.PhysicalTotal(), t.PhysicalTotal());
}

// Batching here is segment batching: the default cap against a 2-row
// cap that seals every answer run mid-handler.
TEST(SegmentTest, WorksWithBatchingCoalescingAndSchedulers) {
  Relation truth{0};
  {
    Database db;
    EXPECT_TRUE(workload::MakeCycle(db, "edge", 10).ok());
    Program program;
    EXPECT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    auto t = SemiNaiveBottomUp(program, db);
    ASSERT_TRUE(t.ok());
    truth = t->goal;
  }
  for (size_t cap : {size_t{1024}, size_t{2}}) {
    for (int coalesce = 0; coalesce <= 1; ++coalesce) {
      for (int sched = 0; sched < 3; ++sched) {
        Database db;
        ASSERT_TRUE(workload::MakeCycle(db, "edge", 10).ok());
        Program program;
        ASSERT_TRUE(
            ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
        PlanOptions plan;
        plan.graph_options.coalesce_nodes = coalesce == 1;
        SessionOptions options;
        options.segment_max_rows = cap;
        options.scheduler = static_cast<SchedulerKind>(sched);
        options.seed = 17;
        options.workers = 3;
        EngineFixture fixture(std::move(db));
        auto result = fixture.Run(program, plan, options);
        ASSERT_TRUE(result.ok())
            << "cap=" << cap << " coalesce=" << coalesce
            << " sched=" << sched << ": " << result.status();
        EXPECT_TRUE(result->ended_by_protocol)
            << "cap=" << cap << " coalesce=" << coalesce
            << " sched=" << sched;
        EXPECT_TRUE(result->answers == truth)
            << "cap=" << cap << " coalesce=" << coalesce
            << " sched=" << sched;
      }
    }
  }
}

TEST(SegmentTest, ArityZeroProgramEvaluates) {
  auto unit = Parse(R"(
    rain.
    wet :- rain.
    flooded :- wet, rain.
    ?- flooded.
  )");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.arity(), 0u);
  EXPECT_EQ(result->answers.size(), 1u);
}

// ---------------------------------------------------------------------------
// Proof-tree equivalence (the segmented path records identical lineage)

// Chain transitive closure from a fixed start: every answer has
// exactly one derivation, so the WHY proof tree is
// schedule-independent (modulo ids). The query is tc(0, W); answers
// are arity 1.
std::map<std::string, std::string> ProofsByAnswer(
    const EvaluationResult& result) {
  std::map<std::string, std::string> proofs;
  ProofFormatOptions no_ids;
  no_ids.include_ids = false;
  for (size_t i = 0; i < result.answers.size(); ++i) {
    Tuple row = result.answers.tuple(i).ToTuple();
    std::vector<std::optional<Value>> args{Value::Int(0), row[0]};
    auto matches = result.lineage->Match("tc", args);
    EXPECT_FALSE(matches.empty());
    if (matches.empty()) continue;
    proofs[TupleToString(row)] =
        result.lineage->FormatProof(matches.front()->id, no_ids);
  }
  return proofs;
}

// Linear TC over a 16-chain from node 0 with lineage on, on the
// per-tuple wire or at the default row cap.
EvaluationResult EvalChainWithLineage(bool per_tuple, SchedulerKind scheduler) {
  Database db;
  EXPECT_TRUE(workload::MakeChain(db, "edge", 16).ok());
  Program program;
  EXPECT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SessionOptions options = per_tuple ? PerTuple() : SessionOptions();
  options.scheduler = scheduler;
  options.workers = 3;
  options.lineage = true;
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program, {}, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return *std::move(result);
}

TEST(SegmentTest, ProofTreesMatchPerTuplePath) {
  EvaluationResult seed =
      EvalChainWithLineage(/*per_tuple=*/true, SchedulerKind::kDeterministic);
  ASSERT_NE(seed.lineage, nullptr);
  auto seed_proofs = ProofsByAnswer(seed);
  ASSERT_EQ(seed_proofs.size(), seed.answers.size());

  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kRandom,
        SchedulerKind::kThreaded}) {
    for (bool per_tuple : {true, false}) {
      EvaluationResult result = EvalChainWithLineage(per_tuple, scheduler);
      std::string cell = std::string("scheduler=") +
                         SchedulerKindToName(scheduler) +
                         " per_tuple=" + (per_tuple ? "yes" : "no");
      ASSERT_NE(result.lineage, nullptr) << cell;
      EXPECT_TRUE(result.answers == seed.answers) << cell;
      EXPECT_EQ(result.lineage->records.size(), seed.lineage->records.size())
          << cell;
      EXPECT_EQ(ProofsByAnswer(result), seed_proofs) << cell;
    }
  }
}

// ---------------------------------------------------------------------------
// Flush policy

TEST(SegmentTest, SegmentsRespectTheRowCap) {
  // Cap 1 is the per-tuple wire: a freshly opened segment already
  // meets it and must never take a second row.
  for (size_t cap : {size_t{1}, size_t{8}}) {
    Database db;
    ASSERT_TRUE(workload::MakeCycle(db, "edge", 16).ok());
    Program program;
    ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    SegmentRecorder recorder;
    SessionOptions options;
    options.segment_max_rows = cap;
    options.observers.push_back(&recorder);
    EngineFixture fixture(std::move(db));
    auto result = fixture.Run(program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status();
    // Nonlinear TC on a 16-cycle produces answer runs well past 8
    // rows, so the cap must split them into multiple full segments.
    EXPECT_GT(result->message_stats.Count(MessageKind::kTupleSegment), 1u)
        << "cap=" << cap;
    EXPECT_EQ(recorder.max_rows(), cap);
    // Single-row segments travel as they are (no other encoding).
    EXPECT_GE(recorder.min_rows(), 1u) << "cap=" << cap;
  }
}

TEST(SegmentTest, RowCapMustBePositive) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 4).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SessionOptions options;
  options.segment_max_rows = 0;
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program, {}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Row-cap equivalence (per-tuple wire vs. default cap)

TEST(SegmentTest, CapOneMatchesDefaultCapMatrix) {
  // Nonlinear TC on a cycle re-derives heavily, so every cell of the
  // matrix exercises real duplicate traffic. The per-tuple wire (cap
  // 1) and the default cap must produce the same answer set, the same
  // duplicate-drop count (each context/answer pair is joined exactly
  // once, whatever the arrival grouping) and the same lineage record
  // count. Proof trees need unique
  // derivations, so ProofTreesMatchPerTuplePath checks them on chain TC
  // for the same caps and schedulers.
  Relation truth{0};
  {
    Database db;
    ASSERT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
    Program program;
    ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    auto t = SemiNaiveBottomUp(program, db);
    ASSERT_TRUE(t.ok());
    truth = t->goal;
  }
  auto eval = [](bool per_tuple, SchedulerKind scheduler, bool lineage) {
    Database db;
    EXPECT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
    Program program;
    EXPECT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    SessionOptions options = per_tuple ? PerTuple() : SessionOptions();
    options.scheduler = scheduler;
    options.seed = 23;
    options.workers = 3;
    options.lineage = lineage;
    EngineFixture fixture(std::move(db));
    auto result = fixture.Run(program, {}, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kRandom,
        SchedulerKind::kThreaded}) {
    for (bool lineage : {false, true}) {
      EvaluationResult one = eval(true, scheduler, lineage);
      EvaluationResult dflt = eval(false, scheduler, lineage);
      std::string cell = std::string("scheduler=") +
                         SchedulerKindToName(scheduler) +
                         " lineage=" + (lineage ? "on" : "off");
      EXPECT_TRUE(one.answers == truth) << cell;
      EXPECT_TRUE(dflt.answers == truth) << cell;
      EXPECT_TRUE(one.ended_by_protocol) << cell;
      EXPECT_TRUE(dflt.ended_by_protocol) << cell;
      EXPECT_EQ(one.counters.duplicate_drops, dflt.counters.duplicate_drops)
          << cell;
      if (!lineage) continue;
      ASSERT_NE(one.lineage, nullptr) << cell;
      ASSERT_NE(dflt.lineage, nullptr) << cell;
      // One record per distinct tuple, whichever cap derived it.
      EXPECT_EQ(one.lineage->records.size(), dflt.lineage->records.size())
          << cell;
    }
  }
}

// ---------------------------------------------------------------------------
// Random-program differential at a 2-row cap

// Every generated program, with answers batched into 2-row segments:
// wherever an open segment, goal replay, union fan-out group or EDB
// answer run exceeds two rows, the cap seals it mid-handler — a path
// the default cap never reaches on programs this small.
class BatchedRandomEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedRandomEquivalence, MatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  SessionOptions eval;
  eval.segment_max_rows = 2;
  eval.max_messages = 5000000;
  EngineFixture fixture(std::move(rp->unit.database));
  auto result = fixture.Run(rp->unit.program, {}, eval);
  if (!result.ok() &&
      result.status().code() == StatusCode::kResourceExhausted) {
    GTEST_SKIP() << "graph blow-up (no coalescing): " << result.status();
  }
  ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
  EXPECT_TRUE(result->ended_by_protocol) << rp->text;
  EXPECT_TRUE(result->answers == truth->goal)
      << rp->text << "\nengine: " << result->answers.ToString()
      << "\ntruth:  " << truth->goal.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedRandomEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{30}));

// ---------------------------------------------------------------------------
// Shared fan-out

TEST(SegmentTest, FanOutSharesOneSegmentAcrossConsumers) {
  // Nonlinear TC: the tc goal node feeds both recursive subgoals, so
  // its answer segments fan out to two consumers. The recorder checks
  // the *same object* was sent to both — zero row copies.
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  SegmentRecorder recorder;
  SessionOptions options;
  options.observers.push_back(&recorder);
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(recorder.shared_segments(), 0u);
}

}  // namespace
}  // namespace mpqe
