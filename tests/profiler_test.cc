// Tests for the per-node query profiler (src/obs/profiler.h) and the
// EXPLAIN / EXPLAIN ANALYZE renderer (src/obs/explain.h): exact
// per-node attribution on a hand-checkable transitive closure under
// the deterministic scheduler, schedule invariance of the tuple
// totals under the threaded scheduler, the database-sized cost model,
// and the mpqe-profile-v4 JSON shape.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datalog/parser.h"
#include "engine_fixture.h"
#include "obs/explain.h"
#include "obs/profiler.h"
#include "sips/cost_model.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Chain 1 -> 2 -> 3 plus the shortcut 1 -> 3, so tc(1, 3) is derived
// twice (once via edge(1,3), once via edge(1,2) + tc(2,3)) and the
// dedup counters are exercised. Hand evaluation:
//   tc(1, ·) = {2, 3}; the goal node for tc(1, _) receives 3 tuples
//   (2 from the base rule, 1 from the recursive rule), drops 1
//   duplicate, forwards 2.
constexpr const char* kTcShortcut = R"(
  edge(1, 2). edge(2, 3). edge(1, 3).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  ?- tc(1, W).
)";

const NodeProfile* FindNode(const ProfileReport& report, int32_t id) {
  for (const NodeProfile& n : report.nodes) {
    if (n.node == id) return &n;
  }
  return nullptr;
}

StatusOr<EvaluationResult> RunProfiled(SchedulerKind scheduler) {
  auto unit = Parse(kTcShortcut);
  if (!unit.ok()) return unit.status();
  SessionOptions options;
  options.scheduler = scheduler;
  options.profile = true;
  EngineFixture fixture(std::move(unit->database));
  return fixture.Run(unit->program, {}, options);
}

// ---------------------------------------------------------------------------
// Exact attribution under the deterministic scheduler

TEST(ProfilerTest, DeterministicTcExactCounts) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 2u);  // tc(1, ·) = {2, 3}
  ASSERT_NE(result->profile, nullptr);
  const ProfileReport& report = *result->profile;

  // 13 graph nodes (the non-coalesced TC graph), one row each.
  ASSERT_EQ(report.nodes.size(), 13u);

  // Totals: every tuple emission and dedup drop in the run.
  EXPECT_EQ(report.total_tuples_in, 15u);
  EXPECT_EQ(report.total_tuples_out, 17u);
  EXPECT_EQ(report.total_dedup_hits, 1u);
  EXPECT_EQ(report.total_msgs_sent, report.total_msgs_delivered);

  // Node 0, top goal: one request in, the two answers out.
  const NodeProfile* goal = FindNode(report, 0);
  ASSERT_NE(goal, nullptr);
  EXPECT_EQ(goal->role, NodeRole::kGoal);
  EXPECT_EQ(goal->requests_in, 1u);
  EXPECT_EQ(goal->tuples_in, 2u);
  EXPECT_EQ(goal->tuples_out, 2u);
  EXPECT_EQ(goal->dedup_hits, 0u);

  // Node 2, goal tc(1, _): 3 arrivals, 1 duplicate dropped, 2 out.
  const NodeProfile* tc1 = FindNode(report, 2);
  ASSERT_NE(tc1, nullptr);
  EXPECT_EQ(tc1->role, NodeRole::kGoal);
  EXPECT_EQ(tc1->tuples_in, 3u);
  EXPECT_EQ(tc1->tuples_out, 2u);
  EXPECT_EQ(tc1->dedup_hits, 1u);
  EXPECT_DOUBLE_EQ(tc1->DupHitRate(), 0.25);       // 1 of 4 seen
  EXPECT_DOUBLE_EQ(tc1->Selectivity(), 2.0 / 3.0);
  EXPECT_NE(tc1->label.find("tc"), std::string::npos);

  // Node 5, the recursive rule for tc(1, _): consumes 3 tuples
  // (2 edge facts + 1 recursive answer), joins down to 1 output.
  const NodeProfile* rec = FindNode(report, 5);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->role, NodeRole::kRule);
  EXPECT_EQ(rec->tuples_in, 3u);
  EXPECT_EQ(rec->tuples_out, 1u);

  // Rule nodes carry database-sized estimates; EDB leaves do not.
  EXPECT_NE(rec->est_log10_tuples, kNoEstimate);
  EXPECT_NE(rec->est_total_cost, kNoEstimate);
  EXPECT_GE(rec->DeviationFactor(), 1.0);
  const NodeProfile* edb = FindNode(report, 4);
  ASSERT_NE(edb, nullptr);
  EXPECT_EQ(edb->role, NodeRole::kEdbLeaf);
  EXPECT_EQ(edb->est_log10_tuples, kNoEstimate);
  EXPECT_EQ(edb->DeviationFactor(), 0.0);

  // Every node did some work and was timed.
  uint64_t fire_ns = 0;
  for (const NodeProfile& n : report.nodes) {
    EXPECT_GT(n.fires, 0u) << "node " << n.node;
    EXPECT_GT(n.msgs_in, 0u) << "node " << n.node;
    fire_ns += n.fire_ns;
  }
  EXPECT_GT(fire_ns, 0u);
  EXPECT_EQ(fire_ns, report.total_fire_ns);
  EXPECT_GT(report.total_queue_wait_ns, 0u);

  // The run phase was measured.
  ASSERT_EQ(report.phase_ns.size(), static_cast<size_t>(Phase::kPhaseCount));
  EXPECT_GT(report.phase_ns[static_cast<size_t>(Phase::kRun)], 0u);
}

TEST(ProfilerTest, SessionMeasuresEveryPhase) {
  // A session runs its phases (wiring, run, drain, teardown) under one
  // profiler, and every phase has ended by the time the report is
  // taken. Plan time is the PreparedQuery's, not the session's.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 64).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SessionOptions options;
  options.profile = true;
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->profile, nullptr);
  const std::vector<uint64_t>& phase_ns = result->profile->phase_ns;
  ASSERT_EQ(phase_ns.size(), static_cast<size_t>(Phase::kPhaseCount));
  for (size_t i = 0; i < phase_ns.size(); ++i) {
    EXPECT_GT(phase_ns[i], 0u) << PhaseToString(static_cast<Phase>(i));
    // The profile copies the session's own phase clock.
    EXPECT_EQ(phase_ns[i], result->phase_ns[i]);
  }
}

TEST(ProfilerTest, DeterministicTcSccProtocolCounts) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  const ProfileReport& report = *result->profile;

  // One nontrivial SCC: the recursive tc goal (#7), its recursive
  // rule (#10), and the cycle reference (#12); #7 is the leader and
  // the BFST below it has two levels (7 -> 10 -> 12).
  ASSERT_EQ(report.sccs.size(), 1u);
  const SccProfile& scc = report.sccs[0];
  EXPECT_EQ(scc.members, (std::vector<int32_t>{7, 10, 12}));
  EXPECT_EQ(scc.leader, 7);
  EXPECT_EQ(scc.tree_depth, 2);
  // Deterministic scheduler: the protocol needs exactly two waves
  // (one answered negative while work remained, one confirmed), and
  // conclusion propagates to all three members.
  EXPECT_EQ(scc.waves, 2u);
  EXPECT_EQ(scc.negative_answers, 2u);
  EXPECT_EQ(scc.confirmed_answers, 2u);
  EXPECT_EQ(scc.concluded, 3u);
  EXPECT_EQ(scc.waves, result->counters.protocol_waves);
}

// ---------------------------------------------------------------------------
// Schedule invariance: tuple totals are fixpoint properties

TEST(ProfilerTest, ThreadedTotalsMatchDeterministic) {
  auto det = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(det.ok());
  auto thr = RunProfiled(SchedulerKind::kThreaded);
  ASSERT_TRUE(thr.ok());
  EXPECT_EQ(thr->answers.SortedTuples(), det->answers.SortedTuples());
  // Message counts, firings, and protocol waves vary with the
  // schedule, but the tuple flow is the fixpoint itself: every
  // derivation happens exactly once regardless of interleaving.
  EXPECT_EQ(thr->profile->total_tuples_in, det->profile->total_tuples_in);
  EXPECT_EQ(thr->profile->total_tuples_out, det->profile->total_tuples_out);
  EXPECT_EQ(thr->profile->total_dedup_hits, det->profile->total_dedup_hits);
  // And per node as well (pid == node id in every scheduler).
  for (const NodeProfile& d : det->profile->nodes) {
    const NodeProfile* t = FindNode(*thr->profile, d.node);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->tuples_in, d.tuples_in) << "node " << d.node;
    EXPECT_EQ(t->tuples_out, d.tuples_out) << "node " << d.node;
    EXPECT_EQ(t->dedup_hits, d.dedup_hits) << "node " << d.node;
  }
}

// ---------------------------------------------------------------------------
// Cost model sizing from the database

TEST(ProfilerTest, CostModelParamsFromDatabaseUsesEdbSizes) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  CostModelParams params =
      CostModelParamsFromDatabase(unit->program, unit->database);
  PredicateId edge = unit->program.predicates().Find("edge");
  PredicateId tc = unit->program.predicates().Find("tc");
  ASSERT_GE(edge, 0);
  ASSERT_GE(tc, 0);
  // edge has 3 facts -> log10(3); tc is IDB and falls back to the
  // largest EDB size.
  EXPECT_NEAR(params.LogSizeOf(edge), 0.4771, 1e-3);
  EXPECT_NEAR(params.LogSizeOf(tc), 0.4771, 1e-3);
  EXPECT_NEAR(params.log_relation_size, 0.4771, 1e-3);
}

// ---------------------------------------------------------------------------
// JSON report and the EXPLAIN renderer

TEST(ProfilerTest, JsonReportShape) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  std::string json = result->profile->ToJson();
  EXPECT_NE(json.find("\"schema\": \"mpqe-profile-v5\""), std::string::npos);
  EXPECT_EQ(json.find("batch_envelopes"), std::string::npos);
  // v5 dropped batch_rows_in, a copy of tuples_in.
  EXPECT_EQ(json.find("batch_rows_in"), std::string::npos);
  EXPECT_NE(json.find("\"batch_dedup_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"sccs\""), std::string::npos);
  EXPECT_NE(json.find("\"dup_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"est_log10_tuples\""), std::string::npos);
  EXPECT_NE(json.find("\"tree_depth\": 2"), std::string::npos);
}

TEST(ProfilerTest, ExplainPlanModes) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  EngineFixture fixture(std::move(unit->database));
  auto plan = fixture.engine().Prepare(fixture.snapshot(), unit->program);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const RuleGoalGraph& graph = (*plan)->graph();
  const CostModelParams& params = (*plan)->cost_params();
  const SymbolTable* symbols = &fixture.db().symbols();

  // Plain EXPLAIN: adorned nodes + estimates, no actuals.
  std::string plain = ExplainPlan(graph, params, nullptr, symbols);
  EXPECT_NE(plain.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(plain.find("est: ~10^"), std::string::npos);
  EXPECT_NE(plain.find("sips:"), std::string::npos);
  EXPECT_NE(plain.find("^d"), std::string::npos);  // adornments render
  EXPECT_NE(plain.find("scc 7"), std::string::npos);
  EXPECT_EQ(plain.find("act:"), std::string::npos);

  // EXPLAIN ANALYZE: actuals beside the estimates.
  // The session runs the cached plan rendered above.
  SessionOptions options;
  options.profile = true;
  auto result = fixture.Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  ExplainOptions explain_options;
  explain_options.analyze = true;
  std::string analyzed = ExplainPlan(graph, params, result->profile.get(),
                                     symbols, explain_options);
  EXPECT_NE(analyzed.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(analyzed.find("act:"), std::string::npos);
  EXPECT_NE(analyzed.find("waves 2"), std::string::npos);
  EXPECT_NE(analyzed.find("totals:"), std::string::npos);
  // Session phases, teardown included, close the footer.
  EXPECT_NE(analyzed.find("phases: network_wiring "), std::string::npos);
  EXPECT_NE(analyzed.find(", teardown "), std::string::npos);

  // A tight deviation threshold flags at least the recursive goal,
  // whose 8.8x deviation exceeds it.
  explain_options.deviation_factor = 2.0;
  std::string flagged = ExplainPlan(graph, params, result->profile.get(),
                                    symbols, explain_options);
  EXPECT_NE(flagged.find("!! deviates"), std::string::npos);
  EXPECT_EQ(analyzed.find("!! deviates"), std::string::npos)
      << "default x10 threshold should not flag this run";
}

// ---------------------------------------------------------------------------
// Aggregated metrics entries

TEST(ProfilerTest, AggregatedMetricsDumpedPerNode) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  SessionOptions options;
  options.profile = true;
  EngineFixture fixture(std::move(unit->database));
  auto plan = fixture.engine().Prepare(fixture.snapshot(), unit->program);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = fixture.engine().CreateSession(*plan, options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  MetricsRegistry metrics;
  AppendSessionMetrics(**plan, *result, metrics);
  std::string dump = metrics.ToString();
  EXPECT_NE(dump.find("aggregated/node/0/tuples_out=2"), std::string::npos);
  EXPECT_NE(dump.find("aggregated/node/2/dedup_hits=1"), std::string::npos);
  EXPECT_NE(dump.find("aggregated/node/5/fires="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Graph-less operation (raw Network benchmarks)

TEST(ProfilerTest, WorksWithoutAttachedGraph) {
  ProfilingObserver profiler;
  SendEvent send;
  send.from = 0;
  send.to = 1;
  Message message;
  message.kind = MessageKind::kTupleRequest;
  send.message = &message;
  profiler.OnSend(send);
  DeliverEvent deliver;
  deliver.from = 0;
  deliver.to = 1;
  deliver.kind = MessageKind::kTupleRequest;
  profiler.OnDeliver(deliver);

  ProfileReport report = profiler.Finalize();
  EXPECT_EQ(report.total_msgs_sent, 1u);
  EXPECT_EQ(report.total_msgs_delivered, 1u);
  ASSERT_EQ(report.nodes.size(), 2u);  // pid0 (sender), pid1 (receiver)
  EXPECT_EQ(report.nodes[0].msgs_out, 1u);
  EXPECT_EQ(report.nodes[1].msgs_in, 1u);
  EXPECT_EQ(report.nodes[1].label, "pid1");
  EXPECT_TRUE(report.sccs.empty());
}

}  // namespace
}  // namespace mpqe
