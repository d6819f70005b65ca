// Rule-node join pins. A rule node (§3.1) keeps its subgoals' answers
// and its partial joins, joins each arriving tuple against them, and
// deduplicates the head tuples it produces. These tests run programs
// whose rule nodes exercise every join shape — right-linear and
// nonlinear recursion, three-subgoal bodies, join checks under the
// no-sips strategy, distinct full joins that collide on one head row,
// and a bodiless rule — each under {deterministic, threaded 4} x
// {segment cap 1, default} x lineage {off, on}. Every cell must match
// semi-naive. Deterministic cells additionally pin the engine counters
// and the message ledger exactly: round-robin FIFO delivery makes them
// a pure function of the program, the EDB and the wire format, so any
// change to how a rule node stores, deduplicates or emits its joins
// shows up as a diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine_fixture.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// What a deterministic run must reproduce exactly.
struct Pins {
  uint64_t contexts = 0;         // EngineCounters::contexts
  uint64_t duplicate_drops = 0;  // EngineCounters::duplicate_drops
  uint64_t stored_tuples = 0;    // EngineCounters::stored_tuples
  uint64_t logical = 0;          // MessageStats::ComputationTotal
  uint64_t physical = 0;         // MessageStats::PhysicalTotal
  uint64_t protocol = 0;         // MessageStats::ProtocolTotal
  uint64_t waves = 0;            // EngineCounters::protocol_waves

  bool operator==(const Pins&) const = default;
};

void PrintTo(const Pins& p, std::ostream* os) {
  *os << "{contexts=" << p.contexts << " dups=" << p.duplicate_drops
      << " stored=" << p.stored_tuples << " logical=" << p.logical
      << " physical=" << p.physical << " protocol=" << p.protocol
      << " waves=" << p.waves << "}";
}

struct Workload {
  std::function<Status(Database&)> make_edb;
  std::string program;
  std::string strategy = "greedy";
  // Rules the text syntax cannot express (a bodiless IDB rule parses
  // as an EDB fact), added after parsing.
  std::function<void(Program&)> add_rules;
};

Status ParseWorkload(const Workload& w, Program& program, Database& db) {
  MPQE_RETURN_IF_ERROR(w.make_edb(db));
  MPQE_RETURN_IF_ERROR(ParseInto(w.program, program, db));
  if (w.add_rules) w.add_rules(program);
  return Status::Ok();
}

// Pinned values per segment cap; lineage must not change any of them.
struct Expected {
  size_t answers = 0;
  Pins per_tuple;  // segment_max_rows = 1
  Pins segmented;  // default segment_max_rows
};

StatusOr<EvaluationResult> Run(const Workload& w,
                               const SessionOptions& options) {
  Database db;
  Program program;
  MPQE_RETURN_IF_ERROR(ParseWorkload(w, program, db));
  PlanOptions plan;
  plan.strategy = w.strategy;
  EngineFixture fixture(std::move(db));
  return fixture.Run(program, plan, options);
}

void CheckAllCells(const Workload& w, const Expected& want) {
  Relation truth(0);
  {
    Database db;
    Program program;
    ASSERT_TRUE(ParseWorkload(w, program, db).ok());
    auto t = SemiNaiveBottomUp(program, db);
    ASSERT_TRUE(t.ok()) << t.status();
    truth = t->goal;
  }
  ASSERT_EQ(truth.size(), want.answers);
  const size_t default_cap = SessionOptions().segment_max_rows;
  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kThreaded}) {
    for (size_t cap : {size_t{1}, default_cap}) {
      for (bool lineage : {false, true}) {
        SCOPED_TRACE(StrCat(
            scheduler == SchedulerKind::kDeterministic ? "deterministic"
                                                       : "threaded-4",
            " cap=", cap, " lineage=", lineage ? "on" : "off"));
        SessionOptions options;
        options.scheduler = scheduler;
        options.workers = 4;
        options.segment_max_rows = cap;
        options.lineage = lineage;
        auto result = Run(w, options);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->ended_by_protocol);
        EXPECT_TRUE(result->answers == truth);
        if (scheduler != SchedulerKind::kDeterministic) continue;
        const MessageStats& s = result->message_stats;
        const EngineCounters& c = result->counters;
        Pins got{c.contexts,           c.duplicate_drops,   c.stored_tuples,
                 s.ComputationTotal(), s.PhysicalTotal(),   s.ProtocolTotal(),
                 c.protocol_waves};
        EXPECT_EQ(got, cap == 1 ? want.per_tuple : want.segmented);
      }
    }
  }
}

// Bound right-linear TC over a random 300-node out-degree-8 digraph:
// the tc_random_wide shape — one rule node whose last stage joins fat
// segments against many waiting contexts.
TEST(RuleJoinTest, RandomDigraphBoundTc) {
  Workload w;
  w.make_edb = [](Database& db) {
    Rng rng(300);
    return workload::MakeRandomGraph(db, "edge", 300, 8, rng);
  };
  w.program = workload::LinearTcProgram(0);
  CheckAllCells(w, {300,
                     {717247, 623672, 183572, 283462, 283474, 12, 3},
                     {717247, 623672, 183572, 283462, 85782, 12, 3}});
}

// The paper's P1 over random out-degree-1 q and r: a three-subgoal
// recursive body whose last stage is the recursive call.
TEST(RuleJoinTest, P1RandomOutDegreeOne) {
  Workload w;
  w.make_edb = [](Database& db) {
    Rng rng(1);
    MPQE_RETURN_IF_ERROR(workload::MakeRandomGraph(db, "q", 1000, 1, rng));
    return workload::MakeRandomGraph(db, "r", 1000, 1, rng);
  };
  w.program = workload::P1Program(0);
  CheckAllCells(w, {18,
                     {2021, 1390, 427, 1469, 1979, 510, 120},
                     {2021, 1390, 427, 1469, 1853, 478, 112}});
}

// Same-generation over a complete binary tree of 63 people, asked at a
// leaf: the last subgoal, par(Y, YP), extends with the new head value.
std::string SameGenerationEdb() {
  std::string text;
  for (int i = 0; i < 63; ++i) text += StrCat("person(", i, ").\n");
  for (int i = 1; i < 63; ++i) {
    text += StrCat("par(", i, ", ", (i - 1) / 2, ").\n");
  }
  return text;
}

TEST(RuleJoinTest, SameGeneration) {
  Workload w;
  w.make_edb = [](Database&) { return Status::Ok(); };
  w.program = SameGenerationEdb() + workload::SameGenerationProgram(40);
  CheckAllCells(w, {32,
                     {149, 5, 195, 422, 450, 28, 7},
                     {149, 5, 195, 422, 328, 28, 7}});
}

// Same-generation without information passing: every subgoal answers
// its whole relation, so the last stage's already-bound variable YP
// comes back in the answer and is matched by a join check.
TEST(RuleJoinTest, SameGenerationNoSipsChecks) {
  Workload w;
  w.make_edb = [](Database&) { return Status::Ok(); };
  w.program = SameGenerationEdb() + workload::SameGenerationProgram(40);
  w.strategy = "no_sips";
  CheckAllCells(w, {32,
                     {2258, 63, 2921, 5949, 5965, 16, 4},
                     {2258, 63, 2921, 5949, 121, 20, 5}});
}

// Nonlinear TC on a 16-cycle: both subgoals are the recursive node
// itself, so the last stage is fed from inside the strong component.
TEST(RuleJoinTest, NonlinearTcOnCycle) {
  Workload w;
  w.make_edb = [](Database& db) { return workload::MakeCycle(db, "edge", 16); };
  w.program = workload::NonlinearTcProgram(0);
  CheckAllCells(w, {16,
                     {4692, 4097, 593, 1876, 2532, 656, 159},
                     {4692, 4097, 593, 1876, 1647, 434, 103}});
}

// Distinct full joins (X, Y, Z) that project to one head row p(X):
// the head relation is what drops the collisions.
TEST(RuleJoinTest, FullJoinsCollideOnOneHeadRow) {
  Workload w;
  w.make_edb = [](Database& db) {
    Rng rng(5);
    return workload::MakeRandomGraph(db, "e", 40, 3, rng);
  };
  w.program = "p(X) :- e(X, Y), e(Y, Z).\n?- p(W).\n";
  CheckAllCells(w, {40,
                     {278, 152, 160, 408, 408, 0, 0},
                     {278, 152, 160, 408, 215, 0, 0}});
}

// A bodiless IDB rule p(7) next to p(X) :- e(X): its stage-0 context
// is already the full join, so the head row comes straight from the
// head request.
TEST(RuleJoinTest, BodilessRule) {
  Workload w;
  w.make_edb = [](Database&) { return Status::Ok(); };
  w.program = "e(3).\np(X) :- e(X).\n?- p(W).\n";
  w.add_rules = [](Program& program) {
    Rule fact;
    fact.head = program.rules()[0].head;
    fact.head.args = {Term::Const(Value::Int(7))};
    program.AddRule(fact);
  };
  CheckAllCells(w, {2,
                     {6, 0, 8, 27, 27, 0, 0},
                     {6, 0, 8, 27, 27, 0, 0}});
}

}  // namespace
}  // namespace mpqe
