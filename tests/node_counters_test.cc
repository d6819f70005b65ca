// Tests for the per-node counter breakdown.

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "engine_fixture.h"

namespace mpqe {
namespace {

TEST(NodeCountersTest, OneRowPerNodeInNodeOrder) {
  auto unit = Parse(R"(
    e(1, 2).
    p(X, Y) :- e(X, Y).
    ?- p(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_counters.size(), result->graph_stats.node_count);
  for (size_t i = 0; i < result->node_counters.size(); ++i) {
    EXPECT_EQ(result->node_counters[i].node, static_cast<NodeId>(i));
  }
}

TEST(NodeCountersTest, RowsSumToAggregate) {
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_counters.size(), result->graph_stats.node_count);

  uint64_t stored = 0, drops = 0, contexts = 0, waves = 0;
  for (const NodeCounters& row : result->node_counters) {
    stored += row.counters.stored_tuples;
    drops += row.counters.duplicate_drops;
    contexts += row.counters.contexts;
    waves += row.counters.protocol_waves;
  }
  EXPECT_EQ(stored, result->counters.stored_tuples);
  EXPECT_EQ(drops, result->counters.duplicate_drops);
  EXPECT_EQ(contexts, result->counters.contexts);
  EXPECT_EQ(waves, result->counters.protocol_waves);
}

TEST(NodeCountersTest, HotNodesShowUp) {
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  EngineFixture fixture(std::move(unit->database));
  auto result = fixture.Run(unit->program);
  ASSERT_TRUE(result.ok());
  // At least one node stored multiple tuples (the recursive tc node).
  bool hot = false;
  for (const NodeCounters& row : result->node_counters) {
    if (row.counters.stored_tuples >= 4) hot = true;
  }
  EXPECT_TRUE(hot);
}

}  // namespace
}  // namespace mpqe
