// Exact message ledgers of the deterministic scheduler. Round-robin
// FIFO delivery makes the message counts of a query a pure function of
// the program, the EDB and the engine's wire format, so they are
// pinned exactly rather than bounded — any change to how answers are
// packaged, requested or ended shows up here as a diff. (The model is
// the exact per-query message-volume gates of Fan et al., "Performance
// Guarantees for Distributed Reachability Queries".)

#include <gtest/gtest.h>

#include <cstdint>

#include "datalog/parser.h"
#include "engine_fixture.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

struct Ledger {
  uint64_t logical = 0;   // MessageStats::ComputationTotal
  uint64_t physical = 0;  // MessageStats::PhysicalTotal
  uint64_t protocol = 0;  // MessageStats::ProtocolTotal (Fig. 2)
  uint64_t waves = 0;     // Fig. 2 waves started
  uint64_t answers = 0;
};

// Right-linear TC tc(0, W) over `make`'s graph, default options
// (deterministic scheduler, default segment cap).
template <typename MakeGraph>
Ledger RunTc(MakeGraph make) {
  Database db;
  EXPECT_TRUE(make(db).ok());
  Program program;
  EXPECT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  EngineFixture fixture(std::move(db));
  auto result = fixture.Run(program);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  EXPECT_TRUE(result->ended_by_protocol);
  const MessageStats& s = result->message_stats;
  return {s.ComputationTotal(), s.PhysicalTotal(), s.ProtocolTotal(),
          result->counters.protocol_waves, result->answers.size()};
}

// The e2ebench tc_chain_deep cell: every answer travels as a 1-row
// segment, so per-message costs dominate.
TEST(MessageLedgerTest, Chain512BoundTc) {
  Ledger l = RunTc(
      [](Database& db) { return workload::MakeChain(db, "edge", 512); });
  EXPECT_EQ(l.answers, 511u);
  EXPECT_EQ(l.logical, 398100u);
  EXPECT_EQ(l.physical, 399120u);
  EXPECT_EQ(l.protocol, 1020u);
  EXPECT_EQ(l.waves, 255u);
}

// A wide fan-out: multi-row segments carry most answers, so the
// physical count is well below the logical one.
TEST(MessageLedgerTest, Tree1023BoundTc) {
  Ledger l = RunTc(
      [](Database& db) { return workload::MakeBinaryTree(db, "edge", 1023); });
  EXPECT_EQ(l.answers, 1022u);
  EXPECT_EQ(l.logical, 35856u);
  EXPECT_EQ(l.physical, 22558u);
  EXPECT_EQ(l.protocol, 16u);
  EXPECT_EQ(l.waves, 4u);
}

}  // namespace
}  // namespace mpqe
