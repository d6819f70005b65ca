// E15 (ablation) — the information passing strategy (greedy vs
// left-to-right vs qual-tree vs none), toggled on the same query.
// Coalescing appears in bench_coalescing; segment sizing in
// bench_duplicate_elimination (BM_DedupSegmentedVsPerTuple).
//
// Answers are identical across all configurations; the counters and
// times isolate each choice's contribution.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "datalog/parser.h"
#include "engine_fixture.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Strategy ablation on the paper's P1: the same query under every
// strategy; stored tuples show what each strategy's restriction buys.
void BM_StrategyAblation(benchmark::State& state) {
  const char* names[] = {"greedy", "greedy_no_e", "left_to_right",
                         "qual_tree_or_greedy", "no_sips"};
  const char* name = names[state.range(0)];
  EvaluationResult result;
  for (auto _ : state) {
    Database db;
    MPQE_CHECK(workload::MakeChain(db, "q", 48).ok());
    MPQE_CHECK(workload::MakeChain(db, "r", 48).ok());
    Program program;
    MPQE_CHECK(ParseInto(workload::P1Program(0), program, db).ok());
    PlanOptions options;
    options.strategy = name;
    EngineFixture fixture(std::move(db));
    auto r = fixture.Run(program, options);
    MPQE_CHECK(r.ok()) << r.status();
    result = *std::move(r);
  }
  state.SetLabel(name);
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
  // Logical tuple messages: answer rows carried inside segments.
  state.counters["tuple_msgs"] =
      static_cast<double>(result.message_stats.segment_rows);
}
BENCHMARK(BM_StrategyAblation)->DenseRange(0, 4);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
