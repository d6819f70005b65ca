// Test and benchmark fixture over the engine's one evaluation path:
// Engine::Attach, then per query Prepare, CreateSession and Run.
//
// The engine runs with one pool worker, telemetry, the flight recorder
// and the engine watchdog default off, so a session executes exactly
// the caller's SessionOptions: no minted query id, no engine metrics,
// no black-box observer. Attach moves the Database in; compute any
// oracle over the same EDB (SemiNaiveBottomUp, magic sets) before
// constructing the fixture.
//
//   EngineFixture fixture(std::move(unit->database));
//   auto result = fixture.Run(unit->program);
//   // result->answers is the goal relation.

#ifndef MPQE_TESTS_ENGINE_FIXTURE_H_
#define MPQE_TESTS_ENGINE_FIXTURE_H_

#include <memory>
#include <utility>

#include "engine/engine.h"

namespace mpqe {

class EngineFixture {
 public:
  explicit EngineFixture(Database db)
      : engine_(QuietEngineOptions()),
        snapshot_(engine_.Attach(std::move(db))) {}

  /// Prepares `program` (constants interned in the attached database's
  /// symbol table) and runs one session over the plan. Returns
  /// Prepare's error (e.g. RESOURCE_EXHAUSTED on graph blow-up),
  /// CreateSession's option error, or Run's result.
  StatusOr<EvaluationResult> Run(const Program& program,
                                 const PlanOptions& plan_options = {},
                                 const SessionOptions& options = {}) {
    MPQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> plan,
                          engine_.Prepare(snapshot_, program, plan_options));
    MPQE_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                          engine_.CreateSession(std::move(plan), options));
    return session->Run();
  }

  Engine& engine() { return engine_; }
  const std::shared_ptr<DatabaseSnapshot>& snapshot() const {
    return snapshot_;
  }
  const Database& db() const { return snapshot_->db(); }

 private:
  static EngineOptions QuietEngineOptions() {
    EngineOptions options;
    options.workers = 1;
    options.telemetry = false;
    options.flight_recorder = false;
    options.watchdog_stall_ms = 0;
    return options;
  }

  Engine engine_;
  std::shared_ptr<DatabaseSnapshot> snapshot_;
};

}  // namespace mpqe

#endif  // MPQE_TESTS_ENGINE_FIXTURE_H_
