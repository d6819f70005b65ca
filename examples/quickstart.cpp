// Quickstart: evaluate a recursive ancestor query with the
// message-passing framework and print the answers.
//
//   $ ./quickstart
//
// Demonstrates the minimal public API — the prepared-query engine
// lifecycle (engine/engine.h):
//
//   Engine -> Attach(EDB snapshot) -> Prepare(rules) -> session -> Run
//
// The plan compiles once (parse, adornment, sips, graph build, index
// selection) and any number of sessions — concurrent ones included —
// execute it against the immutable snapshot. The second Prepare below
// is a plan-cache hit: it skips the whole compile.

#include <iostream>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "obs/metrics.h"

int main() {
  // Facts (EDB) and rules (IDB) in one Prolog-style source text.
  auto unit = mpqe::Parse(R"(
    % A small family tree.
    parent(alice, bob).
    parent(alice, carol).
    parent(bob, dave).
    parent(carol, erin).
    parent(dave, frank).

    % Ancestor is the transitive closure of parent.
    anc(X, Y) :- parent(X, Y).
    anc(X, Y) :- parent(X, Z), anc(Z, Y).

    % Who are alice's descendants?
    ?- anc(alice, W).
  )");
  if (!unit.ok()) {
    std::cerr << "parse error: " << unit.status() << "\n";
    return 1;
  }

  mpqe::Engine engine;
  auto snapshot = engine.Attach(std::move(unit->database), "family");

  // Compile the program into an immutable plan (cached in the
  // engine's LRU plan cache, keyed on program + options + snapshot).
  auto plan = engine.Prepare(snapshot, unit->program);
  if (!plan.ok()) {
    std::cerr << "prepare error: " << plan.status() << "\n";
    return 1;
  }

  // One session = one execution. Defaults: greedy sips (chosen at
  // prepare time), deterministic scheduler.
  mpqe::SessionOptions options;
  auto session = engine.CreateSession(*plan, options);
  if (!session.ok()) {
    std::cerr << "session error: " << session.status() << "\n";
    return 1;
  }
  auto result = (*session)->Run();
  if (!result.ok()) {
    std::cerr << "evaluation error: " << result.status() << "\n";
    return 1;
  }

  std::cout << "alice's descendants:\n";
  for (const mpqe::Tuple& t : result->answers.SortedTuples()) {
    std::cout << "  " << mpqe::TupleToString(t, &snapshot->db().symbols())
              << "\n";
  }
  std::cout << "\nmessages: " << result->message_stats.ToString() << "\n"
            << "counters: " << result->counters.ToString() << "\n"
            << "finished by end-message protocol: "
            << (result->ended_by_protocol ? "yes" : "no") << "\n";

  // Preparing the same program again is a cache hit — no parse, no
  // adornment, no graph build.
  auto again = engine.Prepare(snapshot, unit->program);
  if (again.ok()) {
    std::cout << "\n" << engine.plan_cache_stats().ToString() << "\n";
  }

  // Named metrics are a reduction of the finished session's result.
  mpqe::MetricsRegistry metrics;
  mpqe::AppendSessionMetrics(**plan, *result, metrics);
  std::cout << "\nmetrics:\n" << metrics.ToString();
  return 0;
}
