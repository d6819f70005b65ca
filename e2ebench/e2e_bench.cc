// mpqe_e2e: the end-to-end query benchmark binary (see README.md).
//
// Runs one named workload through the public engine API —
// Engine::Prepare + Engine::CreateSession + QuerySession::Run — from a
// closed loop of client threads, checks every answer set against a
// SemiNaiveBottomUp oracle, and writes one JSON result:
//
//   mpqe_e2e --workload tc_chain_deep --seed 1 --seconds 10 --trace 0
//            --out result.json [--spans spans.json]
//
// --trace 0 measures the end-to-end metrics with no observer attached.
// --trace 1 is the attribution run: an untraced phase, then a traced
// phase whose queries carry the benchmark's own ExecutionObserver; it
// reports the per-layer metrics and writes the span tree to --spans.
// Every layer is timed from outside, at the public calls into it.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/bottom_up.h"
#include "common/logging.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "engine/engine.h"
#include "graph/rule_goal_graph.h"
#include "obs/observer.h"
#include "relational/database.h"
#include "sips/strategy.h"

namespace {

using mpqe::DeliverEvent;
using mpqe::Engine;
using mpqe::EvaluationResult;
using mpqe::MessageKind;
using mpqe::NodeFireEvent;
using mpqe::Phase;
using mpqe::PhaseEvent;
using mpqe::PreparedQuery;
using mpqe::SchedulerKind;
using mpqe::SessionOptions;
using mpqe::Value;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// SplitMix64: the benchmark's own generator, so the inputs a seed
// produces do not depend on the engine's code.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

std::vector<int64_t> Permutation(int64_t n, SplitMix& rng) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

// ---------------------------------------------------------------------------
// Workloads

using EdgeList = std::vector<std::pair<int64_t, int64_t>>;

struct Workload {
  std::string name;
  std::vector<std::pair<std::string, EdgeList>> edb;  // binary relations
  std::string rules;       // rule text; the query line is appended
  std::string predicate;   // queried predicate, first argument bound
  std::vector<int64_t> constants;  // the query constants
  std::vector<double> cdf;         // draw distribution over constants
  SchedulerKind scheduler = SchedulerKind::kDeterministic;
  int workers = 1;   // scheduler threads per session
  int clients = 1;   // closed-loop client threads
  int setup_repeats = 3;
  // Peak RSS is the median over kFootprints fresh processes that each
  // set up and then run `rss_queries` load queries: a fixed amount of
  // work. Read after a time-bounded load instead, it swung by a quarter
  // from run to run on the threaded workload, and a faster engine would
  // read larger for running more queries.
  int rss_queries = 1;
  std::string params_json;  // generation parameters, for the stamp

  std::string QueryText(int64_t k) const {
    return rules + "?- " + predicate + "(" + std::to_string(k) + ", W).\n";
  }
  std::string FreeQueryText() const {
    return rules + "?- " + predicate + "(X, W).\n";
  }
  int64_t Draw(SplitMix& rng) const {
    if (cdf.empty()) return constants[0];
    size_t i = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.Unit()) - cdf.begin());
    return constants[std::min(i, constants.size() - 1)];
  }
};

const char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

// Every random structure is drawn from this fixed generator seed; the
// run's --seed relabels the node ids and drives the clients' draws, so
// each seed gives different inputs that carry the same work.
constexpr uint64_t kStructureSeed = 0x5eed;

void Relabel(Workload& w, int64_t nodes, uint64_t seed) {
  SplitMix rng(seed);
  const std::vector<int64_t> label = Permutation(nodes, rng);
  auto at = [&label](int64_t v) { return label[static_cast<size_t>(v)]; };
  for (auto& relation : w.edb) {
    for (auto& [a, b] : relation.second) {
      a = at(a);
      b = at(b);
    }
  }
  for (int64_t& k : w.constants) k = at(k);
}

// Chain of 512 nodes, tc(head, W): 511 answers.
Workload MakeTcChainDeep(uint64_t seed) {
  constexpr int64_t kNodes = 512;
  EdgeList edges;
  for (int64_t i = 0; i + 1 < kNodes; ++i) edges.emplace_back(i, i + 1);
  Workload w;
  w.name = "tc_chain_deep";
  w.edb.emplace_back("edge", std::move(edges));
  w.rules = kLinearTc;
  w.predicate = "tc";
  w.constants = {0};
  w.params_json = "{\"nodes\": 512, \"query\": \"tc(head, W)\", "
                  "\"scheduler\": \"deterministic\", \"clients\": 1}";
  Relabel(w, kNodes, seed);
  return w;
}

// Random digraph, out-degree 8, bound TC from the node that reaches the
// most nodes; threaded scheduler with 4 workers.
Workload MakeTcRandomWide(uint64_t seed) {
  constexpr int64_t kNodes = 300;
  constexpr int64_t kOutDegree = 8;
  SplitMix rng(kStructureSeed);
  EdgeList edges;
  std::vector<std::vector<int64_t>> succ(kNodes);
  for (int64_t i = 0; i < kNodes; ++i) {
    for (int64_t d = 0; d < kOutDegree; ++d) {
      int64_t j = static_cast<int64_t>(rng.Below(kNodes));
      edges.emplace_back(i, j);
      succ[static_cast<size_t>(i)].push_back(j);
    }
  }
  int64_t best = 0;
  size_t best_reach = 0;
  for (int64_t s = 0; s < kNodes; ++s) {
    std::vector<char> seen(kNodes, 0);
    std::vector<int64_t> stack = succ[static_cast<size_t>(s)];
    size_t reach = 0;
    while (!stack.empty()) {
      int64_t v = stack.back();
      stack.pop_back();
      if (seen[static_cast<size_t>(v)]) continue;
      seen[static_cast<size_t>(v)] = 1;
      ++reach;
      for (int64_t u : succ[static_cast<size_t>(v)]) stack.push_back(u);
    }
    if (reach > best_reach) {
      best_reach = reach;
      best = s;
    }
  }
  Workload w;
  w.name = "tc_random_wide";
  w.edb.emplace_back("edge", std::move(edges));
  w.rules = kLinearTc;
  w.predicate = "tc";
  w.constants = {best};
  w.scheduler = SchedulerKind::kThreaded;
  w.workers = 4;
  w.setup_repeats = 5;
  w.params_json = "{\"nodes\": 300, \"out_degree\": 8, "
                  "\"query\": \"tc(widest_source, W)\", "
                  "\"scheduler\": \"threaded\", \"workers\": 4, "
                  "\"clients\": 1}";
  Relabel(w, kNodes, seed);
  return w;
}

// The paper's P1 (Example 2.1) over random out-degree-1 relations q, r;
// four clients draw the query constant Zipf(0.9) over 256 constants —
// more distinct plans than the 64-entry plan cache holds.
Workload MakeP1PointMix(uint64_t seed) {
  constexpr int64_t kNodes = 2000;
  constexpr size_t kConstants = 256;
  constexpr double kZipf = 0.9;
  SplitMix rng(kStructureSeed);
  EdgeList q;
  EdgeList r;
  for (int64_t i = 0; i < kNodes; ++i) {
    q.emplace_back(i, static_cast<int64_t>(rng.Below(kNodes)));
  }
  for (int64_t i = 0; i < kNodes; ++i) {
    r.emplace_back(i, static_cast<int64_t>(rng.Below(kNodes)));
  }
  std::vector<int64_t> perm = Permutation(kNodes, rng);
  Workload w;
  w.name = "p1_point_mix";
  w.edb.emplace_back("q", std::move(q));
  w.edb.emplace_back("r", std::move(r));
  w.rules =
      "p(X, Y) :- p(X, V), q(V, W), p(W, Y).\n"
      "p(X, Y) :- r(X, Y).\n";
  w.predicate = "p";
  w.constants.assign(perm.begin(), perm.begin() + kConstants);
  double total = 0;
  for (size_t i = 1; i <= kConstants; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), kZipf);
    w.cdf.push_back(total);
  }
  for (double& c : w.cdf) c /= total;
  w.clients = 4;
  w.setup_repeats = 9;
  w.rss_queries = 128;
  w.params_json = "{\"nodes\": 2000, \"constants\": 256, \"zipf\": 0.9, "
                  "\"plan_cache_capacity\": 64, "
                  "\"scheduler\": \"deterministic\", \"clients\": 4}";
  Relabel(w, kNodes, seed);
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "tc_chain_deep") {
    *out = MakeTcChainDeep(seed);
  } else if (name == "tc_random_wide") {
    *out = MakeTcRandomWide(seed);
  } else if (name == "p1_point_mix") {
    *out = MakeP1PointMix(seed);
  } else {
    return false;
  }
  return true;
}

mpqe::Database LoadEdb(const Workload& w) {
  mpqe::Database db;
  for (const auto& [name, edges] : w.edb) {
    MPQE_CHECK(db.CreateRelation(name, 2).ok());
    for (const auto& [a, b] : edges) {
      MPQE_CHECK(db.InsertFact(name, {Value::Int(a), Value::Int(b)}).ok());
    }
  }
  return db;
}

// ---------------------------------------------------------------------------
// Answers: sets of first-column integers (the free variable W),
// compared through a fingerprint of the sorted set.

struct AnswerSet {
  uint64_t size = 0;
  uint64_t fingerprint = 0;
  friend bool operator==(const AnswerSet& a, const AnswerSet& b) {
    return a.size == b.size && a.fingerprint == b.fingerprint;
  }
};

AnswerSet Fingerprint(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  AnswerSet set;
  set.size = values.size();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int64_t v : values) {
    SplitMix mix(static_cast<uint64_t>(v) ^ h);
    h = mix.Next();
  }
  set.fingerprint = h;
  return set;
}

AnswerSet AnswersOf(const mpqe::Relation& answers) {
  std::vector<int64_t> values;
  values.reserve(answers.size());
  for (mpqe::TupleRef t : answers.tuples()) values.push_back(t[0].payload());
  return Fingerprint(std::move(values));
}

// ---------------------------------------------------------------------------
// Exact per-query message ledger (no observer needed).

struct Ledger {
  uint64_t logical = 0;
  uint64_t physical = 0;
  uint64_t protocol = 0;
  uint64_t waves = 0;
  uint64_t answers = 0;
  uint64_t answer_msgs = 0;  // bare tuples + segments
  uint64_t answer_rows = 0;  // rows carried by those
  friend bool operator==(const Ledger& a, const Ledger& b) {
    return a.logical == b.logical && a.physical == b.physical &&
           a.protocol == b.protocol && a.waves == b.waves &&
           a.answers == b.answers;
  }
};

Ledger LedgerOf(const EvaluationResult& r) {
  Ledger l;
  const mpqe::MessageStats& s = r.message_stats;
  l.logical = s.ComputationTotal();
  l.physical = s.PhysicalTotal();
  l.protocol = s.ProtocolTotal();
  l.waves = r.counters.protocol_waves;
  l.answers = r.answers.size();
  const uint64_t tuples = s.Count(MessageKind::kTuple);
  l.answer_msgs = tuples + s.Count(MessageKind::kTupleSegment);
  l.answer_rows = tuples + s.segment_rows;
  return l;
}

// ---------------------------------------------------------------------------
// The benchmark's observer: per-query aggregate counters (never one
// record per fire) plus phase boundary timestamps.

class BenchObserver : public mpqe::ExecutionObserver {
 public:
  static constexpr int kRoles = 4;

  void OnDeliver(const DeliverEvent& e) override {
    handle_ns_.fetch_add(e.handle_ns, std::memory_order_relaxed);
  }
  void OnNodeFire(const NodeFireEvent& e) override {
    const size_t role = static_cast<size_t>(e.role);
    role_ns_[role].fetch_add(e.handle_ns, std::memory_order_relaxed);
    role_fires_[role].fetch_add(1, std::memory_order_relaxed);
    tuples_in_.fetch_add(e.tuples_in, std::memory_order_relaxed);
    dedup_hits_.fetch_add(e.dedup_hits, std::memory_order_relaxed);
  }
  void OnPhase(const PhaseEvent& e) override {
    const size_t p = static_cast<size_t>(e.phase);
    (e.begin ? phase_begin_ : phase_end_)[p] = NowNs();
  }

  uint64_t handle_ns() const { return handle_ns_.load(); }
  uint64_t role_ns(int r) const { return role_ns_[r].load(); }
  uint64_t role_fires(int r) const { return role_fires_[r].load(); }
  uint64_t tuples_in() const { return tuples_in_.load(); }
  uint64_t dedup_hits() const { return dedup_hits_.load(); }
  uint64_t begin(Phase p) const { return phase_begin_[static_cast<size_t>(p)]; }
  uint64_t end(Phase p) const { return phase_end_[static_cast<size_t>(p)]; }

 private:
  static constexpr size_t kPhases = static_cast<size_t>(Phase::kPhaseCount);
  std::atomic<uint64_t> handle_ns_{0};
  std::atomic<uint64_t> role_ns_[kRoles] = {};
  std::atomic<uint64_t> role_fires_[kRoles] = {};
  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  // Phase events are serialized with the session's calling thread.
  uint64_t phase_begin_[kPhases] = {};
  uint64_t phase_end_[kPhases] = {};
};

const char* const kRoleNames[BenchObserver::kRoles] = {"goal", "rule", "edb",
                                                       "cycleref"};

// One traced query, reduced: the call spans, the run phases and the
// per-role counters.
struct TracedQuery {
  uint64_t query = 0;
  int64_t constant = 0;
  bool prepare_hit = false;
  uint64_t t_start = 0, t_prepared = 0, t_created = 0, t_end = 0;
  uint64_t phase_begin[3] = {}, phase_end[3] = {};  // wiring, run, drain
  uint64_t handle_ns = 0;
  uint64_t role_ns[BenchObserver::kRoles] = {};
  uint64_t role_fires[BenchObserver::kRoles] = {};
  uint64_t tuples_in = 0;
  uint64_t dedup_hits = 0;

  uint64_t wall() const { return t_end - t_start; }
  uint64_t phase(int i) const { return phase_end[i] - phase_begin[i]; }
  uint64_t attributed() const {
    return (t_prepared - t_start) + (t_created - t_prepared) + phase(0) +
           phase(1) + phase(2);
  }
  uint64_t fires() const {
    uint64_t n = 0;
    for (uint64_t f : role_fires) n += f;
    return n;
  }
  // Spans nest: the phases lie inside the Run call, in order, so the
  // attributed layers never exceed the wall time.
  bool Nested() const {
    uint64_t at = t_created;
    for (int i = 0; i < 3; ++i) {
      if (phase_begin[i] < at || phase_end[i] < phase_begin[i]) return false;
      at = phase_end[i];
    }
    return at <= t_end && t_start <= t_prepared && t_prepared <= t_created;
  }
};

// ---------------------------------------------------------------------------
// Statistics over raw samples.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F f) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) v.push_back(f(item));
  return Median(std::move(v));
}

// The tail: the highest percentile up to p99 with at least ten samples
// beyond it (nearest rank). Below 100 samples that percentile falls
// under p90, and the maximum of a few dozen samples is one host hiccup
// away from doubling, so the nearest-rank p90 is reported instead.
struct Tail {
  double value = 0;
  std::string label;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double p = n >= 100 ? 0.99 : 0.90;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (n >= 100) rank = std::min(rank, n - 10);  // n - rank samples beyond
  t.value = v[rank - 1];
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.2f",
                100.0 * static_cast<double>(rank) / static_cast<double>(n));
  t.label = buf;
  return t;
}

// ---------------------------------------------------------------------------
// Load generation.

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Setup {
  std::unique_ptr<Engine> engine;
  std::shared_ptr<mpqe::DatabaseSnapshot> snapshot;
  std::vector<std::string> texts;  // by constant index
  std::unordered_map<int64_t, size_t> index_of;
  uint64_t setup_ns = 0;
  uint64_t cold_prepare_ns = 0;
};

struct QueryOutcome {
  int64_t constant = 0;
  uint64_t latency_ns = 0;
  bool ok = false;
  AnswerSet answers;
  Ledger ledger;
};

struct ClientLog {
  std::vector<QueryOutcome> outcomes;
  std::vector<TracedQuery> traced;
  std::string error;
};

struct LoadResult {
  std::vector<QueryOutcome> outcomes;
  std::vector<TracedQuery> traced;
  std::vector<std::string> errors;
  uint64_t wall_ns = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  double Qps() const {
    return static_cast<double>(outcomes.size()) /
           (static_cast<double>(wall_ns) / 1e9);
  }
  std::vector<double> LatenciesMs() const {
    std::vector<double> v;
    v.reserve(outcomes.size());
    for (const QueryOutcome& o : outcomes) v.push_back(Ms(o.latency_ns));
    return v;
  }
};

class Bench {
 public:
  Bench(Workload w, uint64_t seed) : w_(std::move(w)), seed_(seed) {}

  const Workload& workload() const { return w_; }

  SessionOptions Session() const {
    SessionOptions s;
    s.scheduler = w_.scheduler;
    s.workers = w_.workers;
    return s;
  }

  // Loads the EDB, attaches it, runs the cold Prepare (index builds
  // included) and warms up with one full query of the first constant.
  Setup RunSetup() {
    Setup s;
    const uint64_t t0 = NowNs();
    mpqe::EngineOptions options;
    // No observer in the measured configuration: the built-in
    // telemetry samples sessions through a metrics observer and the
    // flight recorder attaches one to every session.
    options.telemetry = false;
    options.flight_recorder = false;
    s.engine = std::make_unique<Engine>(options);
    s.snapshot = s.engine->Attach(LoadEdb(w_), w_.name);
    for (size_t i = 0; i < w_.constants.size(); ++i) {
      s.texts.push_back(w_.QueryText(w_.constants[i]));
      s.index_of[w_.constants[i]] = i;
    }
    const uint64_t tp = NowNs();
    auto plan = s.engine->Prepare(s.snapshot, s.texts[0]);
    s.cold_prepare_ns = NowNs() - tp;
    MPQE_CHECK(plan.ok()) << plan.status().ToString();
    auto session = s.engine->CreateSession(*plan, Session());
    MPQE_CHECK(session.ok()) << session.status().ToString();
    auto result = (*session)->Run();
    MPQE_CHECK(result.ok()) << result.status().ToString();
    s.setup_ns = NowNs() - t0;
    warmup_answers_ = AnswersOf(result->answers);
    ClassifyPrepare(w_.constants[0], *plan);
    return s;
  }

  // Closed loop: `clients` threads each run Prepare + CreateSession +
  // Run back to back until `seconds` have passed (or, with
  // max_queries > 0, until that many queries were issued).
  LoadResult RunLoad(Setup& s, int clients, double seconds, bool traced,
                     uint64_t salt, int max_queries = 0) {
    const mpqe::PlanCacheStats before = s.engine->plan_cache_stats();
    std::vector<ClientLog> logs(static_cast<size_t>(clients));
    std::atomic<int> issued{0};
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        SplitMix rng(seed_ * 0x100000001b3ULL + salt * 131 +
                     static_cast<uint64_t>(c) + 1);
        ClientLog& log = logs[static_cast<size_t>(c)];
        do {
          if (max_queries > 0 && issued.fetch_add(1) >= max_queries) break;
          RunQuery(s, w_.Draw(rng), traced, log);
        } while (NowNs() < deadline);
      });
    }
    for (std::thread& t : threads) t.join();
    LoadResult load;
    load.wall_ns = NowNs() - start;
    for (ClientLog& log : logs) {
      load.outcomes.insert(load.outcomes.end(), log.outcomes.begin(),
                           log.outcomes.end());
      load.traced.insert(load.traced.end(), log.traced.begin(),
                         log.traced.end());
      if (!log.error.empty()) load.errors.push_back(log.error);
    }
    const mpqe::PlanCacheStats after = s.engine->plan_cache_stats();
    load.cache_hits = after.hits - before.hits;
    load.cache_misses = after.misses - before.misses;
    return load;
  }

  // The oracle: each EDB's SemiNaiveBottomUp answers, computed once
  // outside any timed region. For the point mix the free query is
  // evaluated once and selected per constant.
  std::map<int64_t, AnswerSet> Oracle() {
    const bool free = w_.constants.size() > 1;
    const std::string text =
        free ? w_.FreeQueryText() : w_.QueryText(w_.constants[0]);
    mpqe::BottomUpResult r = SemiNaive(text);
    std::map<int64_t, AnswerSet> expected;
    if (!free) {
      expected[w_.constants[0]] = AnswersOf(r.goal);
      return expected;
    }
    std::unordered_map<int64_t, std::vector<int64_t>> by_constant;
    for (int64_t k : w_.constants) by_constant[k];
    for (mpqe::TupleRef t : r.goal.tuples()) {
      auto it = by_constant.find(t[0].payload());
      if (it != by_constant.end()) it->second.push_back(t[1].payload());
    }
    for (auto& [k, values] : by_constant) {
      expected[k] = Fingerprint(std::move(values));
    }
    return expected;
  }

  // Wall time of SemiNaiveBottomUp on a fresh copy of the EDB.
  uint64_t TimeSemiNaive(const std::string& text) {
    mpqe::Database db = LoadEdb(w_);
    mpqe::Program program;
    MPQE_CHECK(mpqe::ParseRulesInto(text, program, db.symbols()).ok());
    const uint64_t t0 = NowNs();
    auto r = mpqe::SemiNaiveBottomUp(program, db);
    const uint64_t ns = NowNs() - t0;
    MPQE_CHECK(r.ok()) << r.status().ToString();
    return ns;
  }

  // Median wall times of Parse and RuleGoalGraph::Build over `reps`
  // query texts (cycling through the constants).
  std::pair<double, double> TimeCompileLayers(int reps) {
    mpqe::Database db = LoadEdb(w_);
    auto strategy = mpqe::MakeStrategyByName("greedy");
    MPQE_CHECK(strategy.ok());
    std::vector<double> parse_us;
    std::vector<double> build_us;
    for (int i = 0; i < reps; ++i) {
      const std::string text = w_.QueryText(
          w_.constants[static_cast<size_t>(i) % w_.constants.size()]);
      mpqe::Program program;
      uint64_t t0 = NowNs();
      MPQE_CHECK(mpqe::ParseRulesInto(text, program, db.symbols()).ok());
      parse_us.push_back(Us(NowNs() - t0));
      MPQE_CHECK(program.Validate(&db).ok());
      t0 = NowNs();
      auto graph = mpqe::RuleGoalGraph::Build(program, **strategy);
      build_us.push_back(Us(NowNs() - t0));
      MPQE_CHECK(graph.ok()) << graph.status().ToString();
    }
    return {Median(parse_us), Median(build_us)};
  }

  const AnswerSet& warmup_answers() const { return warmup_answers_; }

 private:
  mpqe::BottomUpResult SemiNaive(const std::string& text) {
    mpqe::Database db = LoadEdb(w_);
    mpqe::Program program;
    MPQE_CHECK(mpqe::ParseRulesInto(text, program, db.symbols()).ok());
    auto r = mpqe::SemiNaiveBottomUp(program, db);
    MPQE_CHECK(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  void RunQuery(Setup& s, int64_t k, bool traced, ClientLog& log) {
    const std::string& text = s.texts[s.index_of.at(k)];
    BenchObserver observer;
    SessionOptions options = Session();
    if (traced) options.observers.push_back(&observer);
    TracedQuery tq;
    QueryOutcome out;
    out.constant = k;
    tq.constant = k;
    tq.t_start = NowNs();
    auto plan = s.engine->Prepare(s.snapshot, text);
    tq.t_prepared = NowNs();
    mpqe::StatusOr<EvaluationResult> result =
        mpqe::InternalError("query did not run");
    if (plan.ok()) {
      auto session = s.engine->CreateSession(*plan, options);
      tq.t_created = NowNs();
      if (session.ok()) {
        result = (*session)->Run();
      } else {
        result = session.status();
      }
    }
    tq.t_end = NowNs();
    out.latency_ns = tq.t_end - tq.t_start;
    if (!plan.ok()) result = plan.status();
    if (!result.ok()) {
      if (log.error.empty()) log.error = result.status().ToString();
      log.outcomes.push_back(out);
      return;
    }
    out.ok = true;
    out.answers = AnswersOf(result->answers);
    out.ledger = LedgerOf(*result);
    log.outcomes.push_back(out);
    tq.prepare_hit = ClassifyPrepare(k, *plan);
    if (!traced) return;
    const Phase phases[3] = {Phase::kNetworkWiring, Phase::kRun,
                             Phase::kDrain};
    for (int i = 0; i < 3; ++i) {
      tq.phase_begin[i] = observer.begin(phases[i]);
      tq.phase_end[i] = observer.end(phases[i]);
    }
    tq.handle_ns = observer.handle_ns();
    for (int r = 0; r < BenchObserver::kRoles; ++r) {
      tq.role_ns[r] = observer.role_ns(r);
      tq.role_fires[r] = observer.role_fires(r);
    }
    tq.tuples_in = observer.tuples_in();
    tq.dedup_hits = observer.dedup_hits();
    tq.query = next_query_.fetch_add(1) + 1;
    log.traced.push_back(tq);
  }

  // A Prepare hit returns the plan object this constant last got; any
  // other object was compiled by this call (or by a racing miss). Every
  // Prepare is recorded, after its timing, so the traced phase
  // classifies against the plans the untraced phases left cached.
  bool ClassifyPrepare(int64_t k,
                       const std::shared_ptr<const PreparedQuery>& plan) {
    std::lock_guard<std::mutex> lock(seen_mutex_);
    std::weak_ptr<const PreparedQuery>& seen = seen_plans_[k];
    const bool hit = seen.lock() == plan;
    seen = plan;
    return hit;
  }

  Workload w_;
  uint64_t seed_;
  AnswerSet warmup_answers_;
  std::atomic<uint64_t> next_query_{0};
  std::mutex seen_mutex_;
  std::unordered_map<int64_t, std::weak_ptr<const PreparedQuery>> seen_plans_;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string LedgerJson(const Ledger& l) {
  std::ostringstream o;
  o << "{\"logical_msgs\": " << l.logical
    << ", \"physical_msgs\": " << l.physical
    << ", \"protocol_msgs\": " << l.protocol << ", \"waves\": " << l.waves
    << ", \"answers\": " << l.answers << "}";
  return o.str();
}

// Writes the reduced traced queries as a span tree: query -> prepare /
// create_session / run -> wiring / run / drain phase, with parent ids
// and one query id per query, plus each query's per-role counters.
bool WriteSpans(const std::string& path, const Workload& w, uint64_t seed,
                const std::vector<TracedQuery>& traced) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  uint64_t origin = UINT64_MAX;
  for (const TracedQuery& q : traced) origin = std::min(origin, q.t_start);
  auto span = [&](uint64_t id, uint64_t parent, uint64_t query,
                  const char* name, uint64_t b, uint64_t e, bool last) {
    out << "    {\"id\": " << id << ", \"parent\": " << parent
        << ", \"query\": " << query << ", \"name\": \"" << name
        << "\", \"start_ns\": " << (b - origin) << ", \"dur_ns\": " << (e - b)
        << "}" << (last ? "\n" : ",\n");
  };
  out << "{\n  \"schema\": \"mpqe-e2e-spans-v1\",\n  \"workload\": "
      << JsonString(w.name) << ",\n  \"seed\": " << seed
      << ",\n  \"spans\": [\n";
  const char* const phase_names[3] = {"wiring", "run_phase", "drain"};
  for (size_t i = 0; i < traced.size(); ++i) {
    const TracedQuery& q = traced[i];
    const uint64_t base = q.query * 8;
    span(base, 0, q.query, "query", q.t_start, q.t_end, false);
    span(base + 1, base, q.query, "prepare", q.t_start, q.t_prepared, false);
    span(base + 2, base, q.query, "create_session", q.t_prepared,
         q.t_created, false);
    span(base + 3, base, q.query, "run", q.t_created, q.t_end, false);
    for (int p = 0; p < 3; ++p) {
      span(base + 4 + static_cast<uint64_t>(p), base + 3, q.query,
           phase_names[p], q.phase_begin[p], q.phase_end[p],
           i + 1 == traced.size() && p == 2);
    }
  }
  out << "  ],\n  \"queries\": [\n";
  for (size_t i = 0; i < traced.size(); ++i) {
    const TracedQuery& q = traced[i];
    out << "    {\"query\": " << q.query << ", \"constant\": " << q.constant
        << ", \"prepare_hit\": " << (q.prepare_hit ? "true" : "false")
        << ", \"handle_ns\": " << q.handle_ns
        << ", \"tuples_in\": " << q.tuples_in
        << ", \"dedup_hits\": " << q.dedup_hits << ", \"roles\": {";
    for (int r = 0; r < BenchObserver::kRoles; ++r) {
      out << (r ? ", " : "") << "\"" << kRoleNames[r]
          << "\": {\"fire_ns\": " << q.role_ns[r]
          << ", \"fires\": " << q.role_fires[r] << "}";
    }
    out << "}, \"unattributed_ns\": " << (q.wall() - q.attributed()) << "}"
        << (i + 1 == traced.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
  int footprint = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--footprint") {
      args->footprint = std::stoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// Checks every outcome of `load` against the oracle, and — for the
// deterministic scheduler — that each constant's message ledger repeats
// exactly. Returns the failed count; records the first errors.
uint64_t CheckOutcomes(const LoadResult& load,
                       const std::map<int64_t, AnswerSet>& expected,
                       bool deterministic,
                       std::map<int64_t, Ledger>* ledgers,
                       std::vector<std::string>* errors) {
  uint64_t failed = 0;
  for (const QueryOutcome& o : load.outcomes) {
    std::string error;
    if (!o.ok) {
      error = "query failed";
    } else if (!(o.answers == expected.at(o.constant))) {
      error = "wrong answer set for constant " + std::to_string(o.constant) +
              " (" + std::to_string(o.answers.size) + " rows, oracle " +
              std::to_string(expected.at(o.constant).size) + ")";
    } else if (deterministic) {
      auto [it, inserted] = ledgers->emplace(o.constant, o.ledger);
      if (!inserted && !(it->second == o.ledger)) {
        error = "message ledger of constant " + std::to_string(o.constant) +
                " changed between runs: " + LedgerJson(it->second) + " vs " +
                LedgerJson(o.ledger);
      }
    }
    if (!error.empty()) {
      ++failed;
      if (errors->size() < 8) errors->push_back(error);
    }
  }
  return failed;
}

constexpr int kFootprints = 3;

// Runs kFootprints footprint processes of this binary one after
// another and returns the median of the peak RSS each reports (0 on
// failure).
double FootprintMedianMb(const char* self, const Args& args) {
  std::vector<double> mb;
  for (int i = 0; i < kFootprints; ++i) {
    const std::string out = args.out + ".rss" + std::to_string(i);
    const std::string seed = std::to_string(args.seed);
    const char* argv[] = {self,          "--workload",  args.workload.c_str(),
                          "--seed",      seed.c_str(),  "--footprint",
                          "1",           "--out",       out.c_str(),
                          nullptr};
    pid_t pid = 0;
    if (posix_spawn(&pid, self, nullptr, nullptr, const_cast<char**>(argv),
                    environ) != 0) {
      return 0;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return 0;
    }
    std::ifstream in(out);
    double value = 0;
    if (!(in >> value)) return 0;
    mb.push_back(value);
    std::remove(out.c_str());
  }
  return Median(std::move(mb));
}

// What one run found: its metrics, the queries it checked and every
// failure, wrong answers and broken checks alike.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // the first few
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<int64_t, Ledger> ledgers;  // per constant, deterministic only
  std::string samples_json;

  void Fail(std::string error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(error));
  }

  void Record(const LoadResult& load,
              const std::map<int64_t, AnswerSet>& expected,
              bool deterministic) {
    attempted += load.outcomes.size();
    failed += CheckOutcomes(load, expected, deterministic, &ledgers, &errors);
    for (const std::string& e : load.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

// --trace 0: the end-to-end metrics, with no observer attached.
void MeasureEndToEnd(Bench& bench, const Args& args, double footprint_mb,
                     Report& r) {
  const Workload& wl = bench.workload();
  const bool deterministic = wl.scheduler == SchedulerKind::kDeterministic;
  // Set up several times and keep the median; the last engine serves
  // the load.
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < wl.setup_repeats; ++i) {
    setup = Setup();  // tear the previous engine down first
    setup = bench.RunSetup();
    setup_s.push_back(static_cast<double>(setup.setup_ns) / 1e9);
  }
  LoadResult load = bench.RunLoad(setup, wl.clients, args.seconds,
                                  /*traced=*/false, /*salt=*/0);
  setup = Setup();
  std::map<int64_t, AnswerSet> expected = bench.Oracle();
  if (!(bench.warmup_answers() == expected.at(wl.constants[0]))) {
    r.Fail("warm-up query returned a wrong answer set");
  }
  r.Record(load, expected, deterministic);
  std::vector<double> lat = load.LatenciesMs();
  const Tail tail = TailOf(lat);
  const std::string n = std::to_string(lat.size());
  r.metrics.push_back({"latency_p50_ms", Median(lat), "ms",
                       "p50 of n=" + n + " raw samples"});
  r.metrics.push_back({"latency_p99_ms", tail.value, "ms",
                       tail.label + " of n=" + n + " raw samples"});
  r.metrics.push_back({"qps", load.Qps(), "1/s",
                       n + " queries over " +
                           std::to_string(Ms(load.wall_ns) / 1e3) + " s, " +
                           std::to_string(wl.clients) + " clients"});
  r.metrics.push_back({"setup_s", Median(setup_s), "s",
                       "median of " + std::to_string(setup_s.size()) +
                           " set-ups"});
  if (footprint_mb <= 0) {
    r.Fail("a footprint process failed");
  }
  r.metrics.push_back({"peak_rss_mb", footprint_mb, "MiB",
                       "median ru_maxrss of " +
                           std::to_string(kFootprints) +
                           " processes: set-up + " +
                           std::to_string(wl.rss_queries) + " queries"});
  r.metrics.push_back({"answer_ok_rate",
                       r.attempted > r.failed
                           ? static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted)
                           : 0.0,
                       "ratio",
                       std::to_string(r.failed) + " failed or wrong of " +
                           std::to_string(r.attempted) +
                           " (error_rate = 1 - answer_ok_rate)"});
  r.samples_json = "{\"latency\": " + n + ", \"setups\": " +
                   std::to_string(setup_s.size()) + ", \"latency_ms\": [";
  for (size_t i = 0; i < lat.size(); ++i) {
    r.samples_json += (i ? ", " : "") + JsonNumber(lat[i]);
  }
  r.samples_json += "], \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    r.samples_json += (i ? ", " : "") + JsonNumber(setup_s[i]);
  }
  r.samples_json += "]}";
}

// --trace 1: the per-layer metrics.
void MeasureLayers(Bench& bench, const Args& args, Report& r) {
  const Workload& wl = bench.workload();
  const bool deterministic = wl.scheduler == SchedulerKind::kDeterministic;
  // Attribution run: one set-up, an untraced phase (plus a
  // one-client phase where the workload has several clients), then
  // the traced phase.
  Setup setup = bench.RunSetup();
  const double parts = wl.clients > 1 ? 3 : 2;
  LoadResult plain = bench.RunLoad(setup, wl.clients, args.seconds / parts,
                                   false, /*salt=*/1);
  double scaling = 1.0;
  LoadResult single;
  if (wl.clients > 1) {
    single = bench.RunLoad(setup, 1, args.seconds / parts, false, 2);
    scaling = plain.Qps() / single.Qps();
  }
  LoadResult traced = bench.RunLoad(setup, wl.clients, args.seconds / parts,
                                    true, /*salt=*/3);
  const uint64_t cold_prepare_ns = setup.cold_prepare_ns;
  setup = Setup();

  std::map<int64_t, AnswerSet> expected = bench.Oracle();
  r.Record(plain, expected, deterministic);
  r.Record(single, expected, deterministic);
  r.Record(traced, expected, deterministic);

  std::vector<double> seminaive_ms;
  for (int i = 0; i < 3; ++i) {
    seminaive_ms.push_back(
        Ms(bench.TimeSemiNaive(wl.QueryText(wl.constants[0]))));
  }
  const auto [parse_us, build_us] = bench.TimeCompileLayers(21);

  const std::vector<TracedQuery>& tq = traced.traced;
  bool attribution_ok = !tq.empty();
  uint64_t wall = 0, attributed = 0;
  std::vector<double> miss_ms, hit_us;
  for (const TracedQuery& q : tq) {
    attribution_ok =
        attribution_ok && q.Nested() && q.attributed() <= q.wall();
    wall += q.wall();
    attributed += q.attributed();
    const uint64_t prepare = q.t_prepared - q.t_start;
    if (q.prepare_hit) {
      hit_us.push_back(Us(prepare));
    } else {
      miss_ms.push_back(Ms(prepare));
    }
  }
  if (!attribution_ok) {
    r.Fail("traced spans do not nest inside the query wall time");
  }
  // A workload whose load never misses the plan cache measures the
  // miss at set-up, where the cold Prepare ran.
  if (miss_ms.empty()) miss_ms.push_back(Ms(cold_prepare_ns));

  Ledger sum;
  std::vector<LoadResult*> loads = {&plain, &single, &traced};
  std::vector<Ledger> per_query;
  for (LoadResult* load : loads) {
    for (const QueryOutcome& o : load->outcomes) {
      if (!o.ok) continue;
      per_query.push_back(o.ledger);
      sum.logical += o.ledger.logical;
      sum.physical += o.ledger.physical;
      sum.protocol += o.ledger.protocol;
      sum.answers += o.ledger.answers;
      sum.answer_msgs += o.ledger.answer_msgs;
      sum.answer_rows += o.ledger.answer_rows;
    }
  }
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double workers = static_cast<double>(
      wl.scheduler == SchedulerKind::kThreaded ? wl.workers : 1);
  uint64_t tuples_in = 0, dedup_hits = 0, fires = 0, handle = 0, run = 0;
  for (const TracedQuery& q : tq) {
    tuples_in += q.tuples_in;
    dedup_hits += q.dedup_hits;
    fires += q.fires();
    handle += q.handle_ns;
    run += q.phase(1);
  }
  const double plain_p50 = Median(plain.LatenciesMs());
  const double traced_p50 = Median(traced.LatenciesMs());
  const double seminaive = Median(seminaive_ms);
  const std::string nt = std::to_string(tq.size());

  r.metrics.push_back({"engine.prepare_miss_ms", Median(miss_ms), "ms",
                       "median of " + std::to_string(miss_ms.size()) +
                           " cache-miss Prepares"});
  r.metrics.push_back({"datalog.parse_us", parse_us, "us", "median of 21"});
  r.metrics.push_back({"graph.build_us", build_us, "us", "median of 21"});
  r.metrics.push_back({"engine.prepare_hit_us",
                       hit_us.empty() ? 0.0 : Median(hit_us), "us",
                       "median of " + std::to_string(hit_us.size()) +
                           " cache-hit Prepares"});
  r.metrics.push_back(
      {"engine.plan_cache_hit_rate",
       ratio(static_cast<double>(traced.cache_hits),
             static_cast<double>(traced.cache_hits + traced.cache_misses)),
       "ratio", "plan-cache hits / lookups during the traced load"});
  r.metrics.push_back({"engine.session_create_us",
                       MedianOf(tq, [](const TracedQuery& q) {
                         return Us(q.t_created - q.t_prepared);
                       }),
                       "us", "median of " + nt});
  r.metrics.push_back(
      {"engine.wiring_us",
       MedianOf(tq, [](const TracedQuery& q) { return Us(q.phase(0)); }),
       "us", "median of " + nt});
  r.metrics.push_back({"engine.teardown_ms",
                       MedianOf(tq, [](const TracedQuery& q) {
                         return Ms(q.t_end - q.t_created - q.phase(0) -
                                   q.phase(1) - q.phase(2));
                       }),
                       "ms", "Run wall minus wiring/run/drain phases"});
  r.metrics.push_back({"engine.client_scaling", scaling, "ratio",
                       wl.clients > 1 ? "qps with " +
                                            std::to_string(wl.clients) +
                                            " clients / qps with 1"
                                      : "single-client workload"});
  r.metrics.push_back({"msg.physical_per_answer",
                       ratio(static_cast<double>(sum.physical),
                             static_cast<double>(sum.answers)),
                       "msg/answer", "exact counts"});
  r.metrics.push_back({"msg.logical_per_answer",
                       ratio(static_cast<double>(sum.logical),
                             static_cast<double>(sum.answers)),
                       "msg/answer", "exact counts"});
  r.metrics.push_back(
      {"msg.dispatch_ms", MedianOf(tq, [workers](const TracedQuery& q) {
         return Ms(q.phase(1)) - Ms(q.handle_ns) / workers;
       }),
       "ms", "run phase minus summed handle time per worker"});
  r.metrics.push_back({"msg.rows_per_segment",
                       ratio(static_cast<double>(sum.answer_rows),
                             static_cast<double>(sum.answer_msgs)),
                       "rows/msg",
                       "answer rows per answer message (bare tuple = 1)"});
  r.metrics.push_back({"msg.worker_busy_share",
                       ratio(static_cast<double>(handle),
                             static_cast<double>(run) * workers),
                       "ratio", "summed handle time / (run phase x workers)"});
  for (int role = 0; role < BenchObserver::kRoles; ++role) {
    r.metrics.push_back(
        {std::string("engine.node.") + kRoleNames[role] + "_ms",
         MedianOf(tq, [role](const TracedQuery& q) {
           return Ms(q.role_ns[role]);
         }),
         "ms", "per query, median of " + nt});
  }
  r.metrics.push_back({"engine.node.fires",
                       MedianOf(tq, [](const TracedQuery& q) {
                         return static_cast<double>(q.fires());
                       }),
                       "count", "per query, median of " + nt});
  r.metrics.push_back({"engine.node.rows_in_per_fire",
                       ratio(static_cast<double>(tuples_in),
                             static_cast<double>(fires)),
                       "rows/fire", ""});
  r.metrics.push_back({"engine.node.dedup_ratio",
                       ratio(static_cast<double>(dedup_hits),
                             static_cast<double>(tuples_in)),
                       "ratio", "dedup hits / tuples in"});
  r.metrics.push_back({"engine.termination.waves",
                       MedianOf(per_query, [](const Ledger& l) {
                         return static_cast<double>(l.waves);
                       }),
                       "count", "per query, median"});
  r.metrics.push_back({"engine.termination.msg_share",
                       ratio(static_cast<double>(sum.protocol),
                             static_cast<double>(sum.physical)),
                       "ratio", "protocol / physical messages"});
  r.metrics.push_back({"obs.trace_overhead", ratio(traced_p50, plain_p50),
                       "ratio", "traced / untraced latency p50"});
  r.metrics.push_back({"obs.unattributed_share",
                       1.0 - ratio(static_cast<double>(attributed),
                                   static_cast<double>(wall)),
                       "ratio",
                       "1 - (prepare+create_session+wiring+run_phase+drain) "
                       "/ wall"});
  r.metrics.push_back({"baseline.seminaive_ms", seminaive, "ms",
                       "median of 3 SemiNaiveBottomUp runs"});
  r.metrics.push_back({"baseline.engine_ratio", ratio(plain_p50, seminaive),
                       "ratio", "untraced latency p50 / seminaive_ms"});
  r.metrics.push_back({"ledger.logical_msgs",
                       MedianOf(per_query, [](const Ledger& l) {
                         return static_cast<double>(l.logical);
                       }),
                       "count", "per query, median"});
  r.metrics.push_back({"ledger.physical_msgs",
                       MedianOf(per_query, [](const Ledger& l) {
                         return static_cast<double>(l.physical);
                       }),
                       "count", "per query, median"});
  r.metrics.push_back({"ledger.protocol_msgs",
                       MedianOf(per_query, [](const Ledger& l) {
                         return static_cast<double>(l.protocol);
                       }),
                       "count", "per query, median"});
  r.samples_json = "{\"untraced\": " + std::to_string(plain.outcomes.size()) +
                   ", \"single_client\": " +
                   std::to_string(single.outcomes.size()) +
                   ", \"traced\": " + nt + "}";
  if (!args.spans.empty() && !WriteSpans(args.spans, wl, args.seed, tq)) {
    r.Fail("cannot write spans to " + args.spans);
  }
}

bool WriteResult(const Args& args, const Workload& wl, const Report& r) {
  // The exact ledger of a single-plan deterministic workload.
  std::string ledger_json = "null";
  if (wl.scheduler == SchedulerKind::kDeterministic &&
      wl.constants.size() == 1 && !r.ledgers.empty()) {
    ledger_json = LedgerJson(r.ledgers.begin()->second);
  }
  std::ofstream out(args.out, std::ios::trunc);
  out << "{\n  \"workload\": " << JsonString(wl.name)
      << ",\n  \"seed\": " << args.seed
      << ",\n  \"seconds\": " << JsonNumber(args.seconds)
      << ",\n  \"trace\": " << args.trace
      << ",\n  \"params\": " << wl.params_json
      << ",\n  \"attempted\": " << r.attempted
      << ",\n  \"failed\": " << r.failed
      << ",\n  \"samples\": " << r.samples_json
      << ",\n  \"ledger\": " << ledger_json << ",\n  \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.errors[i]);
  }
  out << "],\n  \"metrics\": {\n";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << "    " << JsonString(m.name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
        << ", \"note\": " << JsonString(m.note) << "}"
        << (i + 1 == r.metrics.size() ? "\n" : ",\n");
  }
  out << "  }\n}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: mpqe_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <file> [--spans <file>]\n";
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::cerr << "mpqe_e2e: unknown workload " << args.workload << "\n";
    return 2;
  }
  // Spawned first, while this process has no threads yet.
  const double footprint_mb =
      args.trace == 0 && args.footprint == 0
          ? FootprintMedianMb(argv[0], args)
          : 0;
  Bench bench(std::move(w), args.seed);
  const Workload& wl = bench.workload();
  if (args.footprint != 0) {
    Setup setup = bench.RunSetup();
    bench.RunLoad(setup, wl.clients, 1e9, false, /*salt=*/4, wl.rss_queries);
    std::ofstream out(args.out, std::ios::trunc);
    out << JsonNumber(PeakRssMb()) << "\n";
    return out ? 0 : 1;
  }
  Report report;
  if (args.trace == 0) {
    MeasureEndToEnd(bench, args, footprint_mb, report);
  } else {
    MeasureLayers(bench, args, report);
  }
  if (!WriteResult(args, wl, report)) {
    std::cerr << "mpqe_e2e: cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}
