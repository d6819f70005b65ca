// E12 — micro-costs of the substrates: message delivery throughput of
// the simulated network (per scheduler), relation insert/probe, and
// the join/semijoin kernels. These put the end-to-end numbers in
// context ("communication is expensive" is a model assumption; here
// it is a few hundred nanoseconds per hop).

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "msg/network.h"
#include "obs/flight_recorder.h"
#include "obs/lineage.h"
#include "obs/profiler.h"
#include "relational/operators.h"

namespace mpqe {
namespace {

// A payload-free hop message: the hop counter rides in the binding
// (as in the BM_SegmentHop* benches below).
Message Hop(int64_t hops) { return MakeTupleRequest({Value::Int(hops)}); }

// Ping-pong process: forwards a hop-counting message to a peer.
class PingPong : public Process {
 public:
  explicit PingPong(ProcessId peer) : peer_(peer) {}
  void OnMessage(const Message& m) override {
    int64_t hops = m.binding[0].payload();
    if (hops > 0) Send(peer_, Hop(hops - 1));
  }

 private:
  ProcessId peer_;
};

void BM_MessageHopDeterministic(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<PingPong>(1));
    net.AddProcess(std::make_unique<PingPong>(0));
    net.Start();
    net.Send(kNoProcess, 0, Hop(kHops));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopDeterministic);

void BM_MessageHopThreaded(benchmark::State& state) {
  const int64_t kHops = 10000;
  int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<PingPong>(1));
    net.AddProcess(std::make_unique<PingPong>(0));
    net.Start();
    net.Send(kNoProcess, 0, Hop(kHops));
    auto run = net.RunThreaded(workers);
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopThreaded)->Arg(1)->Arg(4);

// The profiler-overhead guard: same ping-pong as
// BM_MessageHopDeterministic, but with a ProfilingObserver attached
// (graph-less — pure observer cost). Compare against the profiler-off
// run above; the off-path must stay unchanged (the zero-observer fast
// path) while the on-path's per-hop cost is the tracked overhead in
// BENCH_obs.json.
void BM_MessageHopProfiled(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    Network net;
    ProfilingObserver profiler;
    net.AddProcess(std::make_unique<PingPong>(1));
    net.AddProcess(std::make_unique<PingPong>(0));
    net.AddObserver(&profiler);
    net.Start();
    net.Send(kNoProcess, 0, Hop(kHops));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
    ProfileReport report = profiler.Finalize();
    MPQE_CHECK(report.total_msgs_delivered ==
               static_cast<uint64_t>(kHops) + 1);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopProfiled);

// The per-tuple wire's answer message: a 1-row segment whose binding
// carries the hop counter and whose row is the hop's tuple, with the
// producer's lineage id in the lineage column (none on the seed).
Message OneRowSegment(int64_t hops, uint64_t lineage_id) {
  auto segment = std::make_shared<TupleSegment>();
  segment->binding = Tuple{Value::Int(hops)};
  segment->arity = 1;
  segment->AppendRow(segment->binding);
  if (lineage_id != kNoLineage) segment->lineage.push_back(lineage_id);
  return MakeTupleSegment(std::move(segment));
}

// Ping-pong over 1-row segments with full lineage recording: each
// hop's tuple is inserted into a lineage-enabled relation, gets a
// fresh id, and publishes a derivation record chaining to the previous
// hop — the engine's per-derivation sequence at segment cap 1
// (InsertRow + OnDerive + lineage column). BM_MessageHopDeterministic
// is the payload-free lineage-off hop; this run's per-hop cost is the
// informational per-tuple lineage-on figure in BENCH_obs.json.
class PingPongLineage : public Process {
 public:
  PingPongLineage(ProcessId peer, TupleIdAllocator* ids,
                  const ObserverList* observers)
      : peer_(peer), observers_(observers), seen_(1) {
    seen_.EnableLineage(ids);
  }

  void OnMessage(const Message& m) override {
    const TupleSegment& in = m.segment();
    int64_t hops = m.binding[0].payload();
    Relation::InsertResult ins = seen_.InsertRow(in.row(0));
    MPQE_CHECK(ins.inserted);
    uint64_t id = seen_.row_id(ins.row);
    uint64_t input = in.row_lineage(0);
    DeriveEvent event;
    event.tuple_id = id;
    event.kind = DeriveKind::kUnion;
    event.source_msg = input;
    event.inputs = &input;
    event.num_inputs = input == kNoLineage ? 0 : 1;
    event.values = in.row(0);
    observers_->NotifyDerive(event);
    if (hops > 0) Send(peer_, OneRowSegment(hops - 1, id));
  }

 private:
  ProcessId peer_;
  const ObserverList* observers_;
  Relation seen_;
};

void BM_MessageHopLineage(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    Network net;
    LineageObserver lineage;
    net.AddObserver(&lineage);
    net.AddProcess(std::make_unique<PingPongLineage>(1, lineage.ids(),
                                                     &net.observers()));
    net.AddProcess(std::make_unique<PingPongLineage>(0, lineage.ids(),
                                                     &net.observers()));
    net.Start();
    net.Send(kNoProcess, 0, OneRowSegment(kHops, kNoLineage));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
    MPQE_CHECK(lineage.record_count() == static_cast<size_t>(kHops) + 1);
    LineageReport report = lineage.Finalize();
    MPQE_CHECK(report.max_depth == kHops);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopLineage);

// ---------------------------------------------------------------------------
// Columnar segment hops

constexpr size_t kSegmentRows = 128;

// Forwards the SAME shared 128-row segment back and forth: one
// envelope per hop carries kSegmentRows tuples with zero row copies
// (the hop counter rides in the message binding). Items = rows
// transported; compare per-item against BM_MessageHopDeterministic for
// the wire-level win of multi-row segments.
class SegmentForward : public Process {
 public:
  explicit SegmentForward(ProcessId peer) : peer_(peer) {}
  void OnMessage(const Message& m) override {
    int64_t hops = m.binding[0].payload();
    if (hops > 0) {
      Message out = MakeTupleSegment(m.segment_ptr());
      out.binding = Tuple{Value::Int(hops - 1)};
      Send(peer_, std::move(out));
    }
  }

 private:
  ProcessId peer_;
};

std::shared_ptr<TupleSegment> MakeSeedSegment(int64_t hops) {
  auto seed = std::make_shared<TupleSegment>();
  seed->binding = Tuple{Value::Int(hops)};
  seed->arity = 1;
  for (size_t i = 0; i < kSegmentRows; ++i) {
    seed->AppendRow(Tuple{Value::Int(static_cast<int64_t>(i))});
  }
  return seed;
}

void BM_SegmentHopDeterministic(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<SegmentForward>(1));
    net.AddProcess(std::make_unique<SegmentForward>(0));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopDeterministic);

// The engine's per-arriving-segment sequence without lineage: insert
// every row into a relation (duplicate elimination), build the next
// hop's segment columnar, forward it. This is the lineage-off baseline
// for the segmented overhead guard in BENCH_obs.json.
class SegmentDedupHop : public Process {
 public:
  SegmentDedupHop(ProcessId peer, TupleIdAllocator* ids,
                  const ObserverList* observers)
      : peer_(peer), observers_(observers), seen_(1) {
    if (ids != nullptr) seen_.EnableLineage(ids);
  }

  void OnMessage(const Message& m) override {
    const TupleSegment& in = m.segment();
    int64_t hops = m.binding[0].payload();
    bool lineage = seen_.lineage_enabled();
    auto out = std::make_shared<TupleSegment>();
    out->binding = Tuple{Value::Int(hops - 1)};
    out->arity = 1;
    out->values.reserve(in.num_rows);
    std::vector<uint64_t> inputs;
    if (lineage) {
      out->lineage.reserve(in.num_rows);
      inputs.reserve(in.num_rows);
    }
    for (size_t r = 0; r < in.num_rows; ++r) {
      // A fresh value per hop: every insert derives a new tuple, as in
      // a growing node relation.
      Tuple row{Value::Int(in.row(r)[0].payload() +
                           static_cast<int64_t>(kSegmentRows))};
      Relation::InsertResult ins = seen_.InsertRow(row);
      MPQE_CHECK(ins.inserted);
      out->AppendRow(row);
      if (lineage) {
        out->lineage.push_back(seen_.row_id(ins.row));
        inputs.push_back(in.row_lineage(r));
      }
    }
    if (lineage) {
      // One batched derive callback per absorbed segment — the
      // engine's vectorized lineage path.
      DeriveBatchEvent event;
      event.kind = DeriveKind::kUnion;
      event.segment = out;
      event.inputs = inputs.data();
      observers_->NotifyDeriveBatch(event);
    }
    if (hops > 0) Send(peer_, MakeTupleSegment(std::move(out)));
  }

 private:
  ProcessId peer_;
  const ObserverList* observers_;
  Relation seen_;
};

void BM_SegmentHopDedup(benchmark::State& state) {
  const int64_t kHops = 1000;
  for (auto _ : state) {
    Network net;
    net.AddProcess(
        std::make_unique<SegmentDedupHop>(1, nullptr, &net.observers()));
    net.AddProcess(
        std::make_unique<SegmentDedupHop>(0, nullptr, &net.observers()));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopDedup);

// As BM_SegmentHopDedup with full lineage recording: per row an id
// assignment and a lineage-column push, per segment ONE batched derive
// record (delta-encoded by the LineageObserver) instead of one
// callback per tuple. The tracked lineage-on overhead ratio in
// BENCH_obs.json is this against BM_SegmentHopDedup.
void BM_SegmentHopLineage(benchmark::State& state) {
  const int64_t kHops = 1000;
  for (auto _ : state) {
    Network net;
    LineageObserver lineage;
    net.AddObserver(&lineage);
    net.AddProcess(std::make_unique<SegmentDedupHop>(1, lineage.ids(),
                                                     &net.observers()));
    net.AddProcess(std::make_unique<SegmentDedupHop>(0, lineage.ids(),
                                                     &net.observers()));
    net.Start();
    // Seed rows draw real ids so every hop's inputs resolve.
    Relation seed_rel(1);
    seed_rel.EnableLineage(lineage.ids());
    auto seed = MakeSeedSegment(kHops);
    for (size_t i = 0; i < kSegmentRows; ++i) {
      Relation::InsertResult ins = seed_rel.InsertRow(seed->row(i));
      seed->lineage.push_back(seed_rel.row_id(ins.row));
    }
    net.Send(kNoProcess, 0, MakeTupleSegment(std::move(seed)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
    MPQE_CHECK(lineage.record_count() ==
               static_cast<size_t>(kHops + 1) * kSegmentRows);
    benchmark::DoNotOptimize(lineage);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopLineage);

// The flight-recorder-overhead guard: the same dedup hop as
// BM_SegmentHopDedup, but with a FlightSessionObserver attached — the
// exact always-on tap every engine session runs with when
// EngineOptions::flight_recorder is on (the default). Each event is a
// clock read plus a seqlock-published 40-byte record into a per-thread
// ring. bench_guard.py --flight asserts this stays within 1.05x of
// BM_SegmentHopDedup, keeping the black box cheap enough to never turn
// off. The recorder lives outside the timing loop like the engine's
// does (one recorder per Engine, not per session).
void BM_SegmentHopFlight(benchmark::State& state) {
  const int64_t kHops = 1000;
  FlightRecorder recorder;
  uint64_t query_id = 0;
  for (auto _ : state) {
    Network net;
    FlightSessionObserver observer(&recorder, ++query_id);
    net.AddObserver(&observer);
    net.AddProcess(
        std::make_unique<SegmentDedupHop>(1, nullptr, &net.observers()));
    net.AddProcess(
        std::make_unique<SegmentDedupHop>(0, nullptr, &net.observers()));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  MPQE_CHECK(recorder.recorded() > 0);
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopFlight);

// ---------------------------------------------------------------------------
// Vectorized segment kernels (PR 9): row-at-a-time vs. batch absorption
// and probing. Arg(0) = the pre-vectorization per-row path, Arg(1) =
// the batch kernels; items = rows/s. bench_guard.py --absorb enforces
// the Arg(1)/Arg(0) speedup floor recorded in BENCH_relational.json.

// The absorb workload models a goal node over a full query lifetime:
// the relation starts empty and absorbs a stream of fat segments
// (4096 rows, four times the default segment_max_rows cap: a stress
// size that keeps the recorded speedup floor comparable). The goal has a
// free head variable in its d-projection, so a segment's rows split
// across kAbsorbGroups distinct output bindings — the multi-group
// case whose O(groups)-per-row linear scan the vectorized path
// replaces with one hash-map lookup per surviving row. Every eighth
// segment is a wholesale re-derivation of an earlier one (the
// duplicate traffic §1.2's elimination exists for).
constexpr size_t kAbsorbSegmentRows = 4096;
constexpr size_t kAbsorbStreamSegments = 64;
constexpr int64_t kAbsorbGroups = 256;

std::shared_ptr<TupleSegment> MakeAbsorbSegment(int64_t first) {
  auto seg = std::make_shared<TupleSegment>();
  seg->arity = 2;
  seg->values.reserve(kAbsorbSegmentRows * 2);
  for (size_t r = 0; r < kAbsorbSegmentRows; ++r) {
    int64_t v = first + static_cast<int64_t>(r);
    // Column 0 is the d-projected head variable (kAbsorbGroups
    // distinct values interleaved); column 1 keeps the row globally
    // unique.
    seg->values.push_back(Value::Int(v % kAbsorbGroups));
    seg->values.push_back(Value::Int(v));
    ++seg->num_rows;
  }
  return seg;
}

// Goal-node absorption. Arg(0) is the row-at-a-time absorption the
// engine used to keep as an A/B arm (since deleted; this arm is its
// record) — one InsertRow per row, the per-row linear scan over open
// output groups, one AppendRow copy per survivor. Arg(1) mirrors
// GoalProcess::OnTupleSegment — one
// InsertSegment call per segment, then the grouping pass over the
// survivor bitmap with a hash map keyed on the d-projection. Both
// arms build and flush the same output segments, so the measured gap
// is exactly the batch-kernel + grouping difference.
void BM_SegmentAbsorb(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  std::vector<std::shared_ptr<TupleSegment>> stream;
  Rng rng(11);
  int64_t next = 0;
  size_t fresh_rows = 0;
  for (size_t s = 0; s < kAbsorbStreamSegments; ++s) {
    if (s % 8 == 7) {
      // Wholesale re-derivation of an earlier stream segment.
      stream.push_back(stream[rng.Below(s)]);
    } else {
      stream.push_back(MakeAbsorbSegment(next));
      next += static_cast<int64_t>(kAbsorbSegmentRows);
      fresh_rows += kAbsorbSegmentRows;
    }
  }
  const size_t stream_rows = kAbsorbStreamSegments * kAbsorbSegmentRows;

  struct OutGroup {
    std::shared_ptr<TupleSegment> segment;
  };
  for (auto _ : state) {
    Relation answers(2);
    size_t forwarded = 0;
    size_t drops = 0;
    Tuple dproj(1, Value());
    for (const auto& seg : stream) {
      if (batch) {
        const BatchInsertResult& ins = answers.InsertSegment(*seg);
        drops += seg->num_rows - ins.num_inserted;
        if (ins.num_inserted == 0) continue;
        std::unordered_map<Tuple, OutGroup, TupleHash> groups;
        std::vector<OutGroup*> group_order;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          if (!ins.inserted(r)) continue;
          TupleRef row = seg->row(r);
          dproj[0] = row[0];
          auto [it, is_new] = groups.try_emplace(dproj);
          OutGroup& group = it->second;
          if (is_new) {
            group.segment = std::make_shared<TupleSegment>();
            group.segment->binding = dproj;
            group.segment->arity = seg->arity;
            group_order.push_back(&group);
          }
          group.segment->AppendRow(row);
        }
        for (OutGroup* group : group_order) {
          group->segment->CheckConsistent();
          forwarded += group->segment->num_rows;
          benchmark::DoNotOptimize(group->segment);
        }
      } else {
        std::vector<OutGroup> groups;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          TupleRef row = seg->row(r);
          Relation::InsertResult ins = answers.InsertRow(row);
          if (!ins.inserted) {
            ++drops;
            continue;
          }
          dproj[0] = row[0];
          OutGroup* group = nullptr;
          for (OutGroup& g : groups) {
            if (g.segment->binding == dproj) {
              group = &g;
              break;
            }
          }
          if (group == nullptr) {
            OutGroup g;
            g.segment = std::make_shared<TupleSegment>();
            g.segment->binding = dproj;
            g.segment->arity = seg->arity;
            groups.push_back(std::move(g));
            group = &groups.back();
          }
          group->segment->AppendRow(row);
        }
        for (OutGroup& group : groups) {
          group.segment->CheckConsistent();
          forwarded += group.segment->num_rows;
          benchmark::DoNotOptimize(group.segment);
        }
      }
    }
    MPQE_CHECK(forwarded == fresh_rows);
    MPQE_CHECK(drops == stream_rows - fresh_rows);
    MPQE_CHECK(answers.size() == fresh_rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream_rows));
}
BENCHMARK(BM_SegmentAbsorb)->Arg(0)->Arg(1);

// The rule-node probe: dedup an inbound child-answer segment against
// the per-request answer set before the waiter-extension join. Arg(0)
// is the pre-vectorization RuleProcess idiom this PR replaced — copy
// each row into a scratch Tuple, re-hash it into a
// std::unordered_set<Tuple> (one node allocation per fresh row, a
// pointer-chasing probe per duplicate), and keep a parallel
// std::vector<Tuple> of accepted answers for later waiters. Arg(1) is
// the flat-arena batch kernel: one InsertSegment per segment, rows
// live in the arena, survivors read straight off the bitmap. Both
// arms hand every survivor to the same consumer loop.
void BM_SegmentJoin(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  constexpr size_t kJoinSegmentRows = 1024;
  constexpr size_t kJoinStreamSegments = 256;
  std::vector<std::shared_ptr<TupleSegment>> stream;
  Rng rng(17);
  int64_t next = 0;
  size_t fresh_rows = 0;
  for (size_t s = 0; s < kJoinStreamSegments; ++s) {
    if (s % 4 == 3) {
      // A re-derived child stream: the same answers arrive again via
      // another derivation path and must all dedup away.
      stream.push_back(stream[rng.Below(s)]);
    } else {
      auto seg = std::make_shared<TupleSegment>();
      seg->arity = 2;
      seg->values.reserve(kJoinSegmentRows * 2);
      for (size_t r = 0; r < kJoinSegmentRows; ++r) {
        seg->values.push_back(Value::Int(next));
        seg->values.push_back(Value::Int(next * 3));
        ++next;
        ++seg->num_rows;
      }
      stream.push_back(std::move(seg));
      fresh_rows += kJoinSegmentRows;
    }
  }
  const size_t stream_rows = kJoinStreamSegments * kJoinSegmentRows;

  uint64_t consumed = 0;
  for (auto _ : state) {
    size_t drops = 0;
    consumed = 0;
    if (batch) {
      Relation answers(2);
      for (const auto& seg : stream) {
        const BatchInsertResult& ins = answers.InsertSegment(*seg);
        drops += seg->num_rows - ins.num_inserted;
        if (ins.num_inserted == 0) continue;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          if (!ins.inserted(r)) continue;
          consumed += static_cast<uint64_t>(seg->row(r)[1].payload());
        }
      }
      MPQE_CHECK(answers.size() == fresh_rows);
    } else {
      std::vector<Tuple> answers;
      std::unordered_set<Tuple, TupleHash> answer_set;
      Tuple row_buf(2, Value());
      for (const auto& seg : stream) {
        for (size_t r = 0; r < seg->num_rows; ++r) {
          TupleRef row = seg->row(r);
          row_buf[0] = row[0];
          row_buf[1] = row[1];
          if (!answer_set.insert(row_buf).second) {
            ++drops;
            continue;
          }
          answers.push_back(row_buf);
          consumed += static_cast<uint64_t>(row[1].payload());
        }
      }
      MPQE_CHECK(answers.size() == fresh_rows);
    }
    MPQE_CHECK(drops == stream_rows - fresh_rows);
    benchmark::DoNotOptimize(consumed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream_rows));
}
BENCHMARK(BM_SegmentJoin)->Arg(0)->Arg(1);

void BM_RelationInsert(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    Relation r(2);
    for (int64_t i = 0; i < n; ++i) {
      r.Insert({Value::Int(i), Value::Int(i + 1)});
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Arg(100000);

void BM_IndexedProbe(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation r(2);
  for (int64_t i = 0; i < n; ++i) {
    r.Insert({Value::Int(i % (n / 10)), Value::Int(i)});
  }
  size_t idx = r.EnsureIndex({0});
  Rng rng(3);
  for (auto _ : state) {
    Tuple key{Value::Int(static_cast<int64_t>(rng.Below(
        static_cast<uint64_t>(n / 10))))};
    benchmark::DoNotOptimize(r.Probe(idx, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedProbe)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation left(2), right(2);
  Rng rng(5);
  for (int64_t i = 0; i < n; ++i) {
    left.Insert({Value::Int(i), Value::Int(static_cast<int64_t>(
                                    rng.Below(static_cast<uint64_t>(n))))});
    right.Insert({Value::Int(static_cast<int64_t>(
                      rng.Below(static_cast<uint64_t>(n)))),
                  Value::Int(i)});
  }
  size_t out = 0;
  for (auto _ : state) {
    Relation j = Join(left, right, {{1, 0}});
    out = j.size();
    benchmark::DoNotOptimize(j);
  }
  state.counters["output"] = static_cast<double>(out);
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SemiJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation left(2), right(1);
  for (int64_t i = 0; i < n; ++i) {
    left.Insert({Value::Int(i), Value::Int(i)});
    if (i % 3 == 0) right.Insert({Value::Int(i)});
  }
  for (auto _ : state) {
    Relation s = SemiJoin(left, right, {{0, 0}});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SemiJoin)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
