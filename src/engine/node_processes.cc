#include "engine/node_processes.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/plan.h"

namespace mpqe {
namespace {

// An empty segment for the (`binding`, `arity`) stream.
std::shared_ptr<TupleSegment> NewSegment(const Tuple& binding, size_t arity) {
  auto segment = std::make_shared<TupleSegment>();
  segment->binding = binding;
  segment->arity = arity;
  return segment;
}

}  // namespace

void EngineCounters::Add(const EngineCounters& row) {
  stored_tuples += row.stored_tuples;
  duplicate_drops += row.duplicate_drops;
  contexts += row.contexts;
  max_node_relation = std::max(max_node_relation, row.max_node_relation);
  protocol_waves += row.protocol_waves;
  conclusions += row.conclusions;
  fires += row.fires;
}

std::string EngineCounters::ToString() const {
  return StrCat("{stored=", stored_tuples, " dups=", duplicate_drops,
                " contexts=", contexts, " max_rel=", max_node_relation,
                " waves=", protocol_waves, "}");
}

void NodeProcessBase::ConfigureTermination(
    Network* network, bool is_leader, ProcessId leader, ProcessId bfst_parent,
    std::vector<ProcessId> bfst_children) {
  termination_.Configure(this, network, process_id(), is_leader, leader,
                         bfst_parent, std::move(bfst_children));
}

NodeRole NodeProcessBase::Role() const {
  switch (gnode().kind) {
    case NodeKind::kGoal:
      return NodeRole::kGoal;
    case NodeKind::kRule:
      return NodeRole::kRule;
    case NodeKind::kEdbLeaf:
      return NodeRole::kEdbLeaf;
    case NodeKind::kCycleRef:
      return NodeRole::kCycleRef;
  }
  return NodeRole::kGoal;
}

void NodeProcessBase::OnMessage(const Message& message) {
  ++fires_;
  if (fault_park_armed_ && !IsProtocolMessage(message.kind)) {
    // Watchdog fault injection: wedge this node (and with it, its
    // SCC's progress) once, before handling its first work message.
    fault_park_armed_ = false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(shared_.fault_park_ms));
  }
  const ObserverList& obs = network().observers();
  if (obs.empty()) {
    Dispatch(message);
    FlushEmits();
    termination_.MaybeInitiate();
    return;
  }
  uint64_t drops_before = LocalDuplicateDrops();
  fire_tuples_out_ = 0;
  observing_fire_ = true;
  auto fire_start = std::chrono::steady_clock::now();
  Dispatch(message);
  observing_fire_ = false;
  FlushEmits();
  auto fire_end = std::chrono::steady_clock::now();
  NodeFireEvent event;
  event.node = node_id_;
  event.pid = process_id();
  event.role = Role();
  event.trigger = message.kind;
  if (message.kind == MessageKind::kTupleSegment) {
    event.tuples_in = static_cast<uint32_t>(message.segment().num_rows);
  }
  event.tuples_out = fire_tuples_out_;
  event.dedup_hits = LocalDuplicateDrops() - drops_before;
  event.handle_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(fire_end -
                                                           fire_start)
          .count());
  obs.NotifyNodeFire(event);
  termination_.MaybeInitiate();
}

void NodeProcessBase::Dispatch(const Message& message) {
  switch (message.kind) {
    case MessageKind::kEndRequest:
      termination_.OnEndRequest(message);
      break;
    case MessageKind::kEndNegative:
      termination_.OnEndNegative(message);
      break;
    case MessageKind::kEndConfirmed:
      termination_.OnEndConfirmed(message);
      break;
    case MessageKind::kSccConcluded:
      termination_.OnSccConcluded(message);
      break;
    case MessageKind::kWorkNotice:
      termination_.OnWorkNotice(message);
      break;
    default:
      termination_.OnWorkMessage();
      HandleWork(message);
      break;
  }
}

void NodeProcessBase::Emit(ProcessId to, Message m) {
  // *Every* emission is deferred to FlushEmits so an `end` emitted
  // after buffered rows cannot overtake them.
  outbox_.emplace_back(to, std::move(m));
}

void NodeProcessBase::EmitTuple(ProcessId to, const Tuple& binding,
                                TupleRef values, uint64_t lineage_id) {
  if (observing_fire_) ++fire_tuples_out_;
  auto append = [&](TupleSegment& segment) {
    segment.AppendRow(values);
    if (lineage_id != kNoLineage) segment.lineage.push_back(lineage_id);
  };
  for (size_t i = 0; i < open_segments_.size(); ++i) {
    OpenSegment& open = open_segments_[i];
    if (open.to != to || !(open.segment->binding == binding)) continue;
    append(*open.segment);
    if (open.segment->num_rows >= shared_.segment_max_rows) {
      // Seal at the size cap: the handle stays at its outbox position;
      // further rows on this stream open a new (later) segment, so
      // per-stream order is preserved.
      open.segment->CheckConsistent();
      open_segments_.erase(open_segments_.begin() +
                           static_cast<ptrdiff_t>(i));
    }
    return;
  }
  std::shared_ptr<TupleSegment> segment = NewSegment(binding, values.size());
  append(*segment);
  // A fresh segment that already meets the cap (cap 1) is sealed on
  // the spot; it never accepts a second row.
  if (segment->num_rows < shared_.segment_max_rows) {
    open_segments_.push_back({to, segment});
  }
  outbox_.emplace_back(to, MakeTupleSegment(std::move(segment)));
}

void NodeProcessBase::EmitSegment(ProcessId to,
                                  std::shared_ptr<const TupleSegment> segment) {
  // Every pre-built segment passes through here: the one place to
  // catch a values/lineage column that desynchronized from num_rows
  // before it reaches the wire.
  segment->CheckConsistent();
  if (observing_fire_) {
    fire_tuples_out_ += static_cast<uint32_t>(segment->num_rows);
  }
  Emit(to, MakeTupleSegment(std::move(segment)));
}

void NodeProcessBase::FlushEmits() {
  // Open segments are sealed simply by dropping the mutable handle.
  for (OpenSegment& open : open_segments_) open.segment->CheckConsistent();
  open_segments_.clear();
  for (auto& [to, m] : outbox_) Send(to, std::move(m));
  outbox_.clear();
}

void NodeProcessBase::AccumulateCounters(EngineCounters& out) const {
  out.protocol_waves += static_cast<uint64_t>(termination_.waves_started());
  out.conclusions += termination_.conclusions();
  out.fires += fires_;
}

void NodeProcessBase::PublishDerive(uint64_t id, DeriveKind kind,
                                    uint64_t source, const uint64_t* inputs,
                                    size_t num_inputs, TupleRef values) {
  const ObserverList& obs = network().observers();
  if (obs.empty()) return;
  DeriveEvent event;
  event.tuple_id = id;
  event.node = node_id_;
  event.role = Role();
  event.kind = kind;
  if (gnode().kind == NodeKind::kRule) {
    event.rule_index = static_cast<int32_t>(gnode().program_rule_index);
  }
  event.source_msg = source;
  event.inputs = inputs;
  event.num_inputs = num_inputs;
  event.values = values;
  obs.NotifyDerive(event);
}

void NodeProcessBase::PublishDeriveBatch(
    DeriveKind kind, const std::shared_ptr<const TupleSegment>& segment,
    const std::vector<uint64_t>& inputs) {
  const ObserverList& obs = network().observers();
  if (obs.empty()) return;
  DeriveBatchEvent event;
  event.node = node_id_;
  event.role = Role();
  event.kind = kind;
  event.segment = segment;
  event.inputs = inputs.data();
  obs.NotifyDeriveBatch(event);
}

namespace {

// Per-consumer stream state at a producer (§3.1: "A goal node with
// multiple out-edges needs to furnish answers in separate streams to
// each successor node ... different successors normally will have
// requested different subsets of the total temporary relation").
struct ConsumerStream {
  bool external = false;  // in a different SCC (or the sink)
  std::unordered_set<Tuple, TupleHash> bindings;
  std::unordered_set<Tuple, TupleHash> ended;
};

// ---------------------------------------------------------------------------
// GoalProcess
// ---------------------------------------------------------------------------

class GoalProcess : public NodeProcessBase {
 public:
  GoalProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        answers_(gnode().OutputPositions().size()) {
    out_positions_ = gnode().OutputPositions();
    d_positions_ = PositionsWithClass(gnode().adornment,
                                      BindingClass::kDynamic);
    for (size_t dp : d_positions_) {
      auto it = std::find(out_positions_.begin(), out_positions_.end(), dp);
      MPQE_CHECK(it != out_positions_.end());
      d_in_out_.push_back(static_cast<size_t>(it - out_positions_.begin()));
    }
    d_index_ = answers_.EnsureIndex(d_in_out_);
    if (shared_.lineage_ids != nullptr) {
      answers_.EnableLineage(shared_.lineage_ids);
    }
    for (NodeId rc : gnode().rule_children) {
      if (!SameScc(rc)) ++ending_children_;
    }
  }

  bool LocallyIdle() const override { return open_feeder_requests_ == 0; }

  bool HasOpenCustomerWork() const override {
    for (const auto& [pid, c] : consumers_) {
      if (c.external && c.ended.size() < c.bindings.size()) return true;
    }
    return false;
  }

  void SnapshotForConclusion() override { snapshot_ = requested_; }

  void ConcludeScc() override {
    // The component was quiescent with feeders ended throughout the
    // confirming waves: every binding in the snapshot is final.
    // Bindings requested after the snapshot belong to the next
    // protocol round.
    for (const Tuple& b : snapshot_) completed_.insert(b);
    for (auto& [pid, c] : consumers_) {
      if (!c.external) continue;
      for (const Tuple& b : c.bindings) {
        if (snapshot_.count(b) != 0 && c.ended.insert(b).second) {
          Emit(pid, MakeEnd(b));
        }
      }
    }
  }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.stored_tuples += answers_.size();
    out.duplicate_drops += duplicate_drops_;
    out.max_node_relation =
        std::max(out.max_node_relation, static_cast<uint64_t>(answers_.size()));
  }

 protected:
  uint64_t LocalDuplicateDrops() const override { return duplicate_drops_; }

  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        OnRelationRequest(m);
        break;
      case MessageKind::kTupleRequest:
        OnTupleRequest(m);
        break;
      case MessageKind::kTupleSegment:
        OnTupleSegment(m);
        break;
      case MessageKind::kEnd:
        OnEnd(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool IsExternal(ProcessId from) const {
    if (from == shared_.sink_pid) return true;
    return shared_.graph->node(static_cast<NodeId>(from)).scc_id !=
           gnode().scc_id;
  }

  void OnRelationRequest(const Message& m) {
    ConsumerStream& c = consumers_[m.from];
    c.external = IsExternal(m.from);
    if (!activated_) {
      activated_ = true;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeRelationRequest());
      }
    }
  }

  void OnTupleRequest(const Message& m) {
    ConsumerStream& c = consumers_[m.from];
    if (!c.bindings.insert(m.binding).second) return;  // duplicate request

    // Replay the stored stream restricted to this binding as shared
    // segments, split at the row cap.
    const std::vector<size_t>* hits = answers_.Probe(d_index_, m.binding);
    if (hits != nullptr) {
      auto replay = NewSegment(m.binding, out_positions_.size());
      for (size_t pos : *hits) {
        replay->AppendRow(answers_.tuple(pos));
        if (lineage_on()) replay->lineage.push_back(answers_.row_id(pos));
        if (replay->num_rows >= shared_.segment_max_rows) {
          EmitSegment(m.from, std::move(replay));
          replay = NewSegment(m.binding, out_positions_.size());
        }
      }
      if (!replay->empty()) EmitSegment(m.from, std::move(replay));
    }
    if (completed_.count(m.binding) != 0) {
      if (c.external && c.ended.insert(m.binding).second) {
        Emit(m.from, MakeEnd(m.binding));
      }
      return;
    }
    // Coalesced components may be entered at any member; tell the
    // leader there is work to conclude (footnote 4).
    if (c.external && !gnode().scc_is_trivial) {
      termination_.NotifyExternalWork();
    }
    if (requested_.insert(m.binding).second) {
      outstanding_[m.binding] = ending_children_;
      open_feeder_requests_ += ending_children_;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeTupleRequest(m.binding));
      }
      if (gnode().rule_children.empty()) {
        // No rule unified with this goal: the relation is empty/final.
        CompleteBinding(m.binding);
      }
    }
  }

  // Vectorized union: absorb the whole segment through the batch
  // insert kernel (one hashing pass, one capacity reservation, one
  // dedup probe per row), then hand each consumer one shared
  // out-segment of the genuinely new rows. Rows are grouped by their
  // d-projection (normally a single group — answers echo the request
  // binding at d positions — but constants or repeated head variables
  // can split a stream). In the common case — nothing deduped, every
  // row's d-projection equal to the stream binding, lineage off — the
  // inbound shared segment handle is forwarded wholesale: zero row
  // copies and zero per-row work beyond the kernel.
  void OnTupleSegment(const Message& m) {
    const TupleSegment& in = m.segment();
    if (in.num_rows == 0) return;
    const BatchInsertResult& ins = answers_.InsertSegment(in);
    duplicate_drops_ += in.num_rows - ins.num_inserted;
    if (ins.num_inserted == 0) return;

    if (!lineage_on() && ins.all_inserted() && AllRowsMatchBinding(in)) {
      for (auto& [pid, c] : consumers_) {
        if (c.bindings.count(in.binding) != 0) {
          EmitSegment(pid, m.segment_ptr());
        }
      }
      return;
    }

    // General path: group surviving rows by d-projection. A hash map
    // keyed on the projection replaces the old O(groups)-per-row
    // linear scan; `group_order` keeps first-appearance emission order
    // so the deterministic scheduler stays deterministic.
    struct OutGroup {
      std::shared_ptr<TupleSegment> segment;
      std::vector<uint64_t> inputs;  // one per row (lineage only)
    };
    std::unordered_map<Tuple, OutGroup, TupleHash> groups;
    std::vector<OutGroup*> group_order;
    // Publishes one derive batch for the group and hands every
    // subscribed consumer the same segment object. Called at the size
    // cap and once at the end.
    auto flush_group = [&](OutGroup& group) {
      if (group.segment->empty()) return;
      group.segment->CheckConsistent();
      if (lineage_on()) {
        PublishDeriveBatch(DeriveKind::kUnion, group.segment, group.inputs);
      }
      for (auto& [pid, c] : consumers_) {
        if (c.bindings.count(group.segment->binding) != 0) {
          EmitSegment(pid, group.segment);
        }
      }
    };
    Tuple dproj(d_in_out_.size(), Value());
    for (size_t r = 0; r < in.num_rows; ++r) {
      if (!ins.inserted(r)) continue;
      TupleRef row = in.row(r);
      for (size_t i = 0; i < d_in_out_.size(); ++i) {
        dproj[i] = row[d_in_out_[i]];
      }
      auto [it, is_new] = groups.try_emplace(dproj);
      OutGroup& group = it->second;
      if (is_new) {
        group.segment = NewSegment(dproj, in.arity);
        group_order.push_back(&group);
      }
      group.segment->AppendRow(row);
      if (lineage_on()) {
        group.segment->lineage.push_back(answers_.row_id(ins.rows[r]));
        group.inputs.push_back(in.row_lineage(r));
      }
      if (group.segment->num_rows >= shared_.segment_max_rows) {
        flush_group(group);
        group.segment = NewSegment(dproj, in.arity);
        group.inputs.clear();
      }
    }
    for (OutGroup* group : group_order) flush_group(*group);
  }

  // Every row's d-projection equals the stream binding (the wholesale
  // forward precondition — one comparison pass over the block, far
  // cheaper than re-grouping).
  bool AllRowsMatchBinding(const TupleSegment& in) const {
    if (in.binding.size() != d_in_out_.size()) return false;
    for (size_t r = 0; r < in.num_rows; ++r) {
      TupleRef row = in.row(r);
      for (size_t i = 0; i < d_in_out_.size(); ++i) {
        if (row[d_in_out_[i]] != in.binding[i]) return false;
      }
    }
    return true;
  }

  void OnEnd(const Message& m) {
    auto it = outstanding_.find(m.binding);
    MPQE_CHECK(it != outstanding_.end())
        << "end for unknown binding at goal node " << node_id_;
    MPQE_CHECK(it->second > 0);
    --open_feeder_requests_;
    if (--it->second == 0 && gnode().scc_is_trivial) {
      CompleteBinding(m.binding);
    }
  }

  void CompleteBinding(const Tuple& b) {
    completed_.insert(b);
    for (auto& [pid, c] : consumers_) {
      if (c.external && c.bindings.count(b) != 0 && c.ended.insert(b).second) {
        Emit(pid, MakeEnd(b));
      }
    }
  }

  std::vector<size_t> out_positions_;
  std::vector<size_t> d_positions_;
  std::vector<size_t> d_in_out_;
  size_t d_index_ = 0;
  size_t ending_children_ = 0;

  bool activated_ = false;
  std::unordered_map<ProcessId, ConsumerStream> consumers_;
  std::unordered_set<Tuple, TupleHash> requested_;
  std::unordered_set<Tuple, TupleHash> snapshot_;
  std::unordered_set<Tuple, TupleHash> completed_;
  std::unordered_map<Tuple, size_t, TupleHash> outstanding_;
  Relation answers_;
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
};

// ---------------------------------------------------------------------------
// CycleRefProcess
// ---------------------------------------------------------------------------

class CycleRefProcess : public NodeProcessBase {
 public:
  CycleRefProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id) {
    MPQE_CHECK(gnode().cycle_source != kNoNode);
    MPQE_CHECK(SameScc(gnode().cycle_source))
        << "a cycle reference and its ancestor are in one strong component";
  }

 protected:
  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        if (!activated_) {
          activated_ = true;
          Emit(Pid(gnode().cycle_source), MakeRelationRequest());
        }
        break;
      case MessageKind::kTupleRequest:
        if (requested_.insert(m.binding).second) {
          Emit(Pid(gnode().cycle_source), MakeTupleRequest(m.binding));
        }
        break;
      case MessageKind::kTupleSegment:
        // The selection on the ancestor's relation already happened at
        // the ancestor (it streams only our subscribed bindings), and
        // forwarding derives nothing new: pass the shared handle on
        // with its lineage column — a refcount bump, zero row copies.
        EmitSegment(Pid(gnode().parent), m.segment_ptr());
        break;
      case MessageKind::kEnd:
        MPQE_CHECK(false)
            << "per-request end inside a strong component (cycle ref)";
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool activated_ = false;
  std::unordered_set<Tuple, TupleHash> requested_;
};

// ---------------------------------------------------------------------------
// EdbProcess
// ---------------------------------------------------------------------------

class EdbProcess : public NodeProcessBase {
 public:
  EdbProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id) {
    out_positions_ = gnode().OutputPositions();
    sent_scratch_ = Relation(out_positions_.size());
  }

  void OnStart() override {
    const std::string& name =
        shared_.graph->program().predicates().Name(gnode().atom.predicate);
    relation_ = shared_.db->GetRelation(name);
    MPQE_CHECK(relation_ != nullptr)
        << "EDB relation " << name << " missing (program not validated?)";

    EdbAccessPlan plan = ComputeEdbAccessPlan(gnode());
    key_positions_ = std::move(plan.key_positions);
    key_template_ = std::move(plan.key_template);
    key_d_slots_ = std::move(plan.key_d_slots);
    equalities_ = std::move(plan.equalities);
    if (!key_positions_.empty()) {
      // The index was pre-built at prepare time
      // (DatabaseSnapshot::EnsureIndexes over the plan's specs); when it
      // is missing — the plan was prepared while other sessions were
      // running — the leaf scans rather than mutating the shared
      // relation.
      has_index_ = relation_->FindIndex(key_positions_, &index_handle_);
    }
  }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.duplicate_drops += duplicate_drops_;
  }

 protected:
  uint64_t LocalDuplicateDrops() const override { return duplicate_drops_; }

  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        break;  // nothing to do: requests identify the consumer
      case MessageKind::kTupleRequest:
        Answer(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool Matches(TupleRef t) const {
    for (const auto& [a, b] : equalities_) {
      if (t[a] != t[b]) return false;
    }
    return true;
  }

  void Answer(const Message& m) {
    // Per-request dedup of projected rows through a reusable scratch
    // arena: Clear() keeps the arena/table capacity, and the projected
    // row is built in a reusable buffer — no per-row Tuple
    // materialization at all.
    sent_scratch_.Clear();
    // The whole answer set for this request is known within this one
    // handler, so rows go straight into one segment (EmitTuple's
    // open-segment lookup would be per-row overhead).
    auto segment = NewSegment(m.binding, out_positions_.size());
    auto emit = [&](size_t pos) {
      TupleRef t = relation_->tuple(pos);
      if (!Matches(t)) return;
      out_buf_.clear();
      for (size_t c : out_positions_) out_buf_.push_back(t[c]);
      if (!sent_scratch_.Insert(out_buf_)) {
        ++duplicate_drops_;
        return;
      }
      segment->AppendRow(out_buf_);
      // Base-fact provenance: the underlying row's id (assigned at
      // wiring when lineage is on).
      if (lineage_on()) segment->lineage.push_back(relation_->row_id(pos));
      if (segment->num_rows >= shared_.segment_max_rows) {
        EmitSegment(m.from, std::move(segment));
        segment = NewSegment(m.binding, out_positions_.size());
      }
    };
    Tuple key = key_template_;
    for (const auto& [key_slot, binding_ordinal] : key_d_slots_) {
      key[key_slot] = m.binding[binding_ordinal];
    }
    if (has_index_) {
      const std::vector<size_t>* hits = relation_->Probe(index_handle_, key);
      if (hits != nullptr) {
        for (size_t pos : *hits) emit(pos);
      }
    } else {
      // Scan, filtering on the key columns manually (index ablation or
      // a fully-free request).
      for (size_t pos = 0; pos < relation_->size(); ++pos) {
        TupleRef t = relation_->tuple(pos);
        bool match = true;
        for (size_t i = 0; i < key_positions_.size() && match; ++i) {
          match = t[key_positions_[i]] == key[i];
        }
        if (match) emit(pos);
      }
    }
    if (!segment->empty()) EmitSegment(m.from, std::move(segment));
    Emit(m.from, MakeEnd(m.binding));
  }

  const Relation* relation_ = nullptr;
  Relation sent_scratch_{0};  // per-request projected-row dedup
  Tuple out_buf_;             // reusable projection buffer
  std::vector<size_t> out_positions_;
  std::vector<size_t> key_positions_;
  Tuple key_template_;
  std::vector<std::pair<size_t, size_t>> key_d_slots_;
  std::vector<std::pair<size_t, size_t>> equalities_;
  size_t index_handle_ = 0;
  bool has_index_ = false;
  uint64_t duplicate_drops_ = 0;
};

// ---------------------------------------------------------------------------
// RuleProcess
// ---------------------------------------------------------------------------

// Incremental multiway join driven by the rule's information passing
// strategy. Stage k holds the partial join of the head bindings with
// the first k subgoals (in sips order); a context is the tuple of
// values of all variables bound after stage k. Arriving subgoal tuples
// extend every waiting context; new contexts issue tuple requests to
// the next subgoal. Duplicate contexts and duplicate child tuples are
// dropped, which is what lets recursive cycles reach a fixpoint. Only
// the intermediate stages 0..n-1 are stored: a join that completes
// stage n writes its head row straight into the head relation, which
// is the final-stage dedup (JoinFinal).
class RuleProcess : public NodeProcessBase {
 public:
  RuleProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        head_answers_(gnode().OutputPositions().size()) {
    if (shared_.lineage_ids != nullptr) {
      head_answers_.EnableLineage(shared_.lineage_ids);
    }
    BuildPlan();
  }

  bool LocallyIdle() const override { return open_feeder_requests_ == 0; }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.stored_tuples += head_answers_.size();
    uint64_t ctx = full_contexts_;
    for (const auto& s : contexts_) ctx += s.size();
    out.contexts += ctx;
    out.duplicate_drops += duplicate_drops_;
    out.max_node_relation = std::max(
        out.max_node_relation, static_cast<uint64_t>(head_answers_.size()));
  }

 protected:
  uint64_t LocalDuplicateDrops() const override { return duplicate_drops_; }

  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        if (!activated_) {
          activated_ = true;
          for (NodeId c : gnode().subgoal_children) {
            Emit(Pid(c), MakeRelationRequest());
          }
        }
        break;
      case MessageKind::kTupleRequest:
        OnHeadRequest(m);
        break;
      case MessageKind::kTupleSegment:
        OnChildSegment(m);
        break;
      case MessageKind::kEnd:
        OnChildEnd(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  struct ChildPlan {
    size_t body_index = 0;
    ProcessId pid = kNoProcess;
    bool expects_end = false;  // child is outside this node's SCC
    // Context slots supplying the child's d-position values (in the
    // child's d-position order).
    std::vector<size_t> binding_slots;
    // (child output ordinal -> new context slot) for the child's
    // newly bound (class f) variables.
    std::vector<std::pair<size_t, size_t>> extensions;
    // (child output ordinal -> existing context slot) join checks for
    // variables already bound before this stage but not passed as d
    // bindings (e.g. under the no-sips strategy the whole relation
    // arrives and the equi-join happens here).
    std::vector<std::pair<size_t, size_t>> checks;
    // Arity of the child's answer tuples (its output positions).
    size_t answer_arity = 0;
  };

  struct ChildReq {
    explicit ChildReq(size_t arity) : answers(arity) {}
    bool ended = false;
    // Arrived child tuples in one flat arena whose open-addressing
    // table is the dedup set — one hash + probe per row, no per-row
    // Tuple materialization for duplicates, and whole segments land
    // through the batch insert kernel.
    Relation answers;
    // Lineage ids parallel to `answers` rows (filled only when lineage
    // tracking is on; message ids, not arena row ids).
    std::vector<uint64_t> answer_ids;
    // Head bindings whose completion awaits this request's end.
    std::unordered_set<Tuple, TupleHash> dependents;
  };

  /// The request state for `binding` on `stage`, created with the
  /// stage child's answer arity on first sight.
  ChildReq& Req(size_t stage, const Tuple& binding) {
    auto it = child_reqs_[stage].find(binding);
    if (it == child_reqs_[stage].end()) {
      it = child_reqs_[stage]
               .try_emplace(binding, children_[stage - 1].answer_arity)
               .first;
    }
    return it->second;
  }

  void BuildPlan() {
    const Rule& rule = gnode().rule;
    const SipsResult& sips = gnode().sips;
    const Adornment& head_adornment = gnode().adornment;
    size_t n = rule.body.size();
    MPQE_CHECK(sips.order.size() == n);

    // Stage 0: head d variables, in head d-position order.
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (head_adornment[i] != BindingClass::kDynamic) continue;
      const Term& t = rule.head.args[i];
      MPQE_CHECK(t.is_variable()) << "class d on a constant argument";
      auto [it, inserted] = var_slot_.emplace(t.var(), var_slot_.size());
      head_binding_slots_.push_back(it->second);
    }
    stage_width_.push_back(var_slot_.size());

    // Stages 1..n: one per subgoal in sips order.
    children_.resize(n);
    for (size_t k = 1; k <= n; ++k) {
      size_t body_index = sips.order[k - 1];
      const Atom& atom = rule.body[body_index];
      const Adornment& adornment = sips.subgoal_adornments[body_index];
      ChildPlan& plan = children_[k - 1];
      plan.body_index = body_index;
      NodeId child_node = gnode().subgoal_children[body_index];
      plan.pid = Pid(child_node);
      plan.expects_end = !SameScc(child_node);
      pid_to_stage_[plan.pid] = k;

      // d-position binding sources.
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (adornment[i] != BindingClass::kDynamic) continue;
        auto it = var_slot_.find(atom.args[i].var());
        MPQE_CHECK(it != var_slot_.end())
            << "d argument not bound by an earlier stage";
        plan.binding_slots.push_back(it->second);
      }
      // Extensions and join checks from the child's output (non-e)
      // positions.
      const GraphNode& child = shared_.graph->node(child_node);
      std::vector<size_t> out_positions = child.OutputPositions();
      plan.answer_arity = out_positions.size();
      std::unordered_set<VariableId> seen_here;
      for (size_t j = 0; j < out_positions.size(); ++j) {
        const Term& t = atom.args[out_positions[j]];
        if (!t.is_variable()) continue;
        auto [it, inserted] = var_slot_.emplace(t.var(), var_slot_.size());
        if (inserted) {
          plan.extensions.emplace_back(j, it->second);
          seen_here.insert(t.var());
        } else if (adornment[out_positions[j]] != BindingClass::kDynamic &&
                   seen_here.count(t.var()) == 0) {
          // Bound earlier but not furnished as a d binding: the value
          // comes back in the answer and must join-match the context.
          // (d positions echo the request binding; repeated in-atom
          // variables are equal by the producer's construction.)
          plan.checks.emplace_back(j, it->second);
        }
      }
      stage_width_.push_back(var_slot_.size());
    }

    // Head output plan: where the final-stage join reads each non-e
    // head position — a constant, a slot of the waiting stage-(n-1)
    // context, or an answer ordinal of the last subgoal (for the
    // variables that subgoal binds).
    const size_t waiting_width = stage_width_[n == 0 ? 0 : n - 1];
    for (size_t pos : gnode().OutputPositions()) {
      const Term& t = rule.head.args[pos];
      if (t.is_constant()) {
        head_out_.push_back({HeadOut::kConstant, 0, t.constant()});
        continue;
      }
      auto it = var_slot_.find(t.var());
      MPQE_CHECK(it != var_slot_.end())
          << "unsafe head variable escaped validation";
      if (it->second < waiting_width) {
        head_out_.push_back({HeadOut::kContext, it->second, Value()});
        continue;
      }
      const auto& extensions = children_.back().extensions;
      auto ext = std::find_if(
          extensions.begin(), extensions.end(),
          [&](const auto& e) { return e.second == it->second; });
      MPQE_CHECK(ext != extensions.end());
      head_out_.push_back({HeadOut::kChild, ext->first, Value()});
    }
    head_row_.resize(head_out_.size());
    head_binding_.resize(head_binding_slots_.size());

    contexts_.resize(n);
    waiting_.resize(n);
    child_reqs_.resize(n + 1);
    ctx_sources_.resize(n);
  }

  std::optional<Tuple> BuildStage0(const Tuple& binding) const {
    Tuple ctx(stage_width_[0], Value());
    std::vector<bool> set(stage_width_[0], false);
    MPQE_CHECK(binding.size() == head_binding_slots_.size());
    for (size_t i = 0; i < binding.size(); ++i) {
      size_t slot = head_binding_slots_[i];
      if (set[slot] && ctx[slot] != binding[i]) {
        return std::nullopt;  // repeated head variable, clashing values
      }
      ctx[slot] = binding[i];
      set[slot] = true;
    }
    return ctx;
  }

  Tuple HeadBindingOf(const Tuple& ctx) const {
    Tuple b;
    b.reserve(head_binding_slots_.size());
    for (size_t slot : head_binding_slots_) b.push_back(ctx[slot]);
    return b;
  }

  // Whether `values`, an answer of stage `stage`'s child, agrees with
  // context `ctx` of stage `stage` - 1 on the stage's join checks.
  bool PassesChecks(size_t stage, const Tuple& ctx, TupleRef values) const {
    for (const auto& [ordinal, slot] : children_[stage - 1].checks) {
      if (ctx[slot] != values[ordinal]) return false;
    }
    return true;
  }

  // The intermediate-stage join: context `ctx` of stage `stage` - 1
  // extended by one answer of that stage's child, or nullopt when a
  // join check fails.
  std::optional<Tuple> Extend(const Tuple& ctx, size_t stage,
                              TupleRef values) const {
    if (!PassesChecks(stage, ctx, values)) return std::nullopt;
    const ChildPlan& plan = children_[stage - 1];
    Tuple out(stage_width_[stage], Value());
    std::copy(ctx.begin(), ctx.end(), out.begin());
    for (const auto& [ordinal, slot] : plan.extensions) {
      out[slot] = values[ordinal];
    }
    return out;
  }

  void OnHeadRequest(const Message& m) {
    if (!head_seen_.insert(m.binding).second) return;
    head_outstanding_.emplace(m.binding, 0);
    dirty_.push_back(m.binding);
    std::optional<Tuple> ctx0 = BuildStage0(m.binding);
    if (ctx0.has_value()) {
      if (children_.empty()) {
        // A bodiless rule: the stage-0 context is already the full join.
        JoinFinal(*ctx0, TupleRef(), kNoLineage);
      } else {
        AddContext(0, *std::move(ctx0), {});
      }
    }
    FlushEnds();
  }

  // Vectorized arrival: the whole segment dedups against the request's
  // answer arena in one batch pass (one hashing sweep over the
  // contiguous block, capacity reserved once, one probe per row — no
  // per-row Tuple copies for duplicates), then the waiter-extension
  // loop runs over survivors only, reading rows in place from the
  // segment. (The waiter/request references stay valid across
  // AddContext: the recursion only touches per-stage maps at deeper
  // stages — see the note in AddContext — so this stage's arena and
  // batch result are never mutated mid-loop.)
  void OnChildSegment(const Message& m) {
    const TupleSegment& segment = m.segment();
    size_t stage = pid_to_stage_.at(m.from);
    ChildReq& cr = Req(stage, m.binding);
    std::vector<Tuple>& waiters = waiting_[stage - 1][m.binding];
    const BatchInsertResult& ins = cr.answers.InsertSegment(segment);
    duplicate_drops_ += segment.num_rows - ins.num_inserted;
    if (ins.num_inserted != 0) {
      if (lineage_on()) {
        for (size_t r = 0; r < segment.num_rows; ++r) {
          if (ins.inserted(r)) {
            cr.answer_ids.push_back(segment.row_lineage(r));
          }
        }
      }
      for (size_t r = 0; r < segment.num_rows; ++r) {
        if (!ins.inserted(r)) continue;
        uint64_t row_id = segment.row_lineage(r);
        trigger_lineage_ = row_id;
        ExtendWaiters(waiters, stage, segment.row(r), row_id);
      }
      trigger_lineage_ = kNoLineage;
    }
    FlushEnds();
  }

  /// Joins one child answer with every context waiting on this
  /// (stage, binding) stream.
  void ExtendWaiters(const std::vector<Tuple>& waiters, size_t stage,
                     TupleRef values, uint64_t child_id) {
    for (size_t i = 0; i < waiters.size(); ++i) {
      Join(stage, waiters[i], values, child_id);
    }
  }

  /// Joins context `ctx` of stage `stage` - 1 with `values`, one answer
  /// (lineage id `child_id`) of that stage's child. Both arrival orders
  /// land here: a child answer meeting the waiting contexts
  /// (ExtendWaiters) and a new context meeting the answers already
  /// received (AddContext).
  void Join(size_t stage, const Tuple& ctx, TupleRef values,
            uint64_t child_id) {
    if (stage == children_.size()) {
      JoinFinal(ctx, values, child_id);
      return;
    }
    std::optional<Tuple> extended = Extend(ctx, stage, values);
    if (extended.has_value()) {
      AddContext(stage, *std::move(extended),
                 SourcesPlus(stage - 1, ctx, child_id));
    }
  }

  void OnChildEnd(const Message& m) {
    size_t stage = pid_to_stage_.at(m.from);
    auto it = child_reqs_[stage].find(m.binding);
    MPQE_CHECK(it != child_reqs_[stage].end());
    ChildReq& cr = it->second;
    MPQE_CHECK(!cr.ended) << "double end from child";
    cr.ended = true;
    --open_feeder_requests_;
    for (const Tuple& hb : cr.dependents) {
      auto oit = head_outstanding_.find(hb);
      MPQE_CHECK(oit != head_outstanding_.end() && oit->second > 0);
      --oit->second;
      dirty_.push_back(hb);
    }
    cr.dependents.clear();
    FlushEnds();
  }

  // The input ids of context `ctx` at stage `k`, extended by one more
  // child tuple id — the ordered (sips-order) input list of the
  // resulting stage-k+1 context. Empty when lineage is off.
  std::vector<uint64_t> SourcesPlus(size_t k, const Tuple& ctx,
                                    uint64_t child_id) const {
    if (!lineage_on()) return {};
    std::vector<uint64_t> srcs = ctx_sources_[k].at(ctx);
    srcs.push_back(child_id);
    return srcs;
  }

  /// Stores a new context of intermediate stage `k` < n, requests the
  /// next subgoal's answers for it, and joins it with the answers that
  /// request has already received.
  void AddContext(size_t k, Tuple ctx, std::vector<uint64_t> srcs) {
    if (!contexts_[k].insert(ctx).second) {
      // First derivation wins for contexts too: an alternative way of
      // reaching the same partial join keeps the original sources.
      ++duplicate_drops_;
      return;
    }
    if (lineage_on()) ctx_sources_[k][ctx] = std::move(srcs);
    size_t stage = k + 1;
    const ChildPlan& plan = children_[k];
    Tuple nb;
    nb.reserve(plan.binding_slots.size());
    for (size_t slot : plan.binding_slots) nb.push_back(ctx[slot]);

    Tuple hb = HeadBindingOf(ctx);
    waiting_[k][nb].push_back(ctx);

    auto [it, is_new] =
        child_reqs_[stage].try_emplace(nb, children_[k].answer_arity);
    ChildReq& cr = it->second;
    if (is_new) {
      Emit(plan.pid, MakeTupleRequest(nb));
      if (plan.expects_end) {
        ++open_feeder_requests_;
        cr.dependents.insert(hb);
        ++head_outstanding_[hb];
        dirty_.push_back(hb);
      }
    } else if (!cr.ended && plan.expects_end &&
               cr.dependents.insert(hb).second) {
      ++head_outstanding_[hb];
      dirty_.push_back(hb);
    }
    // Join with already-received answers for this request. (`cr` stays
    // valid across the recursion: AddContext(stage, ...) only touches
    // per-stage maps at indexes > k, so the arena never grows under
    // this loop and tuple(i) views stay stable.)
    for (size_t i = 0; i < cr.answers.size(); ++i) {
      Join(stage, ctx, cr.answers.tuple(i),
           lineage_on() ? cr.answer_ids[i] : kNoLineage);
    }
  }

  /// The final-stage join: waiting stage-(n-1) context `ctx` meets
  /// `values`, an answer (lineage id `child_id`) of the last subgoal
  /// (for a bodiless rule, `ctx` is the stage-0 context and `values`
  /// is empty). The full context is never built or stored: the head
  /// relation is the final-stage dedup. Full contexts are unique anyway
  /// — `ctx` is a prefix of the full context, a request's answers are
  /// deduplicated, and every answer ordinal that does not extend the
  /// context is fixed by the binding or by a join check — so an
  /// alternative derivation can only repeat a head row. The head row,
  /// its binding and its lineage inputs are written in place into
  /// reused buffers.
  void JoinFinal(const Tuple& ctx, TupleRef values, uint64_t child_id) {
    const size_t n = children_.size();
    if (n > 0 && !PassesChecks(n, ctx, values)) return;
    ++full_contexts_;
    for (size_t i = 0; i < head_out_.size(); ++i) {
      const HeadOut& h = head_out_[i];
      switch (h.source) {
        case HeadOut::kConstant:
          head_row_[i] = h.constant;
          break;
        case HeadOut::kContext:
          head_row_[i] = ctx[h.index];
          break;
        case HeadOut::kChild:
          head_row_[i] = values[h.index];
          break;
      }
    }
    Relation::InsertResult ins = head_answers_.InsertRow(head_row_);
    if (!ins.inserted) {
      ++duplicate_drops_;
      return;
    }
    uint64_t id = head_answers_.row_id(ins.row);
    if (lineage_on()) {
      // The rule firing: the head row exists because the subgoal tuples
      // (sips order) — the waiting context's inputs, then the last
      // subgoal's answer — joined into a full context.
      head_inputs_.clear();
      if (n > 0) {
        const std::vector<uint64_t>& ctx_inputs = ctx_sources_[n - 1].at(ctx);
        head_inputs_.assign(ctx_inputs.begin(), ctx_inputs.end());
        head_inputs_.push_back(child_id);
      }
      PublishDerive(id, DeriveKind::kRuleFire, trigger_lineage_,
                    head_inputs_.data(), head_inputs_.size(), head_row_);
    }
    for (size_t i = 0; i < head_binding_slots_.size(); ++i) {
      head_binding_[i] = ctx[head_binding_slots_[i]];
    }
    EmitTuple(Pid(gnode().parent), head_binding_, head_row_, id);
  }

  void FlushEnds() {
    if (!gnode().scc_is_trivial) {
      dirty_.clear();
      return;
    }
    for (const Tuple& hb : dirty_) {
      auto it = head_outstanding_.find(hb);
      if (it == head_outstanding_.end() || it->second != 0) continue;
      if (head_ended_.insert(hb).second) {
        Emit(Pid(gnode().parent), MakeEnd(hb));
      }
    }
    dirty_.clear();
  }

  struct HeadOut {
    enum Source : uint8_t { kConstant, kContext, kChild };
    Source source = kConstant;
    size_t index = 0;  // context slot (kContext) or answer ordinal (kChild)
    Value constant;
  };

  // Static plan.
  std::unordered_map<VariableId, size_t> var_slot_;
  std::vector<size_t> stage_width_;
  std::vector<size_t> head_binding_slots_;
  std::vector<ChildPlan> children_;
  std::vector<HeadOut> head_out_;
  std::unordered_map<ProcessId, size_t> pid_to_stage_;

  // Dynamic state.
  bool activated_ = false;
  // Intermediate contexts of stages 0..n-1; full contexts are only
  // counted (JoinFinal).
  std::vector<std::unordered_set<Tuple, TupleHash>> contexts_;
  uint64_t full_contexts_ = 0;
  std::vector<std::unordered_map<Tuple, std::vector<Tuple>, TupleHash>>
      waiting_;
  std::vector<std::unordered_map<Tuple, ChildReq, TupleHash>> child_reqs_;
  // Per-stage ordered input ids of each live context (lineage only).
  std::vector<std::unordered_map<Tuple, std::vector<uint64_t>, TupleHash>>
      ctx_sources_;
  // The lineage id of the segment row whose absorption is firing the
  // rule, recorded as each resulting derivation's source message;
  // kNoLineage outside OnChildSegment (request-driven joins).
  uint64_t trigger_lineage_ = kNoLineage;
  std::unordered_set<Tuple, TupleHash> head_seen_;
  std::unordered_set<Tuple, TupleHash> head_ended_;
  std::unordered_map<Tuple, int64_t, TupleHash> head_outstanding_;
  std::vector<Tuple> dirty_;
  Relation head_answers_;
  // JoinFinal's reused per-derivation buffers.
  Tuple head_row_;
  Tuple head_binding_;
  std::vector<uint64_t> head_inputs_;
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
};

}  // namespace

std::unique_ptr<NodeProcessBase> MakeNodeProcess(const EngineShared& shared,
                                                 NodeId id) {
  switch (shared.graph->node(id).kind) {
    case NodeKind::kGoal:
      return std::make_unique<GoalProcess>(shared, id);
    case NodeKind::kRule:
      return std::make_unique<RuleProcess>(shared, id);
    case NodeKind::kEdbLeaf:
      return std::make_unique<EdbProcess>(shared, id);
    case NodeKind::kCycleRef:
      return std::make_unique<CycleRefProcess>(shared, id);
  }
  MPQE_CHECK(false);
  return nullptr;
}

void SinkProcess::OnStart() {
  Send(root_pid_, MakeRelationRequest());
  Send(root_pid_, MakeTupleRequest(Tuple{}));
}

void SinkProcess::OnMessage(const Message& message) {
  switch (message.kind) {
    case MessageKind::kTupleSegment:
      answers_.InsertSegment(message.segment());
      break;
    case MessageKind::kEnd:
      done_ = true;
      network().RequestStop();
      break;
    default:
      MPQE_CHECK(false) << "unexpected " << message.ToString();
  }
}

}  // namespace mpqe
