#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace mpqe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Minimal JSON string escaping for node labels (rule labels contain
// no quotes/backslashes today, but labels are user-predicate-derived).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// NodeProfile / ProfileReport
// ---------------------------------------------------------------------------

double NodeProfile::DupHitRate() const {
  uint64_t seen = tuples_in + dedup_hits;
  return seen == 0 ? 0.0
                   : static_cast<double>(dedup_hits) /
                         static_cast<double>(seen);
}

double NodeProfile::RowsPerSegmentOut() const {
  return segments_out == 0 ? 0.0
                           : static_cast<double>(segment_rows_out) /
                                 static_cast<double>(segments_out);
}

double NodeProfile::RowsPerSegmentIn() const {
  return segments_in == 0 ? 0.0
                          : static_cast<double>(segment_rows_in) /
                                static_cast<double>(segments_in);
}

double NodeProfile::BatchDedupHitRate() const {
  return batch_rows_in == 0 ? 0.0
                            : static_cast<double>(batch_dedup_hits) /
                                  static_cast<double>(batch_rows_in);
}

double NodeProfile::Selectivity() const {
  return tuples_in == 0 ? 0.0
                        : static_cast<double>(tuples_out) /
                              static_cast<double>(tuples_in);
}

double NodeProfile::DeviationFactor() const {
  if (est_log10_tuples == kNoEstimate) return 0.0;
  // The §4.3 estimate is per tuple request; scale by the observed
  // request count to compare against the whole-run output. max(·, 1)
  // keeps the ratio finite for empty results.
  double expected = std::pow(10.0, est_log10_tuples) *
                    static_cast<double>(std::max<uint64_t>(requests_in, 1));
  double actual = static_cast<double>(std::max<uint64_t>(tuples_out, 1));
  expected = std::max(expected, 1.0);
  return expected > actual ? expected / actual : actual / expected;
}

std::vector<int32_t> ProfileReport::DeviatingNodes(
    double deviation_factor) const {
  std::vector<int32_t> out;
  for (const NodeProfile& n : nodes) {
    if (n.est_log10_tuples == kNoEstimate) continue;
    if (n.DeviationFactor() > deviation_factor) out.push_back(n.node);
  }
  return out;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\n  \"schema\": \"mpqe-profile-v4\",\n";
  if (query_id != 0) out += StrCat("  \"query_id\": ", query_id, ",\n");
  out += "  \"totals\": {";
  out += StrCat("\"fires\": ", total_fires,
                ", \"tuples_in\": ", total_tuples_in,
                ", \"tuples_out\": ", total_tuples_out,
                ", \"dedup_hits\": ", total_dedup_hits,
                ", \"msgs_sent\": ", total_msgs_sent,
                ", \"msgs_delivered\": ", total_msgs_delivered,
                ", \"fire_ns\": ", total_fire_ns,
                ", \"queue_wait_ns\": ", total_queue_wait_ns, "},\n");
  out += "  \"phases\": {";
  bool first = true;
  for (size_t i = 0; i < phase_ns.size(); ++i) {
    if (phase_ns[i] == 0) continue;
    out += StrCat(first ? "" : ", ", "\"",
                  PhaseToString(static_cast<Phase>(i)), "_ns\": ",
                  phase_ns[i]);
    first = false;
  }
  out += "},\n  \"nodes\": [";
  first = true;
  for (const NodeProfile& n : nodes) {
    out += StrCat(first ? "\n" : ",\n", "    {\"id\": ", n.node,
                  ", \"role\": \"", NodeRoleToString(n.role), "\"",
                  ", \"label\": \"", JsonEscape(n.label), "\"",
                  ", \"scc\": ", n.scc_id, ", \"fires\": ", n.fires,
                  ", \"requests_in\": ", n.requests_in,
                  ", \"tuples_in\": ", n.tuples_in,
                  ", \"tuples_out\": ", n.tuples_out,
                  ", \"dedup_hits\": ", n.dedup_hits,
                  ", \"dup_hit_rate\": ", JsonDouble(n.DupHitRate()),
                  ", \"selectivity\": ", JsonDouble(n.Selectivity()),
                  ", \"msgs_in\": ", n.msgs_in, ", \"msgs_out\": ", n.msgs_out,
                  ", \"segments_in\": ", n.segments_in,
                  ", \"segments_out\": ", n.segments_out,
                  ", \"segment_rows_in\": ", n.segment_rows_in,
                  ", \"segment_rows_out\": ", n.segment_rows_out,
                  ", \"rows_per_segment_out\": ",
                  JsonDouble(n.RowsPerSegmentOut()),
                  ", \"rows_per_segment_in\": ",
                  JsonDouble(n.RowsPerSegmentIn()),
                  ", \"batch_rows_in\": ", n.batch_rows_in,
                  ", \"batch_dedup_hits\": ", n.batch_dedup_hits,
                  ", \"batch_dedup_hit_rate\": ",
                  JsonDouble(n.BatchDedupHitRate()),
                  ", \"fire_ns\": ", n.fire_ns,
                  ", \"queue_wait_ns\": ", n.queue_wait_ns);
    if (n.est_log10_tuples != kNoEstimate) {
      out += StrCat(", \"est_log10_tuples\": ",
                    JsonDouble(n.est_log10_tuples));
      if (n.est_total_cost != kNoEstimate) {
        out += StrCat(", \"est_total_cost\": ", JsonDouble(n.est_total_cost));
      }
      out += StrCat(", \"deviation_factor\": ",
                    JsonDouble(n.DeviationFactor()));
    }
    out += "}";
    first = false;
  }
  out += "\n  ],\n  \"sccs\": [";
  first = true;
  for (const SccProfile& s : sccs) {
    out += StrCat(first ? "\n" : ",\n", "    {\"id\": ", s.scc_id,
                  ", \"members\": [", StrJoin(s.members, ","),
                  "], \"leader\": ", s.leader,
                  ", \"tree_depth\": ", s.tree_depth, ", \"waves\": ", s.waves,
                  ", \"negative_answers\": ", s.negative_answers,
                  ", \"confirmed_answers\": ", s.confirmed_answers,
                  ", \"work_notices\": ", s.work_notices,
                  ", \"concluded\": ", s.concluded, "}");
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// ProfilingObserver
// ---------------------------------------------------------------------------

void ProfilingObserver::AttachGraph(const RuleGoalGraph* graph,
                                    const SymbolTable* symbols) {
  std::lock_guard<std::mutex> lock(mutex_);
  graph_ = graph;
  symbols_ = symbols;
}

ProfilingObserver::PidStats& ProfilingObserver::Stats(ProcessId pid) {
  size_t index = static_cast<size_t>(pid);
  if (by_pid_.size() <= index) by_pid_.resize(index + 1);
  return by_pid_[index];
}

void ProfilingObserver::OnSessionStart(const SessionStartEvent& event) {
  query_id_ = event.query_id;
}

void ProfilingObserver::OnSend(const SendEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_sends_;
  in_flight_sends_[{event.from, event.to}].push_back(NowNs());
  if (event.from >= 0) {
    PidStats& s = Stats(event.from);
    ++s.msgs_out;
    if (event.message->kind == MessageKind::kTupleSegment) {
      ++s.segments_out;
      s.segment_rows_out += event.message->segment().num_rows;
    }
  }
}

void ProfilingObserver::OnDeliver(const DeliverEvent& event) {
  uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_delivers_;
  PidStats& s = Stats(event.to);
  ++s.msgs_in;
  if (event.kind == MessageKind::kTupleRequest) ++s.requests_in;
  if (event.kind == MessageKind::kTupleSegment) {
    ++s.segments_in;
    s.segment_rows_in += event.payload_rows;
  }
  // Per-channel FIFO: the oldest in-flight send on this channel is the
  // one just delivered. The delivery *started* handle_ns ago.
  auto it = in_flight_sends_.find({event.from, event.to});
  if (it != in_flight_sends_.end() && !it->second.empty()) {
    uint64_t sent_at = it->second.front();
    it->second.pop_front();
    uint64_t started_at = now - std::min(now, event.handle_ns);
    if (started_at > sent_at) s.queue_wait_ns += started_at - sent_at;
  }
}

void ProfilingObserver::OnNodeFire(const NodeFireEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  PidStats& s = Stats(event.pid);
  s.fired = true;
  s.node = event.node;
  s.role = event.role;
  ++s.fires;
  s.tuples_in += event.tuples_in;
  s.tuples_out += event.tuples_out;
  s.dedup_hits += event.dedup_hits;
  if (event.trigger == MessageKind::kTupleSegment) {
    // Segment arrivals: the rows (and the dedup hits their handling
    // produced) that flow through the whole-segment absorb paths.
    s.batch_rows_in += event.tuples_in;
    s.batch_dedup_hits += event.dedup_hits;
  }
  s.fire_ns += event.handle_ns;
}

void ProfilingObserver::OnPhase(const PhaseEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t index = static_cast<size_t>(event.phase);
  size_t count = static_cast<size_t>(Phase::kPhaseCount);
  if (phase_ns_.size() < count) {
    phase_ns_.resize(count, 0);
    phase_begin_ns_.resize(count, 0);
  }
  if (event.begin) {
    phase_begin_ns_[index] = NowNs();
  } else if (phase_begin_ns_[index] != 0) {
    phase_ns_[index] += NowNs() - phase_begin_ns_[index];
  }
}

void ProfilingObserver::OnTermination(const TerminationEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  SccStats& s = term_by_pid_[event.node];
  switch (event.kind) {
    case TerminationEvent::Kind::kWaveStarted:
      ++s.waves;
      break;
    case TerminationEvent::Kind::kAnswerNegative:
      ++s.negative_answers;
      break;
    case TerminationEvent::Kind::kAnswerConfirmed:
      ++s.confirmed_answers;
      break;
    case TerminationEvent::Kind::kConcluded:
      ++s.concluded;
      break;
    case TerminationEvent::Kind::kWorkNotice:
      ++s.work_notices;
      break;
    case TerminationEvent::Kind::kKindCount:
      break;
  }
}

ProfileReport ProfilingObserver::Finalize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ProfileReport report;
  report.query_id = query_id_;
  report.phase_ns = phase_ns_;
  report.phase_ns.resize(static_cast<size_t>(Phase::kPhaseCount), 0);
  report.total_msgs_sent = total_sends_;
  report.total_msgs_delivered = total_delivers_;

  for (size_t pid = 0; pid < by_pid_.size(); ++pid) {
    const PidStats& s = by_pid_[pid];
    report.total_fires += s.fires;
    report.total_tuples_in += s.tuples_in;
    report.total_tuples_out += s.tuples_out;
    report.total_dedup_hits += s.dedup_hits;
    report.total_fire_ns += s.fire_ns;
    report.total_queue_wait_ns += s.queue_wait_ns;

    // Rows: graph nodes when a graph is attached (pid == node id);
    // otherwise every pid that saw traffic.
    bool is_graph_node =
        graph_ != nullptr ? pid < graph_->size() : (s.msgs_in + s.msgs_out) > 0;
    if (!is_graph_node) continue;
    NodeProfile row;
    row.node = s.fired ? s.node : static_cast<int32_t>(pid);
    row.fires = s.fires;
    row.requests_in = s.requests_in;
    row.tuples_in = s.tuples_in;
    row.tuples_out = s.tuples_out;
    row.dedup_hits = s.dedup_hits;
    row.msgs_in = s.msgs_in;
    row.msgs_out = s.msgs_out;
    row.segments_in = s.segments_in;
    row.segments_out = s.segments_out;
    row.segment_rows_in = s.segment_rows_in;
    row.segment_rows_out = s.segment_rows_out;
    row.batch_rows_in = s.batch_rows_in;
    row.batch_dedup_hits = s.batch_dedup_hits;
    row.fire_ns = s.fire_ns;
    row.queue_wait_ns = s.queue_wait_ns;
    if (graph_ != nullptr) {
      const GraphNode& n = graph_->node(static_cast<NodeId>(pid));
      row.label = graph_->NodeLabel(n.id, symbols_);
      row.scc_id = n.scc_id;
      switch (n.kind) {
        case NodeKind::kGoal:
          row.role = NodeRole::kGoal;
          break;
        case NodeKind::kRule:
          row.role = NodeRole::kRule;
          break;
        case NodeKind::kEdbLeaf:
          row.role = NodeRole::kEdbLeaf;
          break;
        case NodeKind::kCycleRef:
          row.role = NodeRole::kCycleRef;
          break;
      }
    } else {
      row.role = s.role;
      row.label = StrCat("pid", pid);
    }
    report.nodes.push_back(std::move(row));
  }

  if (graph_ != nullptr) {
    // One SccProfile per nontrivial component, protocol events summed
    // over its members.
    for (int scc = 0; scc < graph_->scc_count(); ++scc) {
      const std::vector<NodeId>& members = graph_->scc_members(scc);
      if (members.empty()) continue;
      if (graph_->node(members.front()).scc_is_trivial) continue;
      SccProfile row;
      row.scc_id = scc;
      row.members.assign(members.begin(), members.end());
      row.leader = graph_->scc_leader(scc);
      row.tree_depth = graph_->BfstHeight(scc);
      for (NodeId m : members) {
        auto it = term_by_pid_.find(static_cast<ProcessId>(m));
        if (it == term_by_pid_.end()) continue;
        row.waves += it->second.waves;
        row.negative_answers += it->second.negative_answers;
        row.confirmed_answers += it->second.confirmed_answers;
        row.work_notices += it->second.work_notices;
        row.concluded += it->second.concluded;
      }
      report.sccs.push_back(std::move(row));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Cost-model hookup
// ---------------------------------------------------------------------------

void FillCostEstimates(const RuleGoalGraph& graph,
                       const CostModelParams& params, ProfileReport& report) {
  // report.nodes is indexed by position, not id — build an id map.
  std::vector<NodeProfile*> by_node(graph.size(), nullptr);
  for (NodeProfile& n : report.nodes) {
    if (n.node >= 0 && static_cast<size_t>(n.node) < by_node.size()) {
      by_node[static_cast<size_t>(n.node)] = &n;
    }
  }
  for (const GraphNode& n : graph.nodes()) {
    if (n.kind != NodeKind::kRule) continue;
    NodeProfile* row = by_node[static_cast<size_t>(n.id)];
    if (row == nullptr) continue;
    OrderCost cost =
        EstimateOrderCost(n.rule, n.adornment, n.sips.order, params);
    row->est_log10_tuples = cost.log_final;
    row->est_total_cost = cost.total_cost;
  }
  // Goal nodes: union of the rule children's relations — sum the
  // children's (linear-scale) estimates.
  for (const GraphNode& n : graph.nodes()) {
    if (n.kind != NodeKind::kGoal || n.rule_children.empty()) continue;
    NodeProfile* row = by_node[static_cast<size_t>(n.id)];
    if (row == nullptr) continue;
    double sum = 0.0;
    bool any = false;
    for (NodeId c : n.rule_children) {
      NodeProfile* child = by_node[static_cast<size_t>(c)];
      if (child == nullptr || child->est_log10_tuples == kNoEstimate) continue;
      sum += std::pow(10.0, child->est_log10_tuples);
      any = true;
    }
    if (any) row->est_log10_tuples = std::log10(std::max(sum, 1.0));
  }
}

}  // namespace mpqe
