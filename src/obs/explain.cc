#include "obs/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/string_util.h"

namespace mpqe {

namespace {

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string FmtMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FmtPct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", frac * 100.0);
  return buf;
}

// Def. 2.3 arcs rendered as "0->2 1->2".
std::string ArcsToString(const SipsResult& sips) {
  std::vector<std::string> parts;
  for (size_t i = 0; i < sips.arcs.size(); ++i) {
    for (size_t j : sips.arcs[i]) {
      parts.push_back(StrCat(i, "->", j));
    }
  }
  return parts.empty() ? "none" : StrJoin(parts, " ");
}

}  // namespace

std::string ExplainPlan(const RuleGoalGraph& graph,
                        const CostModelParams& params,
                        const ProfileReport* profile,
                        const SymbolTable* symbols,
                        const ExplainOptions& options) {
  // Per-node actuals, indexed by node id.
  std::vector<const NodeProfile*> actual(graph.size(), nullptr);
  if (profile != nullptr) {
    for (const NodeProfile& n : profile->nodes) {
      if (n.node >= 0 && static_cast<size_t>(n.node) < actual.size()) {
        actual[static_cast<size_t>(n.node)] = &n;
      }
    }
  }

  // Estimates, via the same path the evaluator uses so EXPLAIN and
  // EXPLAIN ANALYZE agree.
  ProfileReport estimates;
  estimates.nodes.resize(graph.size());
  for (size_t i = 0; i < graph.size(); ++i) {
    estimates.nodes[i].node = static_cast<int32_t>(i);
  }
  FillCostEstimates(graph, params, estimates);

  std::string out =
      StrCat(options.analyze ? "EXPLAIN ANALYZE" : "EXPLAIN", " (strategy sips",
             ", alpha=", params.alpha, ", nodes=", graph.size(), ")\n");

  // The graph stores nodes in construction (preorder) sequence and
  // each carries its tree depth, so a linear scan prints the tree.
  for (const GraphNode& n : graph.nodes()) {
    std::string indent(static_cast<size_t>(n.depth) * 2, ' ');
    out += StrCat(indent, "#", n.id, " ", NodeKindToString(n.kind), " ",
                  graph.NodeLabel(n.id, symbols));
    if (!n.scc_is_trivial) {
      out += StrCat("  [scc ", n.scc_id, n.is_leader ? " leader" : "", "]");
    }
    if (n.kind == NodeKind::kCycleRef) {
      out += StrCat("  <== #", n.cycle_source);
    }
    out += "\n";

    if (n.kind == NodeKind::kRule) {
      out += StrCat(indent, "  sips: ", StrJoin(n.sips.order, " -> "),
                    "  arcs: ", ArcsToString(n.sips), "\n");
    }

    const NodeProfile& est = estimates.nodes[static_cast<size_t>(n.id)];
    bool has_estimate = est.est_log10_tuples != kNoEstimate;
    if (has_estimate) {
      out += StrCat(indent, "  est: ~10^", Fmt(est.est_log10_tuples),
                    " tuples/req");
      if (est.est_total_cost != kNoEstimate) {
        out += StrCat(", total_cost ~10^",
                      Fmt(std::log10(std::max(est.est_total_cost, 1.0))));
      }
      out += "\n";
    }

    if (options.analyze) {
      const NodeProfile* act = actual[static_cast<size_t>(n.id)];
      if (act != nullptr) {
        out += StrCat(indent, "  act: ", act->tuples_out, " tuples out, ",
                      act->tuples_in, " in (sel ", Fmt(act->Selectivity()),
                      "), ", act->requests_in, " reqs, dup ",
                      FmtPct(act->DupHitRate()), ", msgs ", act->msgs_in, "/",
                      act->msgs_out, ", fire ", FmtMs(act->fire_ns), ", wait ",
                      FmtMs(act->queue_wait_ns));
        if (has_estimate) {
          NodeProfile merged = *act;
          merged.est_log10_tuples = est.est_log10_tuples;
          merged.est_total_cost = est.est_total_cost;
          double dev = merged.DeviationFactor();
          if (dev > options.deviation_factor) {
            out += StrCat("  !! deviates x", Fmt(dev), " from estimate");
          }
        }
        out += "\n";
      }
    }
  }

  // Strong-component footer: Fig. 2 protocol attribution.
  bool header_done = false;
  for (int scc = 0; scc < graph.scc_count(); ++scc) {
    const std::vector<NodeId>& members = graph.scc_members(scc);
    if (members.empty() || graph.node(members.front()).scc_is_trivial) continue;
    if (!header_done) {
      out += "strong components:\n";
      header_done = true;
    }
    out += StrCat("  scc ", scc, ": {", StrJoin(members, ","), "} leader #",
                  graph.scc_leader(scc), " tree_depth ", graph.BfstHeight(scc));
    if (options.analyze && profile != nullptr) {
      for (const SccProfile& s : profile->sccs) {
        if (s.scc_id != scc) continue;
        out += StrCat("  waves ", s.waves, ", neg ", s.negative_answers,
                      ", conf ", s.confirmed_answers, ", notices ",
                      s.work_notices, ", concluded ", s.concluded);
        break;
      }
    }
    out += "\n";
  }

  if (options.analyze && profile != nullptr) {
    out += StrCat("totals: ", profile->total_tuples_out, " tuples out, ",
                  profile->total_tuples_in, " in, ",
                  profile->total_dedup_hits, " dup hits, ",
                  profile->total_msgs_sent, " msgs, fire ",
                  FmtMs(profile->total_fire_ns), ", wait ",
                  FmtMs(profile->total_queue_wait_ns), "\n");
    std::string phases;
    for (size_t i = 0; i < profile->phase_ns.size(); ++i) {
      if (profile->phase_ns[i] == 0) continue;
      phases += StrCat(phases.empty() ? "phases: " : ", ",
                       PhaseToString(static_cast<Phase>(i)), " ",
                       FmtMs(profile->phase_ns[i]));
    }
    if (!phases.empty()) out += phases + "\n";
  }
  return out;
}

}  // namespace mpqe
