#include "sofe/api/solver.hpp"

#include <algorithm>
#include <cassert>

#include "sofe/api/report.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::online {

OnlineResult simulate(const topology::Topology& topo, const OnlineConfig& cfg,
                      api::Solver& solver) {
  // One code path for both overloads: the session is just another embedder,
  // which is what makes the bit-identity guarantee structural rather than
  // maintained by hand.  Defined here (not in online/) so the layer DAG
  // stays one-directional: api depends on online, never the reverse.
  return simulate(topo, cfg, std::string(solver.name()),
                  [&solver](const Problem& p) { return solver.solve(p); });
}

}  // namespace sofe::online

namespace sofe::api {

const graph::MetricClosure& ClosureSession::acquire(const graph::Graph& g,
                                                    const std::vector<NodeId>& hubs, int threads,
                                                    SolveReport& report) {
  report.closure_hubs = static_cast<int>(hubs.size());
  const auto edges = g.edges();

  // Structural part of the key: node count + edge endpoints.  Costs are
  // compared edge by edge below, and the differing ones ARE the arc-delta
  // list the repair path consumes.
  const bool structure_same =
      valid_ && key_nodes_ == g.node_count() && key_edges_.size() == edges.size() &&
      std::equal(edges.begin(), edges.end(), key_edges_.begin(),
                 [](const graph::Edge& a, const graph::Edge& b) {
                   return a.u == b.u && a.v == b.v;
                 });

  deltas_.clear();
  missing_.clear();
  if (structure_same) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].cost != key_edges_[i].cost) {
        deltas_.push_back(graph::EdgeCostDelta{static_cast<graph::EdgeId>(i),
                                               key_edges_[i].cost, edges[i].cost});
      }
    }
    // Only hubs without a stored tree matter: stored rows of hubs the
    // request no longer names are dropped below, never queried.
    for (NodeId h : hubs) {
      if (!closure_.is_hub(h)) missing_.push_back(h);
    }
  }
  report.closure_delta_edges = static_cast<int>(deltas_.size());

  if (structure_same && missing_.empty() && deltas_.empty()) {
    // A shrunken request drops the rows it no longer names; the kept rows
    // are untouched, so this is still a hit.
    report.closure_cache_hit = true;
    closure_.retain(hubs);
    report.closure_bytes = closure_.memory_bytes();
    return closure_;
  }

  const util::Stopwatch watch;
  g.ensure_csr();  // make subsequent csr() reads safe for worker threads

  // Repair-vs-rebuild: repair scales with the affected region, a rebuild
  // with |hubs| * (V + E); past a quarter of the edges changing, affected
  // regions approach whole trees and the rebuild's sequential sweeps win.
  if (structure_same && deltas_.size() * 4 <= edges.size()) {
    // Drop unrequested rows first so the refresh repairs only what the
    // request reads.
    closure_.retain(hubs);
    closure_.refresh(g, deltas_, threads, &engine_);
    if (!missing_.empty()) closure_.extend(g, missing_, threads, &engine_);
    report.closure_repaired = true;
    report.closure_hubs_added = static_cast<int>(missing_.size());
    for (const graph::EdgeCostDelta& d : deltas_) {
      key_edges_[static_cast<std::size_t>(d.edge)].cost = d.new_cost;
    }
  } else {
    closure_.build(g, hubs, threads, &engine_);
    key_nodes_ = g.node_count();
    key_edges_.assign(edges.begin(), edges.end());
    valid_ = true;
  }
  report.closure_bytes = closure_.memory_bytes();
  report.closure_seconds = watch.seconds();
  return closure_;
}

ServiceForest Solver::solve(const Problem& p) {
  assert(p.well_formed());
  report_ = SolveReport{};
  report_.solver = std::string(name());
  const util::Stopwatch watch;
  ServiceForest f = do_solve(p, report_);
  report_.total_seconds = watch.seconds();
  report_.feasible = !f.empty();
  report_.total_cost = report_.feasible ? core::total_cost(p, f) : 0.0;
  if (sink_ != nullptr) sink_->add(report_);
  return f;
}

ServiceForest Solver::solve_epoch(const Problem& p, const graph::MetricClosure& closure) {
  assert(p.well_formed());
  report_ = SolveReport{};
  report_.solver = std::string(name());
  const util::Stopwatch watch;
  ServiceForest f = do_solve_epoch(p, closure, report_);
  report_.total_seconds = watch.seconds();
  report_.feasible = !f.empty();
  report_.total_cost = report_.feasible ? core::total_cost(p, f) : 0.0;
  if (sink_ != nullptr) sink_->add(report_);
  return f;
}

}  // namespace sofe::api
