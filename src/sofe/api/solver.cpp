#include "sofe/api/solver.hpp"

#include <algorithm>
#include <cassert>

#include "sofe/api/report.hpp"
#include "sofe/dist/sharded_closure.hpp"
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

// Out of line so solver.hpp can hold the sharded cache behind an incomplete
// dist::ShardedClosure (the api header stays free of dist includes).
ClosureSession::ClosureSession() = default;
ClosureSession::~ClosureSession() = default;

const graph::MetricClosure& ClosureSession::acquire(const graph::Graph& g,
                                                    const std::vector<NodeId>& hubs,
                                                    const ClosureRequest& req,
                                                    SolveReport& report) {
  report.closure_hubs = static_cast<int>(hubs.size());
  const bool incremental = req.incremental && !req.bounded;
  const auto edges = g.edges();

  // Structural part of the key: node count + edge endpoints.  Costs are
  // compared edge by edge below, and the differing ones ARE the arc-delta
  // list the repair path consumes.
  const bool structure_same =
      valid_ && closure_.bounded() == req.bounded && key_nodes_ == g.node_count() &&
      key_edges_.size() == edges.size() &&
      std::equal(edges.begin(), edges.end(), key_edges_.begin(),
                 [](const graph::Edge& a, const graph::Edge& b) {
                   return a.u == b.u && a.v == b.v;
                 });

  deltas_.clear();
  missing_.clear();
  bool hubs_ok = false;
  if (structure_same) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].cost != key_edges_[i].cost) {
        deltas_.push_back(graph::EdgeCostDelta{static_cast<graph::EdgeId>(i),
                                               key_edges_[i].cost, edges[i].cost});
      }
    }
    if (incremental) {
      // Only hubs without a stored tree matter: stored rows of hubs the
      // request no longer names are dropped below, never queried.
      for (NodeId h : hubs) {
        if (!closure_.is_hub(h)) missing_.push_back(h);
      }
      hubs_ok = missing_.empty();
    } else {
      // Strict semantics: the exact hub sequence (and, when bounded, the
      // exact settle-target sequence — the truncation scope is part of
      // what the cached trees mean).
      hubs_ok = key_hubs_ == hubs &&
                (!req.bounded ||
                 (key_targets_.size() == req.settle_targets.size() &&
                  std::equal(key_targets_.begin(), key_targets_.end(),
                             req.settle_targets.begin())));
    }
  }
  report.closure_delta_edges = static_cast<int>(deltas_.size());

  if (structure_same && hubs_ok && deltas_.empty()) {
    report.closure_cache_hit = true;
    if (incremental) {
      // A shrunken request drops the rows it no longer names; the kept
      // rows are untouched, so this is still a hit.  The strict key
      // follows, as on the repair path.
      closure_.retain(hubs);
      key_hubs_ = hubs;
    }
    report.closure_bytes = closure_.memory_bytes();
    return closure_;
  }
  report.closure_cache_hit = false;

  const util::Stopwatch watch;
  g.ensure_csr();  // make subsequent csr() reads safe for worker threads

  // Repair-vs-rebuild: repair scales with the affected region, a rebuild
  // with |hubs| * (V + E); past a quarter of the edges changing, affected
  // regions approach whole trees and the rebuild's sequential sweeps win.
  const bool repairable =
      structure_same && incremental && deltas_.size() * 4 <= edges.size();
  if (repairable) {
    // Drop unrequested rows first so the refresh repairs only what the
    // request reads.
    closure_.retain(hubs);
    closure_.refresh(g, deltas_, req.threads, &engine_);
    if (!missing_.empty()) closure_.extend(g, missing_, req.threads, &engine_);
    report.closure_repaired = true;
    report.closure_hubs_added = static_cast<int>(missing_.size());
    for (const graph::EdgeCostDelta& d : deltas_) {
      key_edges_[static_cast<std::size_t>(d.edge)].cost = d.new_cost;
    }
    // The strict key follows the request: a later non-incremental acquire
    // must not falsely hit on a closure whose hub set changed.
    key_hubs_ = hubs;
  } else {
    graph::ClosureScope scope;
    scope.bounded = req.bounded;
    scope.extra_targets = req.settle_targets;
    closure_.build(g, hubs, req.threads, &engine_, scope);
    key_nodes_ = g.node_count();
    key_edges_.assign(edges.begin(), edges.end());
    key_hubs_ = hubs;
    key_targets_.assign(req.settle_targets.begin(), req.settle_targets.end());
    valid_ = true;
    sharded_valid_ = false;  // the key storage no longer describes the sharded cache
  }
  report.closure_bytes = closure_.memory_bytes();
  report.closure_seconds = watch.seconds();
  return closure_;
}

const dist::ShardedClosure& ClosureSession::acquire_sharded(
    const graph::Graph& g, const std::vector<NodeId>& hubs, int controllers,
    const ClosureRequest& req, dist::MessageBus& bus, SolveReport& report) {
  assert(controllers >= 1);
  report.closure_hubs = static_cast<int>(hubs.size());
  const bool incremental = req.incremental && !req.bounded;
  const auto edges = g.edges();

  // Same exact key as acquire(), plus the controller count: a different k
  // means a different partition, different borders, a different exchange —
  // the cached shards describe nothing of the new deployment.
  const bool structure_same =
      sharded_valid_ && sharded_ != nullptr && sharded_->bounded() == req.bounded &&
      sharded_k_ == controllers && key_nodes_ == g.node_count() &&
      key_edges_.size() == edges.size() &&
      std::equal(edges.begin(), edges.end(), key_edges_.begin(),
                 [](const graph::Edge& a, const graph::Edge& b) {
                   return a.u == b.u && a.v == b.v;
                 });

  deltas_.clear();
  missing_.clear();
  bool hubs_ok = false;
  if (structure_same) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].cost != key_edges_[i].cost) {
        deltas_.push_back(graph::EdgeCostDelta{static_cast<graph::EdgeId>(i),
                                               key_edges_[i].cost, edges[i].cost});
      }
    }
    if (incremental) {
      for (NodeId h : hubs) {
        if (!sharded_->closure().is_hub(h)) missing_.push_back(h);
      }
      hubs_ok = missing_.empty();
    } else {
      hubs_ok = key_hubs_ == hubs && key_targets_.size() == req.settle_targets.size() &&
                std::equal(key_targets_.begin(), key_targets_.end(), req.settle_targets.begin());
    }
  }
  report.closure_delta_edges = static_cast<int>(deltas_.size());

  if (structure_same && hubs_ok && deltas_.empty()) {
    report.closure_cache_hit = true;
    if (incremental) {
      sharded_->retain(hubs);
      key_hubs_ = hubs;
    }
    report.closure_bytes = sharded_->memory_bytes();
    return *sharded_;
  }
  report.closure_cache_hit = false;

  const util::Stopwatch watch;
  g.ensure_csr();

  const bool repairable =
      structure_same && incremental && deltas_.size() * 4 <= edges.size();
  if (repairable) {
    // retain -> refresh -> extend, every re-exchanged row charged on `bus`
    // by the ShardedClosure itself.
    sharded_->retain(hubs);
    if (!deltas_.empty()) sharded_->refresh(g, deltas_, req.threads, bus);
    if (!missing_.empty()) sharded_->extend(g, hubs, req.threads, bus);
    report.closure_repaired = true;
    report.closure_hubs_added = static_cast<int>(missing_.size());
    for (const graph::EdgeCostDelta& d : deltas_) {
      key_edges_[static_cast<std::size_t>(d.edge)].cost = d.new_cost;
    }
    key_hubs_ = hubs;
  } else {
    // Cold rebuild: the coordinator re-partitions and ships each peer its
    // assignment (one protocol round), then the sharded build runs its
    // charged border/hub row exchange.
    dist::Partition part = dist::partition_bfs(g, controllers);
    if (controllers > 1) {
      bus.broadcast(static_cast<std::size_t>(controllers - 1),
                    static_cast<std::size_t>(g.node_count()));
      bus.end_round();
    }
    if (sharded_ == nullptr) sharded_ = std::make_unique<dist::ShardedClosure>();
    sharded_->build(g, std::move(part), hubs, req.settle_targets, req.threads, bus, req.bounded);
    key_nodes_ = g.node_count();
    key_edges_.assign(edges.begin(), edges.end());
    key_hubs_ = hubs;
    key_targets_.assign(req.settle_targets.begin(), req.settle_targets.end());
    sharded_k_ = controllers;
    sharded_valid_ = true;
    valid_ = false;  // the key storage no longer describes the plain cache
  }
  report.closure_bytes = sharded_->memory_bytes();
  report.closure_seconds = watch.seconds();
  return *sharded_;
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
