#pragma once
// Procedure 2 of the paper: identification of the walk with |C| VMs.
//
// Builds the Procedure-1 metric instance, solves a (|C|+1)-stroll from the
// source to the chosen last VM, and lifts the stroll back into G by
// concatenating the underlying shortest paths.  The result is a chain-walk
// plan: the walk's node sequence plus the positions of the |C| enabled VMs.

#include <optional>
#include <vector>

#include "sofe/core/problem.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/kstroll/solver.hpp"
#include "sofe/steiner/steiner.hpp"

namespace sofe::core {

/// Planned service chain from `source` to `last_vm`.
struct ChainPlan {
  NodeId source = graph::kInvalidNode;
  NodeId last_vm = graph::kInvalidNode;
  std::vector<NodeId> nodes;           // walk in G; front()==source, back()==last_vm
  std::vector<std::size_t> vnf_pos;    // |C| strictly increasing positions
  Cost cost = graph::kInfiniteCost;    // setup + connection cost of the walk
                                       // (+ source setup in the Appendix-D model)

  bool feasible() const noexcept { return cost < graph::kInfiniteCost; }
};

/// Tuning knobs shared by SOFDA-SS / SOFDA / baselines.
struct AlgoOptions {
  kstroll::StrollAlgorithm stroll = kstroll::StrollAlgorithm::kCheapestInsertion;
  steiner::Algorithm steiner = steiner::Algorithm::kMehlhorn;
  bool shorten = true;  // apply the pass-through shortening post-step
  // Threads for metric-closure (hub shortest-path tree) construction.
  // Output is bit-identical for any value (see MetricClosure); > 1 pays off
  // on Cogent/Inet-scale instances with many VMs + sources.
  int closure_threads = 1;
};

/// Procedure 2.  `closure` must contain Dijkstra trees for `source` and every
/// VM.  Returns an infeasible plan when fewer than |C| usable VMs exist or
/// `last_vm` is unreachable.
ChainPlan plan_chain_walk(const Problem& p, const graph::MetricClosure& closure, NodeId source,
                          const std::vector<NodeId>& vms, NodeId last_vm,
                          const AlgoOptions& opt = {});

/// Procedure-2 tail on an already-built metric instance: solves the
/// (|C|+1)-stroll on `inst` and lifts it through `closure` into G.  This is
/// the single implementation both pricing paths share — plan_chain_walk
/// calls it after build_stroll_instance, and PricingSession (pricing.hpp,
/// DESIGN.md §9) after its shared-block instance assembly — so their
/// bit-identity is structural, not maintained by hand.  `inst` must
/// carry source/last_vm and satisfy the build_stroll_instance contract;
/// callers perform the reachability pre-check.
ChainPlan plan_chain_walk_on(const Problem& p, const graph::MetricClosure& closure,
                             const kstroll::StrollInstance& inst, const AlgoOptions& opt);

/// Recomputes a plan's cost from its structure (test invariant: equals the
/// stroll cost in the metric instance — the "first characteristic" of §IV).
Cost chain_plan_cost(const Problem& p, const ChainPlan& plan);

}  // namespace sofe::core
