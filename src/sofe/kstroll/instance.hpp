#pragma once
// Procedure 1 of the paper: construction of the k-stroll metric instance.
//
// Given network G, source s, VM set M and a designated last VM u, the
// instance is the complete graph over V = M ∪ {s} whose edge costs embed both
// shortest-path connection costs and *shared* VM setup costs:
//
//   c(v1, v2) = d_G(v1, v2) + (c(u) + c(v2))/2          if v1 = s
//               d_G(v1, v2) + (c(v1) + c(u))/2          if v2 = s
//               d_G(v1, v2) + (c(v1) + c(v2))/2         otherwise
//
// so that the cost of any simple s→u path visiting nodes s=u1,…,uk=u in the
// instance telescopes to  Σ setup(u2..uk) + Σ d_G(uj, uj+1)  — exactly the
// setup + connection cost of the corresponding service-chain walk in G
// (Section IV, "first characteristic").  Appendix D extends the sharing rule
// when the source itself carries a setup cost c(s).
//
// Lemma 1: these edge costs satisfy the triangle inequality (tested).

#include <cassert>
#include <vector>

#include "sofe/graph/graph.hpp"
#include "sofe/graph/metric_closure.hpp"

namespace sofe::kstroll {

using graph::Cost;
using graph::Graph;
using graph::MetricClosure;
using graph::NodeId;

/// Dense metric k-stroll instance ("G-cal" in the paper), read through row
/// pointers: rows[a][b] == c(a, b).
///
/// Row-view contract (DESIGN.md §9).  The solvers read every edge off the
/// row of one of its endpoints and never with the source as the column:
/// the source is always the first stroll node, so a lookup that involves it
/// reads row 0.  Column 0 of a VM row is therefore never read, and an
/// instance may leave it unwritten — InstanceAssembler points rows 1..m at a
/// shared block whose column 0 is reserved.  Both builders write bitwise
/// symmetric matrices, so reading c(x, b) as rows[b][x] (a contiguous scan
/// over x) returns the very double the column read did.
///
/// Move-only: an owned instance's rows point into its own `storage`, which
/// a move carries along and a copy would not.
struct StrollInstance {
  NodeId source = graph::kInvalidNode;   // s in G
  NodeId last_vm = graph::kInvalidNode;  // u in G
  std::vector<NodeId> nodes;             // instance nodes; nodes[0] == s
  std::size_t last_index = 0;            // index of u in `nodes`
  std::vector<const Cost*> rows;         // rows[a][b] == c(a, b) (contract above)
  std::vector<Cost> storage;             // row-major n x n backing of an owned
                                         // instance; empty when rows are borrowed

  StrollInstance() = default;
  StrollInstance(StrollInstance&&) noexcept = default;
  StrollInstance& operator=(StrollInstance&&) noexcept = default;
  StrollInstance(const StrollInstance&) = delete;
  StrollInstance& operator=(const StrollInstance&) = delete;

  std::size_t size() const noexcept { return nodes.size(); }

  /// c(a, b) for any pair (diagnostics/tests).  Column 0 is read off the
  /// source row, so this also holds for instances that leave it unwritten.
  Cost edge_cost(std::size_t a, std::size_t b) const {
    assert(a < size() && b < size());
    return b == 0 ? rows[0][a] : rows[a][b];
  }

  /// Cost of a simple path through instance indices (diagnostics/tests).
  Cost path_cost(const std::vector<std::size_t>& order) const {
    Cost sum = 0.0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) sum += edge_cost(order[i], order[i + 1]);
    return sum;
  }
};

/// Builds the Procedure-1 instance, owning its full symmetric matrix.
///
/// `closure` must contain Dijkstra trees for s and every VM in `vms`.
/// `node_cost[v]` is the setup cost c(v).  `source_setup` is the Appendix-D
/// source cost c(s) (0 reproduces the paper's main construction).
/// Requires: u ∈ vms, u != s, and all of vms ∪ {s} reachable from s.
StrollInstance build_stroll_instance(const Graph& g, const MetricClosure& closure, NodeId s,
                                     const std::vector<NodeId>& vms, NodeId u,
                                     const std::vector<Cost>& node_cost,
                                     Cost source_setup = 0.0);

}  // namespace sofe::kstroll
