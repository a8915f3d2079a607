#include "sofe/core/chain_walk.hpp"

#include <algorithm>
#include <cassert>

#include "sofe/kstroll/instance.hpp"

namespace sofe::core {

ChainPlan plan_chain_walk(const Problem& p, const graph::MetricClosure& closure, NodeId source,
                          const std::vector<NodeId>& vms, NodeId last_vm,
                          const AlgoOptions& opt) {
  ChainPlan plan;
  plan.source = source;
  plan.last_vm = last_vm;
  if (source == last_vm) return plan;  // infeasible by construction

  if (p.chain_length == 0) {
    // Degenerate chain: the "walk" is the source itself; callers append the
    // distribution part.  last_vm is meaningless here.
    plan.nodes = {source};
    plan.cost = 0.0;
    return plan;
  }
  if (!closure.tree(source).reachable(last_vm)) return plan;

  const auto inst = kstroll::build_stroll_instance(p.network, closure, source, vms, last_vm,
                                                   p.node_cost, p.source_cost(source));
  return plan_chain_walk_on(p, closure, inst, opt);
}

ChainPlan plan_chain_walk_on(const Problem& p, const graph::MetricClosure& closure,
                             const kstroll::StrollInstance& inst, const AlgoOptions& opt) {
  ChainPlan plan;
  plan.source = inst.source;
  plan.last_vm = inst.last_vm;

  const int k = p.chain_length + 1;
  const auto stroll = kstroll::solve_stroll(inst, k, opt.stroll);
  if (!stroll.feasible()) return plan;

  // Lift: concatenate shortest paths between consecutive stroll nodes.  Each
  // segment is closure.path(a, b) minus a, built in place: append tree(a)'s
  // parent walk from b up to (not including) a, then reverse that run.
  plan.nodes.push_back(inst.source);
  plan.vnf_pos.reserve(stroll.order.size() - 1);
  for (std::size_t i = 0; i + 1 < stroll.order.size(); ++i) {
    const NodeId a = inst.nodes[stroll.order[i]];
    const NodeId b = inst.nodes[stroll.order[i + 1]];
    const auto tree = closure.tree(a);
    assert(tree.reachable(b));
    const std::size_t start = plan.nodes.size();
    for (NodeId v = b; v != a; v = tree.parent[static_cast<std::size_t>(v)]) {
      assert(v != graph::kInvalidNode);
      plan.nodes.push_back(v);
    }
    std::reverse(plan.nodes.begin() + static_cast<std::ptrdiff_t>(start), plan.nodes.end());
    plan.vnf_pos.push_back(plan.nodes.size() - 1);  // b hosts f_{i+1}
  }
  assert(plan.nodes.back() == inst.last_vm);
  assert(plan.vnf_pos.size() == static_cast<std::size_t>(p.chain_length));
  plan.cost = chain_plan_cost(p, plan);
  return plan;
}

Cost chain_plan_cost(const Problem& p, const ChainPlan& plan) {
  if (plan.nodes.empty()) return graph::kInfiniteCost;
  Cost sum = p.has_source_costs() ? p.source_cost(plan.source) : 0.0;
  for (std::size_t pos : plan.vnf_pos) {
    sum += p.node_cost[static_cast<std::size_t>(plan.nodes[pos])];
  }
  for (std::size_t i = 0; i + 1 < plan.nodes.size(); ++i) {
    const EdgeId e = p.network.find_edge(plan.nodes[i], plan.nodes[i + 1]);
    assert(e != graph::kInvalidEdge);
    sum += p.network.edge(e).cost;
  }
  return sum;
}

}  // namespace sofe::core
