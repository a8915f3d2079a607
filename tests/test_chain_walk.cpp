// Procedure-2 tests: the planned chain walk visits |C| distinct VMs in
// order, its cost matches the stroll metric, and the Fig. 3 pipeline works
// end to end on a paper-like instance.

#include <gtest/gtest.h>

#include <set>

#include "sofe/core/chain_walk.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::core {
namespace {

Problem line_problem() {
  Problem p;
  p.network = Graph(6);
  for (NodeId v = 0; v + 1 < 6; ++v) p.network.add_edge(v, v + 1, 1.0);
  p.node_cost = {0, 1, 2, 3, 4, 0};
  p.is_vm = {0, 1, 1, 1, 1, 0};
  p.sources = {0};
  p.destinations = {5};
  p.chain_length = 2;
  return p;
}

graph::MetricClosure closure_for(const Problem& p, NodeId source) {
  auto hubs = p.vms();
  hubs.push_back(source);
  return graph::MetricClosure(p.network, hubs);
}

TEST(ChainWalk, BasicPlanStructure) {
  const Problem p = line_problem();
  const auto mc = closure_for(p, 0);
  const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), 4);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.nodes.front(), 0);
  EXPECT_EQ(plan.nodes.back(), 4);
  ASSERT_EQ(plan.vnf_pos.size(), 2u);
  EXPECT_LT(plan.vnf_pos[0], plan.vnf_pos[1]);
  // All VNFs on distinct VMs.
  std::set<NodeId> slots;
  for (auto pos : plan.vnf_pos) {
    EXPECT_TRUE(p.is_vm[static_cast<std::size_t>(plan.nodes[pos])]);
    slots.insert(plan.nodes[pos]);
  }
  EXPECT_EQ(slots.size(), 2u);
  // On the line, the cheapest 2-chain to VM 4 picks VM 1 (cheapest interior).
  EXPECT_EQ(plan.nodes[plan.vnf_pos[0]], 1);
  EXPECT_DOUBLE_EQ(plan.cost, 1.0 + 4.0 + 4.0);  // setups 1+4, distance 0..4
}

TEST(ChainWalk, CostMatchesRecomputation) {
  const Problem p = line_problem();
  const auto mc = closure_for(p, 0);
  for (NodeId u : p.vms()) {
    const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), u);
    if (!plan.feasible()) continue;
    EXPECT_NEAR(plan.cost, chain_plan_cost(p, plan), 1e-9);
  }
}

TEST(ChainWalk, InfeasibleWhenSourceEqualsLastVm) {
  Problem p = line_problem();
  p.sources = {1};
  const auto mc = closure_for(p, 1);
  EXPECT_FALSE(plan_chain_walk(p, mc, 1, p.vms(), 1).feasible());
}

TEST(ChainWalk, InfeasibleWhenTooFewVms) {
  Problem p = line_problem();
  p.chain_length = 5;  // only 4 VMs exist
  const auto mc = closure_for(p, 0);
  EXPECT_FALSE(plan_chain_walk(p, mc, 0, p.vms(), 4).feasible());
}

TEST(ChainWalk, InfeasibleWhenDisconnected) {
  Problem p = line_problem();
  p.network = Graph(6);
  p.network.add_edge(0, 1, 1.0);  // island {0,1}; VMs 2..4 unreachable
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(3, 4, 1.0);
  p.network.add_edge(4, 5, 1.0);
  const auto mc = closure_for(p, 0);
  EXPECT_FALSE(plan_chain_walk(p, mc, 0, p.vms(), 4).feasible());
}

TEST(ChainWalk, InfeasibleWhenFewerVmsThanTheChainAreReachable) {
  // Source 0 - VM 1 form one component; VMs 2, 3 and the destination 4
  // the other.  The last VM 1 is reachable, but |C| = 3 needs two more VMs
  // from the source's component: no insertion is finite.
  Problem p;
  p.network = Graph(5);
  p.network.add_edge(0, 1, 1.0);
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(3, 4, 1.0);
  p.node_cost = {0.0, 2.0, 3.0, 4.0, 0.0};
  p.is_vm = {0, 1, 1, 1, 0};
  p.sources = {0};
  p.destinations = {4};
  p.chain_length = 3;
  ASSERT_TRUE(p.well_formed());
  const auto mc = closure_for(p, 0);
  EXPECT_FALSE(plan_chain_walk(p, mc, 0, p.vms(), 1).feasible());
  AlgoOptions exact;
  exact.stroll = kstroll::StrollAlgorithm::kExactDp;
  EXPECT_FALSE(plan_chain_walk(p, mc, 0, p.vms(), 1, exact).feasible());
}

TEST(ChainWalk, ZeroChainDegenerates) {
  Problem p = line_problem();
  p.chain_length = 0;
  const auto mc = closure_for(p, 0);
  const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), 4);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.nodes, std::vector<NodeId>{0});
  EXPECT_TRUE(plan.vnf_pos.empty());
  EXPECT_DOUBLE_EQ(plan.cost, 0.0);
}

TEST(ChainWalk, WalkMayRevisitNodes) {
  // Fig. 3-style: the cheap VMs sit "behind" the source, so the walk must
  // bounce.  Star: center 0 (source), VMs 1, 2 on separate spokes.
  Problem p;
  p.network = Graph(4);
  p.network.add_edge(0, 1, 1.0);
  p.network.add_edge(0, 2, 1.0);
  p.network.add_edge(0, 3, 1.0);
  p.node_cost = {0, 1, 1, 0};
  p.is_vm = {0, 1, 1, 0};
  p.sources = {0};
  p.destinations = {3};
  p.chain_length = 2;
  const auto mc = closure_for(p, 0);
  const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), 2);
  ASSERT_TRUE(plan.feasible());
  // Walk 0-1-0-2 revisits the hub.
  EXPECT_EQ(plan.nodes, (std::vector<NodeId>{0, 1, 0, 2}));
  EXPECT_DOUBLE_EQ(plan.cost, 3.0 + 2.0);
}

TEST(ChainWalk, AppendixDSourceCostIncluded) {
  Problem p = line_problem();
  p.source_setup_cost.assign(6, 0.0);
  p.source_setup_cost[0] = 7.0;
  const auto mc = closure_for(p, 0);
  const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), 4);
  ASSERT_TRUE(plan.feasible());
  EXPECT_DOUBLE_EQ(plan.cost, 7.0 + 1.0 + 4.0 + 4.0);
}

class ChainWalkRandom : public ::testing::TestWithParam<int> {};

TEST_P(ChainWalkRandom, StrollCostEqualsWalkCost) {
  // The "first characteristic" of §IV, end to end: lifting the stroll back
  // into G preserves cost exactly.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const int n = rng.uniform_int(8, 24);
  Problem p;
  p.network = Graph(n);
  for (NodeId v = 1; v < n; ++v) {
    p.network.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                       rng.uniform(0.5, 4.0));
  }
  for (int e = 0; e < n; ++e) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && p.network.find_edge(u, v) == graph::kInvalidEdge) {
      p.network.add_edge(u, v, rng.uniform(0.5, 4.0));
    }
  }
  p.node_cost.assign(static_cast<std::size_t>(n), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(n), 0);
  const int m = rng.uniform_int(4, std::min(8, n - 1));
  const auto vms = rng.sample_without_replacement(static_cast<std::size_t>(n - 1),
                                                  static_cast<std::size_t>(m));
  for (auto c : vms) {
    const NodeId v = static_cast<NodeId>(c + 1);
    p.is_vm[static_cast<std::size_t>(v)] = 1;
    p.node_cost[static_cast<std::size_t>(v)] = rng.uniform(0.5, 5.0);
  }
  p.sources = {0};
  p.destinations = {static_cast<NodeId>(n - 1)};
  p.chain_length = rng.uniform_int(1, std::min(4, m));

  const auto mc = closure_for(p, 0);
  for (NodeId u : p.vms()) {
    const ChainPlan plan = plan_chain_walk(p, mc, 0, p.vms(), u);
    if (!plan.feasible()) continue;
    EXPECT_NEAR(plan.cost, chain_plan_cost(p, plan), 1e-9);
    EXPECT_EQ(plan.vnf_pos.size(), static_cast<std::size_t>(p.chain_length));
    EXPECT_EQ(plan.nodes.back(), u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainWalkRandom, ::testing::Range(1, 13));

}  // namespace
}  // namespace sofe::core
