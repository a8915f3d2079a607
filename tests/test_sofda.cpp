// SOFDA (Algorithm 2) tests: feasibility across instance shapes, multi-tree
// advantage (the paper's Fig. 1 motivation), the 3ρST envelope against the
// exact solver, and the Lemma-2 Steiner-certificate bound.

#include <gtest/gtest.h>

#include "sofe/core/sofda.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::core {
namespace {

Problem random_problem(std::uint64_t seed, int n, int m, int srcs, int dests, int chain) {
  util::Rng rng(seed);
  Problem p;
  p.network = Graph(n);
  for (NodeId v = 1; v < n; ++v) {
    p.network.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                       rng.uniform(0.5, 4.0));
  }
  for (int e = 0; e < 2 * n; ++e) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && p.network.find_edge(u, v) == graph::kInvalidEdge) {
      p.network.add_edge(u, v, rng.uniform(0.5, 4.0));
    }
  }
  p.node_cost.assign(static_cast<std::size_t>(n), 0.0);
  p.is_vm.assign(static_cast<std::size_t>(n), 0);
  const auto picks = rng.sample_without_replacement(static_cast<std::size_t>(n),
                                                    static_cast<std::size_t>(m + srcs + dests));
  int k = 0;
  for (int i = 0; i < m; ++i, ++k) {
    const NodeId v = static_cast<NodeId>(picks[static_cast<std::size_t>(k)]);
    p.is_vm[static_cast<std::size_t>(v)] = 1;
    p.node_cost[static_cast<std::size_t>(v)] = rng.uniform(0.5, 5.0);
  }
  for (int i = 0; i < srcs; ++i, ++k) {
    p.sources.push_back(static_cast<NodeId>(picks[static_cast<std::size_t>(k)]));
  }
  for (int i = 0; i < dests; ++i, ++k) {
    p.destinations.push_back(static_cast<NodeId>(picks[static_cast<std::size_t>(k)]));
  }
  p.chain_length = chain;
  return p;
}

TEST(Sofda, TwoIslandsNeedTwoTrees) {
  // Two well-separated clusters, one source+VMs+destination in each; a
  // single tree would pay the expensive inter-cluster bridge twice.
  Problem p;
  p.network = Graph(10);
  // Cluster A: 0(src) -1- 1(vm) -1- 2(vm) -1- 3(dst), chord 0-3.
  p.network.add_edge(0, 1, 1.0);
  p.network.add_edge(1, 2, 1.0);
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(0, 3, 1.5);
  // Cluster B mirrors: 5(src) - 6(vm) - 7(vm) - 8(dst), chord 5-8.
  p.network.add_edge(5, 6, 1.0);
  p.network.add_edge(6, 7, 1.0);
  p.network.add_edge(7, 8, 1.0);
  p.network.add_edge(5, 8, 1.5);
  // Expensive bridge.
  p.network.add_edge(3, 5, 50.0);
  p.network.add_edge(4, 0, 1.0);  // spare switches to keep ids dense
  p.network.add_edge(9, 8, 1.0);
  p.node_cost = {0, 1, 1, 0, 0, 0, 1, 1, 0, 0};
  p.is_vm = {0, 1, 1, 0, 0, 0, 1, 1, 0, 0};
  p.sources = {0, 5};
  p.destinations = {3, 8};
  p.chain_length = 2;

  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(f.used_sources().size(), 2u) << "SOFDA should build two trees";
  EXPECT_LT(total_cost(p, f), 20.0) << "must avoid the 50-cost bridge";
  EXPECT_EQ(stats.deployed_chains, 2);
}

TEST(Sofda, SingleSourceMatchesReasonableCost) {
  Problem p = random_problem(42, 16, 6, 1, 3, 2);
  const auto f = sofda(p);
  if (f.empty()) GTEST_SKIP();
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  const auto fss = sofda_ss(p, p.sources.front());
  ASSERT_FALSE(fss.empty());
  // Same problem, two valid algorithms; both within 4x of each other.
  EXPECT_LT(total_cost(p, f), 4.0 * total_cost(p, fss) + 1e-9);
}

TEST(Sofda, EmptyDestinations) {
  Problem p = random_problem(7, 12, 4, 2, 1, 2);
  p.destinations.clear();
  EXPECT_TRUE(sofda(p).empty());
}

TEST(Sofda, FewerReachableVmsThanTheChainYieldsAnEmptyForest) {
  // Source 0 - VM 1 form one component; VMs 2, 3 and the destination 4
  // the other.  No walk from the source can enable |C| = 3 VMs, so
  // pricing finds no chain and SOFDA returns an empty forest.
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
  SofdaStats stats;
  EXPECT_TRUE(sofda(p, {}, &stats).empty());
  EXPECT_EQ(stats.candidate_chains, 0);
}

TEST(Sofda, ChainLengthZeroIsPureMulticast) {
  Problem p = random_problem(8, 14, 4, 2, 4, 2);
  p.chain_length = 0;
  const auto f = sofda(p);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 0.0);
}

TEST(Sofda, StatsArePopulated) {
  Problem p = random_problem(11, 18, 6, 3, 4, 2);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP();
  EXPECT_GT(stats.candidate_chains, 0);
  EXPECT_GT(stats.deployed_chains, 0);
  EXPECT_GT(stats.steiner_tree_cost, 0.0);
  EXPECT_EQ(stats.rehomed_destinations, 0);
}

class SofdaFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(SofdaFeasibility, AlwaysFeasibleOnRandomInstances) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng shape(seed * 31337);
  const int n = shape.uniform_int(12, 40);
  const int m = shape.uniform_int(3, 8);
  const int srcs = shape.uniform_int(1, 4);
  const int dests = shape.uniform_int(1, 6);
  const int chain = shape.uniform_int(1, std::min(3, m));
  Problem p = random_problem(seed * 997 + 3, n, m, srcs, dests, chain);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP() << "infeasible instance";
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(stats.conflicts.dropped, 0) << "conflict resolution should never drop";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SofdaFeasibility, ::testing::Range(1, 41));

class SofdaEnvelope : public ::testing::TestWithParam<int> {};

TEST_P(SofdaEnvelope, WithinSixTimesOptimal) {
  // Theorem 3 with ρST = 2: cost(F) <= 6·OPT.  Empirically ~1.0-1.3x.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Problem p = random_problem(seed * 733 + 1, 14, 5, 2, 3, 2);
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  if (f.empty()) GTEST_SKIP();
  ASSERT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  const auto exact = exact::solve_exact(p);
  ASSERT_TRUE(exact.optimal);
  EXPECT_GE(total_cost(p, f) + 1e-9, exact.cost);
  EXPECT_LE(total_cost(p, f), 6.0 * exact.cost + 1e-9);
  // Lemma 2 certificate: the Ĝ Steiner tree costs at most 3·ρST·OPT.
  EXPECT_LE(stats.steiner_tree_cost, 6.0 * exact.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SofdaEnvelope, ::testing::Range(1, 21));

TEST(Sofda, VnfConflictInstanceResolvedFeasibly) {
  // Engineered crossing chains: two sources on opposite sides of a shared
  // VM pair — virtual edges overlap and Procedure 4 must kick in or the
  // shared VMs must agree on indices.
  Problem p;
  p.network = Graph(8);
  p.network.add_edge(0, 2, 1.0);
  p.network.add_edge(2, 3, 1.0);
  p.network.add_edge(3, 4, 1.0);
  p.network.add_edge(4, 1, 1.0);
  p.network.add_edge(2, 5, 1.0);   // dst A off VM 2
  p.network.add_edge(4, 6, 1.0);   // dst B off VM 4
  p.network.add_edge(3, 7, 4.0);   // spare
  p.node_cost = {0, 0, 2, 2, 2, 0, 0, 0};
  p.is_vm = {0, 0, 1, 1, 1, 0, 0, 0};
  p.sources = {0, 1};
  p.destinations = {5, 6};
  p.chain_length = 2;
  SofdaStats stats;
  const auto f = sofda(p, {}, &stats);
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(is_feasible(p, f)) << validate(p, f).summary();
  EXPECT_EQ(stats.rehomed_destinations, 0);
}

TEST(Sofda, DeterministicAcrossRuns) {
  Problem p = random_problem(99, 20, 6, 3, 4, 2);
  const auto f1 = sofda(p);
  const auto f2 = sofda(p);
  ASSERT_EQ(f1.walks.size(), f2.walks.size());
  EXPECT_DOUBLE_EQ(total_cost(p, f1), total_cost(p, f2));
}

TEST(Sofda, MoreSourcesNeverHurtMuch) {
  // Adding sources enlarges the solution space; SOFDA's result should not
  // get significantly worse (exact monotonicity is not guaranteed for an
  // approximation, so allow a small tolerance).
  Problem p = random_problem(123, 24, 6, 1, 4, 2);
  const auto f1 = sofda(p);
  if (f1.empty()) GTEST_SKIP();
  Problem p2 = p;
  for (NodeId v = 0; v < p.network.node_count(); ++v) {
    if (!p.is_vm[static_cast<std::size_t>(v)] && p2.sources.size() < 4 &&
        std::find(p.destinations.begin(), p.destinations.end(), v) == p.destinations.end() &&
        v != p.sources.front()) {
      p2.sources.push_back(v);
    }
  }
  const auto f2 = sofda(p2);
  ASSERT_FALSE(f2.empty());
  EXPECT_TRUE(is_feasible(p2, f2));
  EXPECT_LE(total_cost(p2, f2), 1.5 * total_cost(p, f1) + 1e-9);
}

}  // namespace
}  // namespace sofe::core
