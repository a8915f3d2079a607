// k-stroll substrate tests: Procedure-1 construction (cost telescoping and
// Lemma-1 triangle inequality), heuristic vs exact-DP quality, the
// Appendix-D source-cost variant, and the price-keyed pricing session
// (DESIGN.md §9): shared-block instance assembly bitwise vs the per-pair
// builder, and PricingSession output bitwise vs the per-pair reference
// oracle with exact hit/reprice tallies across a mutation sequence (hub
// set, edge costs incl. the equal-cost parent-flip gadgets, node costs,
// source setup, VM set) and thread counts; and the row-scan solver kernel
// bitwise against a frozen copy of the matrix-scan solver it replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/kstroll/instance.hpp"
#include "sofe/kstroll/pricing.hpp"
#include "sofe/kstroll/solver.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::kstroll {
namespace {

struct Fixture {
  Graph g;
  std::vector<Cost> node_cost;
  std::vector<NodeId> vms;
  NodeId source;
};

/// Line network: s=0 - 1 - 2 - 3 - 4 with unit edges; VMs 1..4.
Fixture line5() {
  Fixture f{Graph(5), {0.0, 2.0, 4.0, 6.0, 8.0}, {1, 2, 3, 4}, 0};
  for (NodeId v = 0; v + 1 < 5; ++v) f.g.add_edge(v, v + 1, 1.0);
  return f;
}

Fixture random_fixture(std::uint64_t seed, int n, int vms) {
  util::Rng rng(seed);
  Fixture f{Graph(n), std::vector<Cost>(static_cast<std::size_t>(n), 0.0), {}, 0};
  for (NodeId v = 1; v < n; ++v) {
    f.g.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                 rng.uniform(0.5, 5.0));
  }
  for (int extra = 0; extra < n; ++extra) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && f.g.find_edge(u, v) == graph::kInvalidEdge) {
      f.g.add_edge(u, v, rng.uniform(0.5, 5.0));
    }
  }
  const auto chosen = rng.sample_without_replacement(static_cast<std::size_t>(n - 1),
                                                     static_cast<std::size_t>(vms));
  for (auto c : chosen) {
    const NodeId v = static_cast<NodeId>(c + 1);  // node 0 stays the source
    f.vms.push_back(v);
    f.node_cost[static_cast<std::size_t>(v)] = rng.uniform(1.0, 6.0);
  }
  return f;
}

graph::MetricClosure closure_for(const Fixture& f) {
  std::vector<NodeId> hubs = f.vms;
  hubs.push_back(f.source);
  return graph::MetricClosure(f.g, hubs);
}

TEST(StrollInstance, EdgeCostSharingMainModel) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, /*u=*/4, f.node_cost);
  ASSERT_EQ(inst.size(), 5u);
  // nodes = [0, 1, 2, 3, 4]; edge (s=0, 1): d(0,1)=1 plus (c(u=4)+c(1))/2 = 5.
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, 1), 1.0 + (8.0 + 2.0) / 2.0);
  // edge (1, 2): d=1 plus (c(1)+c(2))/2 = 3.
  EXPECT_DOUBLE_EQ(inst.edge_cost(1, 2), 1.0 + (2.0 + 4.0) / 2.0);
  // edge (s, u): d(0,4)=4 plus (c(4)+c(4))/2 = 8.
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, 4), 4.0 + 8.0);
}

TEST(StrollInstance, PathCostTelescopesToWalkCost) {
  // §IV "first characteristic": the instance cost of a simple s→u path equals
  // the setup cost of its interior+last VMs plus shortest-path connections.
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  // Path 0 -> 2 -> 4 visits VMs 2 and 4.
  const Cost path_cost = inst.edge_cost(0, 1 /*node 2? index*/);
  (void)path_cost;
  // Find indices of graph nodes 2 and 4.
  auto idx = [&](NodeId v) {
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      if (inst.nodes[i] == v) return i;
    }
    return std::size_t{999};
  };
  const Cost c = inst.edge_cost(0, idx(2)) + inst.edge_cost(idx(2), idx(4));
  // Setup: c(2)+c(4) = 12; connection: d(0,2)+d(2,4) = 4.
  EXPECT_DOUBLE_EQ(c, 16.0);
}

class TriangleInequality : public ::testing::TestWithParam<int> {};

TEST_P(TriangleInequality, Lemma1HoldsOnRandomInstances) {
  Fixture f = random_fixture(static_cast<std::uint64_t>(GetParam()) * 31 + 5, 18, 7);
  const auto mc = closure_for(f);
  for (NodeId u : f.vms) {
    const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const std::size_t n = inst.size();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t c = 0; c < n; ++c) {
          if (a == b || b == c || a == c) continue;
          EXPECT_LE(inst.edge_cost(a, c), inst.edge_cost(a, b) + inst.edge_cost(b, c) + 1e-9)
              << "triangle inequality violated (Lemma 1)";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleInequality, ::testing::Range(1, 9));

TEST(StrollSolver, TrivialKTwo) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  const auto s = solve_stroll(inst, 2);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(s.order.size(), 2u);
  EXPECT_DOUBLE_EQ(s.cost, inst.edge_cost(0, inst.last_index));
}

TEST(StrollSolver, InfeasibleWhenTooFewNodes) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  EXPECT_FALSE(solve_stroll(inst, 7).feasible());   // only 5 nodes exist
  EXPECT_FALSE(exact_dp(inst, 7).feasible());
}

TEST(StrollSolver, LineNetworkOrderedVisit) {
  // On a line with increasing VM costs, the cheapest 3-stroll 0→4 takes the
  // cheapest intermediate VM (node 1).
  Fixture f = line5();
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost);
  const auto s = exact_dp(inst, 3);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(inst.nodes[s.order[1]], 1);
}

struct QualityCase {
  int seed;
  int nodes, vms, k;
};

class StrollQuality : public ::testing::TestWithParam<QualityCase> {};

TEST_P(StrollQuality, HeuristicNearExactOnPaperScales) {
  const auto [seed, n, m, k] = GetParam();
  Fixture f = random_fixture(static_cast<std::uint64_t>(seed) * 977 + 13, n, m);
  const auto mc = closure_for(f);
  for (NodeId u : f.vms) {
    const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const auto heur = solve_stroll(inst, k, StrollAlgorithm::kCheapestInsertion);
    const auto exact = solve_stroll(inst, k, StrollAlgorithm::kExactDp);
    ASSERT_EQ(heur.feasible(), exact.feasible());
    if (!exact.feasible()) continue;
    // Structure checks.
    EXPECT_EQ(heur.order.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(heur.order.front(), 0u);
    EXPECT_EQ(heur.order.back(), inst.last_index);
    std::set<std::size_t> distinct(heur.order.begin(), heur.order.end());
    EXPECT_EQ(distinct.size(), heur.order.size());
    // Quality: never better than exact; within 25% at the paper's k <= 8.
    EXPECT_GE(heur.cost, exact.cost - 1e-9);
    EXPECT_LE(heur.cost, 1.25 * exact.cost + 1e-9);
    // Cost field consistent with the order.
    EXPECT_NEAR(heur.cost, inst.path_cost(heur.order), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrollQuality,
    ::testing::Values(QualityCase{1, 12, 5, 3}, QualityCase{2, 14, 6, 4},
                      QualityCase{3, 16, 7, 5}, QualityCase{4, 18, 8, 6},
                      QualityCase{5, 20, 9, 7}, QualityCase{6, 15, 6, 4},
                      QualityCase{7, 22, 10, 8}, QualityCase{8, 13, 5, 4},
                      QualityCase{9, 17, 8, 5}, QualityCase{10, 19, 9, 6}));

TEST(StrollInstance, AppendixDSourceCostTelescopes) {
  Fixture f = line5();
  const auto mc = closure_for(f);
  const Cost cs = 10.0;
  const auto inst = build_stroll_instance(f.g, mc, 0, f.vms, 4, f.node_cost, cs);
  auto idx = [&](NodeId v) {
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      if (inst.nodes[i] == v) return i;
    }
    return std::size_t{999};
  };
  // Walk 0 -> 2 -> 4: cost must be c(s) + c(2) + c(4) + d(0,2) + d(2,4) = 26.
  const Cost c = inst.edge_cost(0, idx(2)) + inst.edge_cost(idx(2), idx(4));
  EXPECT_DOUBLE_EQ(c, cs + 4.0 + 8.0 + 2.0 + 2.0);
  // Direct edge (s, u) carries the full c(s) + c(u).
  EXPECT_DOUBLE_EQ(inst.edge_cost(0, idx(4)), 4.0 + cs + 8.0);
}

TEST(StrollSolver, ImproveNeverWorsens) {
  Fixture f = random_fixture(4242, 20, 8);
  const auto mc = closure_for(f);
  const auto inst = build_stroll_instance(f.g, mc, f.source, f.vms, f.vms.back(), f.node_cost);
  auto s = cheapest_insertion(inst, 5);
  ASSERT_TRUE(s.feasible());
  const Cost before = s.cost;
  improve_stroll(inst, s);
  EXPECT_LE(s.cost, before + 1e-9);
}

// ---------------------------------------------------------------------------
// Price-keyed pricing (DESIGN.md §9)

TEST(SharedInstanceAssembly, BitwiseEqualToPerPairBuilder) {
  Fixture f = random_fixture(9001, 24, 9);
  const auto mc = closure_for(f);

  SharedVmBlock block;
  block.build(mc, f.vms, f.node_cost);
  InstanceAssembler assembler;
  assembler.bind_source(block, mc, f.vms, f.source);

  for (std::size_t j = 0; j < f.vms.size(); ++j) {
    const NodeId u = f.vms[j];
    const auto expect = build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost);
    const auto& got = assembler.with_last_vm(j, u, f.node_cost);
    ASSERT_EQ(got.nodes, expect.nodes);
    ASSERT_EQ(got.last_index, expect.last_index);
    // Every entry the solvers may read: row 0 in full, rows >= 1 at
    // columns >= 1 (column 0 of a VM row is never read — instance.hpp).
    for (std::size_t a = 0; a < expect.size(); ++a) {
      for (std::size_t b = a == 0 ? 0 : 1; b < expect.size(); ++b) {
        EXPECT_EQ(got.rows[a][b], expect.rows[a][b])  // bitwise: == on doubles
            << "entry (" << a << ", " << b << ") for last VM " << u;
      }
    }
  }
}

/// A Problem over a Fixture: sources pick up extra ids, chain length |C|.
core::Problem problem_for(const Fixture& f, std::vector<NodeId> sources, int chain_length) {
  core::Problem p;
  p.network = f.g;
  p.node_cost = f.node_cost;
  p.is_vm.assign(static_cast<std::size_t>(f.g.node_count()), 0);
  for (NodeId v : f.vms) p.is_vm[static_cast<std::size_t>(v)] = 1;
  p.sources = std::move(sources);
  p.destinations = {f.vms.back()};
  p.chain_length = chain_length;
  return p;
}

graph::MetricClosure closure_for_problem(const core::Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return graph::MetricClosure(p.network, hubs);
}

bool chains_equal(const std::vector<core::PricedChain>& a,
                  const std::vector<core::PricedChain>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source || a[i].last_vm != b[i].last_vm ||
        a[i].plan.nodes != b[i].plan.nodes || a[i].plan.vnf_pos != b[i].plan.vnf_pos ||
        a[i].plan.cost != b[i].plan.cost) {  // bitwise: == on doubles
      return false;
    }
  }
  return true;
}

/// The per-pair reference oracle: every (source, last VM) chain priced by
/// its own build_stroll_instance through plan_chain_walk, sources
/// ascending — the pricing loop the shared-block assembly replaced.
std::vector<core::PricedChain> reference_chains(const core::Problem& p,
                                                const graph::MetricClosure& closure,
                                                const core::AlgoOptions& opt = {}) {
  const std::vector<NodeId> vms = p.vms();
  std::vector<core::PricedChain> out;
  for (NodeId s : core::sorted_unique(p.sources)) {
    for (NodeId u : vms) {
      if (u == s) continue;
      core::ChainPlan plan = core::plan_chain_walk(p, closure, s, vms, u, opt);
      if (plan.feasible()) out.push_back(core::PricedChain{s, u, std::move(plan)});
    }
  }
  return out;
}

/// (source, last VM) pairs a price() call over `p` visits.
int pair_count(const core::Problem& p) {
  const std::vector<NodeId> vms = p.vms();
  int n = 0;
  for (NodeId s : core::sorted_unique(p.sources)) {
    for (NodeId u : vms) n += u != s ? 1 : 0;
  }
  return n;
}

/// One price() call on the session against `mc`, checked bitwise against
/// the reference oracle on a cold closure, with exact tallies: every pair
/// hits (`hit`) or every pair re-prices after a flush (!`hit`).
void expect_priced(core::PricingSession& session, const core::Problem& p,
                   const graph::MetricClosure& mc, bool hit, const std::string& step) {
  SCOPED_TRACE(step);
  core::PricingTally tally;
  const auto got = session.price(p, mc, p.sources, {}, {}, 1, &tally);
  EXPECT_TRUE(chains_equal(got, reference_chains(p, closure_for_problem(p))));
  EXPECT_EQ(tally.flushed, !hit);
  EXPECT_EQ(tally.hits, hit ? pair_count(p) : 0);
  EXPECT_EQ(tally.repriced, hit ? 0 : pair_count(p));
}

TEST(PricingSession, OneShotFreeFunctionMatchesThePerPairOracle) {
  for (const int chain_length : {1, 3}) {
    Fixture f = random_fixture(7117, 26, 8);
    const auto p = problem_for(f, {0, 5}, chain_length);
    const auto mc = closure_for_problem(p);
    const auto expect = reference_chains(p, mc);
    ASSERT_FALSE(expect.empty());
    EXPECT_TRUE(chains_equal(core::price_candidate_chains(p, mc, p.sources), expect));
    EXPECT_TRUE(chains_equal(core::price_candidate_chains(p, mc, p.sources, {}, 4), expect));
  }
}

/// The price-key soundness sequence (DESIGN.md §9): at every step the
/// session's output is bitwise the per-pair oracle's on a cold closure,
/// and the tallies say exactly whether the key held.
TEST(PricingSession, PriceKeySoundnessAcrossMutationSequence) {
  Fixture f = random_fixture(5150, 30, 9);
  auto p = problem_for(f, {0, 7, 11}, 3);
  auto mc = closure_for_problem(p);
  core::PricingSession session;
  expect_priced(session, p, mc, /*hit=*/false, "cold");
  expect_priced(session, p, mc, /*hit=*/true, "unchanged");

  // Same prices, grown then shrunk hub set (the warm-up case): rows are a
  // function of (graph, hub), so every chain hits.
  mc.extend(p.network, {3, 17, 23});
  expect_priced(session, p, mc, /*hit=*/true, "grown hub set");
  std::vector<NodeId> needed = p.vms();
  needed.insert(needed.end(), p.sources.begin(), p.sources.end());
  mc.retain(needed);
  expect_priced(session, p, mc, /*hit=*/true, "shrunk hub set");

  // Edge-cost-only changes, served by a repaired closure: flush.
  std::vector<graph::EdgeCostDelta> deltas;
  for (core::EdgeId e : {1, 4, 9}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost * 1.5 + 0.25);
    deltas.push_back({e, old_cost, p.network.edge(e).cost});
  }
  mc.refresh(p.network, deltas);
  expect_priced(session, p, mc, /*hit=*/false, "edge costs");
  expect_priced(session, p, mc, /*hit=*/true, "edge costs, repeated");

  // A departure restores exactly what was charged: the key moves back,
  // which is a flush too (the cache holds one price point).
  for (auto& d : deltas) {
    p.network.set_edge_cost(d.edge, d.old_cost);
    std::swap(d.old_cost, d.new_cost);
  }
  mc.refresh(p.network, deltas);
  expect_priced(session, p, mc, /*hit=*/false, "edge costs restored");

  // Node-cost-only changes at |C| >= 2 and at |C| = 1.
  p.node_cost[static_cast<std::size_t>(f.vms[2])] += 1.5;
  expect_priced(session, p, mc, /*hit=*/false, "node cost, |C| = 3");
  p.chain_length = 1;
  expect_priced(session, p, mc, /*hit=*/false, "chain length");
  p.node_cost[static_cast<std::size_t>(f.vms[4])] += 0.75;
  expect_priced(session, p, mc, /*hit=*/false, "node cost, |C| = 1");
  expect_priced(session, p, mc, /*hit=*/true, "node cost, |C| = 1, repeated");
  p.chain_length = 3;
  expect_priced(session, p, mc, /*hit=*/false, "chain length back");

  // Source setup costs (Appendix D) and the VM set: every chain re-prices.
  p.source_setup_cost.assign(static_cast<std::size_t>(p.network.node_count()), 0.0);
  p.source_setup_cost[7] = 2.5;
  expect_priced(session, p, mc, /*hit=*/false, "source setup");
  expect_priced(session, p, mc, /*hit=*/true, "source setup, repeated");
  NodeId fresh_vm = 1;
  while (p.is_vm[static_cast<std::size_t>(fresh_vm)] || fresh_vm == 7 || fresh_vm == 11) {
    ++fresh_vm;
  }
  p.is_vm[static_cast<std::size_t>(fresh_vm)] = 1;
  p.node_cost[static_cast<std::size_t>(fresh_vm)] = 3.0;
  mc.extend(p.network, {fresh_vm});
  expect_priced(session, p, mc, /*hit=*/false, "VM set");
}

/// The two equal-cost parent-flip gadgets, as price-key steps: repricing
/// s-a flips parents while every hub-pair distance survives, so a cache
/// keyed on distances alone would serve a lift path that no longer exists
/// in the tree.  The edge-cost key flushes, and the re-lift runs through b.
TEST(PricingSession, PriceKeySoundnessOnEqualCostParentFlips) {
  // Gadget 1 (|C| = 1): s=0, a=1, b=2, t=3 (VM); {a, b} at equal distance
  // joined by a zero-cost edge.  After the flip t hangs off b.
  {
    Graph g(4);
    const auto e_sa = g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 2, 0.0);
    g.add_edge(1, 3, 1.0);
    g.add_edge(2, 3, 1.0);
    core::Problem p;
    p.network = g;
    p.node_cost = {0.0, 0.0, 0.0, 2.0};
    p.is_vm = {0, 0, 0, 1};
    p.sources = {0};
    p.destinations = {3};
    p.chain_length = 1;
    auto mc = closure_for_problem(p);
    core::PricingSession session;
    expect_priced(session, p, mc, /*hit=*/false, "gadget 1, cold");
    EXPECT_EQ(session.price(p, mc, p.sources, {}, {})[0].plan.nodes,
              (std::vector<NodeId>{0, 1, 3}));

    const std::vector<graph::EdgeCostDelta> deltas{{e_sa, 1.0, 5.0}};
    p.network.set_edge_cost(e_sa, 5.0);
    mc.refresh(p.network, deltas);
    EXPECT_EQ(mc.tree(0).distance(3), 2.0);  // the trap: dists unchanged...
    EXPECT_EQ(mc.tree(0).parent[3], 2);      // ...but t now hangs off b
    expect_priced(session, p, mc, /*hit=*/false, "gadget 1, flipped");
    EXPECT_EQ(session.price(p, mc, p.sources, {}, {})[0].plan.nodes,
              (std::vector<NodeId>{0, 2, 3}));
  }
  // Gadget 2 (|C| = 2): s=0, a=1, b=2, m1=3 (VM), t=4 (VM); the flip is
  // at the interior non-VM node a of the s -> m1 lift segment.
  {
    Graph g(5);
    const auto e_sa = g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 2, 0.0);
    g.add_edge(1, 3, 1.0);
    g.add_edge(3, 4, 1.0);
    core::Problem p;
    p.network = g;
    p.node_cost = {0.0, 0.0, 0.0, 1.0, 2.0};
    p.is_vm = {0, 0, 0, 1, 1};
    p.sources = {0};
    p.destinations = {4};
    p.chain_length = 2;
    auto mc = closure_for_problem(p);
    core::PricingSession session;
    expect_priced(session, p, mc, /*hit=*/false, "gadget 2, cold");
    EXPECT_EQ(session.price(p, mc, p.sources, {}, {})[0].plan.nodes[1], 1);

    const std::vector<graph::EdgeCostDelta> deltas{{e_sa, 1.0, 5.0}};
    p.network.set_edge_cost(e_sa, 5.0);
    mc.refresh(p.network, deltas);
    EXPECT_EQ(mc.tree(0).distance(3), 2.0);  // every hub-pair distance survived
    EXPECT_EQ(mc.tree(0).distance(4), 3.0);
    EXPECT_EQ(mc.tree(0).parent[1], 2);      // a re-parented
    expect_priced(session, p, mc, /*hit=*/false, "gadget 2, flipped");
    EXPECT_EQ(session.price(p, mc, p.sources, {}, {})[0].plan.nodes[1], 2);
  }
}

TEST(PricingSession, BitIdenticalAcrossThreadCounts) {
  Fixture f = random_fixture(1357, 32, 10);
  auto p = problem_for(f, {0, 4, 8, 12, 16}, 3);
  auto mc = closure_for_problem(p);

  // Three identically-driven sessions, priced at 1 / 2 / 8 workers, across
  // a cold call, a repaired-closure flush and a hit: bit for bit.
  std::vector<std::unique_ptr<core::PricingSession>> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(std::make_unique<core::PricingSession>());
  const int threads[] = {1, 2, 8};
  const auto price_all = [&](const std::string& step) {
    SCOPED_TRACE(step);
    std::vector<std::vector<core::PricedChain>> out(3);
    for (std::size_t i = 0; i < 3; ++i) {
      out[i] = sessions[i]->price(p, mc, p.sources, {}, {}, threads[i]);
    }
    EXPECT_TRUE(chains_equal(out[0], out[1]));
    EXPECT_TRUE(chains_equal(out[0], out[2]));
    EXPECT_TRUE(chains_equal(out[0], reference_chains(p, closure_for_problem(p))));
  };
  price_all("cold");

  std::vector<graph::EdgeCostDelta> deltas;
  for (core::EdgeId e : {0, 3, 7, 15}) {
    const Cost old_cost = p.network.edge(e).cost;
    p.network.set_edge_cost(e, old_cost * 2.0 + 0.125);
    deltas.push_back({e, old_cost, p.network.edge(e).cost});
  }
  mc.refresh(p.network, deltas);
  price_all("repaired");
  price_all("hit");
}

TEST(PricingSession, FewerReachableVmsThanTheChainIsInfeasible) {
  // Source 0 - VM 1 form one component; VMs 2, 3 and the destination 4
  // the other.  |C| = 3 needs three VMs besides the source, but only VM 1
  // shares its component: the assembled (source, VM 1) instance has no
  // finite insertion and must price infeasible, not insert out of range.
  Fixture f{Graph(5), {0.0, 2.0, 3.0, 4.0, 0.0}, {1, 2, 3}, 0};
  f.g.add_edge(0, 1, 1.0);
  f.g.add_edge(2, 3, 1.0);
  f.g.add_edge(3, 4, 1.0);
  auto p = problem_for(f, {0}, 3);
  p.destinations = {4};
  ASSERT_TRUE(p.well_formed());
  const auto mc = closure_for_problem(p);

  core::PricingSession session;
  core::PricingTally tally;
  const auto got = session.price(p, mc, p.sources, {}, {}, 1, &tally);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(tally.repriced, 3);
  EXPECT_TRUE(reference_chains(p, mc).empty());
}

// ---------------------------------------------------------------------------
// Row-scan kernel vs a frozen oracle: the vector<vector> matrix-scan
// cheapest insertion + local search the row-scan kernel replaced, kept
// verbatim except that an insertion with no finite delta returns an
// infeasible Stroll (it used to insert out of range).  The kernel must
// return bitwise the same order and cost.

namespace oracle {

using Matrix = std::vector<std::vector<Cost>>;

Cost recompute(const Matrix& c, const std::vector<std::size_t>& order) {
  Cost sum = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) sum += c[order[i]][order[i + 1]];
  return sum;
}

void improve_stroll(const Matrix& c, Stroll& s) {
  const std::size_t n = c.size();
  const std::size_t m = s.order.size();
  if (m < 3) return;
  std::vector<bool> used(n, false);
  for (std::size_t x : s.order) used[x] = true;

  constexpr Cost kEps = 1e-12;
  bool improved = true;
  int guard = 256;
  while (improved && guard-- > 0) {
    improved = false;
    for (std::size_t i = 1; i + 1 < m; ++i) {
      for (std::size_t j = i; j + 1 < m; ++j) {
        const Cost before = c[s.order[i - 1]][s.order[i]] + c[s.order[j]][s.order[j + 1]];
        const Cost after = c[s.order[i - 1]][s.order[j]] + c[s.order[i]][s.order[j + 1]];
        if (after + kEps < before) {
          std::reverse(s.order.begin() + static_cast<std::ptrdiff_t>(i),
                       s.order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
          improved = true;
        }
      }
    }
    for (std::size_t i = 1; i + 1 < m && !improved; ++i) {
      const Cost remove_gain = c[s.order[i - 1]][s.order[i]] + c[s.order[i]][s.order[i + 1]] -
                               c[s.order[i - 1]][s.order[i + 1]];
      for (std::size_t gap = 0; gap + 1 < m; ++gap) {
        if (gap == i - 1 || gap == i) continue;
        const Cost insert_cost = c[s.order[gap]][s.order[i]] + c[s.order[i]][s.order[gap + 1]] -
                                 c[s.order[gap]][s.order[gap + 1]];
        if (insert_cost + kEps < remove_gain) {
          const std::size_t node = s.order[i];
          s.order.erase(s.order.begin() + static_cast<std::ptrdiff_t>(i));
          const std::size_t g = gap > i ? gap - 1 : gap;
          s.order.insert(s.order.begin() + static_cast<std::ptrdiff_t>(g) + 1, node);
          improved = true;
          break;
        }
      }
    }
    for (std::size_t i = 1; i + 1 < m && !improved; ++i) {
      const Cost here = c[s.order[i - 1]][s.order[i]] + c[s.order[i]][s.order[i + 1]];
      for (std::size_t x = 0; x < n; ++x) {
        if (used[x]) continue;
        const Cost there = c[s.order[i - 1]][x] + c[x][s.order[i + 1]];
        if (there + kEps < here) {
          used[s.order[i]] = false;
          used[x] = true;
          s.order[i] = x;
          improved = true;
          break;
        }
      }
    }
  }
  s.cost = recompute(c, s.order);
}

Stroll cheapest_insertion(const Matrix& c, std::size_t last_index, int k) {
  const std::size_t n = c.size();
  if (n < static_cast<std::size_t>(k) || last_index == 0) return {};
  Stroll s;
  s.order = {0, last_index};
  std::vector<bool> used(n, false);
  used[0] = used[last_index] = true;
  while (s.order.size() < static_cast<std::size_t>(k)) {
    Cost best_delta = graph::kInfiniteCost;
    std::size_t best_node = n, best_gap = 0;
    for (std::size_t x = 0; x < n; ++x) {
      if (used[x]) continue;
      for (std::size_t gap = 0; gap + 1 < s.order.size(); ++gap) {
        const std::size_t a = s.order[gap];
        const std::size_t b = s.order[gap + 1];
        const Cost delta = c[a][x] + c[x][b] - c[a][b];
        if (delta < best_delta) {
          best_delta = delta;
          best_node = x;
          best_gap = gap;
        }
      }
    }
    if (best_node == n) return {};
    s.order.insert(s.order.begin() + static_cast<std::ptrdiff_t>(best_gap) + 1, best_node);
    used[best_node] = true;
  }
  s.cost = recompute(c, s.order);
  improve_stroll(c, s);
  return s;
}

/// The full matrix of an owned instance, read straight from its storage.
Matrix dense(const StrollInstance& inst) {
  const std::size_t n = inst.size();
  EXPECT_EQ(inst.storage.size(), n * n);
  Matrix c(n, std::vector<Cost>(n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) c[a][b] = inst.storage[a * n + b];
  }
  return c;
}

}  // namespace oracle

void expect_bitwise_same(const Stroll& got, const Stroll& want, const std::string& what) {
  EXPECT_EQ(got.order, want.order) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost), std::bit_cast<std::uint64_t>(want.cost))
      << what << ": " << got.cost << " vs " << want.cost;
}

/// Checks the kernel against the oracle for k in {2..6} and every last VM,
/// on the per-pair instance and — main construction, source outside the
/// VM set — on the assembled instance over the same rows.  Also runs the
/// local search alone from a shuffled start, which reaches the 2-opt and
/// or-opt moves a cheapest-insertion start rarely needs.
void expect_kernel_matches_oracle(const Fixture& f, Cost source_setup, std::uint64_t seed) {
  const auto mc = closure_for(f);
  const bool assembled = source_setup == 0.0;
  SharedVmBlock block;
  InstanceAssembler assembler;
  if (assembled) {
    block.build(mc, f.vms, f.node_cost);
    assembler.bind_source(block, mc, f.vms, f.source);
  }
  util::Rng rng(seed);
  for (std::size_t j = 0; j < f.vms.size(); ++j) {
    const NodeId u = f.vms[j];
    const auto built =
        build_stroll_instance(f.g, mc, f.source, f.vms, u, f.node_cost, source_setup);
    const auto matrix = oracle::dense(built);
    const StrollInstance* got_assembled =
        assembled ? &assembler.with_last_vm(j, u, f.node_cost) : nullptr;
    for (int k = 2; k <= 6; ++k) {
      const std::string what = "last VM " + std::to_string(u) + ", k = " + std::to_string(k);
      const Stroll want = oracle::cheapest_insertion(matrix, built.last_index, k);
      expect_bitwise_same(cheapest_insertion(built, k), want, "built, " + what);
      if (got_assembled != nullptr) {
        expect_bitwise_same(cheapest_insertion(*got_assembled, k), want, "assembled, " + what);
      }

      // Local search alone, from a random k-node order s -> ... -> u.
      if (static_cast<std::size_t>(k) > built.size()) continue;
      std::vector<std::size_t> interior;
      for (std::size_t x = 1; x < built.size(); ++x) {
        if (x != built.last_index) interior.push_back(x);
      }
      rng.shuffle(interior);
      Stroll start;
      start.order = {0};
      start.order.insert(start.order.end(), interior.begin(), interior.begin() + (k - 2));
      start.order.push_back(built.last_index);
      Stroll expect_local = {start.order, 0.0};
      oracle::improve_stroll(matrix, expect_local);
      Stroll got_local = {start.order, 0.0};
      improve_stroll(built, got_local);
      expect_bitwise_same(got_local, expect_local, "improve, built, " + what);
      if (got_assembled != nullptr) {
        Stroll got_local_assembled = {start.order, 0.0};
        improve_stroll(*got_assembled, got_local_assembled);
        expect_bitwise_same(got_local_assembled, expect_local, "improve, assembled, " + what);
      }
    }
  }
}

/// Integer edge costs in {1, 2} and even VM costs in {2, 4}: every shared
/// setup term is an integer, so equal deltas are everywhere and the
/// first-(x, gap) tie rule decides most insertions.
Fixture tie_heavy_fixture(std::uint64_t seed, int n, int vms) {
  util::Rng rng(seed);
  Fixture f{Graph(n), std::vector<Cost>(static_cast<std::size_t>(n), 0.0), {}, 0};
  for (NodeId v = 1; v < n; ++v) {
    f.g.add_edge(v, static_cast<NodeId>(rng.index(static_cast<std::size_t>(v))),
                 static_cast<Cost>(1 + rng.index(2)));
  }
  for (int extra = 0; extra < n; ++extra) {
    const NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u != v && f.g.find_edge(u, v) == graph::kInvalidEdge) {
      f.g.add_edge(u, v, static_cast<Cost>(1 + rng.index(2)));
    }
  }
  const auto chosen = rng.sample_without_replacement(static_cast<std::size_t>(n - 1),
                                                     static_cast<std::size_t>(vms));
  for (auto c : chosen) {
    const NodeId v = static_cast<NodeId>(c + 1);
    f.vms.push_back(v);
    f.node_cost[static_cast<std::size_t>(v)] = static_cast<Cost>(2 * (1 + rng.index(2)));
  }
  return f;
}

/// random_fixture plus an island of `island_vms` VMs (a path, unit edges)
/// that the source cannot reach: their instance entries are +inf.
Fixture fixture_with_island(std::uint64_t seed, int n, int vms, int island_vms) {
  Fixture f = random_fixture(seed, n, vms);
  for (int i = 0; i < island_vms; ++i) {
    const NodeId v = f.g.add_node();
    if (i > 0) f.g.add_edge(v - 1, v, 1.0);
    f.node_cost.push_back(1.0 + static_cast<Cost>(i));
    f.vms.push_back(v);
  }
  return f;
}

TEST(RowScanKernel, BitwiseEqualToMatrixScanOracleOnRandomInstances) {
  for (int seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f = random_fixture(static_cast<std::uint64_t>(seed) * 7919 + 3, 16 + 2 * seed,
                                     5 + seed);
    expect_kernel_matches_oracle(f, 0.0, static_cast<std::uint64_t>(seed));
  }
}

TEST(RowScanKernel, BitwiseEqualToMatrixScanOracleOnTieHeavyIntegerCosts) {
  for (int seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f = tie_heavy_fixture(static_cast<std::uint64_t>(seed) * 104729 + 11,
                                        12 + 2 * seed, 6 + seed);
    expect_kernel_matches_oracle(f, 0.0, static_cast<std::uint64_t>(seed) + 100);
  }
}

TEST(RowScanKernel, BitwiseEqualToMatrixScanOracleWithUnreachableVms) {
  // Island sizes 1..3 against k up to 6: last VMs on the island, and
  // reachable last VMs with too few reachable VMs to fill the stroll.
  for (int seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f =
        fixture_with_island(static_cast<std::uint64_t>(seed) * 613 + 7, 10, 2 + seed, seed);
    expect_kernel_matches_oracle(f, 0.0, static_cast<std::uint64_t>(seed) + 200);
  }
}

TEST(RowScanKernel, BitwiseEqualToMatrixScanOracleWithAppendixDSourceCosts) {
  for (int seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f = random_fixture(static_cast<std::uint64_t>(seed) * 337 + 19, 18, 8);
    expect_kernel_matches_oracle(f, 2.5 * seed, static_cast<std::uint64_t>(seed) + 300);
  }
}

}  // namespace
}  // namespace sofe::kstroll
