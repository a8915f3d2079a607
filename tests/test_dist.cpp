// Multi-controller tests (Section VI): partition sanity, sharded-closure
// exactness (stitched rows == the global closure, bitwise), message
// accounting, and distributed-vs-centralized SOFDA equivalence, down to
// the merged candidate list.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/dist/sharded_closure.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/topology/topology.hpp"
#include "pricing_oracle.hpp"

namespace sofe::dist {
namespace {

/// Bitwise row comparison over the query contract of a sharded closure:
/// every hub's distance AND path to every hub/destination must equal the
/// global closure's exactly (EXPECT_EQ on doubles is deliberate).
void expect_rows_bitwise_equal(const graph::MetricClosure& sharded,
                               const graph::MetricClosure& global,
                               const std::vector<NodeId>& hubs,
                               const std::vector<NodeId>& targets, const char* label) {
  std::vector<NodeId> queries = hubs;
  queries.insert(queries.end(), targets.begin(), targets.end());
  for (NodeId h : hubs) {
    ASSERT_TRUE(sharded.is_hub(h)) << label;
    for (NodeId x : queries) {
      EXPECT_EQ(sharded.distance(h, x), global.distance(h, x))
          << label << ": distance (" << h << " -> " << x << ")";
      if (global.distance(h, x) < graph::kInfiniteCost) {
        EXPECT_EQ(sharded.path(h, x), global.path(h, x))
            << label << ": path (" << h << " -> " << x << ")";
      }
    }
  }
}

core::Problem sharded_problem(unsigned seed = 77) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = seed;
  return topology::make_problem(topology::softlayer(), cfg);
}

std::vector<NodeId> hub_set(const core::Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return hubs;
}

TEST(Partition, CoversAllNodesConnectedDomains) {
  const auto topo = topology::softlayer();
  for (int k : {1, 2, 3, 5}) {
    const auto part = partition_bfs(topo.g, k);
    EXPECT_EQ(part.num_domains, k);
    std::size_t covered = 0;
    for (int d = 0; d < k; ++d) covered += part.members[static_cast<std::size_t>(d)].size();
    EXPECT_EQ(covered, static_cast<std::size_t>(topo.g.node_count()));
    for (NodeId v = 0; v < topo.g.node_count(); ++v) {
      EXPECT_GE(part.domain_of[static_cast<std::size_t>(v)], 0);
      EXPECT_LT(part.domain_of[static_cast<std::size_t>(v)], k);
    }
  }
}

TEST(Partition, BordersTouchOtherDomains) {
  const auto topo = topology::softlayer();
  const auto part = partition_bfs(topo.g, 3);
  for (int d = 0; d < 3; ++d) {
    for (NodeId b : part.borders[static_cast<std::size_t>(d)]) {
      bool crosses = false;
      for (const auto& arc : topo.g.neighbors(b)) {
        if (part.domain_of[static_cast<std::size_t>(arc.to)] != d) crosses = true;
      }
      EXPECT_TRUE(crosses) << "border node " << b << " has no cross-domain link";
    }
  }
}

TEST(DistributedSofda, MatchesCentralizedCertificate) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 77;
  const auto topo = topology::softlayer();
  const auto p = topology::make_problem(topo, cfg);

  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());

  for (int controllers : {2, 3, 4}) {
    const auto dist_r = distributed_sofda(p, controllers);
    ASSERT_FALSE(dist_r.forest.empty()) << controllers << " controllers";
    EXPECT_TRUE(core::is_feasible(p, dist_r.forest))
        << core::validate(p, dist_r.forest).summary();
    // Cost-exact simulation: identical chain prices and auxiliary graph give
    // the identical Steiner certificate.
    EXPECT_NEAR(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost, 1e-6);
    EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
    // Walk geometry may differ in shortest-path tie-breaks only; the total
    // cost must stay in a tight band around the centralized result.
    EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central),
                0.05 * core::total_cost(p, central) + 1e-6);
    EXPECT_GT(dist_r.messages, 0u);
    EXPECT_GE(dist_r.rounds, 4);
  }
}

TEST(DistributedSofda, SingleControllerDegeneratesToCentralized) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 2;
  cfg.num_destinations = 3;
  cfg.chain_length = 2;
  cfg.seed = 13;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const auto central = core::sofda(p);
  const auto dist_r = distributed_sofda(p, 1);
  ASSERT_FALSE(dist_r.forest.empty());
  EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central), 1e-6);
}

TEST(Partition, OneDomainPerNode) {
  // k == |V|: every domain is a single node, and every node is a border of
  // its own domain (all of its links cross).
  const auto topo = topology::softlayer();
  const int n = static_cast<int>(topo.g.node_count());
  const auto part = partition_bfs(topo.g, n);
  EXPECT_EQ(part.num_domains, n);
  for (int d = 0; d < n; ++d) {
    ASSERT_EQ(part.members[static_cast<std::size_t>(d)].size(), 1u);
    EXPECT_EQ(part.borders[static_cast<std::size_t>(d)],
              part.members[static_cast<std::size_t>(d)]);
  }
}

TEST(Partition, ClampsControllerCountToNodeCount) {
  const auto topo = topology::ring(4);
  const auto part = partition_bfs(topo.g, 10);
  EXPECT_EQ(part.num_domains, 4);
  std::size_t covered = 0;
  for (const auto& m : part.members) covered += m.size();
  EXPECT_EQ(covered, 4u);
}

TEST(Partition, DisconnectedGraphStaysCovering) {
  // Two components (0-1-2 and 3-4).  The partition cannot keep every domain
  // connected, but it must stay a total, in-bounds covering in every build
  // type, with each component seeded before any gets a second seed.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  for (int k : {1, 2, 3, 5}) {
    const auto part = partition_bfs(g, k);
    EXPECT_EQ(part.num_domains, k);
    std::size_t covered = 0;
    for (const auto& m : part.members) covered += m.size();
    EXPECT_EQ(covered, 5u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_GE(part.domain_of[static_cast<std::size_t>(v)], 0);
      EXPECT_LT(part.domain_of[static_cast<std::size_t>(v)], k);
    }
  }
}

TEST(DistributedSofda, AllSourcesInOneDomain) {
  // Every source administered by a single controller: the other controllers
  // contribute no candidates, yet the merged pipeline must still reproduce
  // the centralized certificate.
  constexpr int kControllers = 3;
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 2;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 41;
  auto p = topology::make_problem(topology::softlayer(), cfg);

  // Re-home all sources into domain 0 of the partition the driver will use.
  const auto part = partition_bfs(p.network, kControllers);
  p.sources.clear();
  for (NodeId v : part.members[0]) {
    if (p.is_vm[static_cast<std::size_t>(v)]) continue;
    if (std::find(p.destinations.begin(), p.destinations.end(), v) != p.destinations.end()) {
      continue;
    }
    p.sources.push_back(v);
    if (p.sources.size() == 3) break;
  }
  ASSERT_GE(p.sources.size(), 2u) << "domain 0 too small to host the sources";
  for (NodeId s : p.sources) {
    ASSERT_EQ(part.domain(s), 0);
  }

  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());
  const auto dist_r = distributed_sofda(p, kControllers);
  ASSERT_FALSE(dist_r.forest.empty());
  EXPECT_TRUE(core::is_feasible(p, dist_r.forest))
      << core::validate(p, dist_r.forest).summary();
  EXPECT_NEAR(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost, 1e-6);
  EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
  EXPECT_NEAR(core::total_cost(p, dist_r.forest), core::total_cost(p, central),
              0.05 * core::total_cost(p, central) + 1e-6);
  EXPECT_GT(dist_r.messages, 0u);
}

TEST(DistributedSofda, MoreControllersMoreMessages) {
  topology::ProblemConfig cfg;
  cfg.num_vms = 6;
  cfg.num_sources = 2;
  cfg.num_destinations = 3;
  cfg.chain_length = 2;
  cfg.seed = 29;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const auto r2 = distributed_sofda(p, 2);
  const auto r5 = distributed_sofda(p, 5);
  EXPECT_GT(r5.messages, r2.messages);
}

class ShardedClosureBitIdentity : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedClosureBitIdentity, MatchesGlobalClosure) {
  // The tentpole contract: sharded per-domain builds + border-row exchange +
  // masked stitch reproduce the global MetricClosure bit for bit on every
  // hub × (hub ∪ destination) query — including the zero-cost VM-tap hubs
  // make_problem attaches — at every k and thread count.
  const auto [k, threads] = GetParam();
  const auto p = sharded_problem();
  const auto hubs = hub_set(p);
  const graph::MetricClosure global(p.network, hubs, 1);

  const int kk = k > 0 ? k : static_cast<int>(p.network.node_count());
  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, kk), hubs, p.destinations, threads, bus);
  expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "sharded");
}

TEST_P(ShardedClosureBitIdentity, ExactOnSmallGraphsWithSingleNodeDomains) {
  // The partition edge cases, all-pairs: every node is a hub, so the
  // stitched rows must reproduce the global closure on every pair.  On
  // ring(5), k = 4 mixes single-node and multi-node domains; at k = |V|
  // every domain is one node — on grid(3,3) the overlay then IS the graph
  // (every node a border, every link a cross link).
  const auto [k, threads] = GetParam();
  const topology::Topology ring = topology::ring(5);
  const topology::Topology grid = topology::grid(3, 3);
  for (const topology::Topology* topo : {&ring, &grid}) {
    const Graph& g = topo->g;
    const int kk = k > 0 ? k : static_cast<int>(g.node_count());
    const auto part = partition_bfs(g, kk);
    std::size_t singletons = 0;
    for (const auto& m : part.members) singletons += m.size() == 1 ? 1 : 0;
    if (k == 0) {
      EXPECT_EQ(singletons, static_cast<std::size_t>(g.node_count()));
    }
    if (k == 4 && topo == &ring) {
      EXPECT_GT(singletons, 0u);
      EXPECT_LT(singletons, part.members.size()) << "ring(5) at k=4 should mix domain sizes";
    }

    std::vector<NodeId> hubs(static_cast<std::size_t>(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) hubs[static_cast<std::size_t>(v)] = v;
    const graph::MetricClosure global(g, hubs, 1);
    MessageBus bus;
    ShardedClosure sc;
    sc.build(g, part, hubs, {}, threads, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, {}, topo == &ring ? "ring" : "grid");
  }
}

INSTANTIATE_TEST_SUITE_P(KTimesThreads, ShardedClosureBitIdentity,
                         ::testing::Combine(::testing::Values(1, 2, 4, 0),  // 0 = |V|
                                            ::testing::Values(1, 2, 8)));

TEST(ShardedClosure, BitIdenticalOnUnitCostTies) {
  // grid() is unit-cost: equal-length shortest paths abound, so this pins
  // the tie-break argument (local chains = global segments in exact
  // arithmetic) rather than relying on generic costs.
  const auto topo = topology::grid(5, 5);
  const std::vector<NodeId> hubs = {0, 7, 12, 24, 18};
  const std::vector<NodeId> dests = {4, 20, 13};
  const graph::MetricClosure global(topo.g, hubs, 1);
  for (int k : {2, 3, 4, 25}) {
    MessageBus bus;
    ShardedClosure sc;
    sc.build(topo.g, partition_bfs(topo.g, k), hubs, dests, 2, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, dests, "grid");
  }
}

TEST(ShardedClosure, DisconnectedGraphStaysExact) {
  // Two components; hubs and destinations on both sides.  Unreachable pairs
  // must be +inf on both views, reachable ones bitwise equal.
  Graph g(7);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 0.5);
  g.add_edge(2, 0, 2.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 2.5);
  g.add_edge(5, 6, 0.75);
  const std::vector<NodeId> hubs = {0, 2, 3, 6};
  const std::vector<NodeId> dests = {1, 5};
  const graph::MetricClosure global(g, hubs, 1);
  for (int k : {1, 2, 3}) {
    MessageBus bus;
    ShardedClosure sc;
    sc.build(g, partition_bfs(g, k), hubs, dests, 2, bus);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, dests, "disconnected");
  }
}

TEST(ShardedClosure, ExchangeLedgerChargesRowsAndBytes) {
  const auto p = sharded_problem();
  const auto hubs = hub_set(p);
  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, 4), hubs, p.destinations, 1, bus);
  const auto& st = sc.stats();
  EXPECT_EQ(st.domains, 4);
  EXPECT_GT(st.rows, 0u);
  EXPECT_GT(st.exchanged_rows, 0u);
  EXPECT_LT(st.exchanged_rows, st.rows + 1);  // coordinator rows never ship
  // One message per shipped row, entries counted as payload items, bytes
  // charged per entry — the MessageBus accounting-fix satellite.
  EXPECT_EQ(bus.messages(), st.exchanged_rows);
  EXPECT_EQ(bus.payload_items(), st.exchanged_entries);
  EXPECT_EQ(bus.payload_bytes(), st.exchanged_entries * sizeof(graph::Cost));
  EXPECT_EQ(st.exchanged_bytes, bus.payload_bytes());
  EXPECT_EQ(bus.rounds(), 1);
  // The skeleton is a strict subgraph on this instance: the whole point of
  // advertising rows instead of the global edge list.
  EXPECT_LT(st.skeleton_edges, static_cast<std::size_t>(p.network.edge_count()));
}

TEST(DistributedSofda, CertificateBitwiseIdenticalAcrossKAndThreads) {
  // The acceptance bar: "dist/k=<int>" solves stay *bitwise* identical to
  // the centralized run — certificate, walks and total cost, not just a
  // tolerance band — at every controller and thread count.
  const auto p = sharded_problem(77);
  core::SofdaStats central_stats;
  const auto central = core::sofda(p, {}, &central_stats);
  ASSERT_FALSE(central.empty());
  const Cost central_cost = core::total_cost(p, central);

  for (int controllers : {2, 3, 4, 7}) {
    for (int threads : {1, 4}) {
      core::AlgoOptions opt;
      opt.closure_threads = threads;
      const auto dist_r = distributed_sofda(p, controllers, opt);
      ASSERT_EQ(dist_r.forest.walks.size(), central.walks.size());
      for (std::size_t w = 0; w < central.walks.size(); ++w) {
        EXPECT_EQ(dist_r.forest.walks[w].source, central.walks[w].source);
        EXPECT_EQ(dist_r.forest.walks[w].destination, central.walks[w].destination);
        EXPECT_EQ(dist_r.forest.walks[w].nodes, central.walks[w].nodes);
        EXPECT_EQ(dist_r.forest.walks[w].vnf_pos, central.walks[w].vnf_pos);
      }
      EXPECT_EQ(dist_r.stats.steiner_tree_cost, central_stats.steiner_tree_cost);
      EXPECT_EQ(dist_r.stats.deployed_chains, central_stats.deployed_chains);
      EXPECT_EQ(core::total_cost(p, dist_r.forest), central_cost);
      EXPECT_EQ(dist_r.payload_bytes, dist_r.payload_bytes);  // field exists and is charged
      EXPECT_GT(dist_r.payload_bytes, 0u);
    }
  }
}

TEST(DistributedSofda, MergedCandidatesEqualCentralizedExactly) {
  // Each controller prunes against its own sources only, so its list holds
  // its local per-VM minima; the coordinator's merge keeps the global
  // minima with ties.  The merged list must be the centralized one chain
  // for chain, and the bus charges only the locally pruned chains.
  topology::ProblemConfig cfg;
  cfg.num_vms = 10;
  cfg.num_sources = 8;
  cfg.num_destinations = 4;
  cfg.chain_length = 2;
  cfg.seed = 41;
  const auto p = topology::make_problem(topology::softlayer(), cfg);
  const graph::MetricClosure global(p.network, hub_set(p));
  const auto central = core::price_candidate_chains(p, global, p.sources);
  ASSERT_TRUE(pricing_oracle::chains_equal(
      central, pricing_oracle::minimum_chains(pricing_oracle::reference_chains(p, global))));
  core::SofdaStats central_stats;
  const auto central_forest = core::sofda_from_candidates(p, global, central, {}, &central_stats);

  std::size_t filtered_by_merge = 0;
  for (int k : {2, 4}) {
    SCOPED_TRACE("k " + std::to_string(k));
    MessageBus bus;
    ShardedClosure sc;
    sc.build(p.network, partition_bfs(p.network, k), hub_set(p), p.destinations, 1, bus);
    std::vector<core::PricedChain> merged;
    for (int d = 0; d < k; ++d) {
      std::vector<NodeId> mine;
      for (NodeId s : p.sources) {
        if (sc.partition().domain(s) == d) mine.push_back(s);
      }
      const auto local = core::price_candidate_chains(p, sc.closure(), mine);
      merged.insert(merged.end(), local.begin(), local.end());
    }
    const std::size_t shipped = merged.size();
    core::merge_priced_chains(merged);
    EXPECT_TRUE(pricing_oracle::chains_equal(merged, central));
    filtered_by_merge += shipped - merged.size();

    const auto r = distributed_sofda_with(p, sc, bus);
    EXPECT_EQ(r.stats.candidate_chains, static_cast<int>(central.size()));
    EXPECT_EQ(r.stats.steiner_tree_cost, central_stats.steiner_tree_cost);
    EXPECT_TRUE(pricing_oracle::forests_equal(r.forest, central_forest));
  }
  EXPECT_GT(filtered_by_merge, 0u) << "some local minimum must lose to another domain's";
}

TEST(DistSession, EveryForestEqualsSofdaAcrossDestinationChangesAndRepricing) {
  // A stream that keeps network, VMs and sources but redraws the
  // destinations every solve, and moves one link price every other solve.
  // The shards advertise chains toward the build's destinations only, so a
  // stitched closure reused across solves would not be exact for the next
  // destinations: every forest must still be SOFDA's, bit for bit.
  const auto topo = topology::cogent();
  topology::ProblemConfig cfg;
  cfg.seed = 5;
  cfg.num_destinations = 6;
  auto p = topology::make_problem(topo, cfg);
  auto k2 = api::make_solver("dist/k=2");
  auto k4 = api::make_solver("dist/k=4");
  for (std::uint64_t seed = 101; seed <= 300; ++seed) {
    topology::ProblemConfig draw = cfg;
    draw.seed = seed;
    p.destinations = topology::make_problem(topo, draw).destinations;
    if (seed % 2 == 0) {
      const auto edges = static_cast<std::uint64_t>(p.network.edge_count());
      const auto e = static_cast<EdgeId>(seed * 37 % edges);
      const Cost c = p.network.edge(e).cost;
      if (c > 0.0) p.network.set_edge_cost(e, seed % 4 == 0 ? c * 1.5 : c * 0.75);
    }
    const auto want = core::sofda(p);
    for (api::Solver* solver : {k2.get(), k4.get()}) {
      EXPECT_TRUE(pricing_oracle::forests_equal(solver->solve(p), want))
          << solver->name() << " destinations seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sofe::dist
