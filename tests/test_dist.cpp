// Multi-controller tests (Section VI): partition sanity, sharded-closure
// exactness (stitched rows == the global closure, bitwise), message
// accounting, and distributed-vs-centralized SOFDA equivalence, down to
// the merged candidate list.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "sofe/api/solver.hpp"
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
  sc.build(p.network, partition_bfs(p.network, kk), hubs, p.destinations, threads, bus,
           /*bounded=*/true);
  expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "bounded");

  // The repairable (unbounded) flavor must agree too.
  MessageBus bus2;
  ShardedClosure sc2;
  sc2.build(p.network, partition_bfs(p.network, kk), hubs, p.destinations, threads, bus2,
            /*bounded=*/false);
  expect_rows_bitwise_equal(sc2.closure(), global, hubs, p.destinations, "unbounded");
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
    for (bool bounded : {true, false}) {
      MessageBus bus;
      ShardedClosure sc;
      sc.build(g, part, hubs, {}, threads, bus, bounded);
      expect_rows_bitwise_equal(sc.closure(), global, hubs, {}, topo == &ring ? "ring" : "grid");
    }
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
    sc.build(topo.g, partition_bfs(topo.g, k), hubs, dests, 2, bus, true);
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
    sc.build(g, partition_bfs(g, k), hubs, dests, 2, bus, true);
    expect_rows_bitwise_equal(sc.closure(), global, hubs, dests, "disconnected");
  }
}

TEST(ShardedClosure, ExchangeLedgerChargesRowsAndBytes) {
  const auto p = sharded_problem();
  const auto hubs = hub_set(p);
  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, 4), hubs, p.destinations, 1, bus, true);
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

class ShardedClosureRepair : public ::testing::TestWithParam<int> {};

TEST_P(ShardedClosureRepair, DeltaRepairMatchesFreshGlobal) {
  // set_edge_cost on an intra-domain edge, a cross link, and a
  // border-incident edge; after each batch the repaired sharded closure
  // must match a fresh global closure at the new costs, bit for bit.
  const int threads = GetParam();
  auto p = sharded_problem(91);
  const auto hubs = hub_set(p);
  const int k = 4;
  const auto part = partition_bfs(p.network, k);

  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, part, hubs, p.destinations, threads, bus, /*bounded=*/false);

  // Pick one edge of each flavor.
  EdgeId intra = graph::kInvalidEdge, cross = graph::kInvalidEdge,
         border_touch = graph::kInvalidEdge;
  const auto& edges = p.network.edges();
  std::vector<char> is_border(static_cast<std::size_t>(p.network.node_count()), 0);
  for (const auto& bl : part.borders) {
    for (NodeId b : bl) is_border[static_cast<std::size_t>(b)] = 1;
  }
  for (EdgeId e = 0; e < p.network.edge_count(); ++e) {
    const auto& ed = edges[static_cast<std::size_t>(e)];
    if (ed.cost == 0.0) continue;  // keep VM taps intact
    const bool crossing = part.domain(ed.u) != part.domain(ed.v);
    const bool touches_border =
        is_border[static_cast<std::size_t>(ed.u)] || is_border[static_cast<std::size_t>(ed.v)];
    if (crossing && cross == graph::kInvalidEdge) cross = e;
    if (!crossing && touches_border && border_touch == graph::kInvalidEdge) border_touch = e;
    if (!crossing && !touches_border && intra == graph::kInvalidEdge) intra = e;
  }
  ASSERT_NE(intra, graph::kInvalidEdge);
  ASSERT_NE(cross, graph::kInvalidEdge);
  ASSERT_NE(border_touch, graph::kInvalidEdge);

  int batch = 0;
  for (const auto& [e, factor] : {std::pair<EdgeId, double>{intra, 0.25},
                                  {cross, 3.0},
                                  {border_touch, 0.1}}) {
    ++batch;
    const Cost old_cost = p.network.edge(e).cost;
    const Cost new_cost = old_cost * factor;
    p.network.set_edge_cost(e, new_cost);
    const graph::EdgeCostDelta delta{e, old_cost, new_cost};
    const std::size_t rows_before = sc.stats().exchanged_rows;
    sc.refresh(p.network, std::span(&delta, 1), threads, bus);
    const graph::MetricClosure fresh(p.network, hubs, 1);
    expect_rows_bitwise_equal(sc.closure(), fresh, hubs, p.destinations,
                              batch == 1 ? "intra" : batch == 2 ? "cross" : "border");
    // Only dirtied rows re-ship: never the whole advertisement set again.
    EXPECT_LE(sc.stats().exchanged_rows - rows_before, sc.stats().rows);
  }
  EXPECT_GT(sc.stats().repaired_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardedClosureRepair, ::testing::Values(1, 2, 8));

TEST(ShardedClosure, ExtendAddsHubRowsIncrementally) {
  // The session's churned-in-source path: build without one source, extend
  // with it, and land bitwise on the full global closure.
  const auto p = sharded_problem(55);
  auto hubs = hub_set(p);
  const NodeId late = hubs.back();
  std::vector<NodeId> initial(hubs.begin(), hubs.end() - 1);

  MessageBus bus;
  ShardedClosure sc;
  sc.build(p.network, partition_bfs(p.network, 3), initial, p.destinations, 2, bus,
           /*bounded=*/false);
  ASSERT_FALSE(sc.closure().is_hub(late));

  sc.extend(p.network, hubs, 2, bus);
  const graph::MetricClosure global(p.network, hubs, 1);
  expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "extend");

  // Retain back to the initial set and re-extend: the warm local rows make
  // the second extend exchange-free or cheaper, never wrong.
  const std::size_t entries_first = sc.stats().exchanged_entries;
  sc.retain(initial);
  EXPECT_FALSE(sc.closure().is_hub(late));
  sc.extend(p.network, hubs, 2, bus);
  expect_rows_bitwise_equal(sc.closure(), global, hubs, p.destinations, "re-extend");
  EXPECT_EQ(sc.stats().exchanged_entries, entries_first)
      << "re-extending a warm hub should not re-ship rows";
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
  // for chain, bounded and unbounded, and the bus charges only the locally
  // pruned chains.
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
    for (bool bounded : {false, true}) {
      SCOPED_TRACE("k " + std::to_string(k) + (bounded ? ", bounded" : ", unbounded"));
      MessageBus bus;
      ShardedClosure sc;
      sc.build(p.network, partition_bfs(p.network, k), hub_set(p), p.destinations, 1, bus,
               bounded);
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
  }
  EXPECT_GT(filtered_by_merge, 0u) << "some local minimum must lose to another domain's";
}

}  // namespace
}  // namespace sofe::dist
