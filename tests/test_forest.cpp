// ServiceForest cost-accounting tests: stage-edge deduplication (τ), shared
// VM setup (σ), walk revisits, and the pass-through shortening post-step
// (including its frozen per-segment-Dijkstra oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "sofe/core/dynamic.hpp"
#include "sofe/core/forest.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/partition.hpp"
#include "sofe/dist/sharded_closure.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/graph/shortest_path_engine.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"

namespace sofe::core {
namespace {

/// The SOFDA hub set: every VM plus every source.
std::vector<NodeId> sofda_hubs(const Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return hubs;
}

/// A complete closure over the SOFDA hub set.
graph::MetricClosure complete_closure(const Problem& p) {
  return graph::MetricClosure(p.network, sofda_hubs(p));
}

/// Line 0-1-2-3-4-5 with unit edges; VMs at 2 and 3.
Problem line6() {
  Problem p;
  p.network = Graph(6);
  for (NodeId v = 0; v + 1 < 6; ++v) p.network.add_edge(v, v + 1, 1.0);
  p.node_cost = {0, 0, 5, 7, 0, 0};
  p.is_vm = {0, 0, 1, 1, 0, 0};
  p.sources = {0};
  p.destinations = {5};
  p.chain_length = 2;
  return p;
}

ChainWalk straight_walk() {
  ChainWalk w;
  w.source = 0;
  w.destination = 5;
  w.nodes = {0, 1, 2, 3, 4, 5};
  w.vnf_pos = {2, 3};
  return w;
}

TEST(ForestCost, SingleWalk) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 5.0);
  EXPECT_DOUBLE_EQ(total_cost(p, f), 17.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, SharedChainCountedOnce) {
  Problem p = line6();
  p.destinations = {4, 5};
  ServiceForest f;
  ChainWalk w1 = straight_walk();
  w1.destination = 4;
  w1.nodes = {0, 1, 2, 3, 4};
  ChainWalk w2 = straight_walk();
  f.walks = {w1, w2};
  // Chain edges 0-1,1-2,2-3 and distribution 3-4 shared; 4-5 extra for w2.
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 5.0);
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);  // VMs shared
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, RevisitedEdgePaidPerStage) {
  // Walk 0-1-2(f1)-1-2: edge 1-2 is used at stage 1 (to reach VM 2) and
  // again at stages 1/2 after bouncing — the paper's Fig. 1(b) effect.
  Problem p = line6();
  p.destinations = {4};
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk w;
  w.source = 0;
  w.destination = 4;
  w.nodes = {0, 1, 2, 1, 2, 3, 4};
  w.vnf_pos = {2};  // f1 at first visit of node 2
  f.walks.push_back(w);
  // Stage 0: edges (0,1),(1,2).  Stage 1: (2,1),(1,2) dedup to {1,2} once,
  // plus (2,3),(3,4).  (1,2) appears at stage 0 AND stage 1: paid twice.
  EXPECT_DOUBLE_EQ(connection_cost(p, f), 2.0 + 3.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, TwoTreesIndependent) {
  Problem p = line6();
  p.sources = {0, 5};
  p.destinations = {1, 4};
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk a;
  a.source = 0;
  a.destination = 1;
  a.nodes = {0, 1, 2, 1};
  a.vnf_pos = {2};
  ChainWalk b;
  b.source = 5;
  b.destination = 4;
  b.nodes = {5, 4, 3, 4};
  b.vnf_pos = {2};
  f.walks = {a, b};
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 12.0);
  EXPECT_EQ(f.used_sources().size(), 2u);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(ForestCost, EnabledVmsAggregates) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  const auto enabled = f.enabled_vms();
  ASSERT_EQ(enabled.size(), 2u);
  EXPECT_EQ(enabled.at(2), 1);
  EXPECT_EQ(enabled.at(3), 2);
}

TEST(ForestCost, SourceSetupCostsAppendixD) {
  Problem p = line6();
  p.source_setup_cost.assign(6, 0.0);
  p.source_setup_cost[0] = 4.0;
  ServiceForest f;
  f.walks.push_back(straight_walk());
  EXPECT_DOUBLE_EQ(setup_cost(p, f), 16.0);
}

TEST(Shorten, RemovesUselessDetour) {
  // Walk detours 0-1-2(f1)-1-0-1-2-3... no; simpler: add a shortcut edge and
  // a walk that ignores it on its pass-through segment.
  Problem p = line6();
  p.network.add_edge(2, 5, 1.0);  // shortcut from VM 2 straight to 5
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk w;
  w.source = 0;
  w.destination = 5;
  w.nodes = {0, 1, 2, 3, 4, 5};
  w.vnf_pos = {2};
  f.walks.push_back(w);
  const Cost before = total_cost(p, f);  // connection 5 + setup 5 = 10
  shorten_pass_through(p, complete_closure(p), f);
  EXPECT_LE(total_cost(p, f), before);
  // After the splice: 0-1-2 (2) + shortcut 2-5 (1) + setup 5 = 8.
  EXPECT_DOUBLE_EQ(total_cost(p, f), 8.0);
  EXPECT_TRUE(is_feasible(p, f));
}

TEST(Shorten, KeepsSharedSegmentsWhenCheaper) {
  // Two walks share an expensive-but-paid segment; shortening one onto a
  // private shortcut would RAISE the forest cost, so it must not happen.
  Problem p;
  p.network = Graph(5);
  p.network.add_edge(0, 1, 1.0);   // s -> vm
  p.network.add_edge(1, 2, 4.0);   // shared distribution trunk
  p.network.add_edge(2, 3, 0.5);   // to d1
  p.network.add_edge(2, 4, 0.5);   // to d2
  p.network.add_edge(1, 3, 4.2);   // private shortcut for d1 (longer than 0!)
  p.node_cost = {0, 1, 0, 0, 0};
  p.is_vm = {0, 1, 0, 0, 0};
  p.sources = {0};
  p.destinations = {3, 4};
  p.chain_length = 1;

  ServiceForest f;
  ChainWalk w1;
  w1.source = 0;
  w1.destination = 3;
  w1.nodes = {0, 1, 2, 3};
  w1.vnf_pos = {1};
  ChainWalk w2;
  w2.source = 0;
  w2.destination = 4;
  w2.nodes = {0, 1, 2, 4};
  w2.vnf_pos = {1};
  f.walks = {w1, w2};
  const Cost before = total_cost(p, f);  // 1 + 4 + 0.5 + 0.5 + setup 1 = 7
  shorten_pass_through(p, complete_closure(p), f);
  EXPECT_DOUBLE_EQ(total_cost(p, f), before) << "shortening must not raise forest cost";
}

TEST(Shorten, OnlyTriesPathsWithFewerHops) {
  // The segment 0-1-2 (2 hops, cost 10) has a cheaper 2-hop alternative
  // 0-3-2 (cost 2).  The shortening contract only tries shortest paths with
  // strictly fewer hops than the segment, so the walk stays as it is.
  Problem p;
  p.network = Graph(4);
  p.network.add_edge(0, 1, 5.0);
  p.network.add_edge(1, 2, 5.0);
  p.network.add_edge(0, 3, 1.0);
  p.network.add_edge(3, 2, 1.0);
  p.node_cost = {0, 0, 1, 0};
  p.is_vm = {0, 0, 1, 0};
  p.sources = {0};
  p.destinations = {2};
  p.chain_length = 1;
  ServiceForest f;
  ChainWalk w;
  w.source = 0;
  w.destination = 2;
  w.nodes = {0, 1, 2};
  w.vnf_pos = {2};
  f.walks.push_back(w);
  shorten_pass_through(p, complete_closure(p), f);
  EXPECT_EQ(f.walks.front().nodes, w.nodes);
}

// --- Frozen oracle -----------------------------------------------------------

/// The shortening sweep as it stood when every segment ran its own full
/// single-source Dijkstra, frozen here as the reference: the closure-served
/// shorten_pass_through must reproduce it bit for bit.
void reference_shorten(const Problem& p, ServiceForest& f) {
  Cost best = total_cost(p, f);
  graph::ShortestPathEngine engine(p.network);
  for (std::size_t wi = 0; wi < f.walks.size(); ++wi) {
    ChainWalk& w = f.walks[wi];
    std::vector<std::size_t> essential{0};
    essential.insert(essential.end(), w.vnf_pos.begin(), w.vnf_pos.end());
    if (essential.back() != w.nodes.size() - 1) essential.push_back(w.nodes.size() - 1);

    for (std::size_t k = 0; k + 1 < essential.size(); ++k) {
      const std::size_t a = essential[k];
      const std::size_t b = essential[k + 1];
      if (b <= a + 1) continue;
      const auto& sp = engine.run(w.nodes[a]);
      if (!sp.reachable(w.nodes[b])) continue;
      const auto path = sp.path_to(w.nodes[b]);
      if (path.size() >= b - a + 1) continue;

      ChainWalk saved = w;
      std::vector<NodeId> nodes(w.nodes.begin(), w.nodes.begin() + static_cast<std::ptrdiff_t>(a));
      nodes.insert(nodes.end(), path.begin(), path.end());
      nodes.insert(nodes.end(), w.nodes.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                   w.nodes.end());
      const std::ptrdiff_t shift =
          static_cast<std::ptrdiff_t>(a + path.size() - 1) - static_cast<std::ptrdiff_t>(b);
      ChainWalk candidate = w;
      candidate.nodes = std::move(nodes);
      for (std::size_t& pos : candidate.vnf_pos) {
        if (pos >= b) pos = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pos) + shift);
      }
      w = std::move(candidate);
      const Cost now = total_cost(p, f);
      if (now <= best) {
        best = now;
        essential.assign(1, 0);
        essential.insert(essential.end(), w.vnf_pos.begin(), w.vnf_pos.end());
        if (essential.back() != w.nodes.size() - 1) essential.push_back(w.nodes.size() - 1);
      } else {
        w = std::move(saved);
      }
    }
  }
}

bool walks_equal(const ServiceForest& a, const ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    const ChainWalk& x = a.walks[i];
    const ChainWalk& y = b.walks[i];
    if (x.source != y.source || x.destination != y.destination || x.nodes != y.nodes ||
        x.vnf_pos != y.vnf_pos) {
      return false;
    }
  }
  return true;
}

/// Inserts out-and-back detours (v -> x1 -> ... -> xL -> ... -> x1 -> v
/// along random links) into random positions of every walk.  The walk stays
/// feasible, and each detour gives shortening a segment to cut.
void add_detours(const Problem& p, ServiceForest& f, util::Rng& rng) {
  for (ChainWalk& w : f.walks) {
    const int detours = rng.uniform_int(1, 3);
    for (int d = 0; d < detours; ++d) {
      const std::size_t i = rng.index(w.nodes.size());
      std::vector<NodeId> out{w.nodes[i]};
      const int len = rng.uniform_int(1, 3);
      for (int step = 0; step < len; ++step) {
        const auto arcs = p.network.neighbors(out.back());
        if (arcs.empty()) break;
        out.push_back(arcs[rng.index(arcs.size())].to);
      }
      // Out along `out`, then back to w.nodes[i].
      std::vector<NodeId> loop(out.begin() + 1, out.end());
      loop.insert(loop.end(), out.rbegin() + 1, out.rend());
      w.nodes.insert(w.nodes.begin() + static_cast<std::ptrdiff_t>(i) + 1, loop.begin(),
                     loop.end());
      for (std::size_t& pos : w.vnf_pos) {
        if (pos > i) pos += loop.size();
      }
    }
  }
}

struct OracleCase {
  std::string name;
  topology::Topology topo;
  topology::ProblemConfig cfg;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const auto add = [&](const std::string& name, const topology::Topology& topo, int vms,
                       int srcs, int dests, int chain, std::uint64_t seed) {
    topology::ProblemConfig cfg;
    cfg.num_vms = vms;
    cfg.num_sources = srcs;
    cfg.num_destinations = dests;
    cfg.chain_length = chain;
    cfg.seed = seed;
    cases.push_back({name + "/seed" + std::to_string(seed), topo, cfg});
  };
  const auto softlayer = topology::softlayer();
  const auto cogent = topology::cogent();
  const auto geo = topology::random_geometric(80, 0.22, 5);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    add("softlayer", softlayer, 10, 3, 6, 2, seed);
    add("cogent", cogent, 16, 4, 10, 3, seed);
    add("geometric", geo, 12, 3, 8, 1 + static_cast<int>(seed % 3), seed);
  }
  return cases;
}

/// Shortens `base` through the oracle and through `closure`; both must give
/// bitwise the same walks and cost.  Returns whether the oracle changed
/// anything (so callers can check the comparison is not vacuous).
bool expect_matches_oracle(const Problem& p, const graph::MetricClosure& closure,
                           const ServiceForest& base, const std::string& label) {
  ServiceForest expect = base;
  reference_shorten(p, expect);
  ServiceForest got = base;
  shorten_pass_through(p, closure, got);
  EXPECT_TRUE(walks_equal(got, expect)) << label;
  EXPECT_EQ(total_cost(p, got), total_cost(p, expect)) << label;
  EXPECT_TRUE(is_feasible(p, got)) << label;
  return !walks_equal(base, expect);
}

/// Unshortened SOFDA forests of `p`: the raw forest and a detoured copy.
std::vector<ServiceForest> raw_forests(const Problem& p, util::Rng& rng) {
  AlgoOptions raw;
  raw.shorten = false;
  ServiceForest f = sofda(p, raw);
  if (f.empty()) return {};
  ServiceForest detoured = f;
  add_detours(p, detoured, rng);
  return {std::move(f), std::move(detoured)};
}

TEST(ShortenOracle, CompleteAndBoundedClosuresMatchThePerSegmentDijkstra) {
  int changed = 0;
  int compared = 0;
  for (const OracleCase& c : oracle_cases()) {
    const Problem p = topology::make_problem(c.topo, c.cfg);
    util::Rng rng(c.cfg.seed * 31 + 7);
    const auto hubs = sofda_hubs(p);
    const graph::MetricClosure complete(p.network, hubs);
    graph::MetricClosure bounded;
    bounded.build(p.network, hubs, 1, nullptr,
                  graph::ClosureScope{true, std::span<const NodeId>(p.destinations)});
    for (const ServiceForest& base : raw_forests(p, rng)) {
      changed += expect_matches_oracle(p, complete, base, c.name + " complete");
      expect_matches_oracle(p, bounded, base, c.name + " bounded");
      ++compared;
    }
  }
  EXPECT_GT(compared, 20);
  // Every detoured forest (half of them) has something to splice.
  EXPECT_GE(changed, compared / 2) << "the oracle must actually splice";
}

TEST(ShortenOracle, RefreshedClosureMatchesThePerSegmentDijkstra) {
  int compared = 0;
  for (const OracleCase& c : oracle_cases()) {
    Problem p = topology::make_problem(c.topo, c.cfg);
    util::Rng rng(c.cfg.seed * 131 + 3);
    graph::MetricClosure closure(p.network, sofda_hubs(p));
    for (int round = 0; round < 3; ++round) {
      std::vector<graph::EdgeCostDelta> deltas;
      const int moves = rng.uniform_int(1, 6);
      for (int m = 0; m < moves; ++m) {
        const auto e = static_cast<EdgeId>(rng.index(static_cast<std::size_t>(p.network.edge_count())));
        const Cost old_cost = p.network.edge(e).cost;
        if (old_cost == 0.0) continue;  // keep the VM taps
        if (std::any_of(deltas.begin(), deltas.end(),
                        [e](const graph::EdgeCostDelta& d) { return d.edge == e; })) {
          continue;  // one delta per edge
        }
        const Cost new_cost = old_cost * rng.uniform(0.2, 3.0);
        p.network.set_edge_cost(e, new_cost);
        deltas.push_back({e, old_cost, new_cost});
      }
      closure.refresh(p.network, deltas);
      for (const ServiceForest& base : raw_forests(p, rng)) {
        expect_matches_oracle(p, closure, base,
                              c.name + " refreshed round " + std::to_string(round));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 60);
}

TEST(ShortenOracle, StitchedShardedClosureMatchesThePerSegmentDijkstra) {
  int compared = 0;
  for (const OracleCase& c : oracle_cases()) {
    const Problem p = topology::make_problem(c.topo, c.cfg);
    util::Rng rng(c.cfg.seed * 17 + 1);
    const auto forests = raw_forests(p, rng);
    dist::MessageBus bus;
    dist::ShardedClosure sc;
    sc.build(p.network, dist::partition_bfs(p.network, 2), sofda_hubs(p), p.destinations, 1,
             bus);
    for (const ServiceForest& base : forests) {
      expect_matches_oracle(p, sc.closure(), base, c.name + " sharded");
      ++compared;
    }
  }
  EXPECT_GT(compared, 20);
}

TEST(ShortenOracle, VnfDeleteMatchesThePerSegmentDijkstra) {
  int changed = 0;
  for (const OracleCase& c : oracle_cases()) {
    const Problem p = topology::make_problem(c.topo, c.cfg);
    util::Rng rng(c.cfg.seed * 7 + 5);
    for (const ServiceForest& base : raw_forests(p, rng)) {
      for (int j = 1; j <= p.chain_length; ++j) {
        DynamicForest live(p, base);
        ASSERT_TRUE(live.vnf_delete(j));

        Problem q = p;
        --q.chain_length;
        ServiceForest expect = base;
        for (ChainWalk& w : expect.walks) {
          w.vnf_pos.erase(w.vnf_pos.begin() + (j - 1));
        }
        const ServiceForest unshortened = expect;
        reference_shorten(q, expect);
        changed += !walks_equal(unshortened, expect);

        const std::string label = c.name + " vnf_delete " + std::to_string(j);
        EXPECT_TRUE(walks_equal(live.forest(), expect)) << label;
        EXPECT_EQ(live.cost(), total_cost(q, expect)) << label;
        EXPECT_TRUE(is_feasible(live.problem(), live.forest())) << label;
      }
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(Describe, MentionsCostAndVnfs) {
  Problem p = line6();
  ServiceForest f;
  f.walks.push_back(straight_walk());
  const std::string text = describe(p, f);
  EXPECT_NE(text.find("total cost 17"), std::string::npos);
  EXPECT_NE(text.find("[f1]"), std::string::npos);
  EXPECT_NE(text.find("[f2]"), std::string::npos);
}

TEST(StageEdges, StagesComputedCorrectly) {
  ChainWalk w = straight_walk();
  EXPECT_EQ(w.stage_at(0), 0);
  EXPECT_EQ(w.stage_at(1), 0);
  EXPECT_EQ(w.stage_at(2), 1);
  EXPECT_EQ(w.stage_at(3), 2);
  EXPECT_EQ(w.vnf_node(1), 2);
  EXPECT_EQ(w.vnf_node(2), 3);
}

}  // namespace
}  // namespace sofe::core
