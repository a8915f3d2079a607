// Tests for the sofe::api layer: the SolverRegistry round-trip, the
// session's closure-cache reuse/invalidation semantics, parallel-pricing
// bit-identity, and the simulate(Solver&) equivalence guarantee.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/baselines/baselines.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/topology/topology.hpp"
#include "pricing_oracle.hpp"

namespace {

using namespace sofe;
using api::make_solver;
using api::SolverOptions;
using api::SolverRegistry;
using core::NodeId;
using core::Problem;
using core::ServiceForest;

/// The quickstart instance (examples/quickstart.cpp): 10 nodes, 2 sources,
/// 2 destinations, 4 VMs, |C| = 2 — small enough for every solver
/// including "exact".
Problem quickstart_instance() {
  Problem p;
  p.network = core::Graph(10);
  const std::vector<std::tuple<int, int, double>> links = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {4, 5, 2.0},
      {5, 6, 1.0}, {6, 7, 1.0}, {7, 8, 1.0}, {8, 9, 1.0}, {9, 0, 2.0},
      {1, 6, 3.0}, {3, 8, 3.0},
  };
  for (const auto& [u, v, c] : links) {
    p.network.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), c);
  }
  p.node_cost = {0, 0, 2.0, 1.5, 0, 0, 1.0, 2.5, 0, 0};
  p.is_vm = {0, 0, 1, 1, 0, 0, 1, 1, 0, 0};
  p.sources = {0, 5};
  p.destinations = {4, 9};
  p.chain_length = 2;
  return p;
}

bool forests_equal(const ServiceForest& a, const ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    if (a.walks[i].source != b.walks[i].source ||
        a.walks[i].destination != b.walks[i].destination ||
        a.walks[i].nodes != b.walks[i].nodes || a.walks[i].vnf_pos != b.walks[i].vnf_pos) {
      return false;
    }
  }
  return true;
}

TEST(Registry, EveryRegisteredNameSolvesTheQuickstartInstance) {
  const auto p = quickstart_instance();
  const auto names = SolverRegistry::global().names();
  ASSERT_GE(names.size(), 9u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto solver = make_solver(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), name);
    EXPECT_FALSE(SolverRegistry::global().describe(name).empty());
    const auto f = solver->solve(p);
    ASSERT_FALSE(f.empty());
    const auto report = core::validate(p, f);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_TRUE(solver->report().feasible);
    EXPECT_EQ(solver->report().solver, name);
    EXPECT_DOUBLE_EQ(solver->report().total_cost, core::total_cost(p, f));
    EXPECT_GE(solver->report().total_seconds, 0.0);
  }
}

TEST(Registry, SessionsMatchTheFreeFunctions) {
  const auto p = quickstart_instance();
  EXPECT_TRUE(forests_equal(make_solver("sofda")->solve(p), core::sofda(p)));
  EXPECT_TRUE(forests_equal(make_solver("sofda-ss")->solve(p),
                            core::sofda_ss(p, p.sources.front())));
  EXPECT_TRUE(forests_equal(make_solver("baseline/st")->solve(p),
                            baselines::run(p, baselines::Kind::kSt)));
  EXPECT_TRUE(forests_equal(make_solver("baseline/est")->solve(p),
                            baselines::run(p, baselines::Kind::kEst)));
  EXPECT_TRUE(forests_equal(make_solver("baseline/enemp")->solve(p),
                            baselines::run(p, baselines::Kind::kEnemp)));
  EXPECT_TRUE(forests_equal(make_solver("dist/k=3")->solve(p),
                            dist::distributed_sofda(p, 3).forest));
  const auto exact_f = make_solver("exact")->solve(p);
  const auto exact_r = exact::solve_exact(p);
  ASSERT_TRUE(exact_r.optimal);
  EXPECT_DOUBLE_EQ(core::total_cost(p, exact_f), exact_r.cost);
}

TEST(Registry, SofdaSessionMatchesFreeFunctionOnTopologyInstances) {
  const auto topo = topology::softlayer();
  auto solver = make_solver("sofda");
  auto threaded = make_solver("sofda", [] {
    SolverOptions o;
    o.threads = 4;
    return o;
  }());
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    topology::ProblemConfig cfg;
    cfg.seed = seed;
    const auto p = topology::make_problem(topo, cfg);
    const auto expect = core::sofda(p);
    EXPECT_TRUE(forests_equal(solver->solve(p), expect)) << "seed " << seed;
    EXPECT_TRUE(forests_equal(threaded->solve(p), expect)) << "seed " << seed;
  }
}

TEST(Registry, DistNamesAreParameterized) {
  auto& reg = SolverRegistry::global();
  EXPECT_TRUE(reg.contains("dist/k=2"));
  EXPECT_TRUE(reg.contains("dist/k=17"));  // synthesized, not pre-registered
  EXPECT_FALSE(reg.contains("dist/k=0"));
  EXPECT_FALSE(reg.contains("dist/k="));
  EXPECT_FALSE(reg.contains("dist/k=2x"));
  EXPECT_EQ(make_solver("dist/k=17")->name(), "dist/k=17");
}

TEST(Registry, MalformedDistParameterThrowsNamingTheField) {
  // A request that names the dist family but botches the controller count
  // is a malformed argument, not an unknown solver: create() must reject
  // it with a message naming the field instead of clamping or listing the
  // registry.  contains() stays lenient (above) — it answers "could this
  // name resolve", never validates.
  for (const char* name : {"dist/k=0", "dist/k=-3", "dist/k=", "dist/k=2x", "dist/k= 4"}) {
    try {
      (void)make_solver(name);
      FAIL() << name << " should have thrown";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("dist/k"), std::string::npos)
          << name << ": message must name the field, got \"" << e.what() << "\"";
    }
  }
  EXPECT_NO_THROW((void)make_solver("dist/k=3"));
}

TEST(Registry, DistSessionSolvesEqualTheFreeFunction) {
  // A dist session caches nothing across solves: a repeated solve and a
  // re-priced one each run the whole protocol cold and return exactly what
  // the free function returns, ledger included.
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 11;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("dist/k=3");

  for (const char* step : {"cold", "repeat", "re-priced"}) {
    SCOPED_TRACE(step);
    if (std::string_view(step) == "re-priced") {
      p.network.set_edge_cost(0, p.network.edge(0).cost * 2.0);
    }
    const auto want = dist::distributed_sofda(p, 3);
    EXPECT_TRUE(forests_equal(solver->solve(p), want.forest));
    const auto& r = solver->report();
    EXPECT_FALSE(r.closure_cache_hit);
    EXPECT_FALSE(r.closure_repaired);
    EXPECT_EQ(r.controllers, 3);
    EXPECT_EQ(r.payload_bytes, want.payload_bytes);
    EXPECT_EQ(r.rounds, want.rounds);
    EXPECT_EQ(r.sofda.steiner_tree_cost, want.stats.steiner_tree_cost);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_solver("no-such-solver"), std::invalid_argument);
  EXPECT_FALSE(SolverRegistry::global().contains("no-such-solver"));
}

TEST(Registry, CallersCanRegisterTheirOwnFactories) {
  SolverRegistry reg;  // private registry; the global one stays untouched
  class Null final : public api::Solver {
   public:
    using Solver::Solver;
    std::string_view name() const noexcept override { return "null"; }

   protected:
    ServiceForest do_solve(const Problem&, api::SolveReport&) override { return {}; }
  };
  reg.add("null", "returns the empty forest",
          [](const SolverOptions& opt) { return std::make_unique<Null>(opt); });
  ASSERT_TRUE(reg.contains("null"));
  const auto p = quickstart_instance();
  auto solver = reg.create("null");
  EXPECT_TRUE(solver->solve(p).empty());
  EXPECT_FALSE(solver->report().feasible);
}

TEST(Session, ClosureCacheHitsOnUnchangedProblem) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  const auto f1 = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);  // cold session
  const auto f2 = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f1, f2));
}

TEST(Session, EdgeCostMutationInvalidatesTheClosure) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.network.set_edge_cost(0, 10.0);
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));  // fresh result at new costs
  (void)solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);  // steady again
}

TEST(Session, StructuralMutationInvalidatesTheClosure) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.network.add_edge(0, 4, 0.5);  // new shortcut straight to a destination
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, HubSetShrinkIsAPureHit) {
  // Dropping a source drops its row and leaves every other row untouched,
  // so the shrunken request is a pure hit — and the result still matches
  // the free function exactly, because every tree is an independent
  // Dijkstra.
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.sources = {0};  // hubs = VMs + sources shrink
  const auto f = solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, HubSetGrowthExtendsInsteadOfRebuilding) {
  auto p = quickstart_instance();
  p.sources = {0};
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  p.sources = {0, 5};  // a new source hub appears
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(solver->report().closure_repaired);  // incremental acquire
  EXPECT_EQ(solver->report().closure_hubs_added, 1);
  EXPECT_EQ(solver->report().closure_delta_edges, 0);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

TEST(Session, CostDeltasRepairTheClosureBitIdentically) {
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 31;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  // An online-style reprice: a handful of links change cost.
  for (core::EdgeId e : {2, 9, 17, 23}) {
    p.network.set_edge_cost(e, p.network.edge(e).cost * 1.5 + 0.125);
  }
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(solver->report().closure_repaired);
  EXPECT_EQ(solver->report().closure_delta_edges, 4);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));  // repair exactness, end to end
  (void)solver->solve(p);
  EXPECT_TRUE(solver->report().closure_cache_hit);  // steady again
}

TEST(Session, MassiveDeltaFallsBackToRebuild) {
  auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  (void)solver->solve(p);
  for (core::EdgeId e = 0; e < p.network.edge_count(); ++e) {
    p.network.set_edge_cost(e, p.network.edge(e).cost + 0.5);
  }
  const auto f = solver->solve(p);
  EXPECT_FALSE(solver->report().closure_repaired);  // above the delta threshold
  EXPECT_GT(solver->report().closure_delta_edges, 0);
  EXPECT_TRUE(forests_equal(f, core::sofda(p)));
}

// Version counters are copied with the graph, so two Problem copies can
// carry the SAME Graph::version() with DIFFERENT link costs (the online
// simulator does exactly this every arrival).  The session must not take
// that bait.
TEST(Session, EqualVersionsWithDifferentCostsDoNotFalselyHit) {
  const auto base = quickstart_instance();
  auto p1 = base;
  auto p2 = base;
  p1.network.set_edge_cost(0, 5.0);  // both copies land on version V+1 ...
  p2.network.set_edge_cost(0, 9.0);  // ... with different costs
  ASSERT_EQ(p1.network.version(), p2.network.version());
  auto solver = make_solver("sofda");
  (void)solver->solve(p1);
  const auto f2 = solver->solve(p2);
  EXPECT_FALSE(solver->report().closure_cache_hit);
  EXPECT_TRUE(forests_equal(f2, core::sofda(p2)));
}

TEST(ParallelPricing, BitIdenticalForThreads128OnInet) {
  const auto topo = topology::inet(300, 600, 120, 5);
  topology::ProblemConfig cfg;
  cfg.num_vms = 12;
  cfg.num_sources = 7;
  cfg.num_destinations = 4;
  cfg.chain_length = 3;
  cfg.seed = 21;
  const auto p = topology::make_problem(topo, cfg);

  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  const graph::MetricClosure closure(p.network, hubs);

  const auto serial = core::price_candidate_chains(p, closure, p.sources, {}, 1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    const auto par = core::price_candidate_chains(p, closure, p.sources, {}, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].source, serial[i].source);
      EXPECT_EQ(par[i].last_vm, serial[i].last_vm);
      EXPECT_EQ(par[i].plan.nodes, serial[i].plan.nodes);
      EXPECT_EQ(par[i].plan.vnf_pos, serial[i].plan.vnf_pos);
      EXPECT_EQ(par[i].plan.cost, serial[i].plan.cost);  // bitwise: == on doubles
    }
  }
}

TEST(PricingCache, SessionTracksFreeFunctionAcrossArrivalStyleMutations) {
  // The SOFDA session's PricedChain cache (DESIGN.md §9) is keyed on
  // prices: cost deltas, source churn, setup-cost moves.  Every solve must
  // stay bitwise equal to the free function.
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 19;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");

  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_GT(solver->report().pricing_repriced, 0);  // cold cache
  EXPECT_TRUE(solver->report().pricing_flushed);

  // Unchanged problem: the closure hits and every chain serves from cache.
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_EQ(solver->report().pricing_repriced, 0);
  EXPECT_GT(solver->report().pricing_hits, 0);

  // A handful of link repricings: the closure repairs, the price key
  // moves and every chain re-prices — and the result still matches exactly.
  for (core::EdgeId e : {3, 11, 19}) {
    p.network.set_edge_cost(e, p.network.edge(e).cost * 1.25 + 0.5);
  }
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().closure_repaired);
  EXPECT_TRUE(solver->report().pricing_flushed);

  // Source churn (drop one, later re-add) at unchanged prices: nothing
  // flushes, every chain priced before is served from cache, and exactly
  // the pairs the departed source used to dominate are priced now.
  pricing_oracle::SessionTracker tracker;
  (void)tracker.next(p, /*flushed=*/true);  // what the last solve priced
  auto sources = p.sources;
  p.sources.pop_back();
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_FALSE(solver->report().pricing_flushed);
  EXPECT_EQ(solver->report().pricing_repriced, tracker.next(p, false).repriced);
  p.sources = sources;
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_FALSE(solver->report().pricing_flushed);
  EXPECT_EQ(solver->report().pricing_repriced, tracker.next(p, false).repriced);

  // A VM setup-cost move (|C| >= 2): the shared terms shift, all chains
  // re-price — and still match.
  const auto vms = p.vms();
  p.node_cost[static_cast<std::size_t>(vms[1])] += 0.75;
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().pricing_flushed);
}

TEST(PricingCache, MixedSolveAndSolveEpochStayBitwiseCold) {
  // One "sofda" session alternates between its own closure (solve) and a
  // publisher session's closure (solve_epoch).  The pricing cache is shared
  // by both: at unchanged prices a mode switch serves every chain from
  // cache, any price move flushes — and every forest stays bitwise the
  // cold one.
  const auto topo = topology::softlayer();
  topology::ProblemConfig cfg;
  cfg.seed = 23;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");
  api::ClosureSession publisher;
  const auto solve_epoch = [&](const Problem& q) {
    std::vector<NodeId> hubs = q.vms();
    hubs.insert(hubs.end(), q.sources.begin(), q.sources.end());
    api::SolveReport unused;
    return solver->solve_epoch(q, publisher.acquire(q.network, hubs, {}, unused));
  };

  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().pricing_flushed);

  // Same prices, epoch closure: every chain hits across the mode switch.
  EXPECT_TRUE(forests_equal(solve_epoch(p), core::sofda(p)));
  EXPECT_FALSE(solver->report().pricing_flushed);
  EXPECT_EQ(solver->report().pricing_repriced, 0);
  EXPECT_GT(solver->report().pricing_hits, 0);

  // A link price moves under the epoch: flush, then the session's own
  // (repaired) closure at the same prices hits again.
  p.network.set_edge_cost(5, p.network.edge(5).cost * 1.5 + 1.0);
  EXPECT_TRUE(forests_equal(solve_epoch(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().pricing_flushed);
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().closure_repaired);
  EXPECT_EQ(solver->report().pricing_repriced, 0);

  // Fewer sources on the epoch side: every chain priced before still
  // hits, and exactly the pairs the departed source used to dominate are
  // priced now.  A VM setup move flushes.
  pricing_oracle::SessionTracker tracker;
  (void)tracker.next(p, /*flushed=*/true);  // what the last solve priced
  p.sources.pop_back();
  EXPECT_TRUE(forests_equal(solve_epoch(p), core::sofda(p)));
  const int newly_needed = tracker.next(p, false).repriced;
  EXPECT_EQ(solver->report().pricing_repriced, newly_needed);
  EXPECT_GT(newly_needed, 0);  // this departure un-dominates pairs
  p.node_cost[static_cast<std::size_t>(p.vms().front())] += 0.5;
  EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
  EXPECT_TRUE(solver->report().pricing_flushed);
  EXPECT_TRUE(forests_equal(solve_epoch(p), core::sofda(p)));
  EXPECT_EQ(solver->report().pricing_repriced, 0);
}

TEST(PricingCache, AccumulatorAggregatesPricingTallies) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  (void)solver->solve(p);  // cold: every visited pair re-prices (one flush)
  (void)solver->solve(p);  // warm: every visited pair hits
  EXPECT_GT(acc.pricing_repriced(), 0u);
  EXPECT_GT(acc.pricing_hits(), 0u);
  EXPECT_EQ(acc.pricing_flushes(), 1u);
  EXPECT_EQ(acc.pricing_hits() + acc.pricing_repriced() + acc.pricing_pruned(),
            2u * static_cast<std::size_t>(pricing_oracle::pair_count(p)));
}

TEST(PricingCache, TalliesConserveTheEligiblePairs) {
  // hits + repriced + pruned == every eligible (source, last VM) pair, per
  // solve, across flushes, hits and source churn on Cogent — and the
  // pruning has work to do there.
  const auto topo = topology::cogent();
  topology::ProblemConfig cfg;
  cfg.seed = 29;
  cfg.num_vms = 30;
  cfg.num_sources = 8;
  auto p = topology::make_problem(topo, cfg);
  auto solver = make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  pricing_oracle::SessionTracker tracker;
  std::size_t eligible = 0;
  const auto solve_and_check = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_TRUE(forests_equal(solver->solve(p), core::sofda(p)));
    const api::SolveReport& r = solver->report();
    const auto expect = tracker.next(p, r.pricing_flushed);
    EXPECT_EQ(r.pricing_hits, expect.hits);
    EXPECT_EQ(r.pricing_repriced, expect.repriced);
    EXPECT_EQ(r.pricing_pruned, expect.pruned);
    EXPECT_EQ(r.pricing_hits + r.pricing_repriced + r.pricing_pruned,
              pricing_oracle::pair_count(p));
    EXPECT_GT(r.pricing_pruned, 0);
    eligible += static_cast<std::size_t>(pricing_oracle::pair_count(p));
  };
  solve_and_check("cold");
  solve_and_check("warm");
  p.network.set_edge_cost(7, p.network.edge(7).cost * 1.5 + 1.0);
  solve_and_check("link price moved");
  p.sources.erase(p.sources.begin(), p.sources.begin() + 3);
  solve_and_check("three sources left");
  EXPECT_EQ(acc.pricing_hits() + acc.pricing_repriced() + acc.pricing_pruned(), eligible);
}

TEST(OnlineSession, SimulateWithSolverMatchesEmbedFnBitForBit) {
  const auto topo = topology::softlayer();
  online::OnlineConfig cfg;
  cfg.requests = 6;
  cfg.min_destinations = 3;
  cfg.max_destinations = 5;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.seed = 77;

  const auto legacy = online::simulate(topo, cfg, "sofda",
                                       [](const Problem& p) { return core::sofda(p); });
  auto solver = make_solver("sofda");
  const auto session = online::simulate(topo, cfg, *solver);

  EXPECT_EQ(session.algorithm, "sofda");
  ASSERT_EQ(session.accumulative_cost.size(), legacy.accumulative_cost.size());
  for (std::size_t i = 0; i < legacy.accumulative_cost.size(); ++i) {
    EXPECT_EQ(session.accumulative_cost[i], legacy.accumulative_cost[i]);  // bitwise
    EXPECT_EQ(session.per_request_cost[i], legacy.per_request_cost[i]);
  }
  EXPECT_EQ(session.infeasible_requests, legacy.infeasible_requests);
  EXPECT_EQ(session.overloaded_links, legacy.overloaded_links);
}

TEST(OnlineSession, HoldingDeparturesStayBitIdenticalWithPricingCache) {
  // Departures return their ledger charges as cost-RESTORE deltas; the
  // pricing cache must ride both delta directions through the arrival
  // loop and reproduce the free-function series exactly.
  const auto topo = topology::softlayer();
  online::OnlineConfig cfg;
  cfg.requests = 10;
  cfg.min_destinations = 3;
  cfg.max_destinations = 5;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.holding_arrivals = 3;
  cfg.seed = 99;

  const auto legacy = online::simulate(topo, cfg, "sofda",
                                       [](const Problem& p) { return core::sofda(p); });
  auto solver = make_solver("sofda");
  const auto session = online::simulate(topo, cfg, *solver);
  ASSERT_EQ(session.accumulative_cost.size(), legacy.accumulative_cost.size());
  for (std::size_t i = 0; i < legacy.accumulative_cost.size(); ++i) {
    EXPECT_EQ(session.accumulative_cost[i], legacy.accumulative_cost[i]);  // bitwise
  }
  EXPECT_EQ(session.infeasible_requests, legacy.infeasible_requests);
  EXPECT_EQ(session.overloaded_links, legacy.overloaded_links);
}

TEST(ReportAccumulator, AggregatesPhaseTimingsAndCacheOutcomes) {
  const auto p = quickstart_instance();
  auto solver = make_solver("sofda");
  api::ReportAccumulator acc;
  solver->set_report_sink(&acc);
  (void)solver->solve(p);  // cold: rebuild
  (void)solver->solve(p);  // hit
  (void)solver->solve(p);  // hit
  EXPECT_EQ(acc.solves(), 3u);
  EXPECT_EQ(acc.cache_hits(), 2u);
  EXPECT_EQ(acc.repairs(), 0u);
  EXPECT_EQ(acc.rebuilds(), 1u);
  EXPECT_EQ(acc.infeasible(), 0u);
  const auto total = acc.total();
  EXPECT_EQ(total.count, 3u);
  EXPECT_GT(total.mean, 0.0);
  EXPECT_LE(total.p50, total.p95);
  EXPECT_LE(total.min, total.p50);
  EXPECT_LE(total.p95, total.max);
  EXPECT_NEAR(total.total, total.mean * 3.0, 1e-12);
  const auto closure = acc.closure();
  EXPECT_EQ(closure.count, 3u);
  EXPECT_GE(closure.max, 0.0);

  solver->set_report_sink(nullptr);
  (void)solver->solve(p);
  EXPECT_EQ(acc.solves(), 3u);  // detached

  acc.clear();
  EXPECT_EQ(acc.solves(), 0u);
  EXPECT_EQ(acc.total().count, 0u);
}

TEST(SolveReport, CarriesDistProtocolAndExactCertificates) {
  const auto p = quickstart_instance();
  auto d = make_solver("dist/k=4");
  (void)d->solve(p);
  EXPECT_EQ(d->report().controllers, 4);
  EXPECT_GT(d->report().messages, 0u);
  EXPECT_GT(d->report().rounds, 0);
  EXPECT_GT(d->report().sofda.deployed_chains, 0);

  auto ex = make_solver("exact");
  (void)ex->solve(p);
  EXPECT_TRUE(ex->report().optimal);
  EXPECT_GE(ex->report().bnb_nodes, 1);
}

TEST(SolverOptions, RoundTripsThroughAlgoOptions) {
  SolverOptions o;
  o.stroll = kstroll::StrollAlgorithm::kExactDp;
  o.steiner = steiner::Algorithm::kKmb;
  o.shorten = false;
  o.threads = 8;
  const auto a = o.algo();
  EXPECT_EQ(a.stroll, o.stroll);
  EXPECT_EQ(a.steiner, o.steiner);
  EXPECT_EQ(a.shorten, o.shorten);
  EXPECT_EQ(a.closure_threads, 8);
}

// --- Steady-state closure engine (DESIGN.md §13) --------------------------

// The session memory bound (DESIGN.md §13): after every acquire the stored
// closure holds exactly the distinct requested hubs, and each requested row
// is bitwise what a cold MetricClosure::build over the same hubs produces —
// through a pure hit, a shrinking hit, a repair that adds hubs, a
// departure-restore batch, a +inf link failure and its heal.
TEST(SessionMemoryBound, PlainAcquireStoresExactlyTheRequestedHubs) {
  api::ClosureSession session;
  topology::ProblemConfig cfg;
  cfg.num_vms = 8;
  cfg.num_sources = 3;
  cfg.num_destinations = 4;
  cfg.seed = 41;
  auto p = topology::make_problem(topology::softlayer(), cfg);
  const std::vector<NodeId> vms = p.vms();

  const auto check = [&](const std::vector<NodeId>& hubs, const char* step) -> api::SolveReport {
    SCOPED_TRACE(step);
    api::SolveReport rep;
    const graph::MetricClosure& got = session.acquire(p.network, hubs, 1, rep);
    const std::set<NodeId> distinct(hubs.begin(), hubs.end());
    EXPECT_EQ(got.hub_count(), distinct.size());
    const std::vector<NodeId> cold_hubs(distinct.begin(), distinct.end());
    const graph::MetricClosure cold(p.network, cold_hubs, 1);
    for (NodeId h : cold_hubs) {
      EXPECT_TRUE(got.is_hub(h)) << "hub " << h;
      if (!got.is_hub(h)) continue;
      const auto a = got.tree(h).materialize();
      const auto b = cold.tree(h).materialize();
      EXPECT_EQ(a.dist, b.dist) << "hub " << h;  // bitwise
      EXPECT_EQ(a.parent, b.parent) << "hub " << h;
      EXPECT_EQ(a.parent_edge, b.parent_edge) << "hub " << h;
    }
    return rep;
  };

  // Cold build; the request lists a source twice.
  std::vector<NodeId> hubs = vms;
  hubs.insert(hubs.end(), {p.sources[0], p.sources[1], p.sources[0]});
  EXPECT_FALSE(check(hubs, "cold").closure_repaired);
  EXPECT_TRUE(check(hubs, "pure hit").closure_cache_hit);

  std::vector<NodeId> fewer = vms;
  fewer.push_back(p.sources[0]);
  EXPECT_TRUE(check(fewer, "shrinking hit").closure_cache_hit);

  // An arrival charges a few links while the request swaps source 0 for
  // sources 1 (dropped by the shrinking hit), 2 and a destination hub.
  const std::vector<core::EdgeId> charged{2, 9, 17, 23};
  std::vector<core::Cost> before;
  for (core::EdgeId e : charged) {
    before.push_back(p.network.edge(e).cost);
    p.network.set_edge_cost(e, p.network.edge(e).cost * 1.5 + 0.125);
  }
  std::vector<NodeId> churned = vms;
  churned.insert(churned.end(), {p.sources[1], p.sources[2], p.destinations[0]});
  const api::SolveReport added = check(churned, "repair adding hubs");
  EXPECT_TRUE(added.closure_repaired);
  EXPECT_EQ(added.closure_hubs_added, 3);

  // A departure restores the charged costs.
  for (std::size_t i = 0; i < charged.size(); ++i) {
    p.network.set_edge_cost(charged[i], before[i]);
  }
  EXPECT_TRUE(check(churned, "departure restore").closure_repaired);

  // A link fails (+inf) and later heals.
  const core::EdgeId failed = 5;
  const core::Cost healthy = p.network.edge(failed).cost;
  p.network.set_edge_cost(failed, graph::kInfiniteCost);
  EXPECT_TRUE(check(hubs, "+inf failure").closure_repaired);
  p.network.set_edge_cost(failed, healthy);
  EXPECT_TRUE(check(hubs, "heal").closure_repaired);
}

TEST(Report, PostPricingPhaseSplitFitsInsideTheSolveTime) {
  // steiner/conflict/shorten seconds split sofda_from_candidates, which
  // solve_seconds times as a whole.
  for (const auto& name : {"sofda", "dist/k=2"}) {
    auto solver = make_solver(name);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      topology::ProblemConfig cfg;
      cfg.seed = seed;
      const auto p = topology::make_problem(topology::cogent(), cfg);
      ASSERT_FALSE(solver->solve(p).empty());
      const auto& r = solver->report();
      const auto& st = r.sofda;
      EXPECT_GE(st.steiner_seconds, 0.0) << name;
      EXPECT_GE(st.conflict_seconds, 0.0) << name;
      EXPECT_GE(st.shorten_seconds, 0.0) << name;
      EXPECT_LE(st.steiner_seconds + st.conflict_seconds + st.shorten_seconds, r.solve_seconds)
          << name << " seed " << seed;
    }
  }
}

}  // namespace
