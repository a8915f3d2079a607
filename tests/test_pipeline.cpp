// Epoch-pipelined admission service tests (DESIGN.md §10): worker-count
// determinism against the sequential driver, the stale-price repricing
// rule under mid-epoch departures and OnlineConfig validation.

#include <gtest/gtest.h>

#include <stdexcept>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"

namespace sofe::online {
namespace {

OnlineConfig pipeline_config() {
  OnlineConfig cfg;
  cfg.requests = 12;
  cfg.min_destinations = 2;
  cfg.max_destinations = 4;
  cfg.min_sources = 2;
  cfg.max_sources = 3;
  cfg.chain_length = 2;
  cfg.vms_per_dc = 2;
  cfg.seed = 5;
  return cfg;
}

void expect_series_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.accumulative_cost.size(), b.accumulative_cost.size());
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    EXPECT_EQ(a.accumulative_cost[i], b.accumulative_cost[i]) << "arrival " << i;  // bitwise
    EXPECT_EQ(a.per_request_cost[i], b.per_request_cost[i]) << "arrival " << i;
  }
  EXPECT_EQ(a.infeasible_requests, b.infeasible_requests);
  EXPECT_EQ(a.overloaded_links, b.overloaded_links);
}

OnlineResult sequential_reference(const topology::Topology& topo, const OnlineConfig& cfg) {
  auto solver = api::make_solver("sofda");
  return simulate(topo, cfg, *solver);
}

// The tentpole contract: at every worker count and epoch size, with and
// without departures, on more than one topology, the pipeline's cost
// series is bitwise the sequential driver's.
TEST(PipelineDeterminism, MatchesSequentialDriverAcrossWorkersEpochsHolding) {
  const topology::Topology topos[] = {topology::softlayer(), topology::inet(40, 80, 8, 7)};
  for (const auto& topo : topos) {
    for (int holding : {0, 8}) {
      for (int epoch_size : {1, 4, 16}) {
        auto cfg = pipeline_config();
        cfg.holding_arrivals = holding;
        cfg.epoch_size = epoch_size;
        const OnlineResult ref = sequential_reference(topo, cfg);
        for (int workers : {1, 2, 8}) {
          PipelineOptions popt;
          popt.workers = workers;
          const OnlineResult got = serve_pipelined(topo, cfg, "sofda", {}, popt);
          SCOPED_TRACE(topo.name + " holding=" + std::to_string(holding) +
                       " S=" + std::to_string(epoch_size) + " W=" + std::to_string(workers));
          expect_series_identical(ref, got);
          EXPECT_EQ(got.workers, workers);
          EXPECT_EQ(got.epoch_size, epoch_size);
        }
      }
    }
  }
}

// The steady-state scenario (DESIGN.md §13): sources recurring from a
// fixed Zipf-ish pool, departures churning the ledger both ways, so source
// hubs churn in and out of every session closure.  Closure threads and
// pipeline workers stay pure speed knobs there on two topologies: every
// series is bitwise equal to the plain-defaults sequential reference.
TEST(PipelineDeterminism, RecurringSourcesArePureAcrossThreadsAndWorkers) {
  const topology::Topology topos[] = {topology::softlayer(), topology::inet(40, 80, 8, 7)};
  for (const auto& topo : topos) {
    for (int holding : {0, 8}) {
      auto cfg = pipeline_config();
      cfg.holding_arrivals = holding;
      cfg.epoch_size = 4;
      cfg.source_pool = 6;
      cfg.source_alpha = 1.0;
      const OnlineResult ref = sequential_reference(topo, cfg);
      api::SolverOptions opt;
      for (int threads : {1, 2, 8}) {
        opt.threads = threads;
        auto solver = api::make_solver("sofda", opt);
        SCOPED_TRACE(topo.name + " holding=" + std::to_string(holding) +
                     " threads=" + std::to_string(threads));
        expect_series_identical(ref, simulate(topo, cfg, *solver));
      }
      for (int workers : {1, 2, 8}) {
        PipelineOptions popt;
        popt.workers = workers;
        SCOPED_TRACE(topo.name + " holding=" + std::to_string(holding) +
                     " workers=" + std::to_string(workers));
        expect_series_identical(ref, serve_pipelined(topo, cfg, "sofda", opt, popt));
      }
    }
  }
}

// online::simulate re-expressed: at epoch_size 1 the sequential driver IS
// the historical per-arrival loop (pinned against the free function), and
// the 1-worker pipeline reproduces it through the full publish/commit
// machinery.
TEST(PipelineDeterminism, DegenerateCaseIsTheSequentialLoop) {
  const auto topo = topology::softlayer();
  const auto cfg = pipeline_config();  // epoch_size = 1
  const OnlineResult free_fn =
      simulate(topo, cfg, "SOFDA", [](const Problem& p) { return core::sofda(p); });
  const OnlineResult session = sequential_reference(topo, cfg);
  expect_series_identical(free_fn, session);
  PipelineOptions one;
  one.workers = 1;
  expect_series_identical(free_fn, serve_pipelined(topo, cfg, "sofda", {}, one));
}

// The stale-epoch gadget: holding_arrivals < epoch_size makes departures
// land mid-epoch, so the NEXT epoch's refresh moves prices downward while
// speculating workers (workers > epoch slots, lookahead on) already hold
// results priced against the old snapshot.  The stale-price rule must
// discard and re-solve them — the series still matches sequentially.
TEST(PipelineDeterminism, StaleEpochGadgetWithMidEpochDepartures) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 16;
  cfg.holding_arrivals = 2;  // departs inside the 4-slot epoch
  cfg.epoch_size = 4;
  const OnlineResult ref = sequential_reference(topo, cfg);
  PipelineOptions popt;
  popt.workers = 8;  // more workers than epoch slots forces speculation
  popt.lookahead_epochs = 1;
  const OnlineResult got = serve_pipelined(topo, cfg, "sofda", {}, popt);
  expect_series_identical(ref, got);
  // Speculation happened one way or the other; both outcomes of the rule
  // are schedule-dependent, so only their sum's possibility is asserted.
  EXPECT_GE(got.stale_repriced + got.speculative_commits, 0);
}

// Speculation off: lookahead 0 never prices ahead, so nothing can go
// stale, and the series still matches.
TEST(PipelineDeterminism, NoSpeculationStillMatches) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  PipelineOptions popt;
  popt.workers = 4;
  popt.lookahead_epochs = 0;
  const OnlineResult got = serve_pipelined(topo, cfg, "sofda", {}, popt);
  expect_series_identical(sequential_reference(topo, cfg), got);
  EXPECT_EQ(got.stale_repriced, 0);
  EXPECT_EQ(got.speculative_commits, 0);
}

// Solvers that don't price against shared closures run through the
// pipeline's non-epoch path (solve() on the replica) and must match too.
TEST(PipelineDeterminism, NonClosureSolverFamilyMatches) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 8;
  cfg.epoch_size = 4;
  auto solver = api::make_solver("baseline/est");
  const OnlineResult ref = simulate(topo, cfg, *solver);
  PipelineOptions popt;
  popt.workers = 4;
  expect_series_identical(ref, serve_pipelined(topo, cfg, "baseline/est", {}, popt));
}

// The epoch-size semantics are real: with prices frozen for a whole epoch
// the drivers see different Problems than per-arrival refresh, so the
// series of different epoch sizes are NOT compared — but each one is
// internally consistent (accumulative = running sum of per-request).
TEST(PipelineSemantics, EpochSeriesInternallyConsistent) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  PipelineOptions popt;
  popt.workers = 2;
  const OnlineResult r = serve_pipelined(topo, cfg, "sofda", {}, popt);
  ASSERT_EQ(r.per_request_cost.size(), static_cast<std::size_t>(cfg.requests));
  ASSERT_EQ(r.arrival_seconds.size(), static_cast<std::size_t>(cfg.requests));
  double sum = 0.0;
  for (std::size_t i = 0; i < r.per_request_cost.size(); ++i) {
    sum += r.per_request_cost[i];
    EXPECT_NEAR(sum, r.accumulative_cost[i], 1e-9);
  }
}

TEST(PipelineReports, SinkCollectsQueueWaitAndCommitPhases) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.requests = 8;
  cfg.epoch_size = 4;
  Pipeline pipeline(topo, cfg, "sofda", {}, PipelineOptions{2, 1});
  api::ReportAccumulator acc;
  pipeline.set_report_sink(&acc);
  (void)pipeline.run();
  // One committed report per arrival (a re-solved stale slot folds its
  // replacement, not both), with matching phase sample counts.
  EXPECT_EQ(acc.solves(), 8u);
  EXPECT_EQ(acc.queue_wait().count, 8u);
  EXPECT_EQ(acc.commit().count, 8u);
  EXPECT_GE(acc.queue_wait().total, 0.0);
}

TEST(PipelineValidation, RejectsDegenerateConfigs) {
  const auto topo = topology::softlayer();
  const auto expect_rejected = [&](OnlineConfig cfg) {
    EXPECT_THROW(simulate(topo, cfg, "SOFDA",
                          [](const Problem& p) { return core::sofda(p); }),
                 std::invalid_argument);
    EXPECT_THROW(Pipeline(topo, cfg, "sofda", {}, {}), std::invalid_argument);
  };
  auto cfg = pipeline_config();
  cfg.requests = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.min_destinations = 5;
  cfg.max_destinations = 4;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.min_sources = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.holding_arrivals = -1;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.epoch_size = 0;
  expect_rejected(cfg);
  cfg = pipeline_config();
  cfg.link_capacity = 0.0;
  expect_rejected(cfg);
}

TEST(PipelineValidation, AcceptsTheDefaults) {
  EXPECT_NO_THROW(validate(OnlineConfig{}));
}

// The sequential epoch driver itself: persistent vs copy-per-arrival
// differential at epoch_size > 1 (the same invariant PR 4 pinned at 1).
TEST(EpochDriver, PersistentMatchesCopyingReferenceAtEpochSize4) {
  const auto topo = topology::softlayer();
  auto cfg = pipeline_config();
  cfg.epoch_size = 4;
  cfg.holding_arrivals = 3;
  const auto persistent =
      simulate(topo, cfg, "SOFDA", [](const Problem& p) { return core::sofda(p); });
  auto ref = cfg;
  ref.copy_problems = true;
  const auto copying =
      simulate(topo, ref, "SOFDA", [](const Problem& p) { return core::sofda(p); });
  expect_series_identical(persistent, copying);
}

}  // namespace
}  // namespace sofe::online
