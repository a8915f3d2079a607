#pragma once
// Epoch-pipelined concurrent arrival service (DESIGN.md §10).
//
// The production shape of the online layer: arrivals queue up, N worker
// sessions price the arrivals of one epoch in parallel against one
// immutable epoch snapshot (graph prices + the publisher's read-only metric
// closure + ledger state frozen at epoch open), and a single commit stage
// serializes ledger writes in arrival order — folding each epoch's price
// movements into ONE EdgeCostDelta batch that drives closure repair per
// epoch instead of per arrival.
//
// Determinism contract: for every (topology, OnlineConfig) the cost series
// is bitwise identical to the sequential driver `online::simulate` at the
// same epoch_size, at ANY worker count — the sequential loop is the
// 1-worker degenerate case, and OnlineConfig::epoch_size = 1 makes both of
// them the paper's per-arrival Fig. 12 loop.  Every slot is priced at the
// epoch that commits it: no worker prices a slot before its epoch opens.
//
// Declared here in the online layer, implemented in src/sofe/api/
// pipeline.cpp: the pipeline drives api::Solver sessions, and the layer
// DAG has api on top of online (the same split as the Solver& overload of
// online::simulate).

#include <memory>
#include <string>

#include "sofe/online/simulator.hpp"

namespace sofe::api {
class ReportAccumulator;
struct SolverOptions;
}  // namespace sofe::api

namespace sofe::online {

struct PipelineOptions {
  /// Pricing worker threads.  0 = std::thread::hardware_concurrency();
  /// 1 reproduces the sequential driver's schedule with the pipeline's
  /// machinery (still bit-identical — as is every other count).
  int workers = 1;
  int lookahead_epochs = 1;  // ignored; kept only because perfbench/ sets it
};

/// The admission pipeline.  One instance serves one arrival stream; run()
/// may be called once.  Construction validates the OnlineConfig
/// (std::invalid_argument on nonsense) and resolves `solver_name` against
/// the global SolverRegistry — each worker owns a private solver session
/// built from these options, plus a private Problem replica the publisher
/// advances by each epoch's delta batch.
class Pipeline {
 public:
  Pipeline(const topology::Topology& topo, const OnlineConfig& cfg, std::string solver_name,
           const api::SolverOptions& opt, PipelineOptions popt = {});
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Optional aggregation sink, folded on the commit thread only: every
  /// committed arrival's SolveReport plus its queue-wait and commit-stage
  /// samples.  Attach before run(); must outlive it.
  void set_report_sink(api::ReportAccumulator* sink) noexcept;

  /// Serves the whole stream: spawns the workers, runs the epoch publish /
  /// commit loop on the calling thread, joins, and returns the same
  /// OnlineResult the sequential driver produces (plus the pipeline
  /// diagnostics fields).  Worker exceptions are rethrown here.
  OnlineResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience one-shot: Pipeline(...).run().
OnlineResult serve_pipelined(const topology::Topology& topo, const OnlineConfig& cfg,
                             const std::string& solver_name, const api::SolverOptions& opt,
                             PipelineOptions popt = {});

}  // namespace sofe::online
