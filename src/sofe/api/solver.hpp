#pragma once
// Unified solver session API (DESIGN.md §7; the delta-aware closure
// session is §8, the price-keyed pricing cache §9).
//
// Every embedding algorithm in the library — SOFDA, SOFDA-SS, the Section
// VIII baselines, the multi-controller pipeline and the exact solver — is
// exposed as a stateful `Solver` object with one uniform entry point,
// `solve(const Problem&) -> ServiceForest`.  The SOFDA-family solvers are
// *sessions*: each owns a ClosureSession (a persistent ShortestPathEngine
// plus one MetricClosure) that survives across solve() calls, so
// sequential workloads (the online simulator's arrival stream, bench
// sweeps over seeds) repair or reuse the closure instead of rebuilding
// O(hubs · V) state per call.  The "dist/k=<int>" solvers are one-shot:
// every solve runs dist::distributed_sofda cold (DESIGN.md §11).
//
// The free functions (core::sofda, core::sofda_ss, baselines::run,
// dist::distributed_sofda, exact::solve_exact) remain as one-shot shims;
// solvers are obtained by name through the SolverRegistry (registry.hpp).

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/forest.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/exact/solver.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/graph/shortest_path_engine.hpp"

namespace sofe::api {

using core::Cost;
using core::NodeId;
using core::Problem;
using core::ServiceForest;

/// Solver-wide tuning knobs.  Absorbs core::AlgoOptions and generalizes its
/// closure_threads into `threads`, the session-wide parallelism knob: it
/// drives both metric-closure construction and SOFDA candidate pricing.
/// Every parallel path is bit-identical to the serial one (tested), so
/// `threads` is purely a speed knob, never a results knob.
struct SolverOptions {
  kstroll::StrollAlgorithm stroll =
      kstroll::StrollAlgorithm::kCheapestInsertion;        // k-stroll solver variant
  steiner::Algorithm steiner = steiner::Algorithm::kMehlhorn;  // Steiner-tree variant
  bool shorten = true;  // apply the pass-through shortening post-step
  int threads = 1;      // solver-wide: closure build + chain pricing workers
  exact::ExactLimits exact_limits;  // the "exact" solver's search budget

  /// View for the procedural (core/baselines/dist) layers.
  core::AlgoOptions algo() const {
    core::AlgoOptions o;
    o.stroll = stroll;
    o.steiner = steiner;
    o.shorten = shorten;
    o.closure_threads = threads;
    return o;
  }
};

/// Uniform per-solve diagnostics, filled by Solver::solve.  Absorbs
/// SofdaStats/ConflictStats (zeroed for non-SOFDA solvers) plus the
/// distributed protocol ledger, the exact-solver certificate and a timing
/// breakdown; fields a given solver does not produce stay at their defaults.
struct SolveReport {
  std::string solver;          // registry name of the solver that ran
  bool feasible = false;       // a non-empty forest was returned
  Cost total_cost = 0.0;       // core::total_cost of the returned forest

  core::SofdaStats sofda;      // SOFDA-family runs (incl. dist/*)

  int controllers = 0;         // dist/*: k actually used
  std::size_t messages = 0;    //   directed controller-to-controller messages
  std::size_t payload_items = 0;
  std::size_t payload_bytes = 0;  // honest wire size of those items
  int rounds = 0;

  bool optimal = false;        // exact: optimum proven within limits
  int bnb_nodes = 0;           //   branch-and-bound tree size

  bool closure_cache_hit = false;  // session cache: closure reused as-is
  bool closure_repaired = false;   //   cost deltas repaired in place
  int closure_hubs = 0;            //   hub count requested of the closure
  int closure_delta_edges = 0;     //   edges whose cost changed since cached
  int closure_hubs_added = 0;      //   hubs newly built by a repairing acquire

  int pricing_hits = 0;      // chains served from the pricing cache (§9)
  int pricing_repriced = 0;  //   chains re-priced this solve
  int pricing_pruned = 0;    //   pairs skipped: above their last VM's best
  bool pricing_flushed = false;  //   this solve dropped every cached chain

  /// Always 0 since the row-retention window was removed (DESIGN.md §13):
  /// an acquire stores exactly the requested hubs, so no
  /// requested hub can find a row the previous request did not name.
  /// Kept for readers of the report layout.  closure_bytes is the session
  /// closure's slab footprint after the acquire (MetricClosure::memory_bytes).
  int closure_row_hits = 0;
  std::size_t closure_bytes = 0;

  double closure_seconds = 0.0;  // hub-tree (re)construction or repair
  double pricing_seconds = 0.0;  // candidate-chain pricing (SOFDA)
  double solve_seconds = 0.0;    // everything after pricing
  double total_seconds = 0.0;    // full solve() wall time
};

/// Session-scoped MetricClosure cache shared by the SOFDA-family solvers
/// and the epoch pipeline's publisher (DESIGN.md §7, §8).
///
/// `acquire` returns a closure holding Dijkstra trees for `hubs` over `g`,
/// recomputing only what actually changed.  The cache key is the exact
/// (node count, edge list incl. costs) value rather than (graph pointer,
/// Graph::version()): version counters travel with Problem copies, so two
/// graphs can carry the same version at the same address with different
/// link prices — an exact key is what makes the session safe to point at
/// any Problem.  The O(E) comparison is noise next to one Dijkstra, and it
/// is exactly what produces the arc-delta list the repair path feeds to
/// MetricClosure::refresh.
///
/// Outcomes of an acquire (DESIGN.md §8):
///   * hit        — same structure, same costs, all hubs present: reuse
///                  (rows of hubs the request no longer names are dropped).
///   * repair     — same structure, few cost deltas: drop the rows of
///                  unrequested hubs, repair the rest in place and build
///                  only the missing hubs.
///   * rebuild    — structural change, cold start, or a delta list above
///                  the repair threshold (quarter of the edges: past that
///                  the affected regions approach whole trees and a
///                  rebuild's linear sweeps win).
/// Whatever the outcome, the stored closure afterwards holds exactly the
/// distinct requested hubs as complete trees (DESIGN.md §13), so repair
/// work and memory scale with the request, never with the stream's
/// history.
class ClosureSession {
 public:
  /// Updates report.closure_cache_hit/_repaired/_hubs/_delta_edges/
  /// _hubs_added/_bytes and report.closure_seconds.  `threads` is as in
  /// MetricClosure::build.
  const graph::MetricClosure& acquire(const graph::Graph& g, const std::vector<NodeId>& hubs,
                                      int threads, SolveReport& report);

 private:
  graph::MetricClosure closure_;
  graph::ShortestPathEngine engine_;
  bool valid_ = false;
  NodeId key_nodes_ = 0;
  std::vector<graph::Edge> key_edges_;
  std::vector<graph::EdgeCostDelta> deltas_;  // scratch
  std::vector<NodeId> missing_;               // scratch
};

class ReportAccumulator;

/// Abstract solver session.  Concrete implementations live behind the
/// SolverRegistry; all of them are deterministic in (problem, options) and
/// produce results bit-identical to their free-function counterparts.
///
/// Sessions are single-threaded objects (one Solver per driving thread);
/// `threads` parallelism happens *inside* a solve call.
class Solver {
 public:
  /// A fresh session with the given knobs (caches start cold).
  explicit Solver(SolverOptions opt = {}) : opt_(opt) {}
  virtual ~Solver() = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// The registry name this solver answers to (e.g. "sofda", "dist/k=4").
  virtual std::string_view name() const noexcept = 0;

  /// Embeds one instance.  Returns an empty forest when infeasible.
  /// Diagnostics for the call are available from report() until the next
  /// solve().
  ServiceForest solve(const Problem& p);

  /// Embeds one instance against an epoch closure (DESIGN.md §10):
  /// instead of maintaining its own ClosureSession, the solver prices
  /// against `closure` — shared, read-only, covering every hub the
  /// instance needs.  Results are bit-identical to solve() on the same
  /// problem (the closure is a cache, never an input).  Solvers that don't
  /// consume shared closures (wants_epoch_closure() == false) fall back to
  /// solve() semantics; callers may then skip the epoch acquire entirely.
  ///
  /// `closure` is typically another session's acquire() result, which the
  /// owning ClosureSession rewrites in place on its next acquire.  Contract:
  /// nobody acquires on the owning session while any reader holds the
  /// reference.  The pipeline's quiesce handshake enforces it: the
  /// publisher acquires only while every worker is parked.
  ServiceForest solve_epoch(const Problem& p, const graph::MetricClosure& closure);

  /// Whether solve_epoch actually reads the epoch closure.  The pipeline
  /// skips the per-epoch closure acquire when no worker would use it.
  virtual bool wants_epoch_closure() const noexcept { return false; }

  const SolveReport& report() const noexcept { return report_; }

  /// Optional aggregation sink: every finished solve()'s report is folded
  /// into `sink` (report.hpp), so workloads that drive a session — the
  /// online simulator, the bench sweeps — get per-phase breakdowns for
  /// free.  Pass nullptr to detach.  The sink must outlive its use here.
  void set_report_sink(ReportAccumulator* sink) noexcept { sink_ = sink; }

  /// Live tuning knobs: mutations apply from the next solve() on (the
  /// pricing cache restarts cold when an option it keys on changes).
  SolverOptions& options() noexcept { return opt_; }
  const SolverOptions& options() const noexcept { return opt_; }

 protected:
  /// The algorithm body.  `report` arrives zeroed except for `solver`;
  /// feasible/total_cost/total_seconds are filled by the wrapper.
  virtual ServiceForest do_solve(const Problem& p, SolveReport& report) = 0;

  /// The epoch-mode body.  The default ignores the closure and runs
  /// do_solve — correct for every solver (the closure is a cache), merely
  /// missing the sharing; SofdaSolver overrides it to price against the
  /// epoch closure.
  virtual ServiceForest do_solve_epoch(const Problem& p, const graph::MetricClosure& closure,
                                       SolveReport& report) {
    (void)closure;
    return do_solve(p, report);
  }

  SolverOptions opt_;

 private:
  SolveReport report_;
  ReportAccumulator* sink_ = nullptr;
};

}  // namespace sofe::api
