#pragma once
// Price-keyed, dominance-pruned k-stroll pricing: the session
// candidate-chain cache (DESIGN.md §9).
//
// SOFDA's auxiliary graph Ĝ hangs every source duplicate off ŝ by a
// zero-cost edge, so of the chains into one last VM u only the cheapest
// (and its ties) can lie on a shortest path: the Steiner step needs
// min_s c(s, u) per u and nothing else.  PricingSession is the only
// pricing path.  It prices last-VM-major: for each u it visits the
// sources in (lower bound, source id) order and stops once a bound clears
// the best chain found, then emits exactly the chains that attain each
// u's minimum.  It assembles the Procedure-1 instances from one shared
// (VM, VM) block (kstroll/pricing.hpp) instead of rebuilding every matrix
// per pair, and keeps every chain it priced across calls.  A cached chain
// is reused exactly when nothing it reads has moved, which one price key
// decides:
//
//   node count, edge list with costs, VM list, chain length, stroll
//   algorithm, node costs and source setup costs.
//
// Any mismatch flushes every chain and the shared block; a match serves
// every cached chain and prices only the pairs the session has not priced
// yet.  Sound because a closure row is a deterministic function of
// (graph, hub): a rebuilt, repaired, extended, bounded or published
// closure over the same graph holds bitwise the rows a cold build would,
// so a chain priced against any of them reads the same inputs (DESIGN.md
// §9).  The output is bitwise the per-pair reference filtered to each
// last VM's minimum, with ties, at any thread count (tested, and asserted
// end to end by bench_fig12_online's differential run).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sofe/core/sofda.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/kstroll/pricing.hpp"

namespace sofe::core {

/// Unread by PricingSession::price (the price key decides every reuse).
/// Kept only because perfbench/src/main.cpp passes ClosureUpdate::rebuilt();
/// it goes with the next change to the benchmark.
struct ClosureUpdate {
  static ClosureUpdate rebuilt() noexcept { return {}; }
};

/// Per-price() cache-effect counters, surfaced through api::SolveReport
/// and the bench's per-phase breakdown.  Every eligible (source, last VM)
/// pair — u != s — lands in exactly one of hits, repriced and pruned.
struct PricingTally {
  int hits = 0;        // visited chains served from cache, bitwise unchanged
  int repriced = 0;    // visited chains priced this call (cold or flushed)
  int pruned = 0;      // pairs skipped: their bound clears their VM's best
  bool flushed = false;  // the price key moved: every cached chain dropped
};

/// Session-scoped PricedChain cache.  Sessions are single-threaded
/// objects; `num_threads` parallelism happens inside a price() call and is
/// bit-identical to serial (last VMs striped over workers in a fixed
/// assignment, each pair's entry written by the one worker owning its VM).
class PricingSession {
 public:
  /// Returns {(s, u) : c(s, u) == min over sources of c(·, u)} for
  /// `sources`, every feasible chain that attains its last VM's minimum,
  /// ties included, in the canonical (source, last_vm) order
  /// core::price_candidate_chains documents.  Serves cached chains when
  /// the price key matches the previous call's and prices the rest; pairs
  /// the bound prunes stay unpriced.  Requires p.chain_length >= 1,
  /// closure trees for every VM and every source, and a closure built
  /// over p.network's current costs.
  std::vector<PricedChain> price(const Problem& p, const graph::MetricClosure& closure,
                                 const std::vector<NodeId>& sources, const ClosureUpdate& update,
                                 const AlgoOptions& opt, int num_threads = 1,
                                 PricingTally* tally = nullptr);

  /// Relative slack of the pruning test LB · (1 − kBoundSlack) > best: a
  /// chain whose cost equals the best must survive an LB that rounding
  /// lifted an ulp or so above it (DESIGN.md §9).
  static constexpr Cost kBoundSlack = 1e-9;

 private:
  struct Entry {
    enum class State : std::uint8_t { kUnknown, kFeasible, kInfeasible };
    State state = State::kUnknown;
    ChainPlan plan;
  };
  struct Bucket {
    std::vector<Entry> entries;  // indexed by position in the VM list
  };
  /// What one price() call shares with every worker.
  struct Call;
  /// Per-worker workspace and tallies.
  struct Worker {
    kstroll::InstanceAssembler assembler;
    bool block_bound = false;                         // assembler bound this call
    std::vector<std::pair<Cost, std::size_t>> order;  // (LB, source index)
    int hits = 0, repriced = 0, pruned = 0;
  };

  bool key_matches(const Problem& p, const std::vector<NodeId>& vms,
                   const AlgoOptions& opt) const;
  /// Sum of the `count` cheapest VM setup costs over VMs other than `a`
  /// and `b`, cheapest first; +inf when fewer than `count` remain.
  Cost cheapest_setups(const Problem& p, std::size_t count, NodeId a, NodeId b) const;
  void price_last_vm(Call& call, std::size_t j, Worker& w);

  // The price key: everything a cached chain reads.
  bool key_valid_ = false;
  NodeId key_nodes_ = 0;
  std::vector<graph::Edge> key_edges_;
  std::vector<NodeId> key_vms_;
  int key_chain_length_ = 0;
  kstroll::StrollAlgorithm key_stroll_ = kstroll::StrollAlgorithm::kCheapestInsertion;
  std::vector<Cost> key_node_cost_;
  std::vector<Cost> key_source_setup_;

  kstroll::SharedVmBlock block_;
  std::unordered_map<NodeId, std::size_t> vm_pos_;  // VM -> index in key_vms_
  std::vector<std::size_t> cheap_order_;  // VM indices by (setup cost, index)
  std::unordered_map<NodeId, Bucket> buckets_;

  // Per-call storage, kept for its capacity.
  std::vector<Cost> dist_rows_;         // |S| x |M|: d(s, key_vms_[j])
  std::vector<std::uint8_t> winners_;   // |S| x |M|: (s, u) attains u's minimum
  std::vector<Worker> workers_;
};

}  // namespace sofe::core
