#pragma once
// Price-keyed k-stroll pricing: the session candidate-chain cache
// (DESIGN.md §9).
//
// SOFDA prices one chain per (source, last VM) on every solve.
// PricingSession is the only pricing path: it assembles the Procedure-1
// instances from one shared (VM, VM) block (kstroll/pricing.hpp) instead
// of rebuilding every matrix per pair, and it keeps every PricedChain
// across calls.  A cached chain is reused exactly when nothing it reads
// has moved, which one price key decides:
//
//   node count, edge list with costs, VM list, chain length, stroll
//   algorithm, node costs and source setup costs.
//
// Any mismatch flushes every chain and the shared block; a match serves
// every cached chain and prices only sources the session has not seen.
// Sound because a closure row is a deterministic function of (graph, hub):
// a rebuilt, repaired, extended, bounded or published closure over the
// same graph holds bitwise the rows a cold build would, so a chain priced
// against any of them reads the same inputs (DESIGN.md §9).  The output is
// bitwise identical to the per-pair reference at any thread count
// (tested, and asserted end to end by bench_fig12_online's differential
// run).

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
/// and the bench's per-phase breakdown.
struct PricingTally {
  int hits = 0;        // chains served from cache, bitwise unchanged
  int repriced = 0;    // chains priced this call (cold or flushed)
  bool flushed = false;  // the price key moved: every cached chain dropped
};

/// Session-scoped PricedChain cache.  Sessions are single-threaded
/// objects; `num_threads` parallelism happens inside a price() call and is
/// bit-identical to serial (per-source buckets, fixed striping).
class PricingSession {
 public:
  /// Prices every feasible (source, last VM) chain for `sources` in the
  /// canonical (source, last_vm) order core::price_candidate_chains
  /// documents: serves cached chains when the price key matches the
  /// previous call's, prices the rest.  Requires p.chain_length >= 1,
  /// closure trees for every VM and every source, and a closure built
  /// over p.network's current costs.
  std::vector<PricedChain> price(const Problem& p, const graph::MetricClosure& closure,
                                 const std::vector<NodeId>& sources, const ClosureUpdate& update,
                                 const AlgoOptions& opt, int num_threads = 1,
                                 PricingTally* tally = nullptr);

 private:
  struct Entry {
    enum class State : std::uint8_t { kUnknown, kFeasible, kInfeasible };
    State state = State::kUnknown;
    ChainPlan plan;
  };
  struct Bucket {
    std::vector<Entry> entries;  // indexed by position in the VM list
  };

  bool key_matches(const Problem& p, const std::vector<NodeId>& vms,
                   const AlgoOptions& opt) const;
  void price_source(const Problem& p, const graph::MetricClosure& closure, NodeId s,
                    Bucket& bucket, kstroll::InstanceAssembler& assembler,
                    const AlgoOptions& opt, std::vector<PricedChain>& out, int& hits,
                    int& repriced);

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
  std::unordered_map<NodeId, Bucket> buckets_;

  std::vector<kstroll::InstanceAssembler> assemblers_;  // one per worker
};

}  // namespace sofe::core
