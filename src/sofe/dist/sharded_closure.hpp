#pragma once
// Sharded metric closure (Section VI, DESIGN.md §11): k controllers build
// the pricing closure together, none of them holding global O(V²) state.
//
// Each controller builds a MetricClosure restricted to its own domain
// subgraph (DomainGraphs), rooted at the border nodes plus the hubs it owns
// and settled to the borders plus the hubs/destinations it owns — all k
// local builds running in parallel.  A controller then *advertises* its
// rows: for every root, the parent-chain edges its local trees use to reach
// the domain's targets (plus every inter-domain link, which both endpoints
// see by definition).  Non-coordinator controllers ship their rows over the
// MessageBus — O(|borders|·|hubs ∪ borders|) row payload, charged in rows,
// entries and bytes — and the coordinator stitches.
//
// The stitch is NOT a distance composition (overlay sums re-associate IEEE
// folds and can drift ulps from global Dijkstra).  Instead the coordinator
// rebuilds the advertised skeleton as a *cost mask* over a copy of G: every
// edge no advertisement mentions is set to kInfiniteCost, node ids, edge
// ids and CSR arc order all staying identical, and the standard
// MetricClosure runs on the masked graph.  Exactness (DESIGN.md §11): a
// global shortest path decomposes into intra-domain segments joined by
// cross links; each segment from its
// entry point is a domain-local canonical chain and is therefore advertised
// — so the masked graph contains every canonical hub-to-target chain, the
// masked distances meet the global ones bitwise (same edges folded in the
// same order), and since masking only removes relaxation candidates while
// the engine settles by (dist, node), the masked run picks the same parents
// on every advertised chain.  Distances, paths and zero-cost tap
// derivations over hubs × (hubs ∪ destinations) are bit-identical to the
// global closure — the property the distributed certificate rides on.
//
// A ShardedClosure is built for one problem's hubs and destinations: the
// advertisements cover chains toward those destinations only, so the
// stitched view is exact for that problem and no other.  There is no
// repair path; dist::distributed_sofda builds one per solve.

#include <cstddef>
#include <span>
#include <vector>

#include "sofe/dist/domain_graphs.hpp"
#include "sofe/dist/message_bus.hpp"
#include "sofe/dist/partition.hpp"
#include "sofe/graph/metric_closure.hpp"

namespace sofe::dist {

class ShardedClosure {
 public:
  struct Stats {
    int domains = 0;
    std::size_t rows = 0;             // advertised rows across all domains
    std::size_t entries = 0;          // advertised row entries (edges + distance slots)
    std::size_t exchanged_rows = 0;   // rows shipped to the coordinator (domains 1..k-1)
    std::size_t exchanged_entries = 0;
    std::size_t exchanged_bytes = 0;
    int exchange_rounds = 0;
    std::size_t skeleton_edges = 0;   // unmasked (advertised) edges of the stitch graph
    double local_build_seconds_max = 0.0;    // slowest controller: the parallel critical path
    double local_build_seconds_total = 0.0;  // sum over controllers: the k=1 work
    double stitch_seconds = 0.0;
  };

  ShardedClosure() = default;

  /// Builds the sharded closure: parallel per-domain local closures, the
  /// charged row exchange, and the stitched MetricClosure over `hubs` with
  /// every hub-to-(hub ∪ destination) distance and path bit-identical to a
  /// global build.  `part` must partition `g` (it is copied and kept).
  /// Local and stitched trees are bounded: each run stops once its hubs,
  /// borders and destinations are settled.
  void build(const Graph& g, Partition part, std::vector<NodeId> hubs,
             std::span<const NodeId> destinations, int num_threads, MessageBus& bus);

  /// The stitched global view SOFDA prices against.
  const graph::MetricClosure& closure() const noexcept { return stitched_; }
  const Partition& partition() const noexcept { return part_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct DomainState {
    graph::MetricClosure local;
    std::vector<NodeId> roots;              // global ids, borders first then owned hubs
    std::vector<NodeId> targets_local;      // local ids: borders ∪ owned (hubs ∪ destinations)
    std::vector<std::vector<EdgeId>> advert;  // per row: sorted global edge ids
    double build_seconds = 0.0;
  };

  void build_domain(int d, int inner_threads);
  std::vector<EdgeId> advertise_row(int d, NodeId root_global) const;

  Partition part_;
  DomainGraphs dg_;
  std::vector<DomainState> domains_;
  graph::MetricClosure stitched_;
  std::vector<NodeId> hubs_;   // stitched hub list (global ids)
  std::vector<NodeId> dests_;  // extra settle targets of the stitch
  Stats stats_;
};

}  // namespace sofe::dist
