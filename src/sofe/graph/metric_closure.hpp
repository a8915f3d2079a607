#pragma once
// Metric closure over a subset of "hub" nodes: pairwise shortest-path
// distances plus stored shortest-path trees for path reconstruction.
//
// Procedure 1 of the paper (k-stroll instance construction), the KMB Steiner
// algorithm, and SOFDA's auxiliary-graph pricing all consult distances among
// the same hub set {sources} ∪ {VMs} ∪ {destinations}; this class computes
// each hub's Dijkstra tree once and shares it.
//
// Storage is slab-backed rows (RowStore, DESIGN.md §13): each hub owns one
// dist row and one idx row (parents + parent edges) addressed by slot, and
// tap hubs alias their host's dist row.

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sofe/graph/closure_rows.hpp"
#include "sofe/graph/dijkstra.hpp"
#include "sofe/graph/graph.hpp"

namespace sofe::graph {

class ShortestPathEngine;

/// Settle scope of a closure build.  The default builds complete trees.
/// `bounded = true` stops every hub run once all hubs (plus
/// `extra_targets`) are settled — exact for every hub-to-hub / hub-to-
/// target distance AND path (parents settle first), undefined beyond.
/// One-shot builds that only ever query hubs and destinations (the
/// sharded closure of dist::distributed_sofda, core::DynamicForest's join
/// candidates) build bounded; bounded closures are NOT repairable (refresh
/// asserts) and not extendable.
struct ClosureScope {
  bool bounded = false;
  std::span<const NodeId> extra_targets;
};

class MetricClosure {
 public:
  /// Builds the shortest-path tree of every node in `hubs` (duplicates
  /// tolerated) through a ShortestPathEngine over the graph's CSR view.
  ///
  /// Tap-hub derivation: a hub attached to the rest of the graph by a
  /// single zero-cost edge — the library's canonical VM tap
  /// (topology::make_problem, the online simulator) — shares every shortest
  /// path with its attachment host, so its tree is derived from the host's
  /// tree instead of a full Dijkstra: its dist row ALIASES the host image's
  /// dist row (0 + d == d makes them bitwise equal), and its idx row is the
  /// host's plus two parent fixups.  The derived tree is bit-identical to
  /// what the full run produces (tested).  A SOFDA-style hub set (many VMs
  /// per data center plus sources) therefore costs one Dijkstra and one
  /// dist row per *distinct host* rather than one per VM.
  ///
  /// `num_threads` > 1 runs the full (non-derived) trees in parallel: the
  /// CSR is prebuilt once (`Graph::ensure_csr`), roots are striped over
  /// workers in a fixed assignment, and each worker runs its own engine into
  /// preassigned rows — so the result is bit-identical to the
  /// single-threaded build for any thread count (tested).  Values < 1 are
  /// clamped to 1; the thread count is a knob on AlgoOptions
  /// (closure_threads) and api::SolverOptions (threads) for the solver
  /// layers.
  MetricClosure(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1) {
    build(g, hubs, num_threads);
  }

  /// An empty closure; populate with build().  Lets long-lived solver
  /// sessions keep one MetricClosure object across solves.
  MetricClosure() = default;

  /// Rows are slab references: a plain copy would share them, and the two
  /// closures' in-place repairs would overwrite each other's trees.  Moves
  /// are fine.
  MetricClosure(const MetricClosure&) = delete;
  MetricClosure& operator=(const MetricClosure&) = delete;
  MetricClosure(MetricClosure&&) = default;
  MetricClosure& operator=(MetricClosure&&) = default;

  /// (Re)builds the closure in place.  Row storage is recycled through the
  /// store's free lists, so a session that rebuilds after an edge-cost
  /// change (the online simulator's per-arrival price refresh) recomputes
  /// the Dijkstra trees without reallocating their O(hubs · V) arrays.
  /// When `engine` is given it runs the single-threaded build (persistent
  /// heap/label workspaces — api::ClosureSession passes its session
  /// engine); parallel builds use one worker-local engine per thread
  /// regardless.  `scope` optionally bounds every run to settle-all-hubs
  /// (see ClosureScope).
  void build(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1,
             ShortestPathEngine* engine = nullptr, ClosureScope scope = {});

  /// Adds trees for the hubs of `hubs` not yet present, leaving existing
  /// trees untouched — the incremental half of api::ClosureSession: across
  /// an online arrival stream the VM hubs persist while the sampled source
  /// hubs churn, so each acquire builds only the handful of new roots.
  /// Every tree is an independent Dijkstra (tap hubs derive from their
  /// host's tree, which may already be stored), so a closure grown by any
  /// build+extend sequence is per-tree bit-identical to a one-shot build.
  /// Not available on bounded closures (asserted): their truncation scope
  /// is fixed at build time.
  void extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads = 1,
              ShortestPathEngine* engine = nullptr);

  /// Repairs the stored trees in place after the edge-cost mutations in
  /// `deltas` (ShortestPathEngine::repair preconditions apply: the closure
  /// must have been built against the old costs over this same graph
  /// structure, complete trees only).  Bit-identical to a full rebuild at
  /// the new costs.  Like the build, the repair is tap-aware: one repaired
  /// representative per distinct zero-cost-tap host carries its whole tap
  /// group by re-derivation, so the repair count matches the build's
  /// Dijkstra count rather than the (vms_per_dc times larger) tree count.
  /// Threading stripes the representative repairs over workers.
  void refresh(const Graph& g, std::span<const EdgeCostDelta> deltas, int num_threads = 1,
               ShortestPathEngine* engine = nullptr);

  /// Drops every stored tree whose hub is not in `hubs` (kept trees stay
  /// in slot order); freed rows return to the store for recycling.  The
  /// session's repair path calls this before refresh so hubs that churned
  /// out of the working set — an arrival stream's stale source hubs — stop
  /// costing one repair per solve.
  void retain(const std::vector<NodeId>& hubs);

  /// Whether this closure was built with a bounded scope (truncated trees).
  bool bounded() const noexcept { return bounded_; }

  /// Number of stored hub trees (diagnostics).
  std::size_t hub_count() const noexcept { return rows_.size(); }

  /// Bytes held by this closure's slabs (live rows, open slabs and free
  /// lists; every slab is counted once however many rows alias it).
  std::size_t memory_bytes() const;

  /// Shortest-path distance from hub `from` to any node `to`.
  /// Requires `from` to be a hub.
  Cost distance(NodeId from, NodeId to) const {
    return tree(from).distance(to);
  }

  /// Shortest path (node sequence) from hub `from` to `to`.
  std::vector<NodeId> path(NodeId from, NodeId to) const {
    return tree(from).path_to(to);
  }

  bool is_hub(NodeId v) const { return tree_index_.contains(v); }

  /// Read view of one hub's stored tree.  The view is invalidated by the
  /// next mutating call (build/extend/refresh/retain) — same lifetime rule
  /// the old by-reference accessor had, now explicit in the value type.
  ConstTreeRow tree(NodeId hub) const {
    const auto it = tree_index_.find(hub);
    assert(it != tree_index_.end() && "node is not a hub of this closure");
    const StoredRow& row = rows_[it->second];
    const std::int32_t* idx = row.idx.get();
    return ConstTreeRow{row.source, row.dist.get(), idx, idx + n_, n_};
  }

 private:
  /// One hub's stored tree: a dist row (possibly aliased with the hub's
  /// zero-cost-tap host image) plus a privately owned idx row of parents
  /// and parent edges.  One descriptor per cache line: tree() reads one on
  /// every hub lookup of pricing and shortening, and the unaligned 56-byte
  /// layout measured about 10% fewer arrivals/s on the Cogent workloads.
  struct alignas(64) StoredRow {
    NodeId source = kInvalidNode;
    RowStore::DistRef dist;
    RowStore::IdxRef idx;
  };

  void build_or_extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                       ShortestPathEngine* engine, bool rebuild);

  /// Mutable engine view of a slot's row.
  TreeRow row_view(std::size_t slot) {
    StoredRow& row = rows_[slot];
    std::int32_t* idx = row.idx.get();
    return TreeRow{row.source, row.dist.get(), idx, idx + n_, n_};
  }

  RowStore store_;
  std::vector<StoredRow> rows_;
  std::unordered_map<NodeId, std::size_t> tree_index_;
  std::size_t n_ = 0;  // node count the rows cover
  bool bounded_ = false;
  std::vector<NodeId> settle_targets_;  // bounded builds: hubs ∪ extra targets
};

}  // namespace sofe::graph
