#pragma once
// Shared-block Procedure-1 instance assembly for k-stroll pricing
// (DESIGN.md §9).
//
// SOFDA prices every (source, last VM) pair on a Procedure-1 metric
// instance over V = M ∪ {s}.  Under the paper's main construction
// (source_setup == 0) the instance decomposes:
//
//   * the (VM, VM) sub-matrix — base distance plus the shared-setup term
//     (c(v1) + c(v2))/2 — depends on neither the source NOR the last VM,
//     so ONE dense block serves every pair of every source;
//   * the source row depends on the source (base distances d(s, ·)) and on
//     the last VM u (the (c(u) + c(v))/2 share), i.e. O(|M|) values per
//     pair instead of O(|M|²).
//
// build_stroll_instance recomputes the full matrix per pair — with one
// closure hash lookup per entry and an n x n allocation per call.  On an
// online arrival stream that construction dominates SOFDA's wall clock;
// the classes here assemble instances that read bitwise the same
// (tested) from a session-cached block: SharedVmBlock is rebuilt only when
// the session's price key moves, InstanceAssembler points the VM rows
// straight at it (no per-source copy), binds a source by pointer to its
// base distances and rewrites only the contiguous source row per last VM.
// core::PricingSession drives both across arrivals.

#include <vector>

#include "sofe/kstroll/instance.hpp"

namespace sofe::kstroll {

/// The source-independent (VM, VM) sub-matrix of every main-construction
/// Procedure-1 instance, stored as the VM rows of that instance: row(i)[j+1]
/// is the instance edge cost between vms[i] and vms[j] (0 on the diagonal),
/// and row(i)[0] — the source column, never read under the row-view
/// contract (instance.hpp) — is reserved.  Entry (i, j) with i < j reads
/// closure.tree(vms[i]) exactly like build_stroll_instance reads the
/// lower-indexed instance node's row, so the block is bitwise what the
/// per-pair build computes.
class SharedVmBlock {
 public:
  /// Rebuilds the block in place (storage reused).  `closure` must hold a
  /// tree for every node of `vms`; `node_cost[v]` is the setup cost c(v).
  void build(const MetricClosure& closure, const std::vector<NodeId>& vms,
             const std::vector<Cost>& node_cost);

  /// Drops the cached values; valid() turns false until the next build.
  void invalidate() noexcept { valid_ = false; }

  bool valid() const noexcept { return valid_; }

  /// Number of VMs the block covers (row count).
  std::size_t size() const noexcept { return m_; }

  /// Row of vms[i] in instance columns (size() + 1 entries, column 0
  /// reserved); meaningful only while valid().  A rebuild may move it.
  const Cost* row(std::size_t i) const noexcept { return values_.data() + i * (m_ + 1); }

 private:
  std::vector<Cost> values_;  // size() rows at stride size() + 1
  std::size_t m_ = 0;
  bool valid_ = false;
};

/// Per-thread workspace that assembles the StrollInstance for one
/// (source, last VM) pair over a SharedVmBlock: bind_block() points rows
/// 1..m straight at the block (which stays read-only, shared by every
/// worker), bind_source() is a pointer bind to the source's base
/// distances, and with_last_vm() rewrites only the contiguous source row
/// and the last index.  Every entry the solvers read (row 0 in full, rows
/// >= 1 at columns >= 1) is bitwise equal to
///   build_stroll_instance(g, closure, s, vms, u, node_cost, 0.0)
/// for every u (tested) — preconditions: s ∉ vms and zero source setup
/// (callers with s ∈ vms or Appendix-D source costs use the per-pair
/// builder instead).
class InstanceAssembler {
 public:
  /// Binds the workspace to `block`: nodes become [source] + vms and the
  /// VM rows borrow the block.  `block` must be valid, built over this same
  /// `vms`, and stay unmodified while the binding is used.
  void bind_block(const SharedVmBlock& block, const std::vector<NodeId>& vms);

  /// Binds source `s` (after bind_block): `base_row[j]` must be
  /// closure.tree(s).distance(vms[j]) and stay alive while the binding is
  /// used.  Nothing is copied.
  void bind_source(NodeId s, const Cost* base_row);

  /// Rewrites the source row for last VM `u` (instance index `vm_index`+1
  /// into the bound vms order) and returns the assembled instance.  The
  /// reference is invalidated by the next with_last_vm/bind_* call.
  const StrollInstance& with_last_vm(std::size_t vm_index, NodeId u,
                                     const std::vector<Cost>& node_cost);

 private:
  StrollInstance inst_;              // rows 1..m borrowed from the bound block
  std::vector<Cost> source_row_;     // row 0: c(s, ·) for the current last VM
  const Cost* base_row_ = nullptr;   // d(s, vms[j]), owned by the caller
};

}  // namespace sofe::kstroll
