#pragma once
// Slab-backed row storage for MetricClosure (DESIGN.md §13).
//
// A closure row is one hub's shortest-path tree stored structure-of-arrays:
// a dist row of node_count Cost entries and an idx row of 2 * node_count
// int32 entries (parents first, then parent edges).  Rows live inside
// fixed-capacity slabs shared through shared_ptr, which buys three things
// over the per-tree std::vector layout this replaces:
//
//   * builds and refreshes write cache-linearly into a handful of large
//     allocations instead of one small heap block per hub, and the whole
//     closure footprint is measurable (memory_bytes) and compact;
//   * rows can alias: a zero-cost tap's dist row IS its host's dist row
//     bit for bit (0 + d == d), so tap hubs share the host's dist slab row
//     and pay only for their 2n-int32 idx row — the dominant share of a
//     SOFDA hub set (vms_per_dc taps per DC) at roughly half the bytes;
//   * aliased rows relocate through the same free lists: when a tap
//     group's representative changes, or a demoted tap must stop sharing
//     its old host's dist row, refresh() copies the row into a recycled
//     (or freshly carved) slab row and repairs the copy, leaving the
//     original to the rows still aliasing it.
//
// Threading contract: allocation, release and relocation all happen in
// MetricClosure's single-threaded planning phases.  Parallel build/refresh
// workers only write through row pointers handed out by the plan — slabs
// are allocated at full capacity up front, so those pointers are stable.

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "sofe/graph/graph.hpp"

namespace sofe::graph {

class RowStore {
 public:
  /// Rows per slab.  Small enough that retain()-evicted working sets free
  /// whole slabs eventually, large enough that a Cogent-scale closure sits
  /// in a handful of allocations.
  static constexpr std::size_t kRowsPerSlab = 8;

  /// Slabs are sized at creation and never reallocate.
  using DistSlab = std::vector<Cost>;
  using IdxSlab = std::vector<std::int32_t>;

  /// Reference to one dist row (node_count Cost entries).  `at` is the
  /// element offset inside the slab, so two refs alias exactly when their
  /// (slab, at) pairs match.
  struct DistRef {
    std::shared_ptr<DistSlab> slab;
    std::uint32_t at = 0;
    Cost* get() const { return slab->data() + at; }
    bool aliases(const DistRef& o) const { return slab == o.slab && at == o.at; }
    explicit operator bool() const { return slab != nullptr; }
  };
  /// Reference to one idx row (2 * node_count int32: parents, then
  /// parent edges).
  struct IdxRef {
    std::shared_ptr<IdxSlab> slab;
    std::uint32_t at = 0;
    std::int32_t* get() const { return slab->data() + at; }
    explicit operator bool() const { return slab != nullptr; }
  };

  /// (Re)binds the store to a row width of `node_count` entries.  A width
  /// change drops the open slabs and free lists (MetricClosure::build
  /// releases every row first, so no live row is left in a dropped slab).
  void reset(std::size_t node_count);

  std::size_t node_count() const noexcept { return n_; }

  /// Allocates a row, preferring the newest freed row, else carving from
  /// the open slab.  Contents are unspecified (every caller fully
  /// overwrites).
  DistRef alloc_dist();
  IdxRef alloc_idx();

  /// Returns a row to the free list.  The caller guarantees no other live
  /// closure row references it.
  void release(DistRef ref);
  void release(IdxRef ref);

  /// Folds the store-owned allocations (open slabs, free-list slabs) into
  /// a byte tally, deduplicating against `seen` (slab addresses already
  /// counted by the caller's walk over live rows).
  void account(std::unordered_set<const void*>& seen, std::size_t& bytes) const;

 private:
  std::size_t n_ = 0;
  std::shared_ptr<DistSlab> open_dist_;
  std::size_t open_dist_used_ = 0;  // rows carved from open_dist_
  std::shared_ptr<IdxSlab> open_idx_;
  std::size_t open_idx_used_ = 0;
  std::vector<DistRef> free_dist_;
  std::vector<IdxRef> free_idx_;
};

}  // namespace sofe::graph
