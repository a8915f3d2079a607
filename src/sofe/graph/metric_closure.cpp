#include "sofe/graph/metric_closure.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "sofe/graph/shortest_path_engine.hpp"

namespace sofe::graph {

namespace {

/// The single zero-cost arc of a degree-1 hub, or kInvalidEdge.
/// Such a "tap" hub shares all shortest paths with the arc's head.
Arc zero_cost_tap(const Graph& g, NodeId v) {
  const auto arcs = g.neighbors(v);
  if (arcs.size() == 1 && g.edge(arcs[0].edge).cost == 0.0) return arcs[0];
  return Arc{};
}

}  // namespace

// Tap derivation on rows.  Why it is exact, bit for bit: every path out of
// tap v is v -e-> h -> ..., and e costs zero, so 0.0 + d == d leaves every
// label, comparison and settle-order key of the host's run unchanged — the
// tap's dist array IS the host image's dist array, which is why derived
// rows alias it instead of copying.  Only the parents at the endpoints of
// the tap edges differ:
//
//   * host image -> tap v (derive_tap_fixups): v becomes the root (no
//     parent) and h hangs off v through e;
//   * sibling tap v0's tree -> tap v1 (derive_sibling_fixups): v1 becomes
//     the root, h hangs off v1 through e1, and v0 hangs off h through e0
//     the way every non-root tap does.  Used by refresh(), where the
//     host's own tree is usually not stored — one repaired representative
//     carries its whole sibling group.
//
// Callers copy the source idx row into `row` first (or convert the host
// image in place) and then apply the fixups.

static void derive_tap_fixups(const TreeRow& row, NodeId v, NodeId h, EdgeId e) {
  row.parent[static_cast<std::size_t>(v)] = kInvalidNode;
  row.parent_edge[static_cast<std::size_t>(v)] = kInvalidEdge;
  row.parent[static_cast<std::size_t>(h)] = v;
  row.parent_edge[static_cast<std::size_t>(h)] = e;
}

static void derive_sibling_fixups(const TreeRow& row, NodeId v0, EdgeId e0, NodeId v1, EdgeId e1,
                                  NodeId h) {
  row.parent[static_cast<std::size_t>(v1)] = kInvalidNode;
  row.parent_edge[static_cast<std::size_t>(v1)] = kInvalidEdge;
  row.parent[static_cast<std::size_t>(h)] = v1;
  row.parent_edge[static_cast<std::size_t>(h)] = e1;
  row.parent[static_cast<std::size_t>(v0)] = h;
  row.parent_edge[static_cast<std::size_t>(v0)] = e0;
}

void MetricClosure::build(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                          ShortestPathEngine* engine, ClosureScope scope) {
  tree_index_.clear();
  bounded_ = scope.bounded;
  settle_targets_.clear();
  if (bounded_) {
    // The settle set of every run: all hubs plus the caller's extra targets
    // (duplicates are fine; the engine counts distinct marks).
    settle_targets_.assign(hubs.begin(), hubs.end());
    settle_targets_.insert(settle_targets_.end(), scope.extra_targets.begin(),
                           scope.extra_targets.end());
  }
  build_or_extend(g, hubs, num_threads, engine, /*rebuild=*/true);
}

void MetricClosure::extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                           ShortestPathEngine* engine) {
  assert(!bounded_ && "bounded closures have a fixed settle scope; rebuild instead");
  build_or_extend(g, hubs, num_threads, engine, /*rebuild=*/false);
}

void MetricClosure::refresh(const Graph& g, std::span<const EdgeCostDelta> deltas,
                            int num_threads, ShortestPathEngine* engine) {
  assert(!bounded_ && "truncated trees cannot be repaired; rebuild instead");
  if (deltas.empty() || rows_.empty()) return;

  // Tap-aware repair plan, mirroring the build's derivation: a zero-cost
  // degree-1 tap shares every label with its host, so one repaired
  // representative per distinct host carries its whole tap group — the
  // rest re-derive by copy.  Without this a SOFDA hub set (vms_per_dc
  // taps per DC) would pay vms_per_dc repairs where the build pays one
  // Dijkstra.  Classification uses the CURRENT graph: an edge repriced
  // away from zero simply demotes its tap to an individual repair.
  // NOTE: the case analysis (host stored / mutual zero-cost pair / sibling
  // group) must stay in lockstep with build_or_extend's tap rules above —
  // both encode the same "derivation is exact unless the host chases back
  // into a tap" invariant.
  const std::size_t n_slots = rows_.size();
  std::vector<NodeId> slot_hub(n_slots, kInvalidNode);
  for (const auto& [hub, slot] : tree_index_) slot_hub[slot] = hub;

  struct Tap {
    NodeId host = kInvalidNode;
    EdgeId edge = kInvalidEdge;
  };
  std::vector<Tap> taps(n_slots);
  for (std::size_t i = 0; i < n_slots; ++i) {
    const Arc a = zero_cost_tap(g, slot_hub[i]);
    if (a.edge != kInvalidEdge) taps[i] = Tap{a.to, a.edge};
  }
  const auto is_tap_hub = [&](NodeId v) {
    const auto it = tree_index_.find(v);
    return it != tree_index_.end() && taps[it->second].host != kInvalidNode;
  };

  // For every tap, the slot whose repaired tree it derives from: the
  // host's own tree when stored (and not itself a tap — the mutual-pair
  // degenerate repairs individually), else the first sibling of its host
  // group.  That first sibling repairs as the group's representative.
  struct Job {
    std::size_t slot;
    std::size_t from = SIZE_MAX;  // SIZE_MAX: repair; else derive from slot
  };
  std::vector<std::size_t> repairs;
  std::vector<Job> derives;
  std::unordered_map<NodeId, std::size_t> group_rep;  // non-stored host -> slot
  for (std::size_t i = 0; i < n_slots; ++i) {
    const Tap& t = taps[i];
    if (t.host == kInvalidNode) {
      repairs.push_back(i);
      continue;
    }
    const auto host_it = tree_index_.find(t.host);
    if (host_it != tree_index_.end()) {
      if (is_tap_hub(t.host)) {
        repairs.push_back(i);  // mutual zero-cost pair; no derivation
      } else {
        derives.push_back(Job{i, host_it->second});
      }
      continue;
    }
    const auto [rep, fresh] = group_rep.emplace(t.host, i);
    if (fresh) {
      repairs.push_back(i);  // first tap of the group: the representative
    } else {
      derives.push_back(Job{i, rep->second});
    }
  }

  // --- Writability plan (serial, before the parallel repairs touch
  // anything).  A repaired row's dist must be relocated before its
  // in-place write when it is aliased by a live row that is NOT re-derived
  // from it this round (a demoted tap, or a group whose representative
  // changed) — both that row's repair and ours need the shared pre-delta
  // dist as their private starting state.  Derive targets never repair in
  // place: they re-point their dist at the representative's row (their
  // own idx row is fully overwritten by the derive pass).  A dropped dist
  // reference is recycled once no live row holds it.
  std::unordered_map<const Cost*, std::size_t> dist_refs;  // live alias counts
  for (const StoredRow& row : rows_) ++dist_refs[row.dist.get()];
  std::vector<std::size_t> derive_from(n_slots, SIZE_MAX);
  for (const Job& j : derives) derive_from[j.slot] = j.from;
  const auto drop_dist_ref = [&](RowStore::DistRef ref) {
    if (--dist_refs[ref.get()] == 0) store_.release(std::move(ref));
  };
  std::unordered_map<const Cost*, std::vector<std::size_t>> alias_slots;
  for (std::size_t i = 0; i < n_slots; ++i) {
    if (dist_refs[rows_[i].dist.get()] > 1) alias_slots[rows_[i].dist.get()].push_back(i);
  }
  for (std::size_t s : repairs) {
    StoredRow& row = rows_[s];
    bool copy_dist = false;
    const auto it = alias_slots.find(row.dist.get());
    if (it != alias_slots.end()) {
      for (std::size_t x : it->second) {
        if (x != s && derive_from[x] != s) {
          copy_dist = true;
          break;
        }
      }
    }
    if (copy_dist) {
      RowStore::DistRef fresh = store_.alloc_dist();
      std::memcpy(fresh.get(), row.dist.get(), n_ * sizeof(Cost));
      RowStore::DistRef old = std::move(row.dist);
      row.dist = std::move(fresh);
      ++dist_refs[row.dist.get()];
      drop_dist_ref(std::move(old));
    }
  }
  for (const Job& j : derives) {
    StoredRow& dst = rows_[j.slot];
    const StoredRow& rep = rows_[j.from];  // post-relocation reference
    if (!dst.dist.aliases(rep.dist)) {
      RowStore::DistRef old = std::move(dst.dist);
      dst.dist = rep.dist;
      ++dist_refs[dst.dist.get()];
      drop_dist_ref(std::move(old));
    }
  }

  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(num_threads, 1)), std::max<std::size_t>(repairs.size(), 1));
  if (workers <= 1) {
    ShortestPathEngine local;
    ShortestPathEngine& eng = engine != nullptr ? *engine : local;
    eng.attach(g);
    for (std::size_t s : repairs) eng.repair(row_view(s), deltas);
  } else {
    g.ensure_csr();  // the lazy csr() cost refresh is not thread-safe on a miss
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        ShortestPathEngine worker(g);
        for (std::size_t ri = w; ri < repairs.size(); ri += workers) {
          worker.repair(row_view(repairs[ri]), deltas);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  for (const Job& job : derives) {
    const NodeId v = slot_hub[job.slot];
    const Tap& t = taps[job.slot];
    const NodeId from_hub = slot_hub[job.from];
    // Dist is shared with the representative (re-pointed in the plan
    // above); only the idx row is copied, then fixed up.
    StoredRow& dst = rows_[job.slot];
    const StoredRow& rep = rows_[job.from];
    assert(dst.dist.aliases(rep.dist));
    std::memcpy(dst.idx.get(), rep.idx.get(), 2 * n_ * sizeof(std::int32_t));
    dst.source = v;
    if (from_hub == t.host) {
      derive_tap_fixups(row_view(job.slot), v, t.host, t.edge);
    } else {
      derive_sibling_fixups(row_view(job.slot), from_hub, taps[job.from].edge, v, t.edge,
                            t.host);
    }
  }
}

void MetricClosure::retain(const std::vector<NodeId>& hubs) {
  assert(!bounded_ && "bounded closures have a fixed hub scope; rebuild instead");
  std::unordered_map<NodeId, char> keep;
  keep.reserve(hubs.size());
  for (NodeId h : hubs) keep.emplace(h, 0);
  if (keep.size() >= tree_index_.size()) {
    bool all_kept = true;
    for (const auto& [hub, slot] : tree_index_) {
      (void)slot;
      all_kept = all_kept && keep.contains(hub);
    }
    if (all_kept) return;  // nothing stale — the common steady state
  }
  std::vector<NodeId> slot_hub(rows_.size(), kInvalidNode);
  for (const auto& [hub, slot] : tree_index_) slot_hub[slot] = hub;

  // A dropped dist row is recycled only when no surviving row aliases it:
  // a tap group's shared host image stays alive as long as any member
  // does (and the next refresh re-reps the group onto a survivor).
  std::unordered_set<const Cost*> kept_dist;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (keep.contains(slot_hub[i])) kept_dist.insert(rows_[i].dist.get());
  }
  std::vector<StoredRow> kept;
  kept.reserve(rows_.size());
  tree_index_.clear();
  std::unordered_set<const Cost*> released_dist;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (keep.contains(slot_hub[i])) {
      tree_index_.emplace(slot_hub[i], kept.size());
      kept.push_back(std::move(rows_[i]));
      continue;
    }
    StoredRow& row = rows_[i];
    if (!kept_dist.contains(row.dist.get()) && released_dist.insert(row.dist.get()).second) {
      store_.release(std::move(row.dist));
    }
    store_.release(std::move(row.idx));
  }
  rows_ = std::move(kept);
}

std::size_t MetricClosure::memory_bytes() const {
  std::unordered_set<const void*> seen;
  std::size_t bytes = 0;
  for (const StoredRow& r : rows_) {
    if (r.dist.slab != nullptr && seen.insert(r.dist.slab.get()).second) {
      bytes += r.dist.slab->capacity() * sizeof(Cost);
    }
    if (r.idx.slab != nullptr && seen.insert(r.idx.slab.get()).second) {
      bytes += r.idx.slab->capacity() * sizeof(std::int32_t);
    }
  }
  store_.account(seen, bytes);
  return bytes;
}

void MetricClosure::build_or_extend(const Graph& g, const std::vector<NodeId>& hubs,
                                    int num_threads, ShortestPathEngine* engine, bool rebuild) {
  const auto n = static_cast<std::size_t>(g.node_count());
  if (rebuild) {
    // Recycle every row through the store's free lists (dist rows once per
    // distinct row — tap groups share) so a same-shape rebuild reuses the
    // identical slab memory; reset() drops the lists wholesale when the
    // node count changed.
    std::unordered_set<const Cost*> released;
    for (StoredRow& row : rows_) {
      if (row.dist && released.insert(row.dist.get()).second) {
        store_.release(std::move(row.dist));
      }
      store_.release(std::move(row.idx));
    }
    rows_.clear();
    store_.reset(n);
    n_ = n;
  } else {
    assert(n_ == n && "extend requires the same graph the closure was built over");
  }

  // Dedupe the NEW hubs in first-seen order against whatever is already
  // indexed; every new hub gets a preassigned row slot, so the parallel
  // build below writes disjoint, fixed locations.
  const std::size_t base = rows_.size();
  std::vector<NodeId> fresh;
  fresh.reserve(hubs.size());
  for (NodeId h : hubs) {
    if (tree_index_.contains(h)) continue;
    tree_index_.emplace(h, base + fresh.size());
    fresh.push_back(h);
  }
  rows_.resize(base + fresh.size());

  // Classify the new hubs: a zero-cost degree-1 tap is derived from its
  // host's tree instead of running its own Dijkstra — unless the host is a
  // tap hub being built in this same batch (two taps joined by one
  // zero-cost edge would chase each other), where both run fully.  A host
  // whose tree already exists (slot < base) is always usable: stored trees
  // equal full runs, derived or not.
  struct Tap {
    NodeId host = kInvalidNode;
    EdgeId edge = kInvalidEdge;
  };
  std::vector<Tap> taps(fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Arc a = zero_cost_tap(g, fresh[i]);
    if (a.edge != kInvalidEdge) taps[i] = Tap{a.to, a.edge};
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (taps[i].host == kInvalidNode) continue;
    const auto it = tree_index_.find(taps[i].host);
    if (it != tree_index_.end() && it->second >= base &&
        taps[it->second - base].host != kInvalidNode) {
      taps[i] = Tap{};  // host is itself a new tap hub; run this one fully
    }
  }

  // Row allocation plan (serial; the allocator is not thread-safe).  Every
  // fresh hub owns an idx row.  Dist rows: non-tap hubs own one; the FIRST
  // tap of a group whose host is not a hub owns one too — the host's
  // Dijkstra runs directly into that tap's row (the host image; dist is
  // bitwise the tap's own), and the serial derive pass converts it in
  // place.  Every other tap aliases its derivation source's dist row.
  // group_image: non-hub host -> the fresh index owning its host image.
  std::unordered_map<NodeId, std::size_t> group_image;
  std::vector<std::size_t> derive_source(fresh.size(), SIZE_MAX);  // slot to copy idx from
  std::vector<char> is_image(fresh.size(), 0);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    StoredRow& row = rows_[base + i];
    row.source = fresh[i];
    row.idx = store_.alloc_idx();
    const Tap& t = taps[i];
    if (t.host == kInvalidNode) {
      row.dist = store_.alloc_dist();
    } else if (!tree_index_.contains(t.host) && group_image.emplace(t.host, i).second) {
      is_image[i] = 1;  // the host image lands here, converted in place
      row.dist = store_.alloc_dist();
    }
  }
  // Aliases second: a tap's host may be a fresh non-tap hub whose own dist
  // row was only allocated later in the pass above.
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Tap& t = taps[i];
    if (t.host == kInvalidNode || is_image[i]) continue;
    const auto it = tree_index_.find(t.host);
    derive_source[i] = it != tree_index_.end() ? it->second : base + group_image.at(t.host);
    rows_[base + i].dist = rows_[derive_source[i]].dist;
  }

  // The full-run worklist: every new non-tap hub (into its own row) plus
  // every distinct non-hub tap host (into its first tap's row), scheduled
  // in fresh order — bit-identical work assignment to the historical
  // side-storage layout at any thread count.
  struct Run {
    NodeId root = kInvalidNode;
    std::size_t slot = 0;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (taps[i].host == kInvalidNode) {
      runs.push_back(Run{fresh[i], base + i});
    } else if (is_image[i]) {
      runs.push_back(Run{taps[i].host, base + i});
    }
  }

  const std::span<const NodeId> stop = bounded_ ? std::span<const NodeId>(settle_targets_)
                                                : std::span<const NodeId>{};
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(num_threads, 1)), std::max<std::size_t>(runs.size(), 1));
  if (workers <= 1) {
    ShortestPathEngine local;
    ShortestPathEngine& eng = engine != nullptr ? *engine : local;
    eng.attach(g);
    for (const Run& r : runs) eng.run_into(r.root, row_view(r.slot), stop);
  } else {
    g.ensure_csr();  // the lazy csr() rebuild is not thread-safe on a miss
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        ShortestPathEngine worker(g);
        for (std::size_t i = w; i < runs.size(); i += workers) {
          worker.run_into(runs[i].root, row_view(runs[i].slot), stop);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Derive every new tap hub from its host's finished image.  Siblings
  // copy the image's idx row BEFORE the image slot is converted to its
  // own tap's tree (in-place fixups, no copy), so the copy order below —
  // non-image taps first, image taps last — matters.
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Tap& t = taps[i];
    if (t.host == kInvalidNode || is_image[i]) continue;
    StoredRow& row = rows_[base + i];
    std::memcpy(row.idx.get(), rows_[derive_source[i]].idx.get(),
                2 * n_ * sizeof(std::int32_t));
    derive_tap_fixups(row_view(base + i), fresh[i], t.host, t.edge);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Tap& t = taps[i];
    if (t.host == kInvalidNode || !is_image[i]) continue;
    derive_tap_fixups(row_view(base + i), fresh[i], t.host, t.edge);
  }
}

}  // namespace sofe::graph
