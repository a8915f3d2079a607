#include "sofe/dist/sharded_closure.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace sofe::dist {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void ShardedClosure::build_domain(int d, int inner_threads) {
  const auto t0 = Clock::now();
  const auto du = static_cast<std::size_t>(d);
  const auto& dom = dg_.domains[du];
  auto& ds = domains_[du];
  const auto& members = part_.members[du];

  // Roots: the domain's borders (ascending, as partitioned) then the hubs it
  // owns, in hub-list order, deduplicated.
  ds.row_of_local.assign(members.size(), -1);
  const auto add_root = [&](NodeId global) {
    const int lv = dg_.local(global);
    if (ds.row_of_local[static_cast<std::size_t>(lv)] >= 0) return;
    ds.row_of_local[static_cast<std::size_t>(lv)] = static_cast<int>(ds.roots.size());
    ds.roots.push_back(global);
  };
  for (NodeId b : part_.borders[du]) add_root(b);
  for (NodeId h : hubs_) {
    if (part_.domain(h) == d) add_root(h);
  }

  // Settle targets: borders ∪ owned hubs ∪ owned destinations (local ids).
  ds.is_target_local.assign(members.size(), 0);
  const auto add_target = [&](NodeId global) {
    const auto lv = static_cast<std::size_t>(dg_.local(global));
    if (ds.is_target_local[lv]) return;
    ds.is_target_local[lv] = 1;
    ds.targets_local.push_back(static_cast<NodeId>(lv));
  };
  for (NodeId b : part_.borders[du]) add_target(b);
  for (NodeId h : hubs_) {
    if (part_.domain(h) == d) add_target(h);
  }
  for (NodeId t : dests_) {
    if (part_.domain(t) == d) add_target(t);
  }

  std::vector<NodeId> local_roots;
  local_roots.reserve(ds.roots.size());
  for (NodeId r : ds.roots) local_roots.push_back(static_cast<NodeId>(dg_.local(r)));

  graph::ClosureScope scope;
  if (bounded_) scope = {true, std::span<const NodeId>(ds.targets_local)};
  ds.local.build(dom.subgraph, local_roots, inner_threads, nullptr, scope);

  ds.advert.resize(ds.roots.size());
  for (std::size_t i = 0; i < ds.roots.size(); ++i) {
    ds.advert[i] = advertise_row(d, ds.roots[i]);
  }
  ds.build_seconds = seconds_since(t0);
}

std::vector<EdgeId> ShardedClosure::advertise_row(int d, NodeId root_global) const {
  const auto du = static_cast<std::size_t>(d);
  const auto& dom = dg_.domains[du];
  const auto& ds = domains_[du];
  const auto root_local = static_cast<NodeId>(dg_.local(root_global));
  const auto& t = ds.local.tree(root_local);

  std::vector<char> marked(static_cast<std::size_t>(dom.subgraph.edge_count()), 0);
  // Parent chains from every reachable target back to the root.  Chains to
  // the root share suffixes, so each walk stops at the first already-marked
  // parent edge.
  for (NodeId tl : ds.targets_local) {
    if (!t.reachable(tl)) continue;
    for (NodeId v = tl; t.parent[static_cast<std::size_t>(v)] != graph::kInvalidNode;
         v = t.parent[static_cast<std::size_t>(v)]) {
      const auto e = static_cast<std::size_t>(t.parent_edge[static_cast<std::size_t>(v)]);
      if (marked[e]) break;
      marked[e] = 1;
    }
  }
  // A root that is a zero-cost tap (the canonical VM attachment) advertises
  // its tap edge unconditionally, so the stitched build classifies it as a
  // tap exactly when the global build does, even when no target is
  // reachable from it.
  if (const auto arcs = dom.subgraph.neighbors(root_local);
      arcs.size() == 1 && dom.subgraph.edge(arcs[0].edge).cost == 0.0) {
    marked[static_cast<std::size_t>(arcs[0].edge)] = 1;
  }

  // Local edge ids map to global ids in insertion order, so scanning
  // ascending local ids yields a sorted global list for free.
  std::vector<EdgeId> out;
  for (std::size_t le = 0; le < marked.size(); ++le) {
    if (marked[le]) out.push_back(dom.edge_global[le]);
  }
  return out;
}

void ShardedClosure::swap_row_advert(int d, int row, std::vector<EdgeId> fresh,
                                     std::vector<std::pair<EdgeId, Cost>>& first_touch) {
  auto& advert = domains_[static_cast<std::size_t>(d)].advert[static_cast<std::size_t>(row)];
  const auto touch = [&](EdgeId e) {
    // Pre-change effective mask cost; masked_ still holds the pre-refresh
    // state here, so an advertised edge reads its old real cost.
    first_touch.emplace_back(e, ref_[static_cast<std::size_t>(e)] > 0
                                    ? masked_.edge(e).cost
                                    : graph::kInfiniteCost);
  };
  // Both vectors are sorted: one merge pass finds removals and additions.
  std::size_t i = 0, j = 0;
  while (i < advert.size() || j < fresh.size()) {
    if (j == fresh.size() || (i < advert.size() && advert[i] < fresh[j])) {
      touch(advert[i]);
      --ref_[static_cast<std::size_t>(advert[i])];
      ++i;
    } else if (i == advert.size() || fresh[j] < advert[i]) {
      touch(fresh[j]);
      ++ref_[static_cast<std::size_t>(fresh[j])];
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  advert = std::move(fresh);
}

void ShardedClosure::build(const Graph& g, Partition part, std::vector<NodeId> hubs,
                           std::span<const NodeId> destinations, int num_threads,
                           MessageBus& bus, bool bounded) {
  part_ = std::move(part);
  dg_ = DomainGraphs(g, part_);
  hubs_ = std::move(hubs);
  dests_.assign(destinations.begin(), destinations.end());
  bounded_ = bounded;
  stats_ = Stats{};
  const int k = part_.num_domains;
  stats_.domains = k;

  // All k controllers build their local closures in parallel: domains are
  // striped over min(threads, k) outer workers, each local MetricClosure
  // build getting the leftover inner threads.  Every worker writes only its
  // preassigned DomainState slots, so the result is bit-identical at any
  // thread count (as MetricClosure's own striping already is).
  domains_.clear();
  domains_.resize(static_cast<std::size_t>(k));
  const int outer = std::max(1, std::min(num_threads, k));
  if (outer > 1) {
    const int inner = std::max(1, num_threads / outer);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(outer));
    for (int w = 0; w < outer; ++w) {
      workers.emplace_back([this, w, k, outer, inner] {
        for (int d = w; d < k; d += outer) build_domain(d, inner);
      });
    }
    for (auto& t : workers) t.join();
  } else {
    for (int d = 0; d < k; ++d) build_domain(d, num_threads);
  }
  for (const auto& ds : domains_) {
    stats_.local_build_seconds_total += ds.build_seconds;
    stats_.local_build_seconds_max = std::max(stats_.local_build_seconds_max, ds.build_seconds);
  }

  // Row exchange: non-coordinator controllers ship each row — its advertised
  // chain edges plus the per-target distance slots — to the coordinator.
  for (int d = 0; d < k; ++d) {
    const auto& ds = domains_[static_cast<std::size_t>(d)];
    for (const auto& row : ds.advert) {
      const std::size_t entries = row.size() + ds.targets_local.size();
      ++stats_.rows;
      stats_.entries += entries;
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
      }
    }
  }
  if (k > 1) {
    bus.end_round();
    stats_.exchange_rounds = 1;
  }

  // Stitch: mask every edge no advertisement mentions (cross links carry a
  // permanent base count — both endpoint controllers always see them) and
  // run the ordinary closure over the masked copy.
  ref_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  for (std::size_t e = 0; e < ref_.size(); ++e) {
    if (dg_.edge_local[e] == graph::kInvalidEdge) ref_[e] = 1;
  }
  for (const auto& ds : domains_) {
    for (const auto& row : ds.advert) {
      for (EdgeId e : row) ++ref_[static_cast<std::size_t>(e)];
    }
  }
  const auto t0 = Clock::now();
  masked_ = g;
  for (std::size_t e = 0; e < ref_.size(); ++e) {
    if (ref_[e] == 0) {
      masked_.set_edge_cost(static_cast<EdgeId>(e), graph::kInfiniteCost);
    } else {
      ++stats_.skeleton_edges;
    }
  }
  graph::ClosureScope scope;
  if (bounded_) scope = {true, std::span<const NodeId>(dests_)};
  stitched_.build(masked_, hubs_, num_threads, nullptr, scope);
  stats_.stitch_seconds = seconds_since(t0);
}

std::vector<Cost> ShardedClosure::target_distances(int d) const {
  const auto& ds = domains_[static_cast<std::size_t>(d)];
  std::vector<Cost> out;
  out.reserve(ds.roots.size() * ds.targets_local.size());
  for (NodeId root : ds.roots) {
    const auto t = ds.local.tree(static_cast<NodeId>(dg_.local(root)));
    for (NodeId tl : ds.targets_local) out.push_back(t.distance(tl));
  }
  return out;
}

void ShardedClosure::refresh(const Graph& g, std::span<const graph::EdgeCostDelta> deltas,
                             int num_threads, MessageBus& bus) {
  assert(!bounded_ && "bounded sharded closures are not repairable");
  const int k = part_.num_domains;

  // Route every delta to its owning domain; cross-link deltas have no owner
  // and hit the mask directly (their refcount base never drops).
  std::vector<std::pair<EdgeId, Cost>> first_touch;  // (edge, pre-refresh effective cost)
  std::vector<std::vector<graph::EdgeCostDelta>> local_deltas(static_cast<std::size_t>(k));
  for (const auto& dc : deltas) {
    const auto eu = static_cast<std::size_t>(dc.edge);
    first_touch.emplace_back(dc.edge,
                             ref_[eu] > 0 ? dc.old_cost : graph::kInfiniteCost);
    const EdgeId le = dg_.edge_local[eu];
    if (le == graph::kInvalidEdge) continue;
    const int dm = part_.domain(g.edge(dc.edge).u);
    local_deltas[static_cast<std::size_t>(dm)].push_back({le, dc.old_cost, dc.new_cost});
    dg_.domains[static_cast<std::size_t>(dm)].subgraph.set_edge_cost(le, dc.new_cost);
  }

  // Owning domains repair their local closures; a row re-advertises only
  // when its advertisement moved (chain-edge set or target distances), and
  // only non-coordinator rows re-ship — the incremental comms path.
  bool sent = false;
  for (int d = 0; d < k; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (local_deltas[du].empty()) continue;
    auto& ds = domains_[du];
    const std::vector<Cost> before = target_distances(d);
    ds.local.refresh(dg_.domains[du].subgraph, local_deltas[du], num_threads);
    const std::vector<Cost> after = target_distances(d);
    const std::size_t width = ds.targets_local.size();
    for (std::size_t row = 0; row < ds.roots.size(); ++row) {
      std::vector<EdgeId> fresh = advertise_row(d, ds.roots[row]);
      const auto at = static_cast<std::ptrdiff_t>(row * width);
      if (fresh == ds.advert[row] &&
          std::equal(before.begin() + at, before.begin() + at + static_cast<std::ptrdiff_t>(width),
                     after.begin() + at)) {
        continue;
      }
      swap_row_advert(d, static_cast<int>(row), std::move(fresh), first_touch);
      ++stats_.repaired_rows;
      const std::size_t entries = ds.advert[row].size() + width;
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
        sent = true;
      }
    }
  }
  if (sent) {
    bus.end_round();
    ++stats_.exchange_rounds;
  }

  // Fold refcount moves and real cost changes into mask deltas (first
  // record per edge wins: it carries the pre-refresh effective cost).
  std::stable_sort(first_touch.begin(), first_touch.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<graph::EdgeCostDelta> mask_deltas;
  EdgeId last = graph::kInvalidEdge;
  for (const auto& [e, old_eff] : first_touch) {
    if (e == last) continue;
    last = e;
    const Cost now =
        ref_[static_cast<std::size_t>(e)] > 0 ? g.edge(e).cost : graph::kInfiniteCost;
    if (now != old_eff) {
      masked_.set_edge_cost(e, now);
      mask_deltas.push_back({e, old_eff, now});
    }
  }
  stats_.skeleton_edges = 0;
  for (int r : ref_) stats_.skeleton_edges += r > 0 ? 1 : 0;

  if (!mask_deltas.empty()) {
    const auto t0 = Clock::now();
    stitched_.refresh(masked_, mask_deltas, num_threads);
    stats_.stitch_seconds += seconds_since(t0);
  }
}

void ShardedClosure::extend(const Graph& g, const std::vector<NodeId>& hubs, int num_threads,
                            MessageBus& bus) {
  assert(!bounded_ && "bounded sharded closures are not extendable");
  const int k = part_.num_domains;

  std::vector<NodeId> missing;
  for (NodeId h : hubs) {
    if (!stitched_.is_hub(h)) missing.push_back(h);
  }
  if (missing.empty()) return;

  std::vector<std::vector<NodeId>> new_hubs_of(static_cast<std::size_t>(k));
  for (NodeId h : missing) {
    new_hubs_of[static_cast<std::size_t>(part_.domain(h))].push_back(h);
  }

  std::vector<std::pair<EdgeId, Cost>> first_touch;
  bool sent = false;
  for (int d = 0; d < k; ++d) {
    const auto du = static_cast<std::size_t>(d);
    if (new_hubs_of[du].empty()) continue;
    auto& ds = domains_[du];

    // New local roots and targets for the hubs this domain now owns.  A hub
    // churning back in may already be a (warm) root — then nothing local
    // changes and no re-exchange is charged.
    std::vector<NodeId> new_root_locals;
    const std::size_t old_rows = ds.roots.size();
    bool new_targets = false;
    for (NodeId h : new_hubs_of[du]) {
      const auto lv = static_cast<std::size_t>(dg_.local(h));
      if (ds.row_of_local[lv] < 0) {
        ds.row_of_local[lv] = static_cast<int>(ds.roots.size());
        ds.roots.push_back(h);
        new_root_locals.push_back(static_cast<NodeId>(lv));
      }
      if (!ds.is_target_local[lv]) {
        ds.is_target_local[lv] = 1;
        ds.targets_local.push_back(static_cast<NodeId>(lv));
        new_targets = true;
      }
    }
    if (!new_root_locals.empty()) {
      ds.local.extend(dg_.domains[du].subgraph, new_root_locals, num_threads);
      ds.advert.resize(ds.roots.size());
    }

    // Every pre-existing root must now also advertise its chains toward the
    // new targets (the final segment of any global chain into a new hub
    // enters this domain at one of these roots); only the appended entries
    // ship.  New rows advertise — and ship — in full.
    for (std::size_t row = 0; row < ds.roots.size(); ++row) {
      const bool fresh_row = row >= old_rows;
      if (!fresh_row && !new_targets) continue;
      const std::size_t before = fresh_row ? 0 : ds.advert[row].size();
      swap_row_advert(d, static_cast<int>(row), advertise_row(d, ds.roots[row]), first_touch);
      const std::size_t appended = ds.advert[row].size() - before;
      const std::size_t entries =
          fresh_row ? ds.advert[row].size() + ds.targets_local.size()
                    : appended + new_hubs_of[du].size();
      ++stats_.repaired_rows;
      if (fresh_row) {
        ++stats_.rows;
        stats_.entries += entries;
      }
      if (d != 0) {
        bus.send(entries);
        ++stats_.exchanged_rows;
        stats_.exchanged_entries += entries;
        stats_.exchanged_bytes += entries * sizeof(Cost);
        sent = true;
      }
    }
  }
  if (sent) {
    bus.end_round();
    ++stats_.exchange_rounds;
  }

  // Freshly advertised edges flip from masked to real — legal deltas for
  // the stitched repair — then the new hub rows extend the stitched view.
  std::stable_sort(first_touch.begin(), first_touch.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<graph::EdgeCostDelta> mask_deltas;
  EdgeId last = graph::kInvalidEdge;
  for (const auto& [e, old_eff] : first_touch) {
    if (e == last) continue;
    last = e;
    const Cost now =
        ref_[static_cast<std::size_t>(e)] > 0 ? g.edge(e).cost : graph::kInfiniteCost;
    if (now != old_eff) {
      masked_.set_edge_cost(e, now);
      mask_deltas.push_back({e, old_eff, now});
    }
  }
  stats_.skeleton_edges = 0;
  for (int r : ref_) stats_.skeleton_edges += r > 0 ? 1 : 0;

  hubs_.insert(hubs_.end(), missing.begin(), missing.end());
  const auto t0 = Clock::now();
  if (!mask_deltas.empty()) stitched_.refresh(masked_, mask_deltas, num_threads);
  stitched_.extend(masked_, hubs_, num_threads);
  stats_.stitch_seconds += seconds_since(t0);
}

void ShardedClosure::retain(const std::vector<NodeId>& hubs) {
  stitched_.retain(hubs);
  std::unordered_set<NodeId> keep(hubs.begin(), hubs.end());
  std::erase_if(hubs_, [&](NodeId h) { return keep.find(h) == keep.end(); });
}

std::size_t ShardedClosure::memory_bytes() const {
  std::size_t bytes = stitched_.memory_bytes();
  for (const DomainState& ds : domains_) bytes += ds.local.memory_bytes();
  return bytes;
}

}  // namespace sofe::dist
