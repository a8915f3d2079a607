#include "sofe/dist/sharded_closure.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
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
  std::vector<char> is_root(members.size(), 0);
  const auto add_root = [&](NodeId global) {
    const auto lv = static_cast<std::size_t>(dg_.local(global));
    if (is_root[lv]) return;
    is_root[lv] = 1;
    ds.roots.push_back(global);
  };
  for (NodeId b : part_.borders[du]) add_root(b);
  for (NodeId h : hubs_) {
    if (part_.domain(h) == d) add_root(h);
  }

  // Settle targets: borders ∪ owned hubs ∪ owned destinations (local ids).
  std::vector<char> is_target(members.size(), 0);
  const auto add_target = [&](NodeId global) {
    const auto lv = static_cast<std::size_t>(dg_.local(global));
    if (is_target[lv]) return;
    is_target[lv] = 1;
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

  ds.local.build(dom.subgraph, local_roots, inner_threads, nullptr,
                 {true, std::span<const NodeId>(ds.targets_local)});

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

void ShardedClosure::build(const Graph& g, Partition part, std::vector<NodeId> hubs,
                           std::span<const NodeId> destinations, int num_threads,
                           MessageBus& bus) {
  part_ = std::move(part);
  dg_ = DomainGraphs(g, part_);
  hubs_ = std::move(hubs);
  dests_.assign(destinations.begin(), destinations.end());
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

  // Stitch: mask every edge no advertisement mentions (cross links are
  // always unmasked — both endpoint controllers see them) and run the
  // ordinary closure over the masked copy.
  std::vector<char> advertised(static_cast<std::size_t>(g.edge_count()), 0);
  for (std::size_t e = 0; e < advertised.size(); ++e) {
    if (dg_.edge_local[e] == graph::kInvalidEdge) advertised[e] = 1;
  }
  for (const auto& ds : domains_) {
    for (const auto& row : ds.advert) {
      for (EdgeId e : row) advertised[static_cast<std::size_t>(e)] = 1;
    }
  }
  const auto t0 = Clock::now();
  Graph masked = g;
  for (std::size_t e = 0; e < advertised.size(); ++e) {
    if (advertised[e]) {
      ++stats_.skeleton_edges;
    } else {
      masked.set_edge_cost(static_cast<EdgeId>(e), graph::kInfiniteCost);
    }
  }
  stitched_.build(masked, hubs_, num_threads, nullptr, {true, std::span<const NodeId>(dests_)});
  stats_.stitch_seconds = seconds_since(t0);
}

}  // namespace sofe::dist
