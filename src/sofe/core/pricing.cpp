#include "sofe/core/pricing.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <thread>

namespace sofe::core {

bool PricingSession::key_matches(const Problem& p, const std::vector<NodeId>& vms,
                                 const AlgoOptions& opt) const {
  const auto edges = p.network.edges();
  return key_valid_ && key_nodes_ == p.network.node_count() &&
         key_edges_.size() == edges.size() &&
         std::equal(edges.begin(), edges.end(), key_edges_.begin(),
                    [](const graph::Edge& a, const graph::Edge& b) {
                      return a.u == b.u && a.v == b.v && a.cost == b.cost;
                    }) &&
         key_vms_ == vms && key_chain_length_ == p.chain_length && key_stroll_ == opt.stroll &&
         key_node_cost_ == p.node_cost && key_source_setup_ == p.source_setup_cost;
}

/// What one price() call shares with every worker: read-only but for the
/// once-flag that builds the shared block.
struct PricingSession::Call {
  struct Source {
    NodeId id;
    Bucket* bucket;
    bool in_vms;  // s ∈ M: excluded from its chains' VMs
    bool fast;    // the shared-block assembly applies
  };
  const Problem& p;
  const graph::MetricClosure& closure;
  const AlgoOptions& opt;
  std::vector<Source> sources;  // ascending id; index i owns dist_rows_ row i
  std::once_flag block_once;    // the shared block is built on first need
};

Cost PricingSession::cheapest_setups(const Problem& p, std::size_t count, NodeId a,
                                     NodeId b) const {
  Cost sum = 0.0;
  for (std::size_t j : cheap_order_) {
    if (count == 0) break;
    const NodeId v = key_vms_[j];
    if (v == a || v == b) continue;
    sum += p.node_cost[static_cast<std::size_t>(v)];
    --count;
  }
  return count == 0 ? sum : graph::kInfiniteCost;
}

void PricingSession::price_last_vm(Call& call, std::size_t j, Worker& w) {
  const Problem& p = call.p;
  const std::size_t m = key_vms_.size();
  const NodeId u = key_vms_[j];
  const Cost cu = p.node_cost[static_cast<std::size_t>(u)];

  // LB(s, u) = c(s) + d(s, u) + c(u) + the |C| - 1 cheapest setups over
  // VMs other than s and u: any s -> u walk in G is at least d(s, u) long
  // and enables |C| distinct VMs ending at u, so no chain — the heuristic
  // walk included — costs less.
  const auto rest = static_cast<std::size_t>(p.chain_length - 1);
  const Cost cheap_u = cheapest_setups(p, rest, u, u);
  w.order.clear();
  for (std::size_t i = 0; i < call.sources.size(); ++i) {
    const Call::Source& src = call.sources[i];
    if (src.id == u) continue;
    const Cost cheap = src.in_vms ? cheapest_setups(p, rest, src.id, u) : cheap_u;
    w.order.emplace_back(p.source_cost(src.id) + dist_rows_[i * m + j] + cu + cheap, i);
  }
  std::sort(w.order.begin(), w.order.end());  // (LB, source id): srcs ascend

  Cost best = graph::kInfiniteCost;
  std::size_t visited = 0;
  for (; visited < w.order.size(); ++visited) {
    const auto [lb, i] = w.order[visited];
    if (lb * (1.0 - kBoundSlack) > best) break;  // so is every later source
    const Call::Source& src = call.sources[i];
    Entry& e = src.bucket->entries[j];
    if (e.state == Entry::State::kUnknown) {
      ++w.repriced;
      const NodeId s = src.id;
      if (!src.fast) {
        e.plan = plan_chain_walk(p, call.closure, s, key_vms_, u, call.opt);
      } else if (!(dist_rows_[i * m + j] < graph::kInfiniteCost)) {
        // Mirrors plan_chain_walk's reachability gate.
        e.plan = ChainPlan{};
        e.plan.source = s;
        e.plan.last_vm = u;
      } else {
        if (!w.block_bound) {
          std::call_once(call.block_once, [&] {
            if (!block_.valid()) block_.build(call.closure, key_vms_, p.node_cost);
          });
          w.assembler.bind_block(block_, key_vms_);
          w.block_bound = true;
        }
        w.assembler.bind_source(s, dist_rows_.data() + i * m);
        e.plan = plan_chain_walk_on(p, call.closure, w.assembler.with_last_vm(j, u, p.node_cost),
                                    call.opt);
      }
      e.state = e.plan.feasible() ? Entry::State::kFeasible : Entry::State::kInfeasible;
    } else {
      ++w.hits;
    }
    if (e.state == Entry::State::kFeasible) best = std::min(best, e.plan.cost);
  }
  w.pruned += static_cast<int>(w.order.size() - visited);
  for (std::size_t k = 0; k < visited; ++k) {
    const std::size_t i = w.order[k].second;
    const Entry& e = call.sources[i].bucket->entries[j];
    if (e.state == Entry::State::kFeasible && e.plan.cost == best) winners_[i * m + j] = 1;
  }
}

std::vector<PricedChain> PricingSession::price(const Problem& p,
                                               const graph::MetricClosure& closure,
                                               const std::vector<NodeId>& sources,
                                               const ClosureUpdate& /*update*/,
                                               const AlgoOptions& opt, int num_threads,
                                               PricingTally* tally) {
  assert(p.well_formed());
  assert(p.chain_length >= 1 && "multicast-only problems have no chains to price");
  PricingTally local;
  PricingTally& t = tally != nullptr ? *tally : local;
  t = PricingTally{};

  const std::vector<NodeId> vms = p.vms();
  const std::vector<NodeId> srcs = sorted_unique(sources);

  // --- 1. Price key: any mismatch flushes every chain and the block.
  // Bucket storage survives (capacity is the point of a session); only
  // the cached outcomes are dropped. ---
  if (!key_matches(p, vms, opt)) {
    for (auto& [s, bucket] : buckets_) {
      (void)s;
      for (Entry& e : bucket.entries) e.state = Entry::State::kUnknown;
    }
    block_.invalidate();
    const auto edges = p.network.edges();
    key_valid_ = true;
    key_nodes_ = p.network.node_count();
    key_edges_.assign(edges.begin(), edges.end());
    key_vms_ = vms;
    key_chain_length_ = p.chain_length;
    key_stroll_ = opt.stroll;
    key_node_cost_ = p.node_cost;
    key_source_setup_ = p.source_setup_cost;
    vm_pos_.clear();
    for (std::size_t j = 0; j < key_vms_.size(); ++j) vm_pos_.emplace(key_vms_[j], j);
    cheap_order_.resize(key_vms_.size());
    for (std::size_t j = 0; j < key_vms_.size(); ++j) cheap_order_[j] = j;
    std::sort(cheap_order_.begin(), cheap_order_.end(), [&](std::size_t a, std::size_t b) {
      const Cost ca = p.node_cost[static_cast<std::size_t>(key_vms_[a])];
      const Cost cb = p.node_cost[static_cast<std::size_t>(key_vms_[b])];
      return ca != cb ? ca < cb : a < b;
    });
    t.flushed = true;
  }

  // --- 2. Materialize buckets for the requested sources, and bound the
  // session: on a long stream of fresh random sources (the Inet-scale
  // panels) every bucket holds |M| cached plans, so churned-out sources
  // must not accumulate forever.  Evicting is always sound — a dropped
  // bucket simply re-prices cold on its next appearance. ---
  const std::size_t bucket_cap = std::max<std::size_t>(64, 4 * srcs.size());
  if (buckets_.size() > bucket_cap) {
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      it = std::binary_search(srcs.begin(), srcs.end(), it->first) ? std::next(it)
                                                                   : buckets_.erase(it);
    }
  }
  const std::size_t m = key_vms_.size();
  Call call{p, closure, opt, {}, {}};
  call.sources.reserve(srcs.size());
  for (NodeId s : srcs) {
    Bucket& b = buckets_[s];
    if (b.entries.size() != m) b.entries.assign(m, Entry{});
    // The shared-block assembly needs the main construction (zero source
    // setup) and a source outside the VM set; anything else prices
    // through the per-pair builder — same results, just not as fast.
    const bool in_vms = vm_pos_.contains(s);
    call.sources.push_back({s, &b, in_vms, !in_vms && p.source_cost(s) == 0.0});
  }

  // --- 3. The source rows d(s, ·), read once: they feed both the bound
  // and the assembled instances' source rows. ---
  dist_rows_.resize(srcs.size() * m);
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    const auto tree = closure.tree(srcs[i]);
    for (std::size_t j = 0; j < m; ++j) dist_rows_[i * m + j] = tree.distance(key_vms_[j]);
  }
  winners_.assign(srcs.size() * m, 0);

  // --- 4. Price: last VMs striped over workers in a fixed assignment.  A
  // pair's entry, its winner flag and its tally belong to the one worker
  // owning its VM, so output and tallies are the serial ones bit for bit
  // at any thread count. ---
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(num_threads, 1)), std::max<std::size_t>(m, 1));
  if (workers_.size() < workers) workers_.resize(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    Worker& w = workers_[k];
    w.block_bound = false;
    w.hits = w.repriced = w.pruned = 0;
  }
  if (workers <= 1) {
    for (std::size_t j = 0; j < m; ++j) price_last_vm(call, j, workers_[0]);
  } else {
    p.network.ensure_csr();  // lift queries only read; keep csr() race-free
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      pool.emplace_back([&, k] {
        for (std::size_t j = k; j < m; j += workers) price_last_vm(call, j, workers_[k]);
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (std::size_t k = 0; k < workers; ++k) {
    t.hits += workers_[k].hits;
    t.repriced += workers_[k].repriced;
    t.pruned += workers_[k].pruned;
  }

  std::vector<PricedChain> candidates;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (winners_[i * m + j] != 0) {
        candidates.push_back(
            PricedChain{srcs[i], key_vms_[j], call.sources[i].bucket->entries[j].plan});
      }
    }
  }
  return candidates;
}

}  // namespace sofe::core
