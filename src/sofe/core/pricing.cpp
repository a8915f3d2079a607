#include "sofe/core/pricing.hpp"

#include <algorithm>
#include <cassert>
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

void PricingSession::price_source(const Problem& p, const graph::MetricClosure& closure,
                                  NodeId s, Bucket& bucket,
                                  kstroll::InstanceAssembler& assembler, const AlgoOptions& opt,
                                  std::vector<PricedChain>& out, int& hits, int& repriced) {
  // The shared-block assembly needs the main construction (zero source
  // setup) and a source outside the VM set; anything else re-prices
  // through the per-pair builder — same results, just not as fast.
  const bool fast = !vm_pos_.contains(s) && p.source_cost(s) == 0.0;
  bool bound = false;
  for (std::size_t j = 0; j < key_vms_.size(); ++j) {
    const NodeId u = key_vms_[j];
    if (u == s) continue;
    Entry& e = bucket.entries[j];
    if (e.state == Entry::State::kUnknown) {
      ++repriced;
      if (fast) {
        // Mirrors plan_chain_walk: reachability gate, then the shared
        // Procedure-2 tail on the assembled instance.
        if (!closure.tree(s).reachable(u)) {
          e.plan = ChainPlan{};
          e.plan.source = s;
          e.plan.last_vm = u;
        } else {
          if (!bound) {
            assembler.bind_source(block_, closure, key_vms_, s);
            bound = true;
          }
          e.plan = plan_chain_walk_on(p, closure, assembler.with_last_vm(j, u, p.node_cost), opt);
        }
      } else {
        e.plan = plan_chain_walk(p, closure, s, key_vms_, u, opt);
      }
      e.state = e.plan.feasible() ? Entry::State::kFeasible : Entry::State::kInfeasible;
    } else {
      ++hits;
    }
    if (e.state == Entry::State::kFeasible) out.push_back(PricedChain{s, u, e.plan});
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
  for (NodeId s : srcs) {
    Bucket& b = buckets_[s];
    if (b.entries.size() != key_vms_.size()) b.entries.assign(key_vms_.size(), Entry{});
  }

  // --- 3. Shared block: (re)built once per call at most — the cost of
  // pricing ONE source the slow way buys the fast path for all of them. ---
  if (!block_.valid() && !key_vms_.empty()) {
    bool needed = false;
    for (NodeId s : srcs) {
      if (vm_pos_.contains(s) || p.source_cost(s) != 0.0) continue;
      const Bucket& b = buckets_.at(s);
      for (const Entry& e : b.entries) {
        if (e.state == Entry::State::kUnknown) {
          needed = true;
          break;
        }
      }
      if (needed) break;
    }
    if (needed) block_.build(closure, key_vms_, p.node_cost);
  }

  // --- 4. Price: sources striped over workers in a fixed assignment, each
  // into its own bucket, so the concatenated buckets reproduce the serial
  // output bit for bit at any thread count. ---
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(num_threads, 1)), std::max<std::size_t>(srcs.size(), 1));
  if (assemblers_.size() < workers) assemblers_.resize(workers);
  std::vector<std::vector<PricedChain>> per_source(srcs.size());
  std::vector<int> per_hits(srcs.size(), 0);
  std::vector<int> per_repriced(srcs.size(), 0);

  if (workers <= 1) {
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      price_source(p, closure, srcs[i], buckets_.at(srcs[i]), assemblers_[0], opt,
                   per_source[i], per_hits[i], per_repriced[i]);
    }
  } else {
    p.network.ensure_csr();  // lift queries only read; keep csr() race-free
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < srcs.size(); i += workers) {
          price_source(p, closure, srcs[i], buckets_.at(srcs[i]), assemblers_[w], opt,
                       per_source[i], per_hits[i], per_repriced[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }

  std::vector<PricedChain> candidates;
  std::size_t total = 0;
  for (const auto& bucket : per_source) total += bucket.size();
  candidates.reserve(total);
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    for (PricedChain& c : per_source[i]) candidates.push_back(std::move(c));
    t.hits += per_hits[i];
    t.repriced += per_repriced[i];
  }
  return candidates;
}

}  // namespace sofe::core
