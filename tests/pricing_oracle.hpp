#pragma once
// Test-side oracles for dominance pricing (DESIGN.md §9), shared by the
// pricing, API and SOFDA suites: the per-pair reference every chain is
// priced by, its filter to each last VM's minimum, and the set of pairs
// the session's lower-bound walk visits — written from the contract, not
// from the session's code.

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/graph/metric_closure.hpp"

namespace sofe::pricing_oracle {

using core::Cost;
using core::NodeId;
using Pair = std::pair<NodeId, NodeId>;  // (source, last VM)

/// The closure SOFDA prices against: hubs are the VMs and the sources.
inline graph::MetricClosure closure_for_problem(const core::Problem& p) {
  std::vector<NodeId> hubs = p.vms();
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  return graph::MetricClosure(p.network, hubs);
}

inline bool chains_equal(const std::vector<core::PricedChain>& a,
                         const std::vector<core::PricedChain>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source || a[i].last_vm != b[i].last_vm ||
        a[i].plan.nodes != b[i].plan.nodes || a[i].plan.vnf_pos != b[i].plan.vnf_pos ||
        a[i].plan.cost != b[i].plan.cost) {  // bitwise: == on doubles
      return false;
    }
  }
  return true;
}

inline bool forests_equal(const core::ServiceForest& a, const core::ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    if (a.walks[i].source != b.walks[i].source ||
        a.walks[i].destination != b.walks[i].destination ||
        a.walks[i].nodes != b.walks[i].nodes || a.walks[i].vnf_pos != b.walks[i].vnf_pos) {
      return false;
    }
  }
  return true;
}

/// The per-pair reference: every feasible (source, last VM) chain priced
/// by its own build_stroll_instance through plan_chain_walk, sources
/// ascending.
inline std::vector<core::PricedChain> reference_chains(const core::Problem& p,
                                                       const graph::MetricClosure& closure,
                                                       const core::AlgoOptions& opt = {}) {
  const std::vector<NodeId> vms = p.vms();
  std::vector<core::PricedChain> out;
  for (NodeId s : core::sorted_unique(p.sources)) {
    for (NodeId u : vms) {
      if (u == s) continue;
      core::ChainPlan plan = core::plan_chain_walk(p, closure, s, vms, u, opt);
      if (plan.feasible()) out.push_back(core::PricedChain{s, u, std::move(plan)});
    }
  }
  return out;
}

/// The dominance oracle: the per-pair reference filtered to each last
/// VM's minimum cost, ties included, in the reference's canonical order.
inline std::vector<core::PricedChain> minimum_chains(std::vector<core::PricedChain> all) {
  std::map<NodeId, Cost> best;
  for (const auto& c : all) {
    const auto [it, fresh] = best.try_emplace(c.last_vm, c.plan.cost);
    if (!fresh) it->second = std::min(it->second, c.plan.cost);
  }
  std::erase_if(all,
                [&](const core::PricedChain& c) { return c.plan.cost != best.at(c.last_vm); });
  return all;
}

/// LB(s, u) as the session evaluates it: c(s) + d(s, u) + c(u) + the
/// |C| - 1 cheapest setups over VMs other than s and u, cheapest first
/// (equal costs by VM order), +inf when too few remain.
inline Cost lower_bound(const core::Problem& p, const graph::MetricClosure& mc, NodeId s,
                        NodeId u) {
  std::vector<std::pair<Cost, NodeId>> setups;
  for (NodeId v : p.vms()) {
    if (v != s && v != u) setups.emplace_back(p.node_cost[static_cast<std::size_t>(v)], v);
  }
  std::sort(setups.begin(), setups.end());
  const auto rest = static_cast<std::size_t>(p.chain_length - 1);
  Cost cheap = setups.size() < rest ? graph::kInfiniteCost : 0.0;
  for (std::size_t k = 0; k < rest && k < setups.size(); ++k) cheap += setups[k].first;
  return p.source_cost(s) + mc.tree(s).distance(u) + p.node_cost[static_cast<std::size_t>(u)] +
         cheap;
}

/// The pairs a price() call over `p` visits: per last VM, the sources in
/// (LB, id) order until LB · (1 − slack) exceeds the cheapest chain so far.
inline std::set<Pair> visited_pairs(const core::Problem& p, const graph::MetricClosure& mc) {
  const std::vector<NodeId> vms = p.vms();
  std::set<Pair> out;
  for (NodeId u : vms) {
    std::vector<std::pair<Cost, NodeId>> order;
    for (NodeId s : core::sorted_unique(p.sources)) {
      if (s != u) order.emplace_back(lower_bound(p, mc, s, u), s);
    }
    std::sort(order.begin(), order.end());
    Cost best = graph::kInfiniteCost;
    for (const auto& [lb, s] : order) {
      if (lb * (1.0 - core::PricingSession::kBoundSlack) > best) break;
      out.emplace(s, u);
      best = std::min(best, core::plan_chain_walk(p, mc, s, vms, u).cost);
    }
  }
  return out;
}

/// (source, last VM) pairs eligible for a price() call over `p`: u != s.
inline int pair_count(const core::Problem& p) {
  const std::vector<NodeId> vms = p.vms();
  int n = 0;
  for (NodeId s : core::sorted_unique(p.sources)) {
    for (NodeId u : vms) n += u != s ? 1 : 0;
  }
  return n;
}

/// What one session has priced under its current price key, and the
/// tallies its next price() call must report.
struct SessionTracker {
  std::set<Pair> priced;

  struct Expected {
    int hits = 0, repriced = 0, pruned = 0;
  };

  /// Expected tallies for a call over `p` (its cold closure); `flushed`
  /// says the price key moved, which drops everything priced before.
  Expected next(const core::Problem& p, bool flushed) {
    if (flushed) priced.clear();
    const std::set<Pair> visited = visited_pairs(p, closure_for_problem(p));
    Expected e;
    for (const Pair& pair : visited) e.repriced += priced.insert(pair).second ? 1 : 0;
    e.hits = static_cast<int>(visited.size()) - e.repriced;
    e.pruned = pair_count(p) - static_cast<int>(visited.size());
    return e;
  }
};

}  // namespace sofe::pricing_oracle
