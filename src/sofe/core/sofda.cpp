#include "sofe/core/sofda.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

#include "sofe/core/pricing.hpp"
#include "sofe/graph/mst.hpp"
#include "sofe/steiner/steiner.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::core {

namespace {

/// Rooted view of a tree edge set in the auxiliary graph.
struct RootedTree {
  std::vector<NodeId> parent;      // parent node (kInvalidNode at root/absent)
  std::vector<EdgeId> parent_edge;
  std::vector<bool> in_tree;

  void build(const Graph& g, const std::vector<EdgeId>& edges, NodeId root) {
    const auto n = static_cast<std::size_t>(g.node_count());
    parent.assign(n, graph::kInvalidNode);
    parent_edge.assign(n, graph::kInvalidEdge);
    in_tree.assign(n, false);
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> adj(n);
    for (EdgeId e : edges) {
      adj[static_cast<std::size_t>(g.edge(e).u)].emplace_back(g.edge(e).v, e);
      adj[static_cast<std::size_t>(g.edge(e).v)].emplace_back(g.edge(e).u, e);
    }
    std::vector<NodeId> stack{root};
    in_tree[static_cast<std::size_t>(root)] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const auto& [w, e] : adj[static_cast<std::size_t>(v)]) {
        if (!in_tree[static_cast<std::size_t>(w)]) {
          in_tree[static_cast<std::size_t>(w)] = true;
          parent[static_cast<std::size_t>(w)] = v;
          parent_edge[static_cast<std::size_t>(w)] = e;
          stack.push_back(w);
        }
      }
    }
  }
};

/// Pure multicast (|C| == 0): each destination connects to its nearest
/// source through a Steiner forest built on G + virtual root.
ServiceForest multicast_only(const Problem& p, const AlgoOptions& opt) {
  Graph aux = p.network;
  const NodeId vroot = aux.add_node();
  for (NodeId s : p.sources) aux.add_edge(vroot, s, 0.0);
  std::vector<NodeId> terminals = p.destinations;
  terminals.push_back(vroot);
  const auto tree = steiner::solve(aux, terminals, opt.steiner);
  RootedTree rt;
  rt.build(aux, tree.edges, vroot);

  ServiceForest f;
  for (NodeId d : p.destinations) {
    if (!rt.in_tree[static_cast<std::size_t>(d)]) return {};  // unreachable destination
    std::vector<NodeId> rev;
    for (NodeId v = d; v != vroot; v = rt.parent[static_cast<std::size_t>(v)]) {
      assert(v != graph::kInvalidNode);
      rev.push_back(v);
    }
    ChainWalk w;
    w.destination = d;
    w.source = rev.back();  // node attached to the virtual root == a source
    w.nodes.assign(rev.rbegin(), rev.rend());
    f.walks.push_back(std::move(w));
  }
  return f;
}

}  // namespace

std::vector<PricedChain> price_candidate_chains(const Problem& p,
                                                const graph::MetricClosure& closure,
                                                const std::vector<NodeId>& sources,
                                                const AlgoOptions& opt, int num_threads) {
  PricingSession session;
  return session.price(p, closure, sources, {}, opt, num_threads);
}

void merge_priced_chains(std::vector<PricedChain>& chains) {
  std::unordered_map<NodeId, Cost> best;  // last VM -> cheapest chain into it
  for (const PricedChain& c : chains) {
    const auto [it, fresh] = best.try_emplace(c.last_vm, c.plan.cost);
    if (!fresh) it->second = std::min(it->second, c.plan.cost);
  }
  std::erase_if(chains, [&](const PricedChain& c) { return c.plan.cost != best.at(c.last_vm); });
  std::sort(chains.begin(), chains.end(), [](const PricedChain& a, const PricedChain& b) {
    return a.source != b.source ? a.source < b.source : a.last_vm < b.last_vm;
  });
}

ServiceForest sofda(const Problem& p, const AlgoOptions& opt, SofdaStats* stats) {
  assert(p.well_formed());
  SofdaStats local;
  SofdaStats& st = stats ? *stats : local;
  st = SofdaStats{};

  if (p.destinations.empty()) return {};
  if (p.chain_length == 0) return multicast_only(p, opt);

  const std::vector<NodeId> vms = p.vms();
  std::vector<NodeId> hubs = vms;
  hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
  const graph::MetricClosure closure(p.network, hubs, opt.closure_threads);

  // --- Step 1: price candidate service chains for every (source, last VM).
  const auto candidates = price_candidate_chains(p, closure, p.sources, opt, opt.closure_threads);
  return sofda_from_candidates(p, closure, candidates, opt, stats);
}

ServiceForest sofda_from_candidates(const Problem& p, const graph::MetricClosure& closure,
                                    const std::vector<PricedChain>& candidates,
                                    const AlgoOptions& opt, SofdaStats* stats) {
  assert(p.well_formed());
  assert(p.chain_length >= 1);
  SofdaStats local;
  SofdaStats& st = stats ? *stats : local;
  st = SofdaStats{};

  if (p.destinations.empty()) return {};

  // Every source of `p` gets a duplicate in Ĝ (even candidate-less ones):
  // the aux-graph node numbering must not depend on which sources priced a
  // feasible chain, or heuristic tie-breaking could diverge between the
  // centralized and per-controller pricing paths.
  const std::vector<NodeId> vms = p.vms();
  const std::vector<NodeId> sorted_sources = sorted_unique(p.sources);

  st.candidate_chains = static_cast<int>(candidates.size());
  if (candidates.empty()) return {};

  util::Stopwatch watch;
  // --- Step 2: auxiliary graph Ĝ (Procedure 3).
  Graph aux = p.network;
  const NodeId n_orig = p.network.node_count();
  const NodeId vroot = aux.add_node();  // ŝ
  std::map<NodeId, NodeId> source_dup;  // v -> v̂
  std::map<NodeId, NodeId> vm_dup;      // u -> û
  std::map<NodeId, NodeId> dup_owner;   // duplicate -> original
  for (NodeId s : sorted_sources) {
    const NodeId d = aux.add_node();
    source_dup[s] = d;
    dup_owner[d] = s;
    aux.add_edge(vroot, d, 0.0);
  }
  for (NodeId u : vms) {
    const NodeId d = aux.add_node();
    vm_dup[u] = d;
    dup_owner[d] = u;
    aux.add_edge(u, d, 0.0);
  }
  std::map<EdgeId, std::size_t> virtual_edge_candidate;  // aux edge -> candidate idx
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const EdgeId e = aux.add_edge(source_dup.at(candidates[i].source),
                                  vm_dup.at(candidates[i].last_vm), candidates[i].plan.cost);
    virtual_edge_candidate[e] = i;
  }

  // --- Step 3: Steiner tree over {ŝ} ∪ D.
  std::vector<NodeId> terminals = sorted_unique(p.destinations);
  terminals.push_back(vroot);
  auto tree = steiner::solve(aux, terminals, opt.steiner);

  // Canonicalize: every source duplicate in the tree must hang directly off
  // ŝ via its zero-cost edge (a minimal tree does this already except for
  // zero-cost ties; the fix never increases cost).
  RootedTree rt;
  rt.build(aux, tree.edges, vroot);
  for (const auto& [s, dup] : source_dup) {
    (void)s;
    const auto di = static_cast<std::size_t>(dup);
    if (rt.in_tree[di] && rt.parent[di] != vroot) {
      std::erase(tree.edges, rt.parent_edge[di]);
      tree.edges.push_back(aux.find_edge(vroot, dup));
      rt.build(aux, tree.edges, vroot);
    }
  }
  // Prune branches that reach no terminal.
  std::vector<bool> keep(static_cast<std::size_t>(aux.node_count()), false);
  for (NodeId t : terminals) keep[static_cast<std::size_t>(t)] = true;
  tree.edges = graph::prune_non_terminal_leaves(aux, std::move(tree.edges), keep);
  rt.build(aux, tree.edges, vroot);
  st.steiner_tree_cost = tree.cost(aux);
  st.steiner_seconds = watch.seconds();
  watch.reset();

  // --- Step 4: deploy the chain of every selected virtual edge (Procedure 4).
  ChainPool pool(p);
  std::vector<std::pair<EdgeId, std::size_t>> selected;  // (aux edge, candidate)
  for (EdgeId e : tree.edges) {
    const auto it = virtual_edge_candidate.find(e);
    if (it == virtual_edge_candidate.end()) continue;
    // Orientation check: the VM duplicate must be the child.
    const NodeId dup_u = vm_dup.at(candidates[it->second].last_vm);
    if (rt.parent_edge[static_cast<std::size_t>(dup_u)] == e) {
      selected.emplace_back(e, it->second);
    }
  }
  std::sort(selected.begin(), selected.end());
  for (const auto& [e, ci] : selected) {
    (void)e;
    const ChainPlan& plan = candidates[ci].plan;
    DeployedChain chain;
    chain.source = plan.source;
    chain.last_vm = plan.last_vm;
    chain.nodes = plan.nodes;
    chain.vnf_pos = plan.vnf_pos;
    pool.add(static_cast<int>(ci), std::move(chain));
  }
  st.deployed_chains = static_cast<int>(selected.size());
  st.conflicts = pool.stats();
  st.conflict_seconds = watch.seconds();

  // --- Step 5: per-destination walks = deployed chain + T ∩ G distribution.
  ServiceForest f;
  for (NodeId d : p.destinations) {
    if (!rt.in_tree[static_cast<std::size_t>(d)]) return {};  // disconnected
    // Ascend to the first duplicate node; the original node just before it is
    // the destination's last VM.
    std::vector<NodeId> ascent;  // graph nodes d ... u
    NodeId cursor = d;
    NodeId dup = graph::kInvalidNode;
    while (cursor != graph::kInvalidNode) {
      if (cursor >= n_orig) {
        dup = cursor;
        break;
      }
      ascent.push_back(cursor);
      cursor = rt.parent[static_cast<std::size_t>(cursor)];
    }
    const DeployedChain* chain = nullptr;
    if (dup != graph::kInvalidNode && dup != vroot) {
      // Find the candidate whose virtual edge feeds this duplicate.
      const EdgeId pe = rt.parent_edge[static_cast<std::size_t>(dup)];
      const auto it = virtual_edge_candidate.find(pe);
      if (it != virtual_edge_candidate.end()) chain = pool.find(static_cast<int>(it->second));
    }
    ChainWalk w;
    w.destination = d;
    if (chain != nullptr) {
      assert(!ascent.empty() && ascent.back() == chain->last_vm);
      w.source = chain->source;
      w.nodes = chain->nodes;
      w.vnf_pos = chain->vnf_pos;
      for (auto itn = ascent.rbegin() + 1; itn != ascent.rend(); ++itn) {
        w.nodes.push_back(*itn);
      }
    } else {
      // Fallback: the chain was dropped by conflict resolution (or the tree
      // reached d oddly); re-home d onto the committed chain with the
      // cheapest suffix.  Counted in stats; exercised only by adversarial
      // instances.
      ++st.rehomed_destinations;
      const DeployedChain* best = nullptr;
      Cost best_cost = graph::kInfiniteCost;
      for (const auto& [id, c] : pool.committed()) {
        (void)id;
        const Cost suffix = closure.tree(c.last_vm).distance(d);
        if (suffix < best_cost) {
          best_cost = suffix;
          best = &c;
        }
      }
      if (best == nullptr) return {};  // nothing deployed at all
      w.source = best->source;
      w.nodes = best->nodes;
      w.vnf_pos = best->vnf_pos;
      const auto suffix = closure.path(best->last_vm, d);
      w.nodes.insert(w.nodes.end(), suffix.begin() + 1, suffix.end());
    }
    f.walks.push_back(std::move(w));
  }

  if (opt.shorten) {
    watch.reset();
    shorten_pass_through(p, closure, f);
    st.shorten_seconds = watch.seconds();
  }
  return f;
}

}  // namespace sofe::core
