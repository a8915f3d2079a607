#pragma once
// SOFDA (Algorithm 2): the 3ρST-approximation for the general SOF problem
// with multiple sources (Section V).
//
// Pipeline:
//   1. price every candidate service chain (source v -> last VM u) by a
//      (|C|+1)-stroll on the Procedure-1 metric instance;
//   2. build the auxiliary Steiner instance Ĝ (Procedure 3): a virtual
//      source ŝ, zero-cost edges to source duplicates v̂, virtual edges
//      (v̂, û) priced by the chains, and zero-cost edges û -> u;
//   3. find a Steiner tree over {ŝ} ∪ D (cost ≤ 3ρST · OPT by Lemma 2);
//   4. deploy the chain of every selected virtual edge, resolving VNF
//      conflicts (Procedure 4) without adding links or enabling new VMs;
//   5. route each destination along T ∩ G from its chain's last VM.

#include "sofe/core/chain_walk.hpp"
#include "sofe/core/conflict.hpp"
#include "sofe/core/forest.hpp"

namespace sofe::core {

struct SofdaStats {
  ConflictStats conflicts;
  int candidate_chains = 0;   // candidates given: per last VM, the chains at
                              // its minimum cost (ties included)
  int deployed_chains = 0;    // virtual edges selected by the Steiner tree
  int rehomed_destinations = 0;  // served via the drop-fallback (0 in practice)
  Cost steiner_tree_cost = 0.0;  // cost of T in Ĝ (the 3ρST·OPT certificate)
  // Wall-clock split of sofda_from_candidates (the post-pricing solve):
  // Ĝ + Steiner tree (steps 2-3), chain deployment with conflict
  // resolution (step 4), and pass-through shortening.  Step 5's walk
  // assembly is in none of them.
  double steiner_seconds = 0.0;
  double conflict_seconds = 0.0;
  double shorten_seconds = 0.0;
};

/// Runs SOFDA.  Returns an empty forest when the instance is infeasible
/// (no destinations, or no source can reach a full chain and a destination).
/// Chain reuse across solves lives in api::Solver ("sofda" sessions).
ServiceForest sofda(const Problem& p, const AlgoOptions& opt = {},
                    SofdaStats* stats = nullptr);

/// One priced candidate service chain: a feasible (source, last VM) pair and
/// its Procedure-2 walk plan.  The unit of exchange between controllers in
/// the multi-controller pipeline (Section VI).
struct PricedChain {
  NodeId source = graph::kInvalidNode;
  NodeId last_vm = graph::kInvalidNode;
  ChainPlan plan;
};

/// Step 1 of SOFDA exposed as a standalone phase: for every last VM u,
/// the feasible chains (s, u) over the given sources whose cost equals
/// min_s c(s, u), ties included.  In Ĝ every source duplicate hangs off ŝ
/// by a zero-cost edge, so a chain above its VM's minimum can lie on no
/// shortest path and no Steiner step needs it (DESIGN.md §9); the rest are
/// pruned by a lower bound and mostly never priced.  Sources are
/// deduplicated and candidates come back in canonical (source, last_vm)
/// order.  `closure` must hold Dijkstra trees for every source and every
/// VM.
///
/// A one-shot core::PricingSession (pricing.hpp): the shared-block instance
/// assembly is the only pricing path.  `num_threads` > 1 stripes last VMs
/// over workers in a fixed assignment, so the output is bitwise the
/// serial one at any thread count (tested).  Values < 1 are clamped to 1.
/// Requires chain_length >= 1.
std::vector<PricedChain> price_candidate_chains(const Problem& p,
                                                const graph::MetricClosure& closure,
                                                const std::vector<NodeId>& sources,
                                                const AlgoOptions& opt = {},
                                                int num_threads = 1);

/// Coordinator-side merge of per-controller pricing outputs over disjoint
/// source sets: keeps, per last VM, the chains at the global minimum (ties
/// included) and restores the canonical (source, last_vm) order.  A
/// controller's local minimum is never below the global one, so every
/// globally minimal chain is in its controller's output, and the merge
/// yields exactly what one price_candidate_chains call over the union
/// emits — the distributed driver's certificate argument rests on this.
void merge_priced_chains(std::vector<PricedChain>& chains);

/// Steps 2-5 of SOFDA (auxiliary graph, Steiner tree, deployment, walks)
/// given already-priced candidates in canonical (source, last_vm) order.
/// Any superset of price_candidate_chains' list in that order (say, every
/// feasible pair) yields the same forest, steiner_tree_cost and
/// deployed_chains: a chain above its last VM's minimum never enters the
/// tree (DESIGN.md §9; tested for all four Steiner algorithms).
/// `closure` must hold trees for every source and every VM, each exact at
/// every VM and destination: the drop-fallback re-homing reads last-VM
/// trees, and pass-through shortening reads the source and VNF-VM trees
/// (see shorten_pass_through).  Requires chain_length >= 1.
ServiceForest sofda_from_candidates(const Problem& p, const graph::MetricClosure& closure,
                                    const std::vector<PricedChain>& candidates,
                                    const AlgoOptions& opt = {}, SofdaStats* stats = nullptr);

}  // namespace sofe::core
