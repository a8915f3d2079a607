#pragma once
// Failure injection for the online layer (DESIGN.md §12).
//
// A FailurePlan scripts link, node and data-center failures (and their
// recoveries) against an arrival stream.  Every event is realized as a
// graph::EdgeCostDelta batch at an epoch boundary: a failure drives the
// affected physical links to kInfiniteCost (the §8 soft disconnect — the
// repair machinery treats infinite arcs as removed without any structural
// mutation), a heal restores the ledger-derived price.  Because the whole
// drill is "just another cost-delta batch", the session closure repair
// (§8) and the pipeline's per-epoch replica sync (§10) recover
// incrementally instead of rebuilding, and the drill is deterministic at
// every thread and worker count.
//
// The companion RecoveryEngine (recovery.hpp) re-embeds the service forests
// a failure breaks; this header holds only the plan/report value types so
// the online layer can consume them without pulling in the engine.

#include <cstdint>
#include <vector>

#include "sofe/graph/graph.hpp"
#include "sofe/topology/topology.hpp"

namespace sofe::resilience {

using graph::Cost;
using graph::EdgeId;
using graph::NodeId;

/// One scripted failure (and optional recovery).  Indices are arrival
/// indices into the online stream; an event takes effect when the epoch
/// containing that arrival opens — at OnlineConfig::epoch_size 1 that is
/// exactly the named arrival, at S > 1 the event aligns to the epoch
/// boundary (the same boundary at every worker count, which is what keeps
/// the pipelined drill deterministic).
struct FailureEvent {
  enum class Target : std::uint8_t {
    kLink,        // id = EdgeId into the physical topology
    kNode,        // id = NodeId; fails every incident physical link
    kDataCenter,  // id = index into Topology::dc_nodes; node failure of the site
  };
  Target target = Target::kLink;
  std::int32_t id = 0;
  int fail_at = 0;   // arrival index at which the failure takes effect
  int heal_at = -1;  // arrival index of the recovery; negative = never heals
};

/// A scripted drill: any number of events, overlapping allowed (a link
/// failed by two events stays down until both heal — per-link failure
/// counts, so plans compose).
struct FailurePlan {
  std::vector<FailureEvent> events;

  bool empty() const noexcept { return events.empty(); }
};

/// Recovery budget (DESIGN.md §12): how much embedded state one failure
/// event may move.  Re-routing a walk segment around a dead link inside its
/// own tree is repair and always free; *moving a user* means re-homing a
/// destination onto a different attachment (DynamicForest::destination_join)
/// or adopting a from-scratch re-embed (which may move every user of the
/// request).
struct RecoveryBudget {
  /// Max destinations moved per affected request.  0 = repair-only (orphans
  /// the repair cannot save are dropped), negative = unbounded — migration
  /// is declared free and the engine adopts the global from-scratch
  /// re-embed outright whenever it is feasible, which makes the unbounded
  /// drill bitwise the from-scratch reference bench_fig13_failures asserts.
  int max_moved_users = -1;
  /// Folded into the candidate objective as `cost + weight * moved_users`,
  /// so a nonzero weight makes the engine prefer local repair unless the
  /// re-embed's quality gain pays for the churn it causes.
  Cost migration_cost_weight = 0.0;
};

/// One affected request's recovery, reported per (event epoch, request).
/// `seconds` is wall time and — like OnlineResult::arrival_seconds — is
/// excluded from every determinism comparison; all other fields are
/// deterministic in (topology, OnlineConfig, FailurePlan, budget).
struct RecoveryReport {
  int epoch_first = 0;        // first slot of the epoch whose open fired
  int slot = 0;               // the affected request's arrival index
  int rerouted_segments = 0;  // in-tree segment re-routes (free)
  int moved_users = 0;        // destinations re-homed / re-embedded
  int dropped_users = 0;      // destinations no feasible recovery served
  bool escalated = false;     // the from-scratch candidate was adopted
  /// Enforced-capacity mode only (DESIGN.md §14): the chosen recovery no
  /// longer fit the ledger's hard link/host limits, so the whole request
  /// was dropped instead of recharged — its users count in dropped_users
  /// and the bandwidth it held stays freed.  Always false in soft mode.
  bool capacity_dropped = false;
  Cost repaired_cost = 0.0;   // repair+re-home candidate (+inf if none)
  Cost scratch_cost = 0.0;    // from-scratch candidate (+inf if infeasible)
  Cost chosen_cost = 0.0;     // the adopted recovery's cost at epoch prices
  double seconds = 0.0;       // recovery wall time (timing, not semantics)
};

/// Checks a plan against the physical topology it will be drilled on and
/// throws std::invalid_argument naming the offending field (the
/// online::validate convention) for: negative arrival indices, a recovery
/// scheduled at or before its failure, and unknown link/node/DC ids.
/// Both online drivers call this from ArrivalStream construction, so a
/// degenerate plan fails fast in `online::simulate` and `online::Pipeline`
/// alike.
void validate(const FailurePlan& plan, const topology::Topology& topo);

/// The edge set an event takes down: the link itself (kLink) or every
/// physical link incident to the node/site (kNode/kDataCenter), ascending.
/// `plan_validated` inputs only — ids are resolved without re-checking.
std::vector<EdgeId> affected_links(const FailureEvent& event, const topology::Topology& topo);

}  // namespace sofe::resilience
