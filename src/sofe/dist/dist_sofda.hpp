#pragma once
// Multi-controller SOFDA (Section VI): k cooperating SDN controllers embed
// one service overlay forest, each administering one connected domain of the
// network.
//
// Protocol (bulk-synchronous rounds on the MessageBus):
//   1. the coordinator (controller 0) computes the domain partition and
//      ships every peer its assignment;
//   2. sharded closure build (DESIGN.md §11): every controller builds the
//      metric closure of its own domain in parallel and ships its
//      border/hub rows to the coordinator, which stitches the exact global
//      pricing closure from the advertised skeleton (charged by
//      ShardedClosure itself — rows, entries, bytes, one round);
//   3. the coordinator redistributes the stitched pricing view: the shared
//      VM block to every peer plus each peer's own source rows;
//   4. each controller prices the candidate chains of the sources it
//      administers against the stitched closure, pruned to its local
//      per-VM minima, and reports them to the coordinator (the bus charges
//      only those chains);
//   5. the coordinator merges the per-controller candidate lists to the
//      global per-VM minima in canonical order
//      (core::merge_priced_chains), solves the auxiliary
//      Steiner instance (Procedure 3) and broadcasts the selected chains
//      and distribution segments;
//   6. controllers install their local rule slices and acknowledge.
//
// Cost model: the simulation computes with shared state — controllers in an
// SDN deployment all learn the link-state topology, domains split
// administration, not visibility — and charges the bus for every exchange
// the visibility-restricted protocol performs.  Because the stitched
// closure is bit-identical to the global one on every hub/destination query
// (sharded_closure.hpp), the merged per-controller pricing is the
// *identical* candidate list the centralized run prices, so the merged
// auxiliary graph, the Steiner certificate and the deployed chains match
// the centralized ones exactly — at any controller count and thread count.

#include <cstddef>

#include "sofe/core/sofda.hpp"
#include "sofe/dist/message_bus.hpp"
#include "sofe/dist/sharded_closure.hpp"

namespace sofe::dist {

struct DistSofdaResult {
  core::ServiceForest forest;
  core::SofdaStats stats;      // certificate: equals the centralized run's
  int controllers = 1;         // k actually used (clamped to [1, |V|])
  std::size_t messages = 0;    // directed controller-to-controller messages
  std::size_t payload_items = 0;   // total items those messages carried
  std::size_t payload_bytes = 0;   // honest wire size of those items
  int rounds = 0;              // bulk-synchronous protocol rounds
  // Sharded-closure diagnostics (zero on the centralized fallback).
  std::size_t exchanged_rows = 0;
  std::size_t exchanged_entries = 0;
  std::size_t skeleton_edges = 0;
  double closure_build_seconds = 0.0;  // slowest controller's local build
  double closure_build_seconds_total = 0.0;
  double stitch_seconds = 0.0;
};

/// Embeds `p` with `controllers` cooperating controllers.  With one
/// controller (or a degenerate instance) this is exactly `core::sofda`,
/// message-free.  Deterministic in (p, controllers, opt).
DistSofdaResult distributed_sofda(const core::Problem& p, int controllers,
                                  const core::AlgoOptions& opt = {});

/// Protocol rounds 3-6 against an already-built (or session-repaired)
/// sharded closure: redistribution, per-domain pricing, the coordinator
/// solve and the acks.  `sc` must have been built for this problem's
/// hubs/destinations over `p.network`; `bus` keeps accumulating, so the
/// returned ledger covers everything charged on it (api::DistSolver passes
/// the same bus through ClosureSession::acquire_sharded first).  Requires
/// chain_length >= 1 and nonempty destinations.
DistSofdaResult distributed_sofda_with(const core::Problem& p, const ShardedClosure& sc,
                                       MessageBus& bus, const core::AlgoOptions& opt = {});

}  // namespace sofe::dist
