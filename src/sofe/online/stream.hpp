#pragma once
// The deterministic arrival stream shared by the sequential driver and the
// epoch-pipelined admission service (DESIGN.md §10).
//
// Everything that defines the online scenario's semantics lives here, in one
// place, so `online::simulate` and `online::Pipeline` cannot drift: the
// pre-sampled request sequence (the RNG stream never depends on solver
// output, so all requests are drawn up front), the persistent master
// Problem, the load ledger, and the epoch protocol — price refreshes happen
// once per epoch of `OnlineConfig::epoch_size` arrivals, departures release
// at exactly the sequential points, and ledger charges commit in arrival
// order.  At epoch_size 1 the protocol degenerates to the paper's
// per-arrival Fig. 12 loop, bit for bit.

#include <cstdint>
#include <memory>
#include <vector>

#include "sofe/online/admission.hpp"
#include "sofe/online/simulator.hpp"
#include "sofe/resilience/recovery.hpp"

namespace sofe::online {

/// One pre-sampled arrival: the node sets the request asks to serve.
struct Request {
  std::vector<core::NodeId> sources;
  std::vector<core::NodeId> destinations;
};

/// Checks an OnlineConfig and throws std::invalid_argument with a message
/// naming the offending field instead of letting a degenerate configuration
/// silently produce an empty or malformed request sequence.
void validate(const OnlineConfig& cfg);

/// One arrival's commit outcome (DESIGN.md §14): what the stream decided,
/// at what cost, and how loaded the network was when it decided.
struct SlotOutcome {
  enum class Status : std::uint8_t {
    kAdmitted,    ///< embedded, (policy-)accepted, charged to the ledger
    kRejected,    ///< embedded but declined by policy or capacity gate
    kInfeasible,  ///< the solver produced no embedding
  };
  Status status = Status::kInfeasible;
  core::Cost cost = 0.0;  ///< snapshot-price cost; 0 unless admitted
  /// Max physical-link utilization at decision time (after the departures
  /// due at this slot released, before this slot's own charge).
  double decision_utilization = 0.0;
};

/// The online scenario's state machine.  One instance is driven by exactly
/// one thread (the sequential driver, or the pipeline's commit stage); the
/// pre-sampled requests are immutable after construction and safe for
/// concurrent readers.
///
/// Epoch protocol (DESIGN.md §10 + §14): the driver calls, in order,
///   open_epoch(first)          — releases pre-epoch departures, refreshes
///                                prices once; master() now carries the
///                                epoch snapshot every arrival of the epoch
///                                is priced against
///   commit_epoch(first, forests)
///                              — after every slot of the epoch has been
///                                solved: per slot in arrival order,
///                                releases the intra-epoch departure due at
///                                it, runs the admission decision (policy
///                                intent + capacity gate) and charges the
///                                admitted embeddings; returns one
///                                SlotOutcome per slot
/// and repeats until the stream is exhausted.  Batching the commit is what
/// lets batch-ranking policies (reject-costliest) see the whole epoch; it
/// is semantically free because solves read only the frozen snapshot and
/// the ledger is read only at epoch open — the per-slot ledger evolution
/// inside commit_epoch is exactly the historical per-slot interleaving.
///
/// Failure drills (DESIGN.md §12) ride the same protocol: scripted
/// FailureEvents compile into a time-sorted toggle schedule at
/// construction; open_epoch fires every toggle due in the epoch BEFORE the
/// price refresh, so a failed link simply refreshes to kInfiniteCost and a
/// healed one back to its ledger price — ordinary entries in the epoch's
/// EdgeCostDelta batch, which is how the drill reaches solver sessions and
/// pipeline worker replicas without any extra machinery.  After the
/// refresh, every live embedding charged across a newly-failed link is
/// recovered (resilience::recover_request) under the configured budget,
/// still inside open_epoch — i.e. while the pipeline's workers are parked —
/// which keeps the drill deterministic at every worker count.
class ArrivalStream {
 public:
  /// Validates cfg (throws std::invalid_argument), builds the persistent
  /// master Problem (topology + vms_per_dc VM taps per DC) and pre-samples
  /// the whole request sequence from cfg.seed — the identical sequence the
  /// historical per-arrival sampler produced.
  ArrivalStream(const topology::Topology& topo, const OnlineConfig& cfg);

  int requests() const noexcept { return cfg_.requests; }
  int epoch_size() const noexcept { return cfg_.epoch_size; }
  const OnlineConfig& config() const noexcept { return cfg_; }

  /// Slot r's pre-sampled request.  Immutable; safe from any thread.
  const Request& request(int r) const {
    return requests_[static_cast<std::size_t>(r)];
  }

  /// The persistent Problem at the current epoch's snapshot prices.
  /// Mutated only by open_epoch (prices) and stage (sources/destinations).
  const core::Problem& master() const noexcept { return master_; }

  /// Opens the epoch covering slots [first, first + count) where
  /// count = min(epoch_size, requests - first): releases the charges of
  /// every departure due in the epoch whose admission predates it, then
  /// refreshes link prices and VM setup costs from the ledger — writing
  /// only values that actually moved, so the master keeps its CSR cache
  /// and solver sessions see a cost-only delta batch.  Returns count.
  /// `moved` (optional) receives one EdgeCostDelta per rewritten link.
  int open_epoch(int first, std::vector<graph::EdgeCostDelta>* moved = nullptr);

  /// Stages slot r's request on the master (sources/destinations assigned
  /// in place) and returns it, ready to hand to an embedder.
  const core::Problem& stage(int r);

  /// Commits the whole open epoch in arrival order: `forests[i]` is the
  /// embedding solved for slot first + i at the epoch snapshot (empty =
  /// infeasible).  Per slot, in order: the intra-epoch departure due at it
  /// releases (one admitted inside this epoch — pre-epoch ones were
  /// released by open_epoch), the admission decision applies, and an
  /// admitted embedding's bandwidth and VNF placements are charged.  With
  /// no policy configured every non-empty forest is admitted (the paper's
  /// soft regime); with one, the policy's batch intent is gated per slot by
  /// LoadLedger::can_admit, so a rejected arrival charges NOTHING — the
  /// rejection-through-commit rule (DESIGN.md §14).  Costs are evaluated at
  /// the frozen snapshot by re-staging each slot, so the values are
  /// bitwise the historical solve-then-commit interleaving's.
  std::vector<SlotOutcome> commit_epoch(int first,
                                        const std::vector<core::ServiceForest>& forests);

  /// Folds the end-of-stream statistics and admission bookkeeping into an
  /// OnlineResult (overloaded links, utilization, accept/reject tallies,
  /// recovery reports).  Both drivers call this last, which is what keeps
  /// the admission series structurally incapable of driver drift.
  void finish(OnlineResult& result) const;

  /// Links loaded beyond capacity right now (the end-of-stream statistic).
  std::size_t overloaded_links() const;

  /// The ledger, for invariant checks (test seam; loads never exceed
  /// capacity in enforced mode) and utilization probes.
  const costmodel::LoadLedger& ledger() const noexcept { return ledger_; }

  /// True when an admission policy is configured (enforced-capacity mode).
  bool has_admission() const noexcept { return policy_ != nullptr; }

  /// Replaces the policy parsed from OnlineConfig::admission (test seam for
  /// custom policies, e.g. replaying a recorded decision log).  Must be
  /// called before the first open_epoch; pass nullptr to disable admission.
  void set_admission_policy(std::unique_ptr<AdmissionPolicy> policy) {
    policy_ = std::move(policy);
  }

  /// Per-request ledger charges of slot r's live embedding (empty unless
  /// charges are tracked: holding, drills or admission).  One entry per
  /// charged stream copy / enabled VNF slot, multiplicity preserved.
  const std::vector<graph::EdgeId>& charged_links(int r) const {
    return charges_[static_cast<std::size_t>(r)].links;
  }
  const std::vector<std::size_t>& charged_hosts(int r) const {
    return charges_[static_cast<std::size_t>(r)].hosts;
  }

  /// True when the config scripts a failure drill (a non-empty
  /// OnlineConfig::failures plan survived validation).
  bool has_failures() const noexcept { return has_failures_; }

  /// Installs the from-scratch re-embedder recovery escalates to.  Must be
  /// set before the first open_epoch of a drill; each driver installs its
  /// own (the free-function driver wraps the embedder under test, the
  /// pipeline a dedicated solver session — interchangeable, because
  /// sessions are pure speed knobs).
  void set_recovery_embedder(resilience::EmbedFn embed) {
    recovery_embed_ = std::move(embed);
  }

  /// Failure-drill recovery reports, in (epoch, arrival-slot) order.
  const std::vector<resilience::RecoveryReport>& recoveries() const noexcept {
    return recoveries_;
  }

 private:
  void release(int admitted_slot);
  void charge(int r, const core::ServiceForest& forest);
  void recover_affected(const std::vector<graph::EdgeId>& newly_failed);
  /// The ledger charges `forest` would take if admitted (multiplicity
  /// preserved), the shape can_admit and charge() agree on.
  void collect_charges(const core::ServiceForest& forest,
                       std::vector<graph::EdgeId>* links,
                       std::vector<std::size_t>* hosts) const;
  /// The same embedding priced on an EMPTY network: zero-load Fortz-Thorup
  /// link prices plus zero-load VM setup — the denominator of the
  /// threshold-price policy's congestion-surcharge ratio.
  core::Cost uncongested_cost(const core::ServiceForest& forest) const;

  OnlineConfig cfg_;
  core::Problem master_;
  costmodel::LoadLedger ledger_;
  std::vector<std::size_t> vm_host_;  // per VM node (indexed from n_access_)
  std::vector<Request> requests_;
  graph::NodeId n_access_ = 0;   // nodes of the physical topology
  graph::EdgeId n_physical_ = 0; // edges of the physical topology
  int epoch_first_ = 0;          // first slot of the open epoch

  // Per-request ledger charges, kept so a departure can return exactly
  // what its admission took — and, in a drill, so the newly-failed edge
  // set can be intersected against every live embedding in O(charges).
  struct Charges {
    std::vector<graph::EdgeId> links;  // one entry per charged stream copy
    std::vector<std::size_t> hosts;    // one entry per enabled VNF slot
  };
  std::vector<Charges> charges_;
  bool track_charges_ = false;  // holding, drills or admission configured

  // Admission control (DESIGN.md §14).  The policy is parsed from
  // OnlineConfig::admission at construction; scalar tallies accumulate at
  // commit and fold into OnlineResult via finish().
  std::unique_ptr<AdmissionPolicy> policy_;
  int admitted_count_ = 0;
  int rejected_count_ = 0;
  double rejected_demand_ = 0.0;
  std::vector<AdmissionCandidate> batch_;  // commit_epoch scratch
  std::vector<char> intent_;

  // Failure drill (DESIGN.md §12).
  struct Toggle {
    int at = 0;        // arrival index the event aligns to
    bool fail = false; // true = drive edges to +inf, false = heal
    std::vector<graph::EdgeId> edges;
  };
  std::vector<Toggle> toggles_;  // stable-sorted by `at`
  std::size_t next_toggle_ = 0;
  std::vector<int> fail_count_;  // per physical link; overlapping plans compose
  // Live embeddings by slot (drill only; cleared on departure/loss) — the
  // ledger remembers what a request charged, this remembers its shape.
  std::vector<core::ServiceForest> admitted_;
  resilience::EmbedFn recovery_embed_;
  std::vector<resilience::RecoveryReport> recoveries_;
  bool has_failures_ = false;
};

}  // namespace sofe::online
