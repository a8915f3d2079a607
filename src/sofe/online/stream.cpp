#include "sofe/online/stream.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sofe/util/stopwatch.hpp"

namespace sofe::online {

using costmodel::LoadLedger;
using graph::EdgeId;
using graph::NodeId;

void validate(const OnlineConfig& cfg) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("OnlineConfig: " + what);
  };
  if (cfg.requests <= 0) {
    fail("requests must be > 0 (got " + std::to_string(cfg.requests) + ")");
  }
  if (cfg.min_destinations < 1 || cfg.min_destinations > cfg.max_destinations) {
    fail("destination range requires 1 <= min_destinations <= max_destinations (got [" +
         std::to_string(cfg.min_destinations) + ", " + std::to_string(cfg.max_destinations) + "])");
  }
  if (cfg.min_sources < 1 || cfg.min_sources > cfg.max_sources) {
    fail("source range requires 1 <= min_sources <= max_sources (got [" +
         std::to_string(cfg.min_sources) + ", " + std::to_string(cfg.max_sources) + "])");
  }
  if (cfg.chain_length < 0) {
    fail("chain_length must be >= 0 (got " + std::to_string(cfg.chain_length) + ")");
  }
  if (cfg.vms_per_dc < 0) {
    fail("vms_per_dc must be >= 0 (got " + std::to_string(cfg.vms_per_dc) + ")");
  }
  if (cfg.demand_mbps < 0.0) fail("demand_mbps must be >= 0");
  if (cfg.link_capacity <= 0.0) fail("link_capacity must be > 0");
  if (cfg.host_capacity <= 0.0) fail("host_capacity must be > 0");
  if (cfg.setup_scale < 0.0) fail("setup_scale must be >= 0");
  if (cfg.holding_arrivals < 0) {
    fail("holding_arrivals must be >= 0 (got " + std::to_string(cfg.holding_arrivals) + ")");
  }
  if (cfg.epoch_size < 1) {
    fail("epoch_size must be >= 1 (got " + std::to_string(cfg.epoch_size) + ")");
  }
  if (cfg.recovery.migration_cost_weight < 0.0) {
    fail("recovery.migration_cost_weight must be >= 0 (got " +
         std::to_string(cfg.recovery.migration_cost_weight) + ")");
  }
  if (cfg.source_pool != 0 && cfg.source_pool < cfg.max_sources) {
    fail("source_pool must be 0 (off) or >= max_sources (got " +
         std::to_string(cfg.source_pool) + " with max_sources " +
         std::to_string(cfg.max_sources) + ")");
  }
  if (cfg.source_alpha < 0.0) {
    fail("source_alpha must be >= 0 (got " + std::to_string(cfg.source_alpha) + ")");
  }
  if (!cfg.admission.empty()) {
    // Parse for effect: a malformed policy spec throws std::invalid_argument
    // naming the offending field, from BOTH drivers (each constructs an
    // ArrivalStream, which validates first).
    (void)make_admission_policy(cfg.admission);
  }
}

ArrivalStream::ArrivalStream(const topology::Topology& topo, const OnlineConfig& cfg)
    : cfg_(cfg),
      ledger_(static_cast<std::size_t>(topo.g.edge_count()), cfg.link_capacity,
              topo.dc_nodes.size(), cfg.host_capacity,
              /*enforce_capacity=*/!cfg.admission.empty()) {
  validate(cfg);
  if (!cfg.admission.empty()) policy_ = make_admission_policy(cfg.admission);

  // ONE persistent Problem for the whole stream (see simulator.hpp):
  // topology + VM nodes (vms_per_dc per DC), as in the paper's online
  // setup.  VM i is hosted on DC host i / vms_per_dc.  Per arrival only
  // sources/destinations and the prices that actually moved are mutated,
  // so the CSR cache refreshes costs in place and solver sessions see
  // cost-only deltas.
  master_.network = topo.g;
  master_.chain_length = cfg.chain_length;
  n_access_ = topo.g.node_count();
  n_physical_ = topo.g.edge_count();
  master_.node_cost.assign(static_cast<std::size_t>(n_access_), 0.0);
  master_.is_vm.assign(static_cast<std::size_t>(n_access_), 0);
  for (std::size_t h = 0; h < topo.dc_nodes.size(); ++h) {
    for (int i = 0; i < cfg.vms_per_dc; ++i) {
      const NodeId vm = master_.network.add_node();
      master_.network.add_edge(vm, topo.dc_nodes[h], 0.0);
      master_.node_cost.push_back(0.0);
      master_.is_vm.push_back(1);
      vm_host_.push_back(h);
    }
  }

  // Pre-sample the whole arrival sequence.  The draw order per request —
  // destination count, source count, destination pick, source pick — is
  // exactly the historical per-arrival sampler's, and the RNG stream never
  // observed solver output, so pulling the loop out of the drivers changes
  // nothing (pinned by the bit-identity tests).  Sources and destinations
  // are drawn independently (a node may play both roles — the paper's
  // SoftLayer setting of up to 17 destinations plus 12 sources does not fit
  // 27 nodes otherwise).
  util::Rng rng(cfg.seed ^ 0x0427);

  // Recurring-source mode (DESIGN.md §13): one source pool for the whole
  // stream, drawn before any request so the off path (source_pool == 0)
  // consumes the RNG stream exactly as pre-pool builds did — the sampled
  // sequence is then byte-identical (pinned by tests).  Pool member at
  // popularity rank r carries Zipf-like weight 1/(r+1)^alpha; `cum` holds
  // the cumulative weights the per-request inverse-CDF draw searches.
  std::vector<NodeId> pool;
  std::vector<double> cum;
  if (cfg.source_pool > 0) {
    const auto pick = rng.sample_without_replacement(
        static_cast<std::size_t>(n_access_),
        static_cast<std::size_t>(std::min(cfg.source_pool, static_cast<int>(n_access_))));
    pool.assign(pick.begin(), pick.end());
    cum.reserve(pool.size());
    double total = 0.0;
    for (std::size_t rank = 0; rank < pool.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), cfg.source_alpha);
      cum.push_back(total);
    }
  }

  requests_.reserve(static_cast<std::size_t>(cfg.requests));
  std::vector<char> used(pool.size(), 0);
  for (int r = 0; r < cfg.requests; ++r) {
    const int n_dst = rng.uniform_int(cfg.min_destinations, cfg.max_destinations);
    const int n_src = rng.uniform_int(cfg.min_sources, cfg.max_sources);
    const auto dst_pick = rng.sample_without_replacement(
        static_cast<std::size_t>(n_access_),
        static_cast<std::size_t>(std::min(n_dst, static_cast<int>(n_access_))));
    Request req;
    req.destinations.assign(dst_pick.begin(), dst_pick.end());
    if (pool.empty()) {
      const auto src_pick = rng.sample_without_replacement(
          static_cast<std::size_t>(n_access_),
          static_cast<std::size_t>(std::min(n_src, static_cast<int>(n_access_))));
      req.sources.assign(src_pick.begin(), src_pick.end());
    } else {
      // Inverse-CDF draw without replacement: land on a rank via the
      // cumulative weights, and on a duplicate scan forward (wrapping) to
      // the next untaken rank — deterministic in the RNG stream, and every
      // draw terminates because want <= pool size.
      const std::size_t want = static_cast<std::size_t>(
          std::min(n_src, static_cast<int>(pool.size())));
      std::fill(used.begin(), used.end(), 0);
      req.sources.reserve(want);
      while (req.sources.size() < want) {
        const double u = rng.uniform(0.0, cum.back());
        std::size_t i = static_cast<std::size_t>(
            std::upper_bound(cum.begin(), cum.end(), u) - cum.begin());
        if (i >= pool.size()) i = pool.size() - 1;
        while (used[i] != 0) i = (i + 1) % pool.size();
        used[i] = 1;
        req.sources.push_back(pool[i]);
      }
    }
    requests_.push_back(std::move(req));
  }

  charges_.resize(static_cast<std::size_t>(cfg.requests));

  // Compile the failure drill (DESIGN.md §12) into a time-sorted toggle
  // schedule.  Both drivers construct an ArrivalStream, so a degenerate
  // plan throws from online::simulate and online::Pipeline alike.
  if (cfg.failures != nullptr) {
    resilience::validate(*cfg.failures, topo);
    has_failures_ = !cfg.failures->empty();
    for (const resilience::FailureEvent& ev : cfg.failures->events) {
      std::vector<EdgeId> edges = resilience::affected_links(ev, topo);
      toggles_.push_back({ev.fail_at, true, edges});
      if (ev.heal_at >= 0) toggles_.push_back({ev.heal_at, false, std::move(edges)});
    }
    // Stable: simultaneous toggles fire in plan order, so "A fails, B
    // heals at the same arrival" is well defined (and per-link counts
    // make the outcome order-independent anyway).
    std::stable_sort(toggles_.begin(), toggles_.end(),
                     [](const Toggle& a, const Toggle& b) { return a.at < b.at; });
    fail_count_.assign(static_cast<std::size_t>(n_physical_), 0);
    admitted_.resize(static_cast<std::size_t>(cfg.requests));
  }
  // Admission also tracks charges: the capacity gate needs each live
  // embedding's exact charge lists for recovery re-fits and the decision-
  // log replay seam (test_admission).
  track_charges_ = cfg.holding_arrivals > 0 || has_failures_ || policy_ != nullptr;
}

void ArrivalStream::release(int admitted_slot) {
  Charges& old = charges_[static_cast<std::size_t>(admitted_slot)];
  for (EdgeId e : old.links) ledger_.remove_link_load(e, cfg_.demand_mbps);
  for (std::size_t h : old.hosts) ledger_.remove_host_load(h, 1.0);
  old = Charges{};
  if (has_failures_) admitted_[static_cast<std::size_t>(admitted_slot)] = core::ServiceForest{};
}

int ArrivalStream::open_epoch(int first, std::vector<graph::EdgeCostDelta>* moved) {
  assert(first >= 0 && first < cfg_.requests);
  epoch_first_ = first;
  const int count = std::min(cfg_.epoch_size, cfg_.requests - first);

  // Departures due inside this epoch whose admission predates it release
  // now, before the single refresh — each contributes its cost-restore
  // deltas to the epoch batch.  A departure whose admission also falls
  // inside the epoch releases at its due slot's commit() instead; ledger
  // charges commute, so the NEXT epoch's snapshot is identical to the
  // sequential interleaving, and at epoch_size 1 this block is exactly the
  // historical release-then-refresh order.
  if (cfg_.holding_arrivals > 0) {
    for (int due = first; due < first + count; ++due) {
      const int admitted = due - cfg_.holding_arrivals;
      if (admitted >= 0 && admitted < first) release(admitted);
    }
  }

  // Failure toggles due in this epoch fire now, BEFORE the refresh, so the
  // single price pass below realizes them as ordinary cost deltas: a
  // failing link refreshes to kInfiniteCost, a healing one back to its
  // ledger price.  Per-link fail counts make overlapping events compose; a
  // link is "newly failed" only on its 0 -> 1 transition — the trigger for
  // the recovery pass after the refresh.
  std::vector<EdgeId> newly_failed;
  while (next_toggle_ < toggles_.size() && toggles_[next_toggle_].at < first + count) {
    const Toggle& t = toggles_[next_toggle_++];
    for (const EdgeId e : t.edges) {
      int& fails = fail_count_[static_cast<std::size_t>(e)];
      if (t.fail) {
        if (fails++ == 0) newly_failed.push_back(e);
      } else {
        assert(fails > 0 && "heal toggle without its matching failure");
        --fails;
      }
    }
  }
  std::sort(newly_failed.begin(), newly_failed.end());
  newly_failed.erase(std::unique(newly_failed.begin(), newly_failed.end()),
                     newly_failed.end());

  // One price refresh for the whole epoch, writing only real changes (an
  // untouched link keeps its cost, its CSR entry and its place outside the
  // delta batch).
  if (moved != nullptr) moved->clear();
  for (EdgeId e = 0; e < n_physical_; ++e) {
    const Cost price = (has_failures_ && fail_count_[static_cast<std::size_t>(e)] > 0)
                           ? graph::kInfiniteCost
                           : ledger_.link_price(e, cfg_.demand_mbps);
    const Cost old = master_.network.edge(e).cost;
    if (old != price) {
      master_.network.set_edge_cost(e, price);
      if (moved != nullptr) moved->push_back({e, old, price});
    }
  }
  for (std::size_t i = 0; i < vm_host_.size(); ++i) {
    const Cost price = cfg_.setup_scale * ledger_.host_price(vm_host_[i]);
    Cost& slot = master_.node_cost[static_cast<std::size_t>(n_access_) + i];
    if (slot != price) slot = price;
  }

  // Recover every live embedding the failure batch broke, still inside the
  // epoch open — in the pipeline this runs on the commit thread while all
  // workers are parked, so the drill is deterministic at any worker count.
  if (!newly_failed.empty()) recover_affected(newly_failed);
  return count;
}

void ArrivalStream::recover_affected(const std::vector<EdgeId>& newly_failed) {
  assert(recovery_embed_ && "set_recovery_embedder before the first epoch of a drill");
  const auto hits = [&](const Charges& c) {
    for (const EdgeId e : c.links) {
      if (std::binary_search(newly_failed.begin(), newly_failed.end(), e)) return true;
    }
    return false;
  };
  // Ascending slot order; the master's prices are frozen at the snapshot
  // just refreshed, and recover_request reads prices only from the master
  // (never the ledger), so the release/recharge sequence below cannot feed
  // back into this epoch — only into the NEXT refresh, which sees the net
  // post-recovery loads.
  for (int r = 0; r < epoch_first_; ++r) {
    core::ServiceForest& live = admitted_[static_cast<std::size_t>(r)];
    if (live.empty() || !hits(charges_[static_cast<std::size_t>(r)])) continue;
    const util::Stopwatch watch;
    const core::ServiceForest broken = std::move(live);
    release(r);  // return the broken embedding's charges; recharge below
    stage(r);    // master_ now carries this request at the epoch snapshot
    resilience::RecoveryOutcome out =
        resilience::recover_request(master_, broken, cfg_.recovery, recovery_embed_);

    // Recovery under capacity pressure (DESIGN.md §14): in enforced mode
    // the chosen recovery must still FIT — its charges were released above,
    // but other requests may have claimed the headroom since admission.  A
    // recovery that no longer fits drops the whole request: its users are
    // lost, nothing is recharged, and the freed capacity stays free.
    bool capacity_dropped = false;
    if (policy_ != nullptr && !out.forest.empty()) {
      std::vector<EdgeId> links;
      std::vector<std::size_t> hosts;
      collect_charges(out.forest, &links, &hosts);
      if (!ledger_.can_admit(links, cfg_.demand_mbps, hosts, 1.0)) {
        capacity_dropped = true;
        out.dropped_users += static_cast<int>(out.forest.walks.size());
        out.forest = core::ServiceForest{};
        out.chosen_cost = 0.0;
      }
    }
    charge(r, out.forest);

    resilience::RecoveryReport rep;
    rep.epoch_first = epoch_first_;
    rep.slot = r;
    rep.rerouted_segments = out.rerouted_segments;
    rep.moved_users = out.moved_users;
    rep.dropped_users = out.dropped_users;
    rep.escalated = out.escalated;
    rep.capacity_dropped = capacity_dropped;
    rep.repaired_cost = out.repaired_cost;
    rep.scratch_cost = out.scratch_cost;
    rep.chosen_cost = out.chosen_cost;
    rep.seconds = watch.seconds();
    recoveries_.push_back(rep);
  }
}

const core::Problem& ArrivalStream::stage(int r) {
  const Request& req = request(r);
  master_.sources = req.sources;
  master_.destinations = req.destinations;
  return master_;
}

std::vector<SlotOutcome> ArrivalStream::commit_epoch(
    int first, const std::vector<core::ServiceForest>& forests) {
  assert(first == epoch_first_ && "commit_epoch must match the open epoch");
  const int count = static_cast<int>(forests.size());
  assert(count == std::min(cfg_.epoch_size, cfg_.requests - first) &&
         "one forest per slot of the open epoch");

  // Phase A — price the whole batch at the frozen snapshot.  total_cost
  // reads only the master's costs (never the ledger), so computing every
  // slot's cost before any ledger mutation is bitwise the historical
  // solve-then-commit interleaving; each slot is re-staged because the
  // master currently carries the LAST staged request.  The candidate batch
  // is what a policy ranks (reject-costliest needs the whole epoch at
  // once — the reason commit is batched at all).
  batch_.clear();
  if (policy_ != nullptr) {
    for (int i = 0; i < count; ++i) {
      AdmissionCandidate c;
      c.slot = first + i;
      c.feasible = !forests[static_cast<std::size_t>(i)].empty();
      if (c.feasible) {
        stage(first + i);
        c.marginal_cost = core::total_cost(master_, forests[static_cast<std::size_t>(i)]);
        c.uncongested_cost = uncongested_cost(forests[static_cast<std::size_t>(i)]);
      } else {
        c.marginal_cost = graph::kInfiniteCost;
        c.uncongested_cost = graph::kInfiniteCost;
      }
      batch_.push_back(c);
    }
    policy_->decide(batch_, intent_);
    assert(intent_.size() == batch_.size() && "policy must decide every candidate");
  }

  // Phase B — commit in arrival order.  The ledger evolves slot by slot
  // exactly as the per-slot protocol did: the intra-epoch departure due at
  // a slot releases first, then the slot's own decision applies.  With a
  // policy, admission = policy intent AND the capacity gate — the gate is
  // universal and runs HERE, at the slot's own position in the ledger
  // evolution, which is what makes over-capacity impossible no matter what
  // the policy intended (DESIGN.md §14).
  std::vector<SlotOutcome> outcomes(static_cast<std::size_t>(count));
  std::vector<EdgeId> links;
  std::vector<std::size_t> hosts;
  for (int i = 0; i < count; ++i) {
    const int r = first + i;
    if (cfg_.holding_arrivals > 0) {
      const int admitted = r - cfg_.holding_arrivals;
      if (admitted >= epoch_first_) release(admitted);
    }
    SlotOutcome& out = outcomes[static_cast<std::size_t>(i)];
    out.decision_utilization = ledger_.max_link_utilization();
    const core::ServiceForest& forest = forests[static_cast<std::size_t>(i)];
    if (forest.empty()) {
      out.status = SlotOutcome::Status::kInfeasible;
      continue;
    }
    Cost cost = 0.0;
    if (policy_ != nullptr) {
      cost = batch_[static_cast<std::size_t>(i)].marginal_cost;
      collect_charges(forest, &links, &hosts);
      const bool fits = ledger_.can_admit(links, cfg_.demand_mbps, hosts, 1.0);
      if (intent_[static_cast<std::size_t>(i)] == 0 || !fits) {
        out.status = SlotOutcome::Status::kRejected;
        ++rejected_count_;
        rejected_demand_ +=
            static_cast<double>(request(r).destinations.size()) * cfg_.demand_mbps;
        continue;
      }
    } else {
      stage(r);
      cost = core::total_cost(master_, forest);
    }
    out.status = SlotOutcome::Status::kAdmitted;
    out.cost = cost;
    ++admitted_count_;
    charge(r, forest);
  }
  return outcomes;
}

void ArrivalStream::finish(OnlineResult& result) const {
  result.overloaded_links = ledger_.overloaded_links();
  result.recoveries = recoveries_;
  result.rejected_requests = rejected_count_;
  result.rejected_demand_mbps = rejected_demand_;
  result.accept_rate =
      cfg_.requests > 0
          ? static_cast<double>(admitted_count_) / static_cast<double>(cfg_.requests)
          : 0.0;
  result.max_link_utilization = ledger_.max_link_utilization();
  result.mean_link_utilization = ledger_.mean_link_utilization();
  result.max_host_utilization = ledger_.max_host_utilization();
  result.mean_host_utilization = ledger_.mean_host_utilization();
  // The §14 hard guarantee: an enforced ledger can never end up overloaded.
  assert((policy_ == nullptr || result.overloaded_links == 0) &&
         "enforced-capacity mode leaked past a can_admit gate");
}

void ArrivalStream::charge(int r, const core::ServiceForest& forest) {
  // Charge the ledger: one stream copy per distinct (stage, link) use, one
  // VNF slot per enabled VM.  Commit-path callers computed total_cost
  // first, and it reads only network costs and node_cost — never the
  // ledger — so the epoch snapshot stays frozen while its arrivals commit.
  if (forest.empty()) return;
  Charges& mine = charges_[static_cast<std::size_t>(r)];
  for (const auto& se : forest.stage_edges()) {
    const EdgeId e = master_.network.find_edge(se.u, se.v);
    if (e < n_physical_) {  // physical links only (VM taps are free)
      ledger_.add_link_load(e, cfg_.demand_mbps);
      if (track_charges_) mine.links.push_back(e);
    }
  }
  for (const auto& [vm, idx] : forest.enabled_vms()) {
    (void)idx;
    if (vm >= n_access_) {
      const std::size_t host = vm_host_[static_cast<std::size_t>(vm - n_access_)];
      ledger_.add_host_load(host, 1.0);
      if (track_charges_) mine.hosts.push_back(host);
    }
  }
  if (has_failures_) admitted_[static_cast<std::size_t>(r)] = forest;
}

void ArrivalStream::collect_charges(const core::ServiceForest& forest,
                                    std::vector<EdgeId>* links,
                                    std::vector<std::size_t>* hosts) const {
  // Mirrors charge() exactly — one stream copy per distinct (stage, link)
  // use on a physical link, one VNF slot per enabled VM — with multiplicity
  // preserved, so can_admit aggregates repeats before the boundary check.
  links->clear();
  hosts->clear();
  for (const auto& se : forest.stage_edges()) {
    const EdgeId e = master_.network.find_edge(se.u, se.v);
    if (e < n_physical_) links->push_back(e);
  }
  for (const auto& [vm, idx] : forest.enabled_vms()) {
    (void)idx;
    if (vm >= n_access_) {
      hosts->push_back(vm_host_[static_cast<std::size_t>(vm - n_access_)]);
    }
  }
}

core::Cost ArrivalStream::uncongested_cost(const core::ServiceForest& forest) const {
  // The same embedding priced on an EMPTY network: every physical stage
  // edge at the zero-load Fortz-Thorup price, VM taps free, each enabled
  // VNF at the zero-load setup price.  Structurally total_cost with the
  // ledger at zero — the threshold-price policy's ratio denominator.
  Cost sum = 0.0;
  for (const auto& se : forest.stage_edges()) {
    const EdgeId e = master_.network.find_edge(se.u, se.v);
    if (e < n_physical_) {
      sum += costmodel::fortz_thorup(cfg_.demand_mbps, cfg_.link_capacity);
    }
  }
  for (const auto& [vm, idx] : forest.enabled_vms()) {
    (void)idx;
    if (vm >= n_access_) {
      sum += cfg_.setup_scale * costmodel::fortz_thorup(1.0, cfg_.host_capacity);
    }
  }
  return sum;
}

std::size_t ArrivalStream::overloaded_links() const { return ledger_.overloaded_links(); }

}  // namespace sofe::online
