#include "sofe/api/registry.hpp"

#include <cassert>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "sofe/baselines/baselines.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda_ss.hpp"
#include "sofe/dist/dist_sofda.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::api {

namespace {

/// SOFDA as a session: the closure over {VMs} ∪ {sources} persists across
/// solves (hub order matches core::sofda, so results are bit-identical to
/// the free function), pricing fans out over SolverOptions::threads, and
/// the PricingSession reuses every cached chain while the price key holds
/// — same graph, VMs, chain length, stroll algorithm and setup costs
/// (DESIGN.md §9).  Plain and epoch solves share that one cache: the key
/// does not care which closure object the rows came from.
class SofdaSolver final : public Solver {
 public:
  SofdaSolver(SolverOptions opt, std::string name) : Solver(opt), name_(std::move(name)) {}

  std::string_view name() const noexcept override { return name_; }

  bool wants_epoch_closure() const noexcept override { return true; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    if (p.destinations.empty()) return {};
    if (p.chain_length == 0) {
      // Pure multicast: no chains to price, no closure to cache.
      return core::sofda(p, opt_.algo(), &r.sofda);
    }
    std::vector<NodeId> hubs = p.vms();
    hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
    return price_and_solve(p, session_.acquire(p.network, hubs, opt_.threads, r), r);
  }

  ServiceForest do_solve_epoch(const Problem& p, const graph::MetricClosure& closure,
                               SolveReport& r) override {
    if (p.destinations.empty()) return {};
    if (p.chain_length == 0) {
      // Pure multicast: the epoch closure is irrelevant.
      return core::sofda(p, opt_.algo(), &r.sofda);
    }
    // The epoch closure replaces the session's own: it covers the union
    // of every hub any arrival of the epoch needs (the publisher
    // guarantees this), and union extras are invisible to queries — so
    // candidates and forests are bit-identical to do_solve on the same
    // problem.
    assert(closure.is_hub(p.sources.front()) && "publisher must cover the epoch's hubs");
    r.closure_hubs = static_cast<int>(closure.hub_count());
    return price_and_solve(p, closure, r);
  }

 private:
  ServiceForest price_and_solve(const Problem& p, const graph::MetricClosure& closure,
                                SolveReport& r) {
    util::Stopwatch watch;
    core::PricingTally tally;
    const std::vector<core::PricedChain> candidates =
        pricing_.price(p, closure, p.sources, {}, opt_.algo(), opt_.threads, &tally);
    r.pricing_hits = tally.hits;
    r.pricing_repriced = tally.repriced;
    r.pricing_pruned = tally.pruned;
    r.pricing_flushed = tally.flushed;
    r.pricing_seconds = watch.seconds();
    watch.reset();
    ServiceForest f = core::sofda_from_candidates(p, closure, candidates, opt_.algo(), &r.sofda);
    r.solve_seconds = watch.seconds();
    return f;
  }

  std::string name_;
  ClosureSession session_;
  core::PricingSession pricing_;
};

/// SOFDA-SS session over p.sources.front(); the closure over
/// {VMs} ∪ {source} persists across solves.
class SofdaSsSolver final : public Solver {
 public:
  using Solver::Solver;

  std::string_view name() const noexcept override { return "sofda-ss"; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    if (p.destinations.empty()) return {};
    const NodeId source = p.sources.front();
    std::vector<NodeId> hubs = p.vms();
    hubs.push_back(source);
    const auto& closure = session_.acquire(p.network, hubs, opt_.threads, r);
    util::Stopwatch watch;
    ServiceForest f = core::sofda_ss(p, source, closure, opt_.algo());
    r.solve_seconds = watch.seconds();
    return f;
  }

 private:
  ClosureSession session_;
};

/// Thin adapters over the remaining free functions; the uniform Solver
/// surface (options, report, registry selection) is the point here.
class BaselineSolver final : public Solver {
 public:
  BaselineSolver(SolverOptions opt, baselines::Kind kind, std::string name)
      : Solver(opt), kind_(kind), name_(std::move(name)) {}

  std::string_view name() const noexcept override { return name_; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    util::Stopwatch watch;
    ServiceForest f = baselines::run(p, kind_, opt_.algo());
    r.solve_seconds = watch.seconds();
    return f;
  }

 private:
  baselines::Kind kind_;
  std::string name_;
};

/// Multi-controller SOFDA: a one-shot adapter over dist::distributed_sofda.
/// Every solve partitions, builds the sharded closure and runs the protocol
/// cold, with its exchanges charged on a fresh MessageBus, so the forest is
/// the centralized "sofda" forest at any k and thread count (DESIGN.md §11).
/// No closure is cached across solves: the shards advertise chains toward
/// the build's destinations only, so a stitched view kept for the next
/// arrival would not be exact for new destinations.
class DistSolver final : public Solver {
 public:
  DistSolver(SolverOptions opt, int controllers)
      : Solver(opt),
        controllers_(controllers),
        name_("dist/k=" + std::to_string(controllers)) {}

  std::string_view name() const noexcept override { return name_; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    util::Stopwatch watch;
    auto result = dist::distributed_sofda(p, controllers_, opt_.algo());
    r.solve_seconds = watch.seconds();
    r.sofda = result.stats;
    r.controllers = result.controllers;
    r.messages = result.messages;
    r.payload_items = result.payload_items;
    r.payload_bytes = result.payload_bytes;
    r.rounds = result.rounds;
    return std::move(result.forest);
  }

 private:
  int controllers_;
  std::string name_;
};

class ExactSolver final : public Solver {
 public:
  using Solver::Solver;

  std::string_view name() const noexcept override { return "exact"; }

 protected:
  ServiceForest do_solve(const Problem& p, SolveReport& r) override {
    util::Stopwatch watch;
    auto result = exact::solve_exact(p, opt_.exact_limits);
    r.solve_seconds = watch.seconds();
    r.optimal = result.optimal;
    r.bnb_nodes = result.bnb_nodes;
    // A truncated search still returns its best incumbent (empty only when
    // the instance is genuinely infeasible or no incumbent was found);
    // report().optimal distinguishes proven from best-so-far.
    return std::move(result.forest);
  }
};

/// Parses the k of "dist/k=<int>"; returns 0 when `name` is not of that
/// form (k >= 1 on success).
int parse_dist_controllers(std::string_view name) {
  constexpr std::string_view kPrefix = "dist/k=";
  if (!name.starts_with(kPrefix)) return 0;
  const std::string_view num = name.substr(kPrefix.size());
  int k = 0;
  const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(), k);
  if (ec != std::errc{} || ptr != num.data() + num.size() || k < 1) return 0;
  return k;
}

void register_builtins(SolverRegistry& reg) {
  reg.add("sofda", "SOFDA (Algorithm 2): 3rhoST-approximation, multi-source",
          [](const SolverOptions& opt) { return std::make_unique<SofdaSolver>(opt, "sofda"); });
  reg.add("sofda/exact-stroll", "SOFDA with the exact-DP k-stroll oracle",
          [](const SolverOptions& opt) {
            SolverOptions o = opt;
            o.stroll = kstroll::StrollAlgorithm::kExactDp;
            return std::make_unique<SofdaSolver>(o, "sofda/exact-stroll");
          });
  reg.add("sofda-ss", "SOFDA-SS (Algorithm 1): single-source (2+rhoST)-approximation",
          [](const SolverOptions& opt) { return std::make_unique<SofdaSsSolver>(opt); });
  reg.add("baseline/st", "ST: best single Steiner tree + grafted service chain",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kSt, "baseline/st");
          });
  reg.add("baseline/est", "eST: ST + iterative multi-source extension",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kEst, "baseline/est");
          });
  reg.add("baseline/enemp", "eNEMP: NFV-enabled multicast baseline, extended",
          [](const SolverOptions& opt) {
            return std::make_unique<BaselineSolver>(opt, baselines::Kind::kEnemp,
                                                    "baseline/enemp");
          });
  for (int k : {2, 4}) {
    reg.add("dist/k=" + std::to_string(k),
            "multi-controller SOFDA, " + std::to_string(k) + " controllers",
            [k](const SolverOptions& opt) { return std::make_unique<DistSolver>(opt, k); });
  }
  reg.add("exact", "exact branch-and-bound optimum (SolverOptions::exact_limits)",
          [](const SolverOptions& opt) { return std::make_unique<ExactSolver>(opt); });
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry reg = [] {
    SolverRegistry r;
    register_builtins(r);
    return r;
  }();
  return reg;
}

void SolverRegistry::add(std::string name, std::string description, Factory factory) {
  assert(factory != nullptr);
  entries_.insert_or_assign(std::move(name), Entry{std::move(description), std::move(factory)});
}

bool SolverRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end() || parse_dist_controllers(name) > 0;
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view name,
                                               const SolverOptions& opt) const {
  const auto it = entries_.find(name);
  if (it != entries_.end()) return it->second.factory(opt);
  if (constexpr std::string_view kDistPrefix = "dist/k="; name.starts_with(kDistPrefix)) {
    // The dist family is parameterized, so create() parses — and a request
    // that *names* the family but botches the parameter is a malformed
    // argument, not an unknown solver: reject it loudly (naming the field)
    // instead of silently clamping or falling through to the generic list.
    const std::string_view num = name.substr(kDistPrefix.size());
    int k = 0;
    const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(), k);
    if (ec != std::errc{} || ptr != num.data() + num.size()) {
      throw std::invalid_argument("dist/k: controller count must be a base-10 integer, got \"" +
                                  std::string(num) + "\"");
    }
    if (k < 1) {
      throw std::invalid_argument("dist/k: controller count must be >= 1, got " +
                                  std::to_string(k));
    }
    return std::make_unique<DistSolver>(opt, k);
  }
  std::string msg = "unknown solver \"" + std::string(name) + "\"; registered:";
  for (const auto& [n, e] : entries_) {
    (void)e;
    msg += " " + n;
  }
  throw std::invalid_argument(msg);
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, e] : entries_) {
    (void)e;
    out.push_back(n);
  }
  return out;
}

std::string SolverRegistry::describe(std::string_view name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() ? it->second.description : std::string{};
}

std::unique_ptr<Solver> make_solver(std::string_view name, const SolverOptions& opt) {
  return SolverRegistry::global().create(name, opt);
}

}  // namespace sofe::api
