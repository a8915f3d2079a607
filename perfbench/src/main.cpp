// perfbench — the repository's benchmark of the online embedding service.
//
//   sofe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>] [--source-id <text>]
//
// Four workloads drive the public online layer the way a user runs it:
// `online::simulate` over an `api::Solver` session (closed loop: arrival
// r + 1 is sent only after r commits) and `online::Pipeline` (a pre-queued
// stream served by two worker sessions plus the commit thread).  A run
// draws several streams from --seed and serves them in rounds until
// --seconds have passed, each stream at least twice; every round builds its
// inputs, session and stream from scratch, so set-up is sampled once per
// round, and timings keep each stream's and each arrival's fastest
// execution.
//
// Every run checks its outputs (the correctness gate): each admitted forest
// passes core::validate, its cost recomputed with core::total_cost on an
// independently re-staged stream equals the charged cost bitwise, enforced
// capacity leaves no link overloaded, every execution of a stream repeats
// its first bitwise, and the pipeline matches the sequential epoch driver.  --trace 1 instead
// drives the ArrivalStream epoch protocol from this file with a span around
// every call, must reproduce the untraced driver's series bitwise, replays
// every arrival through a cold closure -> pricing -> post-pricing pipeline
// that must give the session's forest bitwise, and reports per-layer
// metrics.  The last stdout line is the JSON result; the exit code is 0
// only when every check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/core/pricing.hpp"
#include "sofe/core/sofda.hpp"
#include "sofe/core/validate.hpp"
#include "sofe/graph/metric_closure.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/resilience/failure_plan.hpp"
#include "sofe/topology/topology.hpp"
#include "sofe/util/rng.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sofe;
using Clock = std::chrono::steady_clock;
using core::Cost;
using core::NodeId;
using core::Problem;
using core::ServiceForest;
using online::OnlineConfig;
using online::OnlineResult;
using online::SlotOutcome;

constexpr const char* kSolver = "sofda";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ workloads ---

struct Workload {
  std::string name;
  bool inet = false;      // topology::inet(2000, 4000, 8, 21) instead of Cogent
  bool pipeline = false;  // served by online::Pipeline instead of simulate
  int failures = 0;       // scripted single-link failures (0 = no drill)
  OnlineConfig cfg;       // seed and failure plan filled per run
};

OnlineConfig cogent_base() {
  OnlineConfig c;
  c.min_sources = 10;
  c.max_sources = 30;
  c.min_destinations = 20;
  c.max_destinations = 60;
  c.chain_length = 3;
  c.holding_arrivals = 20;
  return c;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    // k-stroll pricing dominates; the pricing cache never hits.
    Workload w;
    w.name = "cogent-fresh";
    w.cfg = cogent_base();
    w.cfg.requests = 50;
    out.push_back(w);
  }
  {
    // Closure and post-pricing solve dominate; pricing is cheap.
    Workload w;
    w.name = "inet-sparse";
    w.inet = true;
    w.cfg.requests = 50;
    w.cfg.min_sources = 3;
    w.cfg.max_sources = 5;
    w.cfg.min_destinations = 8;
    w.cfg.max_destinations = 12;
    w.cfg.chain_length = 3;
    w.cfg.link_capacity = 400.0;
    w.cfg.holding_arrivals = 20;
    out.push_back(w);
  }
  {
    // Epoch publish, speculation, enforced admission and in-epoch reuse of
    // the pricing cache: the only workload on the concurrent service.
    Workload w;
    w.name = "cogent-churn";
    w.pipeline = true;
    w.cfg = cogent_base();
    w.cfg.requests = 128;
    w.cfg.epoch_size = 8;
    w.cfg.source_pool = 40;
    w.cfg.source_alpha = 0.8;
    w.cfg.admission = "greedy";
    w.cfg.demand_mbps = 2.0;
    w.cfg.host_capacity = 20.0;
    out.push_back(w);
  }
  {
    // Link failures that heal later, recovered under a bounded budget.
    Workload w;
    w.name = "cogent-failover";
    w.failures = 3;
    w.cfg = cogent_base();
    w.cfg.requests = 50;
    w.cfg.recovery.max_moved_users = 8;
    out.push_back(w);
  }
  return out;
}

/// Physical links whose loss leaves the topology connected: a drill on them
/// never strands a destination, so every arrival stays feasible.
std::vector<graph::EdgeId> non_bridge_links(const topology::Topology& topo) {
  const graph::Graph& g = topo.g;
  std::vector<graph::EdgeId> out;
  std::vector<char> seen;
  std::vector<NodeId> stack;
  for (graph::EdgeId skip = 0; skip < g.edge_count(); ++skip) {
    seen.assign(static_cast<std::size_t>(g.node_count()), 0);
    stack.assign(1, 0);
    seen[0] = 1;
    int reached = 1;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const auto& arc : g.neighbors(v)) {
        if (arc.edge == skip || seen[static_cast<std::size_t>(arc.to)] != 0) continue;
        seen[static_cast<std::size_t>(arc.to)] = 1;
        ++reached;
        stack.push_back(arc.to);
      }
    }
    if (reached == g.node_count()) out.push_back(skip);
  }
  return out;
}

/// `count` single-link failures drawn from the seed, one at a time: each
/// link fails once the holding window is full and heals before the next
/// one fails, so no two failures overlap.
resilience::FailurePlan make_plan(const topology::Topology& topo, const OnlineConfig& cfg,
                                  int count) {
  const std::vector<graph::EdgeId> links = non_bridge_links(topo);
  util::Rng rng(cfg.seed ^ 0xfa11u);
  const auto picks = rng.sample_without_replacement(links.size(), static_cast<std::size_t>(count));
  const int start = std::max(1, cfg.holding_arrivals);
  const int gap = std::max(2, (cfg.requests - start) / count);
  resilience::FailurePlan plan;
  for (int i = 0; i < count; ++i) {
    resilience::FailureEvent ev;
    ev.target = resilience::FailureEvent::Target::kLink;
    ev.id = static_cast<std::int32_t>(links[picks[static_cast<std::size_t>(i)]]);
    ev.fail_at = start + i * gap;
    ev.heal_at = ev.fail_at + gap / 2;
    plan.events.push_back(ev);
  }
  return plan;
}

/// One round's inputs: topology, optional failure plan, and the config
/// pointing at it.  Not movable: cfg.failures points into the object.
struct Inputs {
  topology::Topology topo;
  resilience::FailurePlan plan;
  OnlineConfig cfg;

  Inputs(const Workload& w, std::uint64_t seed)
      : topo(w.inet ? topology::inet(2000, 4000, 8, 21) : topology::cogent()), cfg(w.cfg) {
    cfg.seed = seed;
    if (w.failures > 0) {
      plan = make_plan(topo, cfg, w.failures);
      cfg.failures = &plan;
    }
  }
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;
};

api::SolverOptions solver_options() {
  api::SolverOptions opt;
  opt.threads = 1;
  return opt;
}

online::PipelineOptions pipeline_options() {
  online::PipelineOptions p;
  p.workers = 2;
  p.lookahead_epochs = 1;
  return p;
}

/// Requests solved at fresh prices on a throwaway session before timing.
constexpr int kWarmUpArrivals = 3;

/// The cold start a service pays once (allocator growth, first closure
/// builds): the stream's first requests solved on a throwaway session, so
/// the measured session's caches and results are untouched.
void warm_up(const Inputs& in) {
  online::ArrivalStream probe(in.topo, in.cfg);
  probe.open_epoch(0);
  auto solver = api::make_solver(kSolver, solver_options());
  for (int r = 0; r < kWarmUpArrivals; ++r) (void)solver->solve(probe.stage(r));
}

// ------------------------------------------------------ small utilities ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_forest(const ServiceForest& a, const ServiceForest& b) {
  if (a.walks.size() != b.walks.size()) return false;
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    const core::ChainWalk& x = a.walks[i];
    const core::ChainWalk& y = b.walks[i];
    if (x.source != y.source || x.destination != y.destination || x.nodes != y.nodes ||
        x.vnf_pos != y.vnf_pos) {
      return false;
    }
  }
  return true;
}

/// Nearest-rank percentile (the definition api::ReportAccumulator uses).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Collects correctness-gate findings; every finding is printed to stderr.
struct Gate {
  std::vector<char> bad_arrival;  // per (stream, slot), stream-major
  int requests = 0;               // slots per stream
  int stream = 0;                 // stream the next findings belong to
  int global_errors = 0;

  Gate(int streams, int requests_per_stream)
      : bad_arrival(static_cast<std::size_t>(streams * requests_per_stream), 0),
        requests(requests_per_stream) {}

  void arrival(int r, const std::string& what) {
    const auto i = static_cast<std::size_t>(stream * requests + r);
    if (bad_arrival[i] == 0) {
      std::cerr << "gate: stream " << stream << " arrival " << r << ": " << what << "\n";
    }
    bad_arrival[i] = 1;
  }
  void global(const std::string& what) {
    std::cerr << "gate: " << what << "\n";
    ++global_errors;
  }
  int failed_arrivals() const {
    return static_cast<int>(std::count(bad_arrival.begin(), bad_arrival.end(), 1));
  }
  bool ok() const { return global_errors == 0 && failed_arrivals() == 0; }
};

/// Bitwise comparison of two drivers' deterministic outputs.
void compare_series(const OnlineResult& ref, const OnlineResult& got, const std::string& what,
                    Gate& gate) {
  const std::size_t n = ref.accumulative_cost.size();
  if (got.accumulative_cost.size() != n || got.per_request_cost.size() != n ||
      got.accepted.size() != n) {
    gate.global(what + ": series length differs");
    return;
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (!same_bits(ref.accumulative_cost[r], got.accumulative_cost[r]) ||
        !same_bits(ref.per_request_cost[r], got.per_request_cost[r]) ||
        ref.accepted[r] != got.accepted[r]) {
      gate.arrival(static_cast<int>(r), what + ": cost or accept series differs");
    }
  }
  if (!same_bits(ref.accept_rate, got.accept_rate) ||
      ref.infeasible_requests != got.infeasible_requests ||
      ref.rejected_requests != got.rejected_requests ||
      ref.overloaded_links != got.overloaded_links) {
    gate.global(what + ": end-of-stream tallies differ");
  }
  if (ref.recoveries.size() != got.recoveries.size()) {
    gate.global(what + ": recovery count differs");
    return;
  }
  for (std::size_t i = 0; i < ref.recoveries.size(); ++i) {
    const auto& a = ref.recoveries[i];
    const auto& b = got.recoveries[i];
    if (a.slot != b.slot || a.epoch_first != b.epoch_first || a.moved_users != b.moved_users ||
        a.dropped_users != b.dropped_users || a.escalated != b.escalated ||
        !same_bits(a.chosen_cost, b.chosen_cost)) {
      gate.global(what + ": recovery " + std::to_string(i) + " differs");
    }
  }
}

// ------------------------------------------------------------- drivers ---

/// Every embedder call of a sequential run, in call order: arrivals and
/// (in a drill) the recovery engine's from-scratch re-embeds.
struct Call {
  ServiceForest forest;
  std::vector<NodeId> destinations;  // identifies the staged request
};

struct SequentialRun {
  OnlineResult result;
  std::vector<Call> calls;
  double wall_s = 0.0;
};

/// The untraced sequential driver: online::simulate over a solver session,
/// recording what the session returned for the correctness gate.
SequentialRun run_sequential(const Inputs& in, api::Solver& solver) {
  SequentialRun run;
  run.calls.reserve(static_cast<std::size_t>(in.cfg.requests) * 2);
  const auto t0 = Clock::now();
  run.result = online::simulate(in.topo, in.cfg, std::string(solver.name()),
                                [&](const Problem& p) {
                                  ServiceForest f = solver.solve(p);
                                  run.calls.push_back({f, p.destinations});
                                  return f;
                                });
  run.wall_s = seconds_since(t0);
  return run;
}

/// The correctness gate of a sequential run: re-stages the stream on a
/// fresh ArrivalStream, feeds it the recorded forests in call order, and
/// checks every forest (validate), every charged cost (recomputed with
/// total_cost at the re-staged snapshot, bitwise), every accept decision,
/// and the enforced-capacity invariant.
void gate_sequential(const Inputs& in, const SequentialRun& run, Gate& gate) {
  const OnlineResult& res = run.result;
  const int n = in.cfg.requests;
  if (static_cast<int>(res.accepted.size()) != n ||
      static_cast<int>(res.per_request_cost.size()) != n) {
    gate.global("result series have the wrong length");
    return;
  }
  online::ArrivalStream stream(in.topo, in.cfg);
  std::size_t cursor = 0;
  bool aligned = true;
  const auto next = [&](const Problem& p) -> ServiceForest {
    if (cursor >= run.calls.size() || run.calls[cursor].destinations != p.destinations) {
      aligned = false;
      return {};
    }
    return run.calls[cursor++].forest;
  };
  if (stream.has_failures()) stream.set_recovery_embedder(next);

  for (int first = 0; first < n;) {
    const int count = stream.open_epoch(first);
    std::vector<ServiceForest> forests;
    std::vector<Cost> costs(static_cast<std::size_t>(count), 0.0);
    for (int i = 0; i < count; ++i) {
      const int r = first + i;
      const Problem& p = stream.stage(r);
      ServiceForest f = next(p);
      if (!f.empty()) {
        const core::ValidationReport v = core::validate(p, f);
        if (!v.ok) gate.arrival(r, "forest fails validate: " + v.summary());
        costs[static_cast<std::size_t>(i)] = core::total_cost(p, f);
        if (!std::isfinite(costs[static_cast<std::size_t>(i)])) gate.arrival(r, "infinite cost");
      }
      forests.push_back(std::move(f));
    }
    const std::vector<SlotOutcome> outs = stream.commit_epoch(first, forests);
    for (int i = 0; i < count; ++i) {
      const int r = first + i;
      const auto k = static_cast<std::size_t>(i);
      const bool admitted = outs[k].status == SlotOutcome::Status::kAdmitted;
      if (admitted != (res.accepted[static_cast<std::size_t>(r)] != 0)) {
        gate.arrival(r, "accept decision differs on the re-staged stream");
      }
      const Cost charged = res.per_request_cost[static_cast<std::size_t>(r)];
      if (admitted) {
        if (!same_bits(charged, costs[k]) || !same_bits(outs[k].cost, costs[k])) {
          gate.arrival(r, "charged cost differs from the recomputed total_cost");
        }
      } else if (charged != 0.0) {
        gate.arrival(r, "a rejected or infeasible arrival was charged");
      }
    }
    first += count;
  }
  OnlineResult check;
  stream.finish(check);
  if (!aligned || cursor != run.calls.size()) {
    gate.global("recorded embedder calls do not line up with the re-staged stream");
  }
  if (!same_bits(check.accept_rate, res.accept_rate)) gate.global("accept rate differs");
  if (!in.cfg.admission.empty() && (check.overloaded_links != 0 || res.overloaded_links != 0)) {
    gate.global("enforced capacity left links overloaded");
  }
}

// ------------------------------------------------------- traced driver ---

/// What the traced run measures besides its spans.
struct LayerSamples {
  std::vector<double> open_ms, commit_ms, solve_ms;
  std::vector<double> closure_build_ms, price_ms, post_pricing_ms, validate_ms;
  double closure_s = 0.0, pricing_s = 0.0, post_pricing_s = 0.0, total_s = 0.0;
  int solves = 0, repairs = 0;
  long long row_hits = 0, hubs_requested = 0;
  long long chains = 0, pricing_hits = 0, pricing_repriced = 0;
  long long replay_chains = 0;
  std::size_t peak_closure_bytes = 0;
  std::vector<double> scratch_ms;
  double loop_wall_s = 0.0;  // traced loops, replays and gate excluded
};

/// Drives the ArrivalStream epoch protocol exactly as online::simulate
/// does, with a span around every call, and replays every arrival through
/// a cold closure build, a fresh PricingSession and sofda_from_candidates.
/// Span arrival ids are `arrival_base + slot`, unique across a run's streams.
OnlineResult run_traced(const Inputs& in, int arrival_base, perfbench::Tracer& tr,
                        LayerSamples& ls, Gate& gate) {
  const api::SolverOptions opt = solver_options();
  auto solver = api::make_solver(kSolver, opt);
  const auto t0 = Clock::now();
  double excluded_s = 0.0;  // replay and gate time inside the loop

  online::ArrivalStream stream(in.topo, in.cfg);
  if (stream.has_failures()) {
    stream.set_recovery_embedder([&](const Problem& p) {
      const int id = tr.begin("resilience.scratch_embed", -1);
      ServiceForest f = solver->solve(p);
      ls.scratch_ms.push_back(tr.end(id));
      return f;
    });
  }

  OnlineResult result;
  result.algorithm = std::string(solver->name());
  result.epoch_size = in.cfg.epoch_size;
  Cost accumulated = 0.0;
  const int n = in.cfg.requests;
  for (int first = 0; first < n;) {
    int id = tr.begin("online.open_epoch", arrival_base + first);
    const int count = stream.open_epoch(first);
    ls.open_ms.push_back(tr.end(id));

    std::vector<ServiceForest> forests;
    std::vector<Cost> costs(static_cast<std::size_t>(count), 0.0);
    for (int i = 0; i < count; ++i) {
      const int r = first + i;
      const int arrival = tr.begin("online.arrival", arrival_base + r);
      id = tr.begin("online.stage", arrival_base + r);
      const Problem& p = stream.stage(r);
      tr.end(id);
      id = tr.begin("api.solve", arrival_base + r);
      ServiceForest f = solver->solve(p);
      const double solve_ms = tr.end(id);
      tr.end(arrival);
      result.arrival_seconds.push_back(solve_ms / 1e3);
      ls.solve_ms.push_back(solve_ms);

      const api::SolveReport& rep = solver->report();
      ++ls.solves;
      if (rep.closure_repaired) ++ls.repairs;
      ls.closure_s += rep.closure_seconds;
      ls.pricing_s += rep.pricing_seconds;
      ls.post_pricing_s += rep.solve_seconds;
      ls.total_s += rep.total_seconds;
      ls.row_hits += rep.closure_row_hits;
      ls.hubs_requested += rep.closure_hubs;
      ls.pricing_hits += rep.pricing_hits;
      ls.pricing_repriced += rep.pricing_repriced;
      ls.chains += rep.pricing_hits + rep.pricing_repriced;
      ls.peak_closure_bytes = std::max(ls.peak_closure_bytes, rep.closure_bytes);

      // Replay on the staged problem, recorded apart from the arrival's
      // span tree (track 1) and excluded from the loop wall.
      const auto replay_t0 = Clock::now();
      std::vector<NodeId> hubs = p.vms();
      hubs.insert(hubs.end(), p.sources.begin(), p.sources.end());
      id = tr.begin("replay.closure_build", arrival_base + r, 1);
      graph::MetricClosure closure;
      closure.build(p.network, hubs, opt.threads);
      ls.closure_build_ms.push_back(tr.end(id));
      id = tr.begin("replay.price", arrival_base + r, 1);
      core::PricingSession pricing;
      core::PricingTally tally;
      const std::vector<core::PricedChain> candidates =
          pricing.price(p, closure, p.sources, core::ClosureUpdate::rebuilt(), opt.algo(),
                        opt.threads, &tally);
      ls.price_ms.push_back(tr.end(id));
      ls.replay_chains += tally.repriced;
      id = tr.begin("replay.post_pricing", arrival_base + r, 1);
      const ServiceForest replayed =
          core::sofda_from_candidates(p, closure, candidates, opt.algo());
      ls.post_pricing_ms.push_back(tr.end(id));
      if (!same_forest(f, replayed)) {
        gate.arrival(r, "cold replay forest differs from the session forest");
      }
      if (!f.empty()) {
        id = tr.begin("gate.validate", arrival_base + r, 1);
        const core::ValidationReport v = core::validate(p, f);
        ls.validate_ms.push_back(tr.end(id));
        if (!v.ok) gate.arrival(r, "forest fails validate: " + v.summary());
        costs[static_cast<std::size_t>(i)] = core::total_cost(p, f);
      }
      excluded_s += seconds_since(replay_t0);
      forests.push_back(std::move(f));
    }

    id = tr.begin("online.commit_epoch", arrival_base + first);
    const std::vector<SlotOutcome> outs = stream.commit_epoch(first, forests);
    ls.commit_ms.push_back(tr.end(id));
    for (int i = 0; i < count; ++i) {
      const SlotOutcome& out = outs[static_cast<std::size_t>(i)];
      const bool admitted = out.status == SlotOutcome::Status::kAdmitted;
      if (out.status == SlotOutcome::Status::kInfeasible) ++result.infeasible_requests;
      if (admitted) {
        accumulated += out.cost;
        if (!same_bits(out.cost, costs[static_cast<std::size_t>(i)])) {
          gate.arrival(first + i, "charged cost differs from the recomputed total_cost");
        }
      }
      result.per_request_cost.push_back(admitted ? out.cost : 0.0);
      result.accumulative_cost.push_back(accumulated);
      result.accepted.push_back(admitted ? 1 : 0);
      result.decision_utilization.push_back(out.decision_utilization);
    }
    first += count;
  }
  const int id = tr.begin("online.finish", -1);
  stream.finish(result);
  tr.end(id);
  ls.loop_wall_s += seconds_since(t0) - excluded_s;
  if (!in.cfg.admission.empty() && result.overloaded_links != 0) {
    gate.global("enforced capacity left links overloaded (traced driver)");
  }

  return result;
}

// -------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / provenance of the number
};

/// Full precision; a non-finite value prints as inf/nan, which no JSON
/// parser accepts, so a broken measurement cannot pass as a number.
std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %-34s %16.6f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_file;
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--trace-file") {
        a.trace_file = v;
      } else if (k == "--source-id") {
        a.source_id = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

void print_provenance(const Args& a, const Workload& w, int rounds, int timed_arrivals,
                      const std::map<std::string, int>& samples) {
  std::string s = "{\"provenance\": {";
  s += "\"workload\": " + json_string(w.name);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"seconds\": " + json_number(a.seconds);
  s += ", \"trace\": " + std::to_string(a.trace);
  s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": " + json_string(compiler_id());
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  s += ", \"source\": " + json_string(a.source_id);
  s += ", \"solver\": " + json_string(kSolver);
  s += ", \"driver\": " + json_string(w.pipeline ? "online::Pipeline (2 workers, lookahead 1)"
                                                 : "online::simulate (sequential)");
  s += ", \"requests_per_round\": " + std::to_string(w.cfg.requests);
  s += ", \"epoch_size\": " + std::to_string(w.cfg.epoch_size);
  s += ", \"rounds\": " + std::to_string(rounds);
  s += ", \"timed_arrivals\": " + std::to_string(timed_arrivals);
  s += ", \"samples\": {";
  bool first = true;
  for (const auto& [k, v] : samples) {
    if (!first) s += ", ";
    first = false;
    s += json_string(k) + ": " + std::to_string(v);
  }
  s += "}}}";
  std::printf("%s\n", s.c_str());
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& ms) {
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(ms).c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------- run modes ---

/// Streams a run serves: each has its own seed derived from --seed, so a run
/// averages over this many independent arrival sequences.  Rounds cycle
/// through them; a repeated stream must reproduce its first round bitwise.
constexpr int kStreams = 4;
/// Times every stream is served at least; timings keep the fastest.
constexpr int kMinExecutions = 2;
/// Streams the traced run drives (it also replays every arrival).
constexpr int kTracedStreams = 2;

std::uint64_t stream_seed(std::uint64_t seed, int stream) {
  return seed * 1000003u + static_cast<std::uint64_t>(stream);
}

struct Round {
  int stream = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  OnlineResult result;
};

int run_untraced(const Args& a, const Workload& w) {
  const int n = w.cfg.requests;
  std::vector<Round> rounds;
  std::vector<SequentialRun> first_runs(kStreams);  // each stream's first sequential run
  const auto start = Clock::now();
  double longest_round = 0.0;
  while (static_cast<int>(rounds.size()) < kStreams * kMinExecutions ||
         seconds_since(start) + longest_round <= a.seconds) {
    const auto round_t0 = Clock::now();
    Round rd;
    rd.stream = static_cast<int>(rounds.size()) % kStreams;
    auto t0 = Clock::now();
    Inputs in(w, stream_seed(a.seed, rd.stream));
    warm_up(in);
    if (w.pipeline) {
      online::Pipeline pipe(in.topo, in.cfg, kSolver, solver_options(), pipeline_options());
      rd.setup_s = seconds_since(t0);
      t0 = Clock::now();
      rd.result = pipe.run();
      rd.wall_s = seconds_since(t0);
    } else {
      auto solver = api::make_solver(kSolver, solver_options());
      rd.setup_s = seconds_since(t0);
      SequentialRun run = run_sequential(in, *solver);
      rd.wall_s = run.wall_s;
      rd.result = run.result;
      if (static_cast<int>(rounds.size()) < kStreams) {
        first_runs[static_cast<std::size_t>(rd.stream)] = std::move(run);
      }
    }
    rounds.push_back(std::move(rd));
    longest_round = std::max(longest_round, seconds_since(round_t0));
  }
  const double rss = peak_rss_mib();

  // Correctness gate: every stream's first run is gated in full (for the
  // pipeline, the sequential epoch driver it must match); every round must
  // repeat it bitwise.
  Gate gate(kStreams, n);
  for (int s = 0; s < kStreams; ++s) {
    gate.stream = s;
    Inputs in(w, stream_seed(a.seed, s));
    SequentialRun& ref = first_runs[static_cast<std::size_t>(s)];
    if (w.pipeline) {
      auto solver = api::make_solver(kSolver, solver_options());
      ref = run_sequential(in, *solver);
    }
    gate_sequential(in, ref, gate);
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    gate.stream = rounds[i].stream;
    compare_series(first_runs[static_cast<std::size_t>(rounds[i].stream)].result, rounds[i].result,
                   "round " + std::to_string(i) + " vs its gated sequential run", gate);
  }

  // Timings take, per stream, its fastest execution and, per arrival, its
  // fastest embed: every execution of a stream is bitwise the same work
  // (checked above), and the minimum filters out the host's speed changes,
  // which last seconds and would otherwise dominate the spread.
  std::vector<double> min_wall(kStreams, 0.0), setup;
  std::vector<std::vector<double>> min_ms(kStreams);
  double cost = 0.0, accept = 0.0;
  long long attempted = 0, infeasible = 0, rejected = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& rd = rounds[i];
    const auto s = static_cast<std::size_t>(rd.stream);
    const bool first_time = static_cast<int>(i) < kStreams;
    min_wall[s] = first_time ? rd.wall_s : std::min(min_wall[s], rd.wall_s);
    std::vector<double>& arr = min_ms[s];
    arr.resize(static_cast<std::size_t>(n), 0.0);
    for (std::size_t r = 0; r < arr.size(); ++r) {
      const double ms = rd.result.arrival_seconds[r] * 1e3;
      arr[r] = first_time ? ms : std::min(arr[r], ms);
    }
    setup.push_back(rd.setup_s);
    attempted += n;
    infeasible += rd.result.infeasible_requests;
    rejected += rd.result.rejected_requests;
    if (first_time) {
      cost += rd.result.accumulative_cost.empty() ? 0.0 : rd.result.accumulative_cost.back();
      accept += rd.result.accept_rate;
    }
    std::printf("round %zu (stream %d): setup %.4f s, stream %.3f s, %.3f arrivals/s\n", i,
                rd.stream, rd.setup_s, rd.wall_s, n / rd.wall_s);
  }
  std::vector<double> arrival_ms;
  for (const auto& v : min_ms) arrival_ms.insert(arrival_ms.end(), v.begin(), v.end());
  const int nr = static_cast<int>(rounds.size());
  const int samples = static_cast<int>(arrival_ms.size());
  const std::string executions = "fastest of >= " + std::to_string(kMinExecutions) + " executions";
  const std::string pooled = "nearest rank over " + std::to_string(samples) +
                             " arrivals, each the " + executions;
  const std::string per_stream = "mean over " + std::to_string(kStreams) + " streams";
  std::vector<Metric> ms = {
      {"arrivals_per_s", static_cast<double>(kStreams * n) / sum(min_wall), "arrivals/s",
       std::to_string(kStreams * n) + " arrivals over " + std::to_string(kStreams) +
           " streams, each the " + executions},
      {"arrival_p50_ms", percentile(arrival_ms, 0.50), "ms", pooled},
      {"arrival_p90_ms", percentile(arrival_ms, 0.90), "ms", pooled},
      {"forest_cost", cost / kStreams, "cost", per_stream + ", final accumulative_cost"},
      {"accept_rate", accept / kStreams, "fraction", per_stream},
      {"setup_s", median(setup), "s", "median of " + std::to_string(nr) + " rounds"},
      {"peak_rss_mb", rss, "MiB", "getrusage ru_maxrss"},
  };
  print_metrics(ms);
  std::printf("rejected %lld of %lld attempted arrivals (admission policy decisions)\n", rejected,
              attempted);
  print_provenance(a, w, nr, static_cast<int>(attempted),
                   {{"arrivals_per_s", kStreams}, {"arrival_p50_ms", samples},
                    {"arrival_p90_ms", samples}, {"forest_cost", kStreams},
                    {"accept_rate", kStreams * n}, {"setup_s", nr}, {"peak_rss_mb", 1}});
  const bool correct = gate.ok();
  print_result(correct, attempted,
               infeasible + gate.failed_arrivals() + (gate.global_errors > 0 ? 1 : 0), ms);
  return correct ? 0 : 1;
}

int run_traced_mode(const Args& a, const Workload& w) {
  const int n = w.cfg.requests;
  Gate gate(kTracedStreams, n);
  perfbench::Tracer tr;
  LayerSamples ls;
  api::ReportAccumulator sink;
  double ref_wall = 0.0, pipe_wall = 0.0, publish_s = 0.0, pipe_busy = 0.0;
  int stale = 0, speculative = 0, infeasible = 0;
  std::size_t pipe_peak_closure = 0;
  std::vector<resilience::RecoveryReport> recoveries;

  for (int s = 0; s < kTracedStreams; ++s) {
    gate.stream = s;
    Inputs in(w, stream_seed(a.seed, s));
    warm_up(in);

    // Untraced reference: the sequential driver at the workload's epoch
    // size, gated in full; for the pipeline workload also one served run
    // for the pipeline-only metrics, which must match the reference.
    SequentialRun ref;
    {
      auto solver = api::make_solver(kSolver, solver_options());
      ref = run_sequential(in, *solver);
    }
    ref_wall += ref.wall_s;
    gate_sequential(in, ref, gate);

    if (w.pipeline) {
      online::Pipeline pipe(in.topo, in.cfg, kSolver, solver_options(), pipeline_options());
      pipe.set_report_sink(&sink);
      const auto t0 = Clock::now();
      const OnlineResult pr = pipe.run();
      pipe_wall += seconds_since(t0);
      compare_series(ref.result, pr, "pipeline vs sequential epoch driver", gate);
      publish_s += pr.publish_seconds;
      stale += pr.stale_repriced;
      speculative += pr.speculative_commits;
      pipe_busy += sum(pr.arrival_seconds);
      pipe_peak_closure = std::max(pipe_peak_closure, pr.peak_closure_bytes);
    }

    const OnlineResult traced = run_traced(in, s * n, tr, ls, gate);
    compare_series(ref.result, traced, "traced driver vs online::simulate", gate);
    infeasible += traced.infeasible_requests;
    recoveries.insert(recoveries.end(), traced.recoveries.begin(), traced.recoveries.end());
  }

  const std::vector<double> self = tr.self_ms();
  double arrival_span_ms = 0.0, unattributed_ms = 0.0;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    if (std::string(tr.spans()[i].name) != "online.arrival") continue;
    arrival_span_ms += tr.duration_ms(static_cast<int>(i));
    unattributed_ms += self[i];
  }

  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<double> recovery_ms;
  int escalated = 0, dropped = 0;
  for (const auto& rep : recoveries) {
    recovery_ms.push_back(rep.seconds * 1e3);
    if (rep.escalated) ++escalated;
    dropped += rep.dropped_users;
  }
  const double recovery_total = sum(recovery_ms);
  const double scratch_total = sum(ls.scratch_ms);
  const double pricing_hits = w.pipeline ? static_cast<double>(sink.pricing_hits())
                                         : static_cast<double>(ls.pricing_hits);
  const double pricing_repriced = w.pipeline ? static_cast<double>(sink.pricing_repriced())
                                             : static_cast<double>(ls.pricing_repriced);
  const std::size_t peak_closure = w.pipeline ? pipe_peak_closure : ls.peak_closure_bytes;
  const char* na_pipe = w.pipeline ? "" : "n/a: sequential workload";
  const char* na_fail = w.failures > 0 ? "" : "n/a: no failure drill";

  std::vector<Metric> ms = {
      {"online.open_epoch_ms.p50", median(ls.open_ms), "ms", ""},
      {"online.open_epoch_ms.total", sum(ls.open_ms), "ms", ""},
      {"online.commit_epoch_ms.p50", median(ls.commit_ms), "ms", ""},
      {"api.solve_ms.p50", percentile(ls.solve_ms, 0.5), "ms", ""},
      {"api.solve_ms.p90", percentile(ls.solve_ms, 0.9), "ms", ""},
      {"api.closure_share", ratio(ls.closure_s, ls.total_s), "fraction", "SolveReport"},
      {"api.pricing_share", ratio(ls.pricing_s, ls.total_s), "fraction", "SolveReport"},
      {"api.post_pricing_share", ratio(ls.post_pricing_s, ls.total_s), "fraction", "SolveReport"},
      {"api.closure_repair_ratio", ratio(ls.repairs, ls.solves), "fraction", "repairs / solves"},
      {"graph.closure_build_ms", median(ls.closure_build_ms), "ms", "cold build, replayed"},
      {"graph.row_hit_ratio",
       ratio(static_cast<double>(ls.row_hits), static_cast<double>(ls.hubs_requested)), "fraction",
       "row hits / hubs requested"},
      {"graph.peak_closure_kb", static_cast<double>(peak_closure) / 1024.0, "KiB",
       w.pipeline ? "pipeline publisher" : "session closure"},
      {"kstroll.price_ms", median(ls.price_ms), "ms", "fresh PricingSession, replayed"},
      {"kstroll.chains_per_arrival", ratio(static_cast<double>(ls.chains), ls.solves), "count", ""},
      {"kstroll.us_per_chain",
       ratio(sum(ls.price_ms) * 1e3, static_cast<double>(ls.replay_chains)), "us",
       "replayed pricing"},
      {"core.pricing_hit_ratio", ratio(pricing_hits, pricing_hits + pricing_repriced), "fraction",
       w.pipeline ? "pipeline sessions" : "sequential session"},
      {"core.post_pricing_ms", median(ls.post_pricing_ms), "ms", "replayed"},
      {"core.validate_ms", median(ls.validate_ms), "ms", ""},
      {"pipeline.publish_s", publish_s, "s", na_pipe},
      {"pipeline.commit_ms", sink.commit().p50 * 1e3, "ms", na_pipe},
      {"pipeline.stale_ratio", ratio(stale, stale + speculative), "fraction", na_pipe},
      {"pipeline.worker_busy_share", ratio(pipe_busy, pipe_wall * pipeline_options().workers),
       "fraction", na_pipe},
      {"resilience.recovery_ms.p50", median(recovery_ms), "ms", na_fail},
      {"resilience.recovery_ms.total", recovery_total, "ms", na_fail},
      {"resilience.scratch_embed_ms", scratch_total, "ms", na_fail},
      {"resilience.repair_ms", recovery_total - scratch_total, "ms", na_fail},
      {"resilience.escalated_share", ratio(escalated, static_cast<double>(recovery_ms.size())),
       "fraction", na_fail},
      {"resilience.dropped_users", static_cast<double>(dropped), "count", na_fail},
      {"trace.overhead", ratio(ls.loop_wall_s, ref_wall) - 1.0, "fraction",
       "traced / untraced loop wall - 1"},
      {"trace.unattributed_share", ratio(unattributed_ms, arrival_span_ms), "fraction", ""},
  };
  print_metrics(ms);

  std::printf("self time by span (ms):\n");
  for (const auto& [name, t] : tr.totals_by_name()) {
    std::printf("  %-28s count %6d  total %12.3f  self %12.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
  if (!a.trace_file.empty()) {
    if (tr.write_chrome_json(a.trace_file, w.name + " seed " + std::to_string(a.seed))) {
      std::printf("trace written to %s (%zu spans)\n", a.trace_file.c_str(), tr.spans().size());
    } else {
      gate.global("cannot write trace file " + a.trace_file);
    }
  }
  print_provenance(a, w, kTracedStreams, kTracedStreams * n,
                   {{"api.solve_ms", static_cast<int>(ls.solve_ms.size())},
                    {"online.open_epoch_ms", static_cast<int>(ls.open_ms.size())},
                    {"online.commit_epoch_ms", static_cast<int>(ls.commit_ms.size())},
                    {"replay", static_cast<int>(ls.price_ms.size())},
                    {"core.validate_ms", static_cast<int>(ls.validate_ms.size())},
                    {"resilience.recoveries", static_cast<int>(recovery_ms.size())},
                    {"pipeline.commits", static_cast<int>(sink.commit().count)}});
  const bool correct = gate.ok();
  print_result(correct, static_cast<long long>(kTracedStreams) * n,
               infeasible + gate.failed_arrivals() + (gate.global_errors > 0 ? 1 : 0), ms);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: sofe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-file <path>] [--source-id <text>]\n";
    return 2;
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == a.workload; });
  if (it == all.end()) {
    std::cerr << "unknown workload " << a.workload << "; known:";
    for (const Workload& w : all) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  try {
    return a.trace == 1 ? run_traced_mode(a, *it) : run_untraced(a, *it);
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
    return 3;
  }
}
