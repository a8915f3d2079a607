#include "sofe/online/pipeline.hpp"

// The admission pipeline's engine room (DESIGN.md §10).  Lives in api/
// because it drives api::Solver sessions — the same layering as the
// Solver& overload of online::simulate.
//
// Thread architecture: N worker threads plus the caller of run(), which
// serves as both epoch publisher and commit stage.  One mutex guards all
// shared state; workers claim the open epoch's slots, price them OUTSIDE
// the lock against their private Problem replica and the publisher
// session's read-only closure, and post results back.  The publisher
// mutates shared state (master Problem, replicas, ledger, publisher
// closure) only while every worker is parked — the `publishing` flag
// blocks new claims and the `active` counter drains in-flight solves — so
// what workers read is immutable by construction, not by convention.
//
// Determinism: an epoch's slots become claimable only after it opens, and
// the next epoch opens only after every one of them committed, so each
// slot is priced at the epoch that commits it — against the same snapshot
// the sequential driver uses.  Every number that enters the cost series is
// computed from (epoch snapshot, request) alone, and slots commit in
// arrival order, so the committed value is schedule-independent.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sofe/api/registry.hpp"
#include "sofe/api/report.hpp"
#include "sofe/api/solver.hpp"
#include "sofe/online/stream.hpp"
#include "sofe/util/stopwatch.hpp"

namespace sofe::online {

namespace {
using SteadyClock = std::chrono::steady_clock;
}  // namespace

struct Pipeline::Impl {
  Impl(const topology::Topology& topo, const OnlineConfig& cfg, std::string solver_name,
       const api::SolverOptions& opt, PipelineOptions popt)
      : stream(topo, cfg), solver_name(std::move(solver_name)), opt(opt) {
    workers = popt.workers;
    if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
    workers = std::max(workers, 1);
    if (stream.has_failures()) {
      // Recovery escalation gets its own session of the same family.  It
      // runs on the commit thread inside open_epoch — all workers parked —
      // and sessions are pure speed knobs, so a dedicated instance returns
      // bitwise what the sequential driver's shared embedder returns.
      recovery_solver = api::make_solver(this->solver_name, opt);
      stream.set_recovery_embedder(
          [this](const core::Problem& p) { return recovery_solver->solve(p); });
    }
  }

  // --- construction-time (immutable during run) ---
  ArrivalStream stream;
  std::string solver_name;
  api::SolverOptions opt;
  int workers = 1;
  api::ReportAccumulator* sink = nullptr;
  std::unique_ptr<api::Solver> recovery_solver;  // failure drills only
  bool ran = false;

  // --- shared state, guarded by mu ---
  std::mutex mu;
  std::condition_variable cv_work;  // workers: claimable slot / shutdown
  std::condition_variable cv_main;  // driver: result posted / worker parked
  bool publishing = true;           // claims blocked while the publisher works
  bool done = false;
  int active = 0;                    // workers inside a solve
  int next_slot = 0;                 // lowest never-claimed slot
  int dispatch_limit = 0;            // slots [0, dispatch_limit) are claimable
  SteadyClock::time_point epoch_opened;  // every slot's queue wait starts here
  std::exception_ptr failure;        // first worker exception, rethrown by run()

  // Rewritten by the publisher while every worker is parked, read by the
  // workers in between.  replicas[w] is worker w's Problem: the publisher
  // applies each epoch's EdgeCostDelta batch and VM setup costs to every
  // replica, so its prices are bitwise the epoch snapshot's.  `closure` is
  // the publisher session's own closure (set only when use_epoch: the
  // solver family prices against shared closures).
  std::vector<Problem> replicas;
  const graph::MetricClosure* closure = nullptr;
  bool use_epoch = false;

  struct Slot {
    bool ready = false;
    ServiceForest forest;
    api::SolveReport report;
    double solve_seconds = 0.0;
    double queue_seconds = 0.0;
  };
  std::vector<Slot> slots;

  // Publisher-side scratch (driver thread only).
  api::ClosureSession publisher;
  std::vector<graph::EdgeCostDelta> deltas;
  std::vector<core::NodeId> union_hubs;
  std::vector<std::uint8_t> hub_mark;

  void worker_main(int w);
  int publish_epoch(int first, OnlineResult& result);
  OnlineResult run();
};

void Pipeline::Impl::worker_main(int w) {
  // Worker-private solver session; the replica is this worker's alone
  // between publishes.
  const auto solver = api::make_solver(solver_name, opt);
  Problem& replica = replicas[static_cast<std::size_t>(w)];

  std::unique_lock lock(mu);
  for (;;) {
    cv_work.wait(lock, [&] { return done || (!publishing && next_slot < dispatch_limit); });
    if (done) return;

    // Claim the lowest unclaimed slot — the arrival queue is FIFO.
    const int r = next_slot++;
    ++active;
    const double queue_seconds =
        std::chrono::duration<double>(SteadyClock::now() - epoch_opened).count();
    lock.unlock();

    const Request& req = stream.request(r);
    replica.sources = req.sources;
    replica.destinations = req.destinations;
    const util::Stopwatch watch;
    ServiceForest forest;
    try {
      forest = use_epoch ? solver->solve_epoch(replica, *closure) : solver->solve(replica);
    } catch (...) {
      lock.lock();
      if (!failure) failure = std::current_exception();
      done = true;
      --active;
      cv_main.notify_all();
      cv_work.notify_all();
      return;
    }
    const double solve_seconds = watch.seconds();

    lock.lock();
    Slot& s = slots[static_cast<std::size_t>(r)];
    s.ready = true;
    s.forest = std::move(forest);
    s.report = solver->report();
    s.solve_seconds = solve_seconds;
    s.queue_seconds = queue_seconds;
    --active;
    cv_main.notify_all();
  }
}

int Pipeline::Impl::publish_epoch(int first, OnlineResult& result) {
  std::unique_lock lock(mu);
  publishing = true;  // block new claims...
  cv_main.wait(lock, [&] { return active == 0; });  // ...and drain in-flight ones

  // Every worker is parked: shared state is ours to mutate.
  const int count = stream.open_epoch(first, &deltas);
  for (Problem& replica : replicas) {
    for (const graph::EdgeCostDelta& d : deltas) {
      replica.network.set_edge_cost(d.edge, d.new_cost);
    }
    replica.node_cost = stream.master().node_cost;
  }

  if (use_epoch) {
    // Union hubs over the epoch: the VMs plus every source of its slots.
    // Extras are invisible to queries (§8 union semantics), so covering
    // the whole epoch never changes a result.
    union_hubs = stream.master().vms();
    hub_mark.assign(static_cast<std::size_t>(stream.master().network.node_count()), 0);
    for (core::NodeId vm : union_hubs) hub_mark[static_cast<std::size_t>(vm)] = 1;
    for (int r = first; r < first + count; ++r) {
      for (core::NodeId s : stream.request(r).sources) {
        if (!hub_mark[static_cast<std::size_t>(s)]) {
          hub_mark[static_cast<std::size_t>(s)] = 1;
          union_hubs.push_back(s);
        }
      }
    }
    api::SolveReport report;
    closure = &publisher.acquire(stream.master().network, union_hubs, opt.threads, report);
    if (report.closure_cache_hit) {
      ++result.publish_hits;
    } else if (report.closure_repaired) {
      ++result.publish_repairs;
    } else {
      ++result.publish_rebuilds;
    }
    result.peak_closure_bytes = std::max(result.peak_closure_bytes, report.closure_bytes);
  }

  // Open the epoch's slots to the workers.
  epoch_opened = SteadyClock::now();
  dispatch_limit = first + count;
  publishing = false;
  lock.unlock();
  cv_work.notify_all();
  return count;
}

OnlineResult Pipeline::Impl::run() {
  assert(!ran && "Pipeline::run() may be called once");
  ran = true;

  const int total = stream.requests();
  slots.resize(static_cast<std::size_t>(total));

  // Probe the registry once for the family's name and closure appetite;
  // workers build their own sessions.
  OnlineResult result;
  {
    const auto probe = api::make_solver(solver_name, opt);
    result.algorithm = std::string(probe->name());
    use_epoch = probe->wants_epoch_closure();
  }
  result.workers = workers;
  result.epoch_size = stream.epoch_size();
  result.arrival_seconds.assign(static_cast<std::size_t>(total), 0.0);

  // Replicas are copied before the first epoch opens, so no worker can
  // observe a half-refreshed master.
  replicas.assign(static_cast<std::size_t>(workers), stream.master());
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(&Impl::worker_main, this, w);

  Cost accumulated = 0.0;
  for (int first = 0; first < total && !failure;) {
    int count = 0;
    {
      const util::Stopwatch publish_watch;
      count = publish_epoch(first, result);
      result.publish_seconds += publish_watch.seconds();
    }

    // Collect the whole epoch's results (in arrival order), then commit
    // the batch through the same ArrivalStream::commit_epoch the sequential
    // driver uses — admission decisions, departures and ledger evolution
    // are shared code, so the two drivers cannot drift (DESIGN.md §14).
    // Workers never read the ledger, so batching the commit changes nothing
    // they observe.
    std::vector<Slot> epoch_slots;
    std::vector<ServiceForest> forests;
    epoch_slots.reserve(static_cast<std::size_t>(count));
    forests.reserve(static_cast<std::size_t>(count));
    for (int r = first; r < first + count; ++r) {
      Slot s;
      {
        std::unique_lock lock(mu);
        cv_main.wait(lock, [&] {
          return slots[static_cast<std::size_t>(r)].ready || failure != nullptr;
        });
        if (failure) break;
        s = std::move(slots[static_cast<std::size_t>(r)]);
      }
      forests.push_back(std::move(s.forest));
      epoch_slots.push_back(std::move(s));
    }
    if (failure) break;

    const util::Stopwatch commit_watch;
    const auto outcomes = stream.commit_epoch(first, forests);
    // The sink keeps its one-commit-sample-per-arrival shape: the epoch's
    // commit wall time is split evenly across its slots.
    const double commit_share =
        count > 0 ? commit_watch.seconds() / static_cast<double>(count) : 0.0;
    for (int i = 0; i < count; ++i) {
      const SlotOutcome& out = outcomes[static_cast<std::size_t>(i)];
      const Slot& s = epoch_slots[static_cast<std::size_t>(i)];
      const bool admitted = out.status == SlotOutcome::Status::kAdmitted;
      if (out.status == SlotOutcome::Status::kInfeasible) ++result.infeasible_requests;
      if (admitted) accumulated += out.cost;
      result.per_request_cost.push_back(admitted ? out.cost : 0.0);
      result.accumulative_cost.push_back(accumulated);
      result.accepted.push_back(admitted ? 1 : 0);
      result.decision_utilization.push_back(out.decision_utilization);
      result.arrival_seconds[static_cast<std::size_t>(first + i)] = s.solve_seconds;
      if (sink != nullptr) {
        sink->add(s.report);
        sink->add_queue_wait(s.queue_seconds);
        sink->add_commit(commit_share);
      }
    }
    first += count;
  }

  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv_work.notify_all();
  for (std::thread& th : pool) th.join();
  if (failure) std::rethrow_exception(failure);

  stream.finish(result);
  return result;
}

Pipeline::Pipeline(const topology::Topology& topo, const OnlineConfig& cfg,
                   std::string solver_name, const api::SolverOptions& opt, PipelineOptions popt)
    : impl_(std::make_unique<Impl>(topo, cfg, std::move(solver_name), opt, popt)) {}

Pipeline::~Pipeline() = default;

void Pipeline::set_report_sink(api::ReportAccumulator* sink) noexcept { impl_->sink = sink; }

OnlineResult Pipeline::run() { return impl_->run(); }

OnlineResult serve_pipelined(const topology::Topology& topo, const OnlineConfig& cfg,
                             const std::string& solver_name, const api::SolverOptions& opt,
                             PipelineOptions popt) {
  return Pipeline(topo, cfg, solver_name, opt, popt).run();
}

}  // namespace sofe::online
