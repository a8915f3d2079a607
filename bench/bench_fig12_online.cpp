// Fig. 12: online deployment — accumulative cost vs number of arrived
// demands, (a) SoftLayer (30 arrivals, |D|~U[13,17], |S|~U[8,12]) and
// (b) Cogent (45 arrivals, |D|~U[20,60], |S|~U[10,30]); |C| = 3.
//
// Expected shape: all curves grow super-linearly as the network loads up;
// SOFDA's stays lowest because it prices congestion into every embedding.
//
// This harness is also the incremental pipeline's acceptance bench
// (DESIGN.md §8 + §9): every solver runs the arrival loop twice — once
// with the delta-aware session (SolverOptions::incremental closure repair
// plus the price-keyed chain cache) and once with the recomputing baseline
// (a fresh solver per arrival over per-arrival Problem copies, so no
// closure or pricing state survives an arrival) — verifies the two
// series bit for bit (exit 1 on any divergence), and reports the
// arrival-loop speedup, the pricing-cache hit/reprice tallies and a
// per-phase breakdown.
//
// Flags:
// PR 6 adds the pipeline panel (DESIGN.md §10): a worker-count sweep of
// online::serve_pipelined over the same arrival stream, pinned to the
// container's hardware concurrency (powers of two up to it, floor 2 so the
// TSan CI cell always exercises real threads), asserting every point's cost
// series bitwise equal to the sequential epoch driver and reporting
// admission throughput (arrivals/s).  The machine's hardware_concurrency
// lands in the JSON so sweeps from different machines stay comparable.
//
// The steady-state panel (DESIGN.md §13) is a recurring-source
// arrival panel (sources drawn from a fixed Zipf-ish pool —
// OnlineConfig::source_pool/source_alpha) held to the same bitwise verdict
// as every other panel, plus its pipeline worker sweep.  Sweep points also
// record the commit thread's epoch-publish wall time, how the publisher
// session's per-epoch closure acquires went (hits / repairs / rebuilds)
// and its peak closure slab footprint.
//
// Flags:
//   --smoke      tiny instance (CI: exercises the incremental path in
//                seconds); the JSON carries "smoke": true so consumers
//                never mistake the reduced panel set for a full run
//   --recurring  recurring-source panels only (with --smoke: the
//                bench_online_recurring_smoke ctest entry — drives the
//                publish path under TSan while source hubs churn, without
//                writing BENCH_online.json next to the main smoke entry)
//   --json       additionally write the measurements to BENCH_online.json

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "sofe/online/pipeline.hpp"
#include "sofe/online/simulator.hpp"

namespace {

struct SolverMeasurement {
  std::string name;
  sofe::online::OnlineResult series;         // incremental run (reported)
  sofe::api::ReportAccumulator incremental;  // per-arrival phase stats
  sofe::api::ReportAccumulator recompute;    // …of the recomputing baseline
  double incremental_seconds = 0.0;          // arrival-loop wall time
  double rebuild_seconds = 0.0;              // recomputing baseline wall time
  bool identical = true;                     // series bit-identical across modes
};

struct PanelMeasurement {
  std::string name;
  std::vector<SolverMeasurement> solvers;
};

bool series_identical(const sofe::online::OnlineResult& a, const sofe::online::OnlineResult& b) {
  if (a.accumulative_cost.size() != b.accumulative_cost.size()) return false;
  for (std::size_t i = 0; i < a.accumulative_cost.size(); ++i) {
    if (a.accumulative_cost[i] != b.accumulative_cost[i]) return false;  // bitwise
    if (a.per_request_cost[i] != b.per_request_cost[i]) return false;
  }
  return a.infeasible_requests == b.infeasible_requests &&
         a.overloaded_links == b.overloaded_links;
}

struct SweepPoint {
  int workers = 1;
  double seconds = 0.0;             // pipeline wall time for the whole stream
  double arrivals_per_second = 0.0;
  int publish_hits = 0;             // publisher closure acquires: reused as-is
  int publish_repairs = 0;          //   repaired in place
  int publish_rebuilds = 0;         //   rebuilt
  double publish_seconds = 0.0;     // commit-thread wall spent publishing epochs
  std::size_t peak_closure_bytes = 0;  // publisher session, over all publishes
  bool identical = true;            // series bitwise == sequential epoch driver
};

struct WorkerSweep {
  std::string name;
  int epoch_size = 1;
  double sequential_seconds = 0.0;  // 1-thread simulate() at the same epoch_size
  std::vector<SweepPoint> points;
};

PanelMeasurement run_panel(const char* title, const sofe::topology::Topology& topo,
                           const sofe::online::OnlineConfig& cfg, int print_every) {
  std::cout << "\n" << title << "\n";
  PanelMeasurement panel;
  panel.name = title;

  std::vector<std::string> header{"#demands"};
  for (const auto& [display, registered] : sofe::bench::comparison_solvers()) {
    SolverMeasurement m;
    m.name = display;

    // Incremental arrival loop: ONE persistent Problem, sessions repair
    // their closures from the per-arrival cost deltas.
    auto solver = sofe::api::make_solver(registered);
    solver->set_report_sink(&m.incremental);
    sofe::util::Stopwatch watch;
    m.series = simulate(topo, cfg, *solver);
    m.incremental_seconds = watch.seconds();
    m.series.algorithm = display;

    // Recomputing baseline: per-arrival Problem copies + a fresh solver
    // per arrival, which builds the closure and prices every chain cold.
    auto ref_cfg = cfg;
    ref_cfg.copy_problems = true;
    watch.reset();
    const auto reference =
        simulate(topo, ref_cfg, display, [&](const sofe::core::Problem& p) {
          auto fresh = sofe::api::make_solver(registered);
          fresh->set_report_sink(&m.recompute);
          return fresh->solve(p);
        });
    m.rebuild_seconds = watch.seconds();

    m.identical = series_identical(m.series, reference);
    if (!m.identical) {
      std::cerr << "ERROR: " << display
                << ": incremental series differs from the recomputing baseline\n";
    }
    header.push_back(display);
    panel.solvers.push_back(std::move(m));
  }

  sofe::util::Table table(header);
  for (int i = print_every - 1; i < cfg.requests; i += print_every) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const auto& m : panel.solvers) {
      row.push_back(
          sofe::util::Table::num(m.series.accumulative_cost[static_cast<std::size_t>(i)], 0));
    }
    table.add_row(std::move(row));
  }
  table.print();
  for (const auto& m : panel.solvers) {
    std::cout << m.name << ": overloaded links at end = " << m.series.overloaded_links
              << ", infeasible = " << m.series.infeasible_requests
              << ", arrival loop " << sofe::util::Table::num(m.incremental_seconds, 3)
              << "s incremental vs " << sofe::util::Table::num(m.rebuild_seconds, 3)
              << "s recomputing (x"
              << sofe::util::Table::num(
                     m.incremental_seconds > 0.0 ? m.rebuild_seconds / m.incremental_seconds : 1.0,
                     2)
              << ", series " << (m.identical ? "bit-identical" : "DIVERGED") << ")\n";
    const double inc_closure = m.incremental.closure().total;
    const double re_closure = m.recompute.closure().total;
    if (re_closure > 0.0 && inc_closure > 0.0) {
      std::cout << "    closure phase: " << sofe::util::Table::num(inc_closure, 3)
                << "s repaired vs " << sofe::util::Table::num(re_closure, 3)
                << "s rebuilt (x" << sofe::util::Table::num(re_closure / inc_closure, 2)
                << ")\n";
    }
    const double inc_pricing = m.incremental.pricing().total;
    const double re_pricing = m.recompute.pricing().total;
    if (re_pricing > 0.0 && inc_pricing > 0.0) {
      std::cout << "    pricing phase: " << sofe::util::Table::num(inc_pricing, 3)
                << "s cached (" << m.incremental.pricing_hits() << " hits / "
                << m.incremental.pricing_repriced() << " repriced, "
                << m.incremental.pricing_flushes() << " flushes) vs "
                << sofe::util::Table::num(re_pricing, 3) << "s from scratch (x"
                << sofe::util::Table::num(re_pricing / inc_pricing, 2) << ")\n";
    }
  }
  std::vector<std::pair<std::string, const sofe::api::ReportAccumulator*>> rows;
  for (const auto& m : panel.solvers) rows.emplace_back(m.name, &m.incremental);
  sofe::bench::print_phase_breakdown("per-arrival phase breakdown (incremental)", rows);
  return panel;
}

// Satellite: the sweep is pinned to THIS machine — powers of two up to
// max(2, hardware_concurrency).  The floor of 2 keeps the concurrent path
// (and the TSan CI cell) honest even on single-core containers; the JSON
// records hardware_concurrency so consumers can normalise across machines.
unsigned hardware_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<int> sweep_worker_counts() {
  const unsigned top = std::max(2u, hardware_concurrency());
  std::vector<int> counts;
  for (unsigned w = 1; w <= top; w *= 2) counts.push_back(static_cast<int>(w));
  if (static_cast<unsigned>(counts.back()) != top) counts.push_back(static_cast<int>(top));
  return counts;
}

WorkerSweep run_worker_sweep(const char* title, const sofe::topology::Topology& topo,
                             sofe::online::OnlineConfig cfg, int epoch_size,
                             const std::vector<int>& worker_counts) {
  std::cout << "\n" << title << " — pipeline worker sweep (epoch_size " << epoch_size
            << ", solver sofda)\n";
  WorkerSweep sweep;
  sweep.name = title;
  sweep.epoch_size = epoch_size;
  cfg.epoch_size = epoch_size;

  // The determinism reference: the sequential epoch driver over the same
  // stream.  Every sweep point must reproduce this series bit for bit.
  auto solver = sofe::api::make_solver("sofda");
  sofe::util::Stopwatch watch;
  const auto reference = simulate(topo, cfg, *solver);
  sweep.sequential_seconds = watch.seconds();

  sofe::util::Table table({"workers", "wall_s", "arrivals/s", "speedup", "hits", "repairs",
                           "rebuilds", "publish", "peak KB", "series"});
  for (int workers : worker_counts) {
    sofe::online::PipelineOptions popt;
    popt.workers = workers;
    watch.reset();
    const auto got = serve_pipelined(topo, cfg, "sofda", {}, popt);
    SweepPoint pt;
    pt.workers = workers;
    pt.seconds = watch.seconds();
    pt.arrivals_per_second =
        pt.seconds > 0.0 ? static_cast<double>(cfg.requests) / pt.seconds : 0.0;
    pt.publish_hits = got.publish_hits;
    pt.publish_repairs = got.publish_repairs;
    pt.publish_rebuilds = got.publish_rebuilds;
    pt.publish_seconds = got.publish_seconds;
    pt.peak_closure_bytes = got.peak_closure_bytes;
    pt.identical = series_identical(got, reference);
    if (!pt.identical) {
      std::cerr << "ERROR: " << title << ": pipeline series at " << workers
                << " workers diverged from the sequential epoch driver\n";
    }
    table.add_row({std::to_string(workers), sofe::util::Table::num(pt.seconds, 3),
                   sofe::util::Table::num(pt.arrivals_per_second, 1),
                   sofe::util::Table::num(
                       pt.seconds > 0.0 ? sweep.sequential_seconds / pt.seconds : 1.0, 2),
                   std::to_string(pt.publish_hits), std::to_string(pt.publish_repairs),
                   std::to_string(pt.publish_rebuilds),
                   sofe::util::Table::num(pt.publish_seconds * 1e3, 2) + "ms",
                   sofe::util::Table::num(
                       static_cast<double>(pt.peak_closure_bytes) / 1024.0, 1),
                   pt.identical ? "bit-identical" : "DIVERGED"});
    sweep.points.push_back(pt);
  }
  table.print();
  std::cout << "sequential epoch driver: " << sofe::util::Table::num(sweep.sequential_seconds, 3)
            << "s (" << hardware_concurrency() << " hardware threads on this machine)\n";
  return sweep;
}

void append_phase_json(std::ostringstream& out, const char* key,
                       const sofe::api::PhaseSummary& s) {
  out << "\"" << key << "\":{\"count\":" << s.count << ",\"total_s\":" << s.total
      << ",\"mean_s\":" << s.mean << ",\"p50_s\":" << s.p50 << ",\"p95_s\":" << s.p95
      << ",\"max_s\":" << s.max << "}";
}

void write_json(const std::vector<PanelMeasurement>& panels,
                const std::vector<WorkerSweep>& sweeps,
                bool smoke, const char* path) {
  // The bench/smoke envelope comes from the shared writer (bench_util.hpp).
  // "hardware_concurrency" keys the worker sweep: the sweep only probes
  // counts this machine can actually schedule, so throughput points from
  // different machines are comparable only via this field.
  sofe::bench::BenchJsonWriter writer("fig12_online", smoke);
  std::ostringstream& out = writer.body();
  out << ",\"hardware_concurrency\":" << hardware_concurrency() << ",\"panels\":[";
  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const auto& panel = panels[pi];
    out << (pi ? "," : "") << "{\"name\":\"" << panel.name << "\",\"solvers\":[";
    for (std::size_t si = 0; si < panel.solvers.size(); ++si) {
      const auto& m = panel.solvers[si];
      const double inc_closure = m.incremental.closure().total;
      const double re_closure = m.recompute.closure().total;
      const double inc_pricing = m.incremental.pricing().total;
      const double re_pricing = m.recompute.pricing().total;
      out << (si ? "," : "") << "{\"name\":\"" << m.name << "\""
          << ",\"arrival_loop_seconds\":" << m.incremental_seconds
          << ",\"arrival_loop_seconds_recompute\":" << m.rebuild_seconds << ",\"speedup\":"
          << (m.incremental_seconds > 0.0 ? m.rebuild_seconds / m.incremental_seconds : 1.0)
          << ",\"closure_seconds\":" << inc_closure
          << ",\"closure_seconds_recompute\":" << re_closure << ",\"closure_speedup\":"
          << (inc_closure > 0.0 ? re_closure / inc_closure : 1.0)
          << ",\"pricing_seconds\":" << inc_pricing
          << ",\"pricing_seconds_recompute\":" << re_pricing << ",\"pricing_speedup\":"
          << (inc_pricing > 0.0 ? re_pricing / inc_pricing : 1.0)
          << ",\"bit_identical\":" << (m.identical ? "true" : "false")
          << ",\"solves\":" << m.incremental.solves()
          << ",\"closure_cache\":{\"hits\":" << m.incremental.cache_hits()
          << ",\"repairs\":" << m.incremental.repairs()
          << ",\"rebuilds\":" << m.incremental.rebuilds()
          << "},\"pricing_cache\":{\"hits\":" << m.incremental.pricing_hits()
          << ",\"repriced\":" << m.incremental.pricing_repriced()
          << ",\"flushes\":" << m.incremental.pricing_flushes()
          << "},\"closure_rows\":{\"peak_bytes\":" << m.incremental.peak_closure_bytes()
          << "},\"phases\":{";
      append_phase_json(out, "closure", m.incremental.closure());
      out << ",";
      append_phase_json(out, "pricing", m.incremental.pricing());
      out << ",";
      append_phase_json(out, "solve", m.incremental.solve());
      out << ",";
      append_phase_json(out, "total", m.incremental.total());
      out << "}}";
    }
    out << "]}";
  }
  out << "],\"worker_sweeps\":[";
  for (std::size_t wi = 0; wi < sweeps.size(); ++wi) {
    const auto& sweep = sweeps[wi];
    out << (wi ? "," : "") << "{\"name\":\"" << sweep.name << "\",\"solver\":\"sofda\""
        << ",\"epoch_size\":" << sweep.epoch_size
        << ",\"sequential_seconds\":" << sweep.sequential_seconds << ",\"points\":[";
    for (std::size_t pi = 0; pi < sweep.points.size(); ++pi) {
      const auto& pt = sweep.points[pi];
      out << (pi ? "," : "") << "{\"workers\":" << pt.workers << ",\"seconds\":" << pt.seconds
          << ",\"arrivals_per_second\":" << pt.arrivals_per_second
          << ",\"speedup_vs_sequential\":"
          << (pt.seconds > 0.0 ? sweep.sequential_seconds / pt.seconds : 1.0)
          << ",\"publish_outcome\":{\"hits\":" << pt.publish_hits
          << ",\"repairs\":" << pt.publish_repairs << ",\"rebuilds\":" << pt.publish_rebuilds
          << "}"
          << ",\"publish_seconds\":" << pt.publish_seconds
          << ",\"closure_rows\":{\"peak_bytes\":" << pt.peak_closure_bytes << "}"
          << ",\"bit_identical\":" << (pt.identical ? "true" : "false") << "}";
    }
    out << "]}";
  }
  out << "]";
  writer.finish(path);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  bool recurring = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--recurring") == 0) recurring = true;
  }

  std::vector<PanelMeasurement> panels;
  std::vector<WorkerSweep> sweeps;
  if (recurring) {
    std::cout << "=== Fig. 12 (recurring sources): steady-state panels ===\n";
    // Sources recur from a fixed Zipf-ish pool and requests depart after a
    // holding window, so the working set churns without saturating
    // (DESIGN.md §13).
    sofe::online::OnlineConfig cfg;
    cfg.requests = smoke ? 10 : 60;
    cfg.min_destinations = smoke ? 3 : 13;
    cfg.max_destinations = smoke ? 5 : 17;
    cfg.min_sources = smoke ? 2 : 8;
    cfg.max_sources = smoke ? 3 : 12;
    cfg.holding_arrivals = smoke ? 4 : 8;
    cfg.source_pool = smoke ? 8 : 16;
    cfg.source_alpha = 0.8;
    cfg.seed = 15;
    panels.push_back(run_panel(
        smoke ? "SoftLayer, 10 arrivals, recurring sources (smoke)"
              : "(f) SoftLayer, 60 arrivals, recurring sources (steady state)",
        sofe::topology::softlayer(), cfg, smoke ? 2 : 10));
    // The pipeline's epoch publisher over the same recurring stream: workers
    // read the publisher's closure between the acquires that rewrite it,
    // the handoff the TSan CI cell must see concurrent.
    sweeps.push_back(run_worker_sweep(
        smoke ? "SoftLayer recurring (smoke)" : "SoftLayer, 60 recurring arrivals",
        sofe::topology::softlayer(), cfg, /*epoch_size=*/4,
        smoke ? std::vector<int>{1, 2} : sweep_worker_counts()));
  } else if (smoke) {
    std::cout << "=== Fig. 12 (smoke): online deployment, incremental pipeline ===\n";
    sofe::online::OnlineConfig cfg;
    cfg.requests = 8;
    cfg.min_destinations = 3;
    cfg.max_destinations = 5;
    cfg.min_sources = 2;
    cfg.max_sources = 3;
    cfg.seed = 12;
    panels.push_back(run_panel("SoftLayer, 8 arrivals (smoke)", sofe::topology::softlayer(),
                               cfg, 2));
    // Smoke sweep keeps workers {1, 2}: enough to drive the concurrent
    // publish/commit path (the TSan CI cell leans on this) while staying
    // seconds-fast on one core.
    sweeps.push_back(run_worker_sweep("SoftLayer (smoke)", sofe::topology::softlayer(), cfg,
                                      /*epoch_size=*/4, {1, 2}));
  } else {
    std::cout << "=== Fig. 12: online deployment, accumulative cost ===\n";
    {
      sofe::online::OnlineConfig cfg;
      cfg.requests = 30;
      cfg.min_destinations = 13;
      cfg.max_destinations = 17;
      cfg.min_sources = 8;
      cfg.max_sources = 12;
      cfg.seed = 12;
      panels.push_back(run_panel("(a) SoftLayer, 30 arrivals", sofe::topology::softlayer(),
                                 cfg, 5));
    }
    {
      sofe::online::OnlineConfig cfg;
      cfg.requests = 45;
      cfg.min_destinations = 20;
      cfg.max_destinations = 60;
      cfg.min_sources = 10;
      cfg.max_sources = 30;
      cfg.seed = 13;
      panels.push_back(run_panel("(b) Cogent, 45 arrivals", sofe::topology::cogent(), cfg, 5));
    }
    {
      // Beyond the paper: an Inet-scale panel where hub-tree construction
      // (not k-stroll pricing, which is graph-size independent) dominates
      // the arrival loop — the regime the delta-aware repair targets.
      sofe::online::OnlineConfig cfg;
      cfg.requests = 20;
      cfg.min_destinations = 8;
      cfg.max_destinations = 12;
      cfg.min_sources = 3;
      cfg.max_sources = 5;
      cfg.seed = 21;
      cfg.link_capacity = 400.0;  // wider pipes: the 2k-node core carries more streams
      panels.push_back(run_panel("(c) Inet-2000, 20 arrivals (beyond the paper)",
                                 sofe::topology::inet(2000, 4000, 8, 21), cfg, 4));
    }
    {
      // Beyond the paper: the churn scenario of the online-admission
      // literature — every request departs holding_arrivals later,
      // returning its bandwidth/VNF charges as cost-RESTORE deltas.  This
      // sweeps the sessions through both delta directions and keeps the
      // network in a steady state instead of saturating.
      sofe::online::OnlineConfig cfg;
      cfg.requests = 40;
      cfg.min_destinations = 13;
      cfg.max_destinations = 17;
      cfg.min_sources = 8;
      cfg.max_sources = 12;
      cfg.holding_arrivals = 8;
      cfg.seed = 14;
      panels.push_back(run_panel("(d) SoftLayer, 40 arrivals, departures after 8 (holding sweep)",
                                 sofe::topology::softlayer(), cfg, 8));
    }
    {
      // The row-level sweet spot: single-VNF chains (|C| = 1) at the
      // Fig.7 alpha = 0 end of the cost model on SoftLayer.  With
      // free setup the only per-arrival change is link prices, and with
      // one VNF per chain the repriced segments run source -> VM and
      // VM -> destination — they miss the (VM, VM) closure block, so
      // chain invalidation is decided row by row and untouched chains
      // are served straight from the cache instead of merely re-pricing
      // faster.
      sofe::online::OnlineConfig cfg;
      cfg.requests = 30;
      cfg.min_destinations = 13;
      cfg.max_destinations = 17;
      cfg.min_sources = 8;
      cfg.max_sources = 12;
      cfg.chain_length = 1;
      cfg.setup_scale = 0.0;
      cfg.seed = 23;
      panels.push_back(run_panel(
          "(e) SoftLayer, 30 arrivals, |C|=1, zero setup (per-entry invalidation)",
          sofe::topology::softlayer(), cfg, 5));
    }
    {
      // Pipeline worker sweep (DESIGN.md §10): admission throughput of the
      // epoch-pipelined service on the paper topologies, worker counts
      // pinned to this machine's hardware concurrency.  Epoch size 8 gives
      // the workers real in-epoch parallelism to exploit.
      const auto counts = sweep_worker_counts();
      sofe::online::OnlineConfig cfg;
      cfg.requests = 40;
      cfg.min_destinations = 13;
      cfg.max_destinations = 17;
      cfg.min_sources = 8;
      cfg.max_sources = 12;
      cfg.seed = 12;
      sweeps.push_back(run_worker_sweep("SoftLayer, 40 arrivals", sofe::topology::softlayer(),
                                        cfg, /*epoch_size=*/8, counts));
      cfg.requests = 32;
      cfg.min_destinations = 20;
      cfg.max_destinations = 60;
      cfg.min_sources = 10;
      cfg.max_sources = 30;
      cfg.seed = 13;
      sweeps.push_back(run_worker_sweep("Cogent, 32 arrivals", sofe::topology::cogent(), cfg,
                                        /*epoch_size=*/8, counts));
    }
    {
      // Steady-state panel (DESIGN.md §13): recurring sources + departures
      // keep yesterday's hubs coming back; the --json artifact tracks its
      // peak closure footprint run over run.
      sofe::online::OnlineConfig cfg;
      cfg.requests = 60;
      cfg.min_destinations = 13;
      cfg.max_destinations = 17;
      cfg.min_sources = 8;
      cfg.max_sources = 12;
      cfg.holding_arrivals = 8;
      cfg.source_pool = 16;
      cfg.source_alpha = 0.8;
      cfg.seed = 15;
      panels.push_back(run_panel("(f) SoftLayer, 60 arrivals, recurring sources (steady state)",
                                 sofe::topology::softlayer(), cfg, 10));
    }
  }

  if (json) write_json(panels, sweeps, smoke, "BENCH_online.json");

  for (const auto& panel : panels) {
    for (const auto& m : panel.solvers) {
      if (!m.identical) return 1;  // the smoke ctest entry fails loudly
    }
  }
  for (const auto& sweep : sweeps) {
    for (const auto& pt : sweep.points) {
      if (!pt.identical) return 1;  // pipeline divergence fails just as loudly
    }
  }
  return 0;
}
