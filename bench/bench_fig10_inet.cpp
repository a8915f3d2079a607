// Fig. 10: one-time deployment cost on the Inet-style synthetic network
// (5000 nodes, 10000 links, 2000 DCs), cost reported in thousands as in the
// paper.  Override SOFE_INET_NODES to shrink for smoke runs.
//
// PR 7 adds the multi-controller k-sweep panel (DESIGN.md §11) on the same
// synthetic network — the regime where sharding pays: per-domain closure
// builds over |V|/k-node subgraphs instead of one |V|-node global build,
// border-row exchange instead of O(|V|²) state.  Every point is asserted
// bitwise identical to the centralized "sofda" run (exit 1 on divergence).
//
// Flags:
//   --smoke   dist panel only on a shrunken network and a 25-arrival
//             stream (seconds; the bench_dist_inet_smoke ctest entry); the
//             JSON carries "smoke": true
//   --json    additionally write the k-sweep to BENCH_dist.json

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  int nodes = smoke ? 300 : 5000;
  if (const char* env = std::getenv("SOFE_INET_NODES")) {
    const int v = std::atoi(env);
    if (v >= 100) nodes = v;
  }
  const int links = nodes * 2;
  const int dcs = nodes * 2 / 5;
  const auto topo = sofe::topology::inet(nodes, links, dcs, 1);

  if (!smoke) {
    std::cout << "=== Fig. 10: one-time deployment cost, Inet synthetic (" << nodes
              << " nodes, " << links << " links, " << dcs << " DCs); cost in units ===\n";
    std::cout << "(defaults: |S|=14, |D|=6, |M|=25, |C|=3; mean over "
              << sofe::bench::seeds_per_cell() << " seeds)\n";
    sofe::bench::run_cost_figure(topo, /*with_exact=*/false, /*scale=*/1.0);
  } else {
    std::cout << "=== Fig. 10 (smoke): multi-controller k-sweep, Inet (" << nodes
              << " nodes) ===\n";
  }

  sofe::topology::ProblemConfig cfg;  // paper defaults: 14/6/25, |C|=3
  cfg.seed = 10;
  sofe::online::OnlineConfig online_cfg;
  online_cfg.requests = smoke ? 25 : 12;
  online_cfg.min_destinations = 4;
  online_cfg.max_destinations = 6;
  online_cfg.min_sources = 2;
  online_cfg.max_sources = 3;
  online_cfg.seed = 10;
  online_cfg.link_capacity = 400.0;  // wider pipes on the synthetic core
  std::vector<sofe::bench::DistSweep> sweeps{
      sofe::bench::run_dist_ksweep(topo, cfg, online_cfg)};

  if (json) sofe::bench::write_dist_json("fig10_inet_dist", sweeps, smoke, "BENCH_dist.json");
  return sofe::bench::dist_sweeps_identical(sweeps) ? 0 : 1;
}
