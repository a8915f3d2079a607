// Fig. 9: one-time deployment cost on the Cogent backbone (190 nodes,
// 260 links, 40 DCs).  Same sweeps as Fig. 8, no exact series (the paper
// only ran CPLEX on SoftLayer).
//
// Expected shape: larger network => larger SOFDA margins, because more
// candidate nodes/links give the forest more room to beat a single tree.
//
// PR 7 adds the multi-controller k-sweep panel (DESIGN.md §11): the sharded
// closure build at k ∈ {1, 2, 4, 8} controllers, reporting per-controller
// build time (expected to shrink with k), exchanged rows/bytes and protocol
// rounds, plus the online arrival loop driven through the "dist/k=<k>"
// solver — every point asserted bitwise identical to the centralized
// "sofda" run (exit 1 on divergence).
//
// Flags:
//   --smoke   dist panel only, tiny arrival stream (the bench_dist_smoke
//             ctest entry); the JSON carries "smoke": true
//   --json    additionally write the k-sweep to BENCH_dist.json

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

  const auto topo = sofe::topology::cogent();
  if (!smoke) {
    std::cout << "=== Fig. 9: one-time deployment cost, Cogent ===\n";
    std::cout << "(defaults: |S|=14, |D|=6, |M|=25, |C|=3; mean over "
              << sofe::bench::seeds_per_cell() << " seeds)\n";
    sofe::bench::run_cost_figure(topo, /*with_exact=*/false, /*scale=*/1.0);
  } else {
    std::cout << "=== Fig. 9 (smoke): multi-controller k-sweep, Cogent ===\n";
  }

  sofe::topology::ProblemConfig cfg;  // paper defaults: 14/6/25, |C|=3
  cfg.seed = 9;
  sofe::online::OnlineConfig online_cfg;
  online_cfg.requests = smoke ? 4 : 16;
  online_cfg.min_destinations = 4;
  online_cfg.max_destinations = 6;
  online_cfg.min_sources = 2;
  online_cfg.max_sources = 3;
  online_cfg.seed = 9;
  std::vector<sofe::bench::DistSweep> sweeps{
      sofe::bench::run_dist_ksweep(topo, cfg, online_cfg)};

  if (json) sofe::bench::write_dist_json("fig09_cogent_dist", sweeps, smoke, "BENCH_dist.json");
  return sofe::bench::dist_sweeps_identical(sweeps) ? 0 : 1;
}
