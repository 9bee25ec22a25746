// Figure 8 reproduction: "Timing breakdown of nonlinear diffusion problem"
// -- linear-system formulation, preconditioner setup, and solve phases for
// a ~1M-dof high-order problem, single P8 CPU thread vs one P100. The
// coupled solver runs for real; each phase's traced kernels are priced on
// both machines.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/table.hpp"
#include "fem/fem.hpp"

#include "bench/bench_main.hpp"

using namespace coe;

COE_BENCH_MAIN(fig8_fem_breakdown) {
  std::printf("=== Figure 8: nonlinear diffusion timing breakdown ===\n");
  std::printf("Paper setup: 1M dofs, SUNDIALS CVODE + MFEM partial assembly"
              " + hypre BoomerAMG on the low-order-refined operator.\n");
  std::printf("This run: p = 4, reduced dof count for bench runtime; same"
              " phases, same code path.\n\n");

  fem::DiffusionConfig cfg;
  cfg.order = 4;
  cfg.nx = 64;  // (64*4 + 1)^2 = 66049 dofs
  cfg.t_final = 2e-4;
  cfg.dt_init = 1e-4;
  cfg.rtol = 1e-4;
  cfg.max_timesteps = 2;

  auto gpu = core::make_device(hsim::machines::p100());
  gpu.set_trace(&bench.trace());  // per-launch events for exact repricing
  cfg.profiler = &bench.profiler();  // hierarchical spans -> PROF_*.json
  fem::NonlinearDiffusion app(gpu, cfg);
  auto rep = app.run();

  std::printf("dofs = %zu, timesteps = %zu, Newton iters = %zu, "
              "CG solves = %zu (avg %.1f iters)\n\n",
              rep.dofs, rep.ode.steps, rep.ode.newton_iters, rep.cg_solves,
              rep.cg_solves
                  ? double(rep.cg_iterations) / double(rep.cg_solves)
                  : 0.0);

  // The GPU column sums every traced launch and transfer, so a trace ring
  // that wrapped would silently drop busy time.
  if (bench.trace().dropped() > 0) {
    std::fprintf(stderr, "fig8: the trace dropped %llu events\n",
                 static_cast<unsigned long long>(bench.trace().dropped()));
    return 1;
  }

  // Per-phase times on the P100 (primary model) and a P8 thread. The CPU
  // column reprices every traced launch individually — the aggregate
  // CostModel::predict is only a lower bound when a phase mixes compute-
  // and memory-bound kernels (see cost.hpp).
  const hsim::CostModel cpu(hsim::machines::power8_thread());
  core::Table t({"Phase", "P8 1-thread (s)", "P100 (s)", "speedup"});
  double cpu_total = 0.0, gpu_total = 0.0;
  // P100 busy seconds per traced phase, in first-use order.
  auto add = [](std::vector<std::pair<std::string, double>>& sums,
                const std::string& name, double seconds) {
    auto it = std::find_if(sums.begin(), sums.end(),
                           [&](const auto& g) { return g.first == name; });
    if (it == sums.end()) {
      sums.emplace_back(name, seconds);
    } else {
      it->second += seconds;
    }
  };
  std::vector<std::pair<std::string, double>> phases;
  for (const auto& e : bench.trace().snapshot()) {
    if (!obs::is_marker(e.kind)) add(phases, e.phase, e.duration);
  }
  // The profiler tags CG-internal kernels with nested paths
  // ("solve/cg/spmv"); fold those into their top-level phase so the table
  // keeps the figure's three-row shape. reprice's phase filter is
  // hierarchical, so the grouped name re-prices the whole subtree.
  std::vector<std::pair<std::string, double>> groups;
  for (const auto& [name, seconds] : phases) {
    add(groups, name.substr(0, name.find('/')), seconds);
  }
  for (const auto& [name, seconds] : groups) {
    const double t_gpu = seconds;
    const double t_cpu = hsim::reprice(bench.trace(), cpu, name);
    cpu_total += t_cpu;
    gpu_total += t_gpu;
    t.row({name, core::Table::sci(t_cpu, 3), core::Table::sci(t_gpu, 3),
           core::Table::num(t_cpu / t_gpu, 2)});
  }
  t.row({"total", core::Table::sci(cpu_total, 3),
         core::Table::sci(gpu_total, 3),
         core::Table::num(cpu_total / gpu_total, 2)});
  t.print();

  std::printf("\nShape checks (Fig. 8): the solve phase dominates on both"
              " machines; every phase accelerates on the GPU; the new"
              " partial-assembly algorithms keep formulation cheap.\n");

  bench.add_context("p100", gpu);
  bench.add_machine("power8_thread", cpu_total);
  bench.metrics().set("fig8.speedup", cpu_total / gpu_total);
  bench.metrics().set("fig8.dofs", static_cast<double>(rep.dofs));
  return 0;
}
