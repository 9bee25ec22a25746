// Section 4.3 reproduction (Cretin/minikin): GPU vs CPU processing rates
// for atomic-kinetics zone batches. The paper's numbers: 5.75X per node
// for the second-largest atomic model; "much higher" for the largest
// because memory limits idle 60% of the CPU cores; and a projected 2.5X+
// CPU gain from porting the fine-grained threading back to the CPU.
#include <cstdio>

#include "core/table.hpp"
#include "kinetics/solver.hpp"

#include "bench/bench_main.hpp"

using namespace coe;

COE_BENCH_MAIN(sec43_cretin) {
  std::printf("=== Section 4.3 (Cretin): minikin GPU vs CPU rates ===\n\n");

  const std::size_t cpu_cores = 44;   // 2x P9
  const std::size_t gpu_lanes = 5120; // V100 FP64 lanes
  // Per-node memory available for kinetics workspaces. Production atomic
  // models are huge: the dense rate matrix of an N-level model costs
  // ~2 N^2 doubles per zone, so tens of thousands of levels means GB-class
  // workspaces -- exactly the regime where "memory constraints require
  // idling 60% of CPU cores".
  const double cpu_mem = 13.0 * double(1ull << 30);
  const double gpu_mem = 16.0 * double(1ull << 30);

  std::vector<kinetics::Zone> zones(64, kinetics::Zone{0.7, 1.5});
  core::Table t({"Model (levels)", "workspace/zone (MB)", "CPU active cores",
                 "GPU/CPU rate", "note"});

  struct Case {
    std::size_t levels;
    const char* note;
  };
  const Case cases[] = {{250, "small"},
                        {1000, ""},
                        {4000, "second largest (paper: 5.75X)"},
                        {8000, "largest (CPU idles ~60%+ of cores)"}};

  double second_largest_ratio = 0.0, largest_ratio = 0.0;
  std::size_t largest_active = 0;
  for (const auto& c : cases) {
    auto model = kinetics::make_model(c.levels);
    auto cpu = core::make_cpu(hsim::machines::power9());
    auto gpu = core::make_device(hsim::machines::v100());
    auto rep_cpu =
        kinetics::process_zones(cpu, model, zones,
                                kinetics::ThreadMode::ZoneParallel, cpu_cores,
                                cpu_mem);
    auto rep_gpu = kinetics::process_zones(
        gpu, model, zones, kinetics::ThreadMode::TransitionParallel,
        gpu_lanes, gpu_mem);
    const double ratio = rep_cpu.modeled_time / rep_gpu.modeled_time;
    if (c.levels == 4000) second_largest_ratio = ratio;
    if (c.levels == 8000) {
      largest_ratio = ratio;
      largest_active = rep_cpu.active_workers;
    }
    t.row({std::to_string(c.levels),
           core::Table::num(model.workspace_bytes() / 1e6, 1),
           std::to_string(rep_cpu.active_workers) + "/" +
               std::to_string(cpu_cores),
           core::Table::num(ratio, 2) + "X", c.note});
  }
  t.print();
  std::printf("\nGPU speedup for the largest model (%0.2fX) exceeds the"
              " second-largest (%0.2fX) because only %zu of %zu CPU cores"
              " fit a workspace.\n\n",
              largest_ratio, second_largest_ratio, largest_active,
              cpu_cores);

  // Projection: port the fine-grained (transition-parallel) threading to
  // the CPU so workspaces are shared -- the paper projects 2.5X+.
  auto model = kinetics::make_model(8000);
  auto cpu1 = core::make_cpu(hsim::machines::power9());
  auto cpu2 = core::make_cpu(hsim::machines::power9());
  auto zone_par =
      kinetics::process_zones(cpu1, model, zones,
                              kinetics::ThreadMode::ZoneParallel, cpu_cores,
                              cpu_mem);
  auto trans_par = kinetics::process_zones(
      cpu2, model, zones, kinetics::ThreadMode::TransitionParallel,
      cpu_cores, cpu_mem);
  std::printf("CPU fine-threading projection on the largest model: %0.2fX"
              " (paper: \"2.5X speedups or more\").\n",
              zone_par.modeled_time / trans_par.modeled_time);
  return 0;
}
