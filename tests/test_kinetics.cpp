// Tests for the minikin module: detailed balance, steady-state residuals,
// direct-vs-iterative agreement, and the memory-constrained threading
// model that drives the Cretin CPU/GPU comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "kinetics/solver.hpp"

namespace {

using namespace coe;

TEST(Atomic, ModelStructure) {
  auto m = kinetics::make_model(20);
  EXPECT_EQ(m.num_levels(), 20u);
  // Ladder ascending, weights 2n^2.
  for (std::size_t i = 1; i < 20; ++i) EXPECT_GT(m.energy[i], m.energy[i - 1]);
  EXPECT_DOUBLE_EQ(m.weight[0], 2.0);
  EXPECT_DOUBLE_EQ(m.weight[3], 32.0);
  // Adjacent levels always coupled: at least 19 transitions.
  EXPECT_GE(m.transitions.size(), 19u);
  for (const auto& t : m.transitions) EXPECT_LT(t.lo, t.hi);
}

TEST(Atomic, DetailedBalanceIdentity) {
  auto m = kinetics::make_model(10);
  kinetics::Zone z{0.7, 2.0};
  for (const auto& t : m.transitions) {
    const double up = kinetics::collisional_up(m, t, z);
    const double down = kinetics::collisional_down(m, t, z);
    const double de = m.energy[t.hi] - m.energy[t.lo];
    // g_lo C_up = g_hi C_down exp(-dE/T)
    EXPECT_NEAR(m.weight[t.lo] * up,
                m.weight[t.hi] * down * std::exp(-de / z.te),
                1e-12 * m.weight[t.lo] * up);
  }
}

TEST(Kinetics, PureCollisionalGivesBoltzmann) {
  // Without radiative decay, steady state must be the Boltzmann
  // distribution at Te (LTE limit).
  auto m = kinetics::make_model(12, 0.6, 3);
  for (auto& t : m.transitions) t.radiative = false;
  kinetics::Zone z{0.5, 1.0};
  auto pops = kinetics::solve_zone(m, z);
  double zsum = 0.0;
  for (std::size_t i = 0; i < m.num_levels(); ++i) {
    zsum += m.weight[i] * std::exp(-m.energy[i] / z.te);
  }
  for (std::size_t i = 0; i < m.num_levels(); ++i) {
    const double boltzmann = m.weight[i] * std::exp(-m.energy[i] / z.te) /
                             zsum;
    EXPECT_NEAR(pops[i], boltzmann, 1e-9) << "level " << i;
  }
}

TEST(Kinetics, RadiativeDecayDepopulatesExcitedStates) {
  auto m = kinetics::make_model(12, 0.6, 3);
  kinetics::Zone z{0.5, 1.0};
  auto with_rad = kinetics::solve_zone(m, z);
  for (auto& t : m.transitions) t.radiative = false;
  auto without = kinetics::solve_zone(m, z);
  // Radiative losses push population toward the ground state (non-LTE).
  EXPECT_GT(with_rad[0], without[0]);
}

TEST(Kinetics, SteadyStateResidualIsZero) {
  auto m = kinetics::make_model(25, 0.5, 9);
  kinetics::Zone z{0.8, 3.0};
  auto pops = kinetics::solve_zone(m, z);
  const double sum = std::accumulate(pops.begin(), pops.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_LT(kinetics::kinetics_residual(m, z, pops), 1e-9);
  for (double p : pops) EXPECT_GT(p, -1e-12);  // populations nonnegative
}

TEST(Batch, ZoneParallelIdlesWorkersWhenMemoryBound) {
  auto m = kinetics::make_model(64);
  std::vector<kinetics::Zone> zones(16, kinetics::Zone{0.7, 1.0});
  auto cpu = core::make_cpu();
  // Memory for only ~4 workspaces.
  const double mem = 4.2 * m.workspace_bytes();
  auto rep = kinetics::process_zones(
      cpu, m, zones, kinetics::ThreadMode::ZoneParallel, 40, mem);
  EXPECT_EQ(rep.active_workers, 4u);
  EXPECT_EQ(rep.total_workers, 40u);
}

TEST(Batch, TransitionParallelAlwaysFits) {
  auto m = kinetics::make_model(64);
  std::vector<kinetics::Zone> zones(16, kinetics::Zone{0.7, 1.0});
  auto gpu = core::make_device();
  const double tiny_mem = 1.5 * m.workspace_bytes();
  auto rep = kinetics::process_zones(
      gpu, m, zones, kinetics::ThreadMode::TransitionParallel, 5120,
      tiny_mem);
  EXPECT_GT(rep.active_workers, 64u);
  EXPECT_GT(rep.flops, 0.0);
}

TEST(Batch, GpuModeFasterOnLargeModels) {
  auto m = kinetics::make_model(96);
  std::vector<kinetics::Zone> zones(32, kinetics::Zone{0.7, 1.0});
  auto cpu = core::make_cpu();
  auto gpu = core::make_device();
  const double cpu_mem = 8.0 * m.workspace_bytes();  // memory-starved
  auto rep_cpu = kinetics::process_zones(
      cpu, m, zones, kinetics::ThreadMode::ZoneParallel, 44, cpu_mem);
  auto rep_gpu = kinetics::process_zones(
      gpu, m, zones, kinetics::ThreadMode::TransitionParallel, 5120,
      16.0 * double(1ull << 30));
  EXPECT_LT(rep_gpu.modeled_time, rep_cpu.modeled_time);
}

TEST(Batch, PopulationsReturnedPerZone) {
  auto m = kinetics::make_model(16);
  std::vector<kinetics::Zone> zones{{0.3, 1.0}, {1.5, 1.0}};
  auto ctx = core::make_seq();
  std::vector<std::vector<double>> pops;
  kinetics::process_zones(ctx, m, zones, kinetics::ThreadMode::ZoneParallel, 4,
                          1e12, &pops);
  ASSERT_EQ(pops.size(), 2u);
  // Hotter zone has more excited-state population.
  const double excited_cold =
      1.0 - pops[0][0];
  const double excited_hot = 1.0 - pops[1][0];
  EXPECT_GT(excited_hot, excited_cold);
}

}  // namespace
