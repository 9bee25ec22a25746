// Tests for the mini-SAMRAI module: box algebra, ghost exchange, pool-
// backed patch storage, and the CleverLeaf Euler solver (Sod shock physics,
// conservation, multi-patch equivalence, and bitwise pins of fields,
// timesteps and kernel counters).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "amr/euler.hpp"

namespace {

using namespace coe;

TEST(Box, Algebra) {
  amr::Box a{0, 0, 9, 4};
  EXPECT_EQ(a.ni(), 10);
  EXPECT_EQ(a.nj(), 5);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_TRUE(a.contains(9, 4));
  EXPECT_FALSE(a.contains(10, 0));
  auto g = a.grown(2);
  EXPECT_EQ(g.ilo, -2);
  EXPECT_EQ(g.size(), 14u * 9u);
  auto i = amr::Box::intersect(a, amr::Box{5, 3, 20, 20});
  EXPECT_EQ(i.ilo, 5);
  EXPECT_EQ(i.ihi, 9);
  EXPECT_EQ(i.jlo, 3);
  EXPECT_TRUE(amr::Box::intersect(a, amr::Box{20, 20, 30, 30}).empty());
}

TEST(Patch, PoolBackedFields) {
  core::MemoryPool pool;
  {
    amr::Patch p(pool, amr::Box{0, 0, 7, 7}, 2);
    p.add_field("rho");
    p.field("rho").at(3, 3) = 5.0;
    EXPECT_DOUBLE_EQ(p.field("rho").at(3, 3), 5.0);
    EXPECT_GT(pool.stats().current_bytes, 0u);
  }
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  // A second patch of the same shape reuses the freed block.
  amr::Patch q(pool, amr::Box{0, 0, 7, 7}, 2);
  q.add_field("rho");
  EXPECT_GT(pool.stats().reuse_count, 0u);
}

TEST(PatchLevel, GhostExchangeBetweenPatches) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 15, 7}, 2,
                        amr::BoundaryKind::Periodic);
  auto& left = level.add_patch(amr::Box{0, 0, 7, 7});
  auto& right = level.add_patch(amr::Box{8, 0, 15, 7});
  left.add_field("f");
  right.add_field("f");
  for (std::int64_t i = 0; i <= 7; ++i) {
    for (std::int64_t j = 0; j <= 7; ++j) {
      left.field("f").at(i, j) = double(i * 100 + j);
      right.field("f").at(i + 8, j) = double((i + 8) * 100 + j);
    }
  }
  level.fill_ghosts("f");
  // Left patch's right ghosts come from the right patch.
  EXPECT_DOUBLE_EQ(left.field("f").at(8, 3), 803.0);
  EXPECT_DOUBLE_EQ(left.field("f").at(9, 0), 900.0);
  // Periodic wrap: left patch's left ghosts come from the right edge.
  EXPECT_DOUBLE_EQ(left.field("f").at(-1, 2), 1502.0);
  // Right patch's right ghosts wrap to the left edge.
  EXPECT_DOUBLE_EQ(right.field("f").at(16, 5), 5.0);
}

TEST(PatchLevel, AddPatchRejectsOverlap) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 15, 15}, 2,
                        amr::BoundaryKind::Outflow);
  level.add_patch(amr::Box{0, 0, 7, 15});
  level.add_patch(amr::Box{8, 0, 15, 7});
  // One shared cell is enough to be refused.
  EXPECT_THROW(level.add_patch(amr::Box{7, 8, 15, 15}),
               std::invalid_argument);
  EXPECT_THROW(level.add_patch(amr::Box{8, 0, 15, 7}), std::invalid_argument);
  EXPECT_EQ(level.num_patches(), 2u);
  // The remaining gap is still accepted.
  level.add_patch(amr::Box{8, 8, 15, 15});
  EXPECT_EQ(level.num_patches(), 3u);
}

TEST(PatchLevel, OutflowClampsAtWalls) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 7, 7}, 1,
                        amr::BoundaryKind::Outflow);
  auto& p = level.add_patch(amr::Box{0, 0, 7, 7});
  p.add_field("f");
  for (std::int64_t i = 0; i <= 7; ++i) {
    for (std::int64_t j = 0; j <= 7; ++j) {
      p.field("f").at(i, j) = double(i);
    }
  }
  level.fill_ghosts("f");
  EXPECT_DOUBLE_EQ(p.field("f").at(-1, 3), 0.0);  // clamped to i = 0
  EXPECT_DOUBLE_EQ(p.field("f").at(8, 3), 7.0);   // clamped to i = 7
}

TEST(Euler, SodShockQualitative) {
  core::MemoryPool pool;
  const std::int64_t n = 200;
  amr::PatchLevel level(pool, amr::Box{0, 0, n - 1, 3}, 2,
                        amr::BoundaryKind::Outflow);
  level.add_patch(amr::Box{0, 0, n - 1, 3});
  auto ctx = core::make_seq();
  amr::EulerConfig cfg;
  cfg.dx = 1.0 / double(n);
  cfg.dy = 1.0 / double(n);
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([n](std::int64_t i, std::int64_t) {
    return amr::sod_state(i, n / 2);
  });
  solver.advance(0.15);
  // Density profile: left state ~1, right state ~0.125, shock moved right,
  // monotone decrease overall for Sod.
  const auto left = solver.primitive_at(5, 1);
  const auto right = solver.primitive_at(n - 5, 1);
  EXPECT_NEAR(left.rho, 1.0, 0.02);
  EXPECT_NEAR(right.rho, 0.125, 0.02);
  // Contact/shock structure exists between the states.
  const auto mid = solver.primitive_at(n / 2 + 10, 1);
  EXPECT_GT(mid.rho, 0.2);
  EXPECT_LT(mid.rho, 0.9);
  EXPECT_GT(mid.u, 0.1);  // gas moving right
}

TEST(Euler, PeriodicConservation) {
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, 31, 31}, 2,
                        amr::BoundaryKind::Periodic);
  level.add_patch(amr::Box{0, 0, 31, 31});
  auto ctx = core::make_seq();
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / 32.0;
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([](std::int64_t i, std::int64_t j) {
    amr::PrimState s;
    s.rho = 1.0 + 0.2 * std::sin(2.0 * M_PI * double(i) / 32.0);
    s.u = 0.3;
    s.v = 0.1 * std::cos(2.0 * M_PI * double(j) / 32.0);
    s.p = 1.0;
    return s;
  });
  const double m0 = solver.total_mass();
  const double e0 = solver.total_energy();
  const double px0 = solver.total_momentum_x();
  for (int s = 0; s < 50; ++s) solver.step(solver.compute_dt());
  EXPECT_NEAR(solver.total_mass(), m0, 1e-10 * std::abs(m0));
  EXPECT_NEAR(solver.total_energy(), e0, 1e-10 * std::abs(e0));
  EXPECT_NEAR(solver.total_momentum_x(), px0, 1e-10 * std::abs(px0) + 1e-12);
}

TEST(Euler, MultiPatchMatchesSinglePatch) {
  auto run = [](bool split) {
    core::MemoryPool pool;
    amr::PatchLevel level(pool, amr::Box{0, 0, 31, 15}, 2,
                          amr::BoundaryKind::Periodic);
    if (split) {
      level.add_patch(amr::Box{0, 0, 15, 15});
      level.add_patch(amr::Box{16, 0, 31, 15});
    } else {
      level.add_patch(amr::Box{0, 0, 31, 15});
    }
    auto ctx = core::make_seq();
    amr::EulerConfig cfg;
    cfg.dx = cfg.dy = 1.0 / 32.0;
    auto solver = std::make_unique<amr::EulerSolver>(ctx, level, cfg);
    solver->init([](std::int64_t i, std::int64_t j) {
      amr::PrimState s;
      s.rho = 1.0 + 0.3 * std::exp(-0.05 * (double(i - 16) * double(i - 16) +
                                            double(j - 8) * double(j - 8)));
      s.p = s.rho;
      return s;
    });
    const double dt = 0.5 * solver->compute_dt();
    for (int step = 0; step < 20; ++step) solver->step(dt);
    std::vector<double> rho;
    for (std::int64_t i = 0; i < 32; ++i) {
      for (std::int64_t j = 0; j < 16; ++j) {
        rho.push_back(solver->primitive_at(i, j).rho);
      }
    }
    return rho;
  };
  const auto single = run(false);
  const auto multi = run(true);
  ASSERT_EQ(single.size(), multi.size());
  for (std::size_t k = 0; k < single.size(); ++k) {
    EXPECT_NEAR(single[k], multi[k], 1e-12);
  }
}

// --- Bitwise pins --------------------------------------------------------
// The constants below were recorded on the lookup-per-cell implementation
// of EulerSolver and PatchLevel::fill_ghosts. The patch loops must
// reproduce every field bit, every timestep and every kernel counter.

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Bit patterns of rho, mx, my and E at every cell the level covers,
/// x-major over its domain.
std::vector<std::uint64_t> level_bits(const amr::PatchLevel& level) {
  std::vector<std::uint64_t> bits;
  const amr::Box& d = level.domain();
  for (std::int64_t i = d.ilo; i <= d.ihi; ++i) {
    for (std::int64_t j = d.jlo; j <= d.jhi; ++j) {
      if (!level.covers(i, j)) continue;
      for (const char* f : {amr::EulerSolver::kRho, amr::EulerSolver::kMx,
                            amr::EulerSolver::kMy, amr::EulerSolver::kE}) {
        bits.push_back(std::bit_cast<std::uint64_t>(level.value_at(f, i, j)));
      }
    }
  }
  return bits;
}

struct SodRun {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> dt_bits;
  hsim::Counters counters;
  double sim = 0.0;
};

/// 64^2 Sod problem with a diagonal interface (i + j = 64), 10 steps of
/// compute_dt + step on a V100 context. The four patches are unequal, so
/// rows and columns have different lengths on every patch.
SodRun run_sod(bool four_patches, amr::BoundaryKind bc) {
  const std::int64_t n = 64;
  core::MemoryPool pool;
  amr::PatchLevel level(pool, amr::Box{0, 0, n - 1, n - 1}, 2, bc);
  if (four_patches) {
    level.add_patch(amr::Box{0, 0, 23, 39});
    level.add_patch(amr::Box{24, 0, 63, 39});
    level.add_patch(amr::Box{0, 40, 23, 63});
    level.add_patch(amr::Box{24, 40, 63, 63});
  } else {
    level.add_patch(amr::Box{0, 0, n - 1, n - 1});
  }
  auto ctx = core::make_device();
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / double(n);
  amr::EulerSolver solver(ctx, level, cfg);
  solver.init([n](std::int64_t i, std::int64_t j) {
    return amr::sod_state(i + j, n);
  });
  SodRun run;
  for (int s = 0; s < 10; ++s) {
    const double dt = solver.compute_dt();
    run.dt_bits.push_back(std::bit_cast<std::uint64_t>(dt));
    solver.step(dt);
  }
  run.bits = level_bits(level);
  run.counters = ctx.counters();
  run.sim = ctx.simulated_time();
  return run;
}

void expect_counters(const SodRun& r, std::uint64_t launches,
                     std::uint64_t transfers, double flops, double bytes,
                     std::uint64_t sim_bits) {
  EXPECT_EQ(r.counters.launches, launches);
  EXPECT_EQ(r.counters.transfers, transfers);
  EXPECT_EQ(r.counters.flops, flops);
  EXPECT_EQ(r.counters.bytes, bytes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sim), sim_bits);
}

TEST(EulerPin, FourPatchOutflowSod) {
  const SodRun r = run_sod(true, amr::BoundaryKind::Outflow);
  EXPECT_EQ(fnv1a(r.bits), 0x51432dc3da031dceull);
  EXPECT_EQ(fnv1a(r.dt_bits), 0x8fc1b673b64dbf0dull);
  // One launch per patch per step; 220 flops and 320 bytes per cell.
  expect_counters(r, 40, 0, 9011200.0, 13107200.0, 0x3f30ebf3a502967eull);
}

TEST(EulerPin, OnePatchOutflowSod) {
  const SodRun r = run_sod(false, amr::BoundaryKind::Outflow);
  EXPECT_EQ(fnv1a(r.bits), 0x51432dc3da031dceull);
  EXPECT_EQ(fnv1a(r.dt_bits), 0x8fc1b673b64dbf0dull);
  expect_counters(r, 10, 0, 9011200.0, 13107200.0, 0x3f148036200aadddull);
}

TEST(EulerPin, FourPatchPeriodicSod) {
  const SodRun r = run_sod(true, amr::BoundaryKind::Periodic);
  EXPECT_EQ(fnv1a(r.bits), 0x89e0800912d9fba8ull);
  EXPECT_EQ(fnv1a(r.dt_bits), 0x7a6d111a00f1c8dfull);
  expect_counters(r, 40, 0, 9011200.0, 13107200.0, 0x3f30ebf3a502967eull);
}

TEST(EulerPin, FourPatchFieldsEqualOnePatchBitwise) {
  for (auto bc : {amr::BoundaryKind::Outflow, amr::BoundaryKind::Periodic}) {
    const SodRun four = run_sod(true, bc);
    const SodRun one = run_sod(false, bc);
    EXPECT_EQ(four.bits, one.bits);
    EXPECT_EQ(four.dt_bits, one.dt_bits);
  }
}

}  // namespace
