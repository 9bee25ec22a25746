// Tests for the mini-hypre module: BoomerAMG setup internals, V-cycle
// convergence and AMG-preconditioned CG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "amg/amg.hpp"
#include "core/rng.hpp"
#include "fem/fem.hpp"
#include "la/la.hpp"

namespace {

using namespace coe;

TEST(Strength, KeepsOnlyStrongNegativeEntries) {
  // Row 0: offdiag -4 and -1 with theta=0.5 -> only -4 is strong.
  auto a = la::CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 6.0}, {0, 1, -4.0}, {0, 2, -1.0},
       {1, 0, -4.0}, {1, 1, 5.0},
       {2, 0, -1.0}, {2, 2, 2.0}});
  auto s = amg::strength_graph(a, 0.5);
  EXPECT_EQ(s.rowptr()[1] - s.rowptr()[0], 1u);
  EXPECT_EQ(s.colind()[0], 1u);
}

TEST(Strength, PositiveOffdiagIgnored) {
  auto a = la::CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  auto s = amg::strength_graph(a, 0.25);
  EXPECT_EQ(s.nnz(), 0u);
}

TEST(Pmis, ProducesValidSplitting) {
  auto a = la::poisson2d(20, 20);
  auto s = amg::strength_graph(a, 0.25);
  auto cf = amg::pmis_coarsen(s);
  std::size_t nc = 0;
  for (auto t : cf) nc += (t == amg::PointType::Coarse);
  // Poisson coarsens to roughly a quarter..half of the points.
  EXPECT_GT(nc, a.rows() / 8);
  EXPECT_LT(nc, a.rows() * 3 / 4);
  // Every fine point must have a strong coarse neighbour.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (cf[i] == amg::PointType::Coarse) continue;
    if (s.rowptr()[i + 1] == s.rowptr()[i]) continue;
    bool has_c = false;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      has_c |= (cf[s.colind()[k]] == amg::PointType::Coarse);
    }
    EXPECT_TRUE(has_c) << "fine point " << i << " has no coarse neighbour";
  }
}

TEST(Interp, RowsSumToOneForMMatrix) {
  // For an M-matrix with zero row sums at interior points, direct
  // interpolation rows of fine points sum to ~a_ii-normalized weights; for
  // coarse points the row is exactly the unit vector.
  auto a = la::poisson2d(12, 12);
  auto s = amg::strength_graph(a, 0.25);
  auto cf = amg::pmis_coarsen(s);
  auto p = amg::direct_interpolation(a, s, cf);
  std::size_t nc = 0;
  for (auto t : cf) nc += (t == amg::PointType::Coarse);
  EXPECT_EQ(p.cols(), nc);
  EXPECT_EQ(p.rows(), a.rows());
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t k = p.rowptr()[i]; k < p.rowptr()[i + 1]; ++k) {
      row_sum += p.values()[k];
      EXPECT_GE(p.values()[k], 0.0);  // M-matrix -> nonnegative weights
    }
    if (cf[i] == amg::PointType::Coarse) {
      EXPECT_DOUBLE_EQ(row_sum, 1.0);
    } else if (p.rowptr()[i + 1] > p.rowptr()[i]) {
      EXPECT_GT(row_sum, 0.0);
      EXPECT_LE(row_sum, 1.5);
    }
  }
}

// Reference constructions: the rows strength_graph and direct_interpolation
// produce, as triplets handed to from_triplets to sort and sum.
la::CsrMatrix triplet_strength(const la::CsrMatrix& a, double theta) {
  std::vector<la::Triplet> strong;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double max_off = 0.0;
    for (std::size_t k = a.rowptr()[i]; k < a.rowptr()[i + 1]; ++k) {
      if (a.colind()[k] != i && -a.values()[k] > max_off) {
        max_off = -a.values()[k];
      }
    }
    if (max_off <= 0.0) continue;
    for (std::size_t k = a.rowptr()[i]; k < a.rowptr()[i + 1]; ++k) {
      if (a.colind()[k] != i && -a.values()[k] >= theta * max_off) {
        strong.push_back({i, a.colind()[k], 1.0});
      }
    }
  }
  return la::CsrMatrix::from_triplets(a.rows(), a.cols(), std::move(strong));
}

la::CsrMatrix triplet_interpolation(const la::CsrMatrix& a,
                                    const la::CsrMatrix& s,
                                    const std::vector<amg::PointType>& cf) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> coarse_index(n, 0);
  std::size_t nc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cf[i] == amg::PointType::Coarse) coarse_index[i] = nc++;
  }
  auto a_ij = [&](std::size_t i, std::size_t j, double* v) {
    for (std::size_t l = a.rowptr()[i]; l < a.rowptr()[i + 1]; ++l) {
      if (a.colind()[l] == j) {
        *v = a.values()[l];
        return true;
      }
    }
    return false;
  };
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    if (cf[i] == amg::PointType::Coarse) {
      trips.push_back({i, coarse_index[i], 1.0});
      continue;
    }
    double sum_all_off = 0.0, diag = 0.0, sum_strong_c = 0.0, v = 0.0;
    for (std::size_t k = a.rowptr()[i]; k < a.rowptr()[i + 1]; ++k) {
      if (a.colind()[k] == i) {
        diag = a.values()[k];
      } else {
        sum_all_off += a.values()[k];
      }
    }
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      const std::size_t j = s.colind()[k];
      if (cf[j] == amg::PointType::Coarse && a_ij(i, j, &v)) sum_strong_c += v;
    }
    if (sum_strong_c == 0.0 || diag == 0.0) continue;
    const double alpha = sum_all_off / sum_strong_c;
    for (std::size_t k = s.rowptr()[i]; k < s.rowptr()[i + 1]; ++k) {
      const std::size_t j = s.colind()[k];
      if (cf[j] == amg::PointType::Coarse && a_ij(i, j, &v)) {
        trips.push_back({i, coarse_index[j], -alpha * v / diag});
      }
    }
  }
  return la::CsrMatrix::from_triplets(n, nc, std::move(trips));
}

void expect_bitwise_equal(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(std::ranges::equal(a.rowptr(), b.rowptr()));
  EXPECT_TRUE(std::ranges::equal(a.colind(), b.colind()));
  EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
}

TEST(AmgSetup, DirectCsrMatchesTripletConstruction) {
  // A 5-point Poisson matrix and a 9-point LOR matrix with a variable
  // coefficient. The PMIS C-point counts and index sums are pinned, so a
  // rewrite of the setup code cannot move the splitting unnoticed.
  fem::TensorMesh2D mesh(8, 8, 4);
  fem::EllipticOperator op(mesh, fem::Assembly::Partial, 1.0, 1.0);
  op.set_kappa([](double x, double y) { return 1.0 + x + 0.5 * y * y; });
  const struct {
    la::CsrMatrix a;
    std::size_t c_points, c_index_sum;
  } cases[] = {{la::poisson2d(20, 20), 158, 31297},
               {op.assemble_lor(), 253, 137632}};
  for (const auto& c : cases) {
    const auto s = amg::strength_graph(c.a, 0.25);
    expect_bitwise_equal(s, triplet_strength(c.a, 0.25));
    const auto cf = amg::pmis_coarsen(s);
    std::size_t c_points = 0, c_index_sum = 0;
    for (std::size_t i = 0; i < cf.size(); ++i) {
      if (cf[i] == amg::PointType::Coarse) {
        ++c_points;
        c_index_sum += i;
      }
    }
    EXPECT_EQ(c_points, c.c_points);
    EXPECT_EQ(c_index_sum, c.c_index_sum);
    expect_bitwise_equal(amg::direct_interpolation(c.a, s, cf),
                         triplet_interpolation(c.a, s, cf));
  }
}

class BoomerAmgPoisson : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoomerAmgPoisson, VcycleSolves) {
  const std::size_t nx = GetParam();
  auto a = la::poisson2d(nx, nx);
  const std::size_t n = a.rows();
  amg::BoomerAmg amg_solver(a, {});
  EXPECT_GE(amg_solver.num_levels(), 2u);
  EXPECT_LT(amg_solver.operator_complexity(), 3.0);

  std::vector<double> x_true(n), b(n), x(n, 0.0);
  core::Rng rng(1);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  auto ctx = core::make_seq();
  a.spmv(ctx, x_true, b);
  const std::size_t iters = amg_solver.solve(ctx, b, x, 1e-8, 100);
  EXPECT_LT(iters, 60u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoomerAmgPoisson,
                         ::testing::Values(16, 24, 32));

TEST(BoomerAmg, PreconditionsCgFasterThanJacobi) {
  auto a = la::poisson2d(32, 32);
  const std::size_t n = a.rows();
  std::vector<double> b(n, 1.0);
  la::CsrOperator op(a);
  la::SolveOptions opts{.max_iters = 1000, .rel_tol = 1e-8};

  auto ctx1 = core::make_seq();
  std::vector<double> x1(n, 0.0);
  la::JacobiPreconditioner jac(a);
  auto r1 = la::cg(ctx1, op, jac, b, x1, opts);

  auto ctx2 = core::make_seq();
  std::vector<double> x2(n, 0.0);
  amg::BoomerAmg prec(a, {});
  auto r2 = la::cg(ctx2, op, prec, b, x2, opts);

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations / 2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-5);
}

TEST(BoomerAmg, AnisotropicProblemStillConverges) {
  // Strong coupling in x only: strength graph should pick it up.
  const std::size_t nx = 24, ny = 24;
  std::vector<la::Triplet> t;
  auto id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };
  const double eps = 0.01;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t r = id(i, j);
      t.push_back({r, r, 2.0 + 2.0 * eps});
      if (i > 0) t.push_back({r, id(i - 1, j), -1.0});
      if (i + 1 < nx) t.push_back({r, id(i + 1, j), -1.0});
      if (j > 0) t.push_back({r, id(i, j - 1), -eps});
      if (j + 1 < ny) t.push_back({r, id(i, j + 1), -eps});
    }
  }
  auto a = la::CsrMatrix::from_triplets(nx * ny, nx * ny, t);
  amg::BoomerAmg solver(a, {});
  std::vector<double> b(nx * ny, 1.0), x(nx * ny, 0.0);
  auto ctx = core::make_seq();
  const std::size_t iters = solver.solve(ctx, b, x, 1e-8, 100);
  EXPECT_LT(iters, 100u);
}

TEST(BoomerAmg, SolvePhaseIsSpmvDominatedOnDevice) {
  auto a = la::poisson2d(24, 24);
  amg::BoomerAmg solver(a, {});
  std::vector<double> b(a.rows(), 1.0), x(a.rows(), 0.0);
  auto gpu = core::make_device();
  gpu.set_phase("amg solve");
  solver.solve(gpu, b, x, 1e-8, 100);
  // Every V-cycle is kernels only: launches recorded, flops > 0.
  EXPECT_GT(gpu.counters().launches, 10u);
  EXPECT_GT(gpu.counters().flops, 0.0);
  EXPECT_GT(gpu.simulated_time(), 0.0);
}

}  // namespace
