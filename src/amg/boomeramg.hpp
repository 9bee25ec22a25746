#pragma once
// mini-hypre: a BoomerAMG-shaped algebraic multigrid solver (Section
// 4.10.1). Mirrors the structure the paper describes: a (CPU-side) setup
// phase -- strength graph, PMIS-style coarsening, direct interpolation,
// Galerkin RAP -- and a solve phase expressed entirely as SpMV + pointwise
// kernels so it runs on the Device backend. The setup internals are exposed
// as free functions for unit testing.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/exec.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/operator.hpp"

namespace coe::amg {

/// Classical strength-of-connection: keep a_ij with
/// -a_ij >= theta * max_k(-a_ik). Returns a 0/1 pattern matrix whose rows
/// keep A's column order; A's rows must have sorted, unique columns (as
/// from_triplets, multiply and transpose produce).
la::CsrMatrix strength_graph(const la::CsrMatrix& a, double theta);

enum class PointType : std::uint8_t { Fine = 0, Coarse = 1 };

/// PMIS-style coarsening on the strength graph; deterministic given `seed`.
/// Guarantees every fine point keeps at least one strong coarse neighbour
/// (isolated fine points are promoted).
std::vector<PointType> pmis_coarsen(const la::CsrMatrix& strength,
                                    std::uint64_t seed = 42);

/// Classical direct interpolation from the C/F splitting.
/// Returns P (n_fine x n_coarse); its columns are sorted when the rows of
/// `strength` are.
la::CsrMatrix direct_interpolation(const la::CsrMatrix& a,
                                   const la::CsrMatrix& strength,
                                   const std::vector<PointType>& cf);

struct AmgOptions {
  double strength_theta = 0.25;
  std::size_t max_levels = 20;
  std::size_t coarse_size = 64;   ///< direct-solve threshold
  std::size_t pre_sweeps = 1;
  std::size_t post_sweeps = 1;
  double jacobi_weight = 0.8;
};

/// One level of the hierarchy.
struct AmgLevel {
  la::CsrMatrix a;
  la::CsrMatrix p;         ///< prolongation to this level's fine points
  la::CsrMatrix r;         ///< restriction (P^T)
  std::vector<double> diag;
  std::vector<double> l1;
  // Work vectors sized for this level.
  mutable std::vector<double> x, b, tmp;
};

/// The assembled hierarchy. Setup runs on the host (the paper kept
/// BoomerAMG setup on the CPU); vcycle charges costs to the given context.
class BoomerAmg final : public la::Preconditioner {
 public:
  BoomerAmg(la::CsrMatrix a_fine, const AmgOptions& opts = {});

  std::size_t num_levels() const { return levels_.size(); }
  const AmgLevel& level(std::size_t l) const { return levels_[l]; }

  /// Total grid + operator complexity (classic AMG health metrics).
  double grid_complexity() const;
  double operator_complexity() const;

  /// One V(pre,post)-cycle applied to r, result in z (z initialized to 0).
  void apply(core::ExecContext& ctx, std::span<const double> r,
             std::span<double> z) const override;

  /// Stand-alone iteration: repeated V-cycles until ||b - Ax|| drops by
  /// rel_tol. Returns iterations used (0 if already converged).
  std::size_t solve(core::ExecContext& ctx, std::span<const double> b,
                    std::span<double> x, double rel_tol = 1e-8,
                    std::size_t max_iters = 100) const;

 private:
  void cycle(core::ExecContext& ctx, std::size_t l) const;

  AmgOptions opts_;
  std::vector<AmgLevel> levels_;
  std::unique_ptr<la::LuFactor> coarse_lu_;
};

}  // namespace coe::amg
