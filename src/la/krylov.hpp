#pragma once
// Krylov solvers (the hypre Krylov-layer substitute): preconditioned CG for
// SPD systems.

#include <cstddef>
#include <span>

#include "la/csr.hpp"
#include "la/operator.hpp"

namespace coe::prof {
class Profiler;
}

namespace coe::la {

struct SolveOptions {
  std::size_t max_iters = 1000;
  double rel_tol = 1e-8;
  double abs_tol = 0.0;
  /// CG only: fuse the iteration's vector kernels (both axpy updates plus
  /// the residual reduction into one launch; the elementwise-preconditioner
  /// apply plus the r.z reduction into another), so the five BLAS-1
  /// launches per iteration become two. Pure launch-structure/pricing
  /// change — the arithmetic per element is unchanged, so results are
  /// bitwise identical to the unfused path on deterministic backends.
  bool fused = false;
  /// Optional span sink (appended last: positional initializers predate
  /// it). When set, cg() wraps the solve in a "cg" prof::Scope with
  /// "spmv" / "precond" / "blas1" children, so profiled benches get a
  /// per-stage predicted-vs-measured skew for the solver.
  prof::Profiler* profiler = nullptr;
  /// CG only: ABFT residual guard. Every `abft_every` iterations (0:
  /// never) the true residual b - A x is recomputed and compared against
  /// the recursion's residual norm; a relative mismatch beyond `abft_tol`
  /// counts as a trip, and the recursion restarts from the recomputed
  /// residual — self-healing against silent corruption of the Krylov
  /// vectors (the iterate itself is healed only insofar as CG re-converges;
  /// bitwise recovery needs the guard/resil rollback path). The extra
  /// SpMV + reductions are priced like any other work, so the detection
  /// tax is visible in simulated time.
  std::size_t abft_every = 0;
  double abft_tol = 1e-6;
};

struct SolveResult {
  bool converged = false;
  std::size_t iterations = 0;
  double final_residual = 0.0;
  double initial_residual = 0.0;
  std::size_t abft_checks = 0;  ///< true-residual recomputations performed
  std::size_t abft_trips = 0;   ///< checks that forced a recursion restart
};

/// Preconditioned conjugate gradients. `x` holds the initial guess on entry
/// and the solution on exit.
SolveResult cg(core::ExecContext& ctx, const Operator& a,
               const Preconditioner& m, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts = {});

/// Adapts a CsrMatrix to the Operator interface.
class CsrOperator final : public Operator {
 public:
  explicit CsrOperator(const CsrMatrix& a) : a_(&a) {}
  std::size_t rows() const override { return a_->rows(); }
  std::size_t cols() const override { return a_->cols(); }
  double footprint_bytes() const override { return a_->footprint_bytes(); }
  void apply(core::ExecContext& ctx, std::span<const double> x,
             std::span<double> y) const override {
    a_->spmv(ctx, x, y);
  }

 private:
  const CsrMatrix* a_;
};

/// Jacobi (diagonal) preconditioner.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a) : diag_(a.diagonal()) {}
  void apply(core::ExecContext& ctx, std::span<const double> r,
             std::span<double> z) const override {
    const auto& d = diag_;
    ctx.forall(r.size(), {1.0, 24.0},
               [&](std::size_t i) { z[i] = r[i] / d[i]; });
  }
  std::span<const double> diag() const override { return diag_; }

 private:
  std::vector<double> diag_;
};

}  // namespace coe::la
