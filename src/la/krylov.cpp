#include "la/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/vector_ops.hpp"
#include "prof/span.hpp"

namespace coe::la {

namespace {

bool done(const SolveOptions& opts, double rnorm, double r0) {
  return rnorm <= opts.abs_tol || rnorm <= opts.rel_tol * r0;
}

}  // namespace

SolveResult cg(core::ExecContext& ctx, const Operator& a,
               const Preconditioner& m, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = a.rows();
  std::vector<double> r(n), z(n), p(n), ap(n);

  // Declare the solver's working set to the residency arena (no-op when none
  // is attached). The matrix and vectors are re-touched every iteration, so
  // under capacity pressure the arena prices the refault traffic an
  // oversubscribed GPU would see.
  const double vb = static_cast<double>(n) * 8.0;
  const auto touch_operands = [&] {
    ctx.touch_device("cg.A", a.footprint_bytes(), core::MemAccess::Read);
    ctx.touch_device("cg.b", vb, core::MemAccess::Read);
    ctx.touch_device("cg.x", vb, core::MemAccess::Write);
    ctx.touch_device("cg.r", vb, core::MemAccess::Write);
    ctx.touch_device("cg.z", vb, core::MemAccess::Write);
    ctx.touch_device("cg.p", vb, core::MemAccess::Write);
    ctx.touch_device("cg.ap", vb, core::MemAccess::Write);
  };

  prof::Scope solve_span(opts.profiler, &ctx, "cg");
  touch_operands();
  {
    prof::Scope s(opts.profiler, &ctx, "spmv");
    a.apply(ctx, x, ap);
  }
  {
    prof::Scope s(opts.profiler, &ctx, "blas1");
    axpby(ctx, 1.0, b, -1.0, ap, r);
  }
  {
    prof::Scope s(opts.profiler, &ctx, "precond");
    m.apply(ctx, r, z);
  }
  copy(ctx, z, p);

  SolveResult res;
  double rz = dot(ctx, r, z);
  const double rr0 = dot(ctx, r, r);
  const double r0 = std::sqrt(rr0);
  res.initial_residual = r0;
  res.final_residual = r0;
  if (done(opts, r0, r0) || r0 == 0.0) {
    res.converged = true;
    return res;
  }

  // Fused iterations need an elementwise preconditioner to fold the apply
  // into the r.z kernel; anything else falls back to apply() + dot.
  const std::span<const double> md = m.diag();

  for (std::size_t it = 1; it <= opts.max_iters; ++it) {
    touch_operands();
    {
      prof::Scope s(opts.profiler, &ctx, "spmv");
      a.apply(ctx, p, ap);
    }
    double pap, alpha, rr = 0.0;
    {
      prof::Scope s(opts.profiler, &ctx, "blas1");
      pap = dot(ctx, p, ap);
      if (pap == 0.0) break;
      alpha = rz / pap;
      if (opts.fused) {
        // x += alpha p, r -= alpha ap, and the r.r reduction share one
        // launch; r's store+reload between the update and the reduction
        // stays in registers (one 8-byte elision per element).
        rr = ctx.fused(n)
                 .then({2.0, 24.0},
                       [&](std::size_t i) { x[i] += alpha * p[i]; })
                 .then({2.0, 24.0},
                       [&](std::size_t i) { r[i] -= alpha * ap[i]; })
                 .elide(8.0)
                 .reduce_sum({2.0, 16.0},
                             [&](std::size_t i) { return r[i] * r[i]; });
      } else {
        axpy(ctx, alpha, p, x);
        axpy(ctx, -alpha, ap, r);
        rr = dot(ctx, r, r);
      }
    }
    double rnorm = std::sqrt(rr);
    bool restart = false;
    if (opts.abft_every > 0 && it % opts.abft_every == 0) {
      // ABFT residual guard: the recursion's rnorm must track the true
      // residual. z is free here (fully rewritten by the precond stage).
      prof::Scope s(opts.profiler, &ctx, "abft");
      a.apply(ctx, x, ap);
      axpby(ctx, 1.0, b, -1.0, ap, z);
      const double tnorm = std::sqrt(dot(ctx, z, z));
      ++res.abft_checks;
      const double mismatch = std::abs(tnorm - rnorm);
      if (!(mismatch <= opts.abft_tol * std::max(tnorm, rnorm))) {
        // Adopt the recomputed residual and drop the (possibly corrupt)
        // search direction; beta = 0 below restarts the recursion.
        ++res.abft_trips;
        copy(ctx, z, r);
        rnorm = tnorm;
        restart = true;
      }
    }
    res.iterations = it;
    res.final_residual = rnorm;
    if (done(opts, rnorm, r0)) {
      res.converged = true;
      return res;
    }
    double rz_new = 0.0;
    {
      prof::Scope s(opts.profiler, &ctx, "precond");
      if (opts.fused && !md.empty()) {
        rz_new = ctx.fused(n)
                     .then({1.0, 24.0},
                           [&](std::size_t i) { z[i] = r[i] / md[i]; })
                     .elide(8.0)
                     .reduce_sum({2.0, 16.0},
                                 [&](std::size_t i) { return r[i] * z[i]; });
      } else {
        m.apply(ctx, r, z);
        rz_new = dot(ctx, r, z);
      }
    }
    const double beta = restart ? 0.0 : rz_new / rz;
    rz = rz_new;
    {
      prof::Scope s(opts.profiler, &ctx, "blas1");
      xpby(ctx, z, beta, p);
    }
  }
  return res;
}

}  // namespace coe::la
