#include "amg/boomeramg.hpp"

#include <cassert>
#include <cmath>

#include "core/rng.hpp"
#include "la/smoothers.hpp"
#include "la/vector_ops.hpp"

namespace coe::amg {

la::CsrMatrix strength_graph(const la::CsrMatrix& a, double theta) {
  const auto rowptr = a.rowptr();
  const auto colind = a.colind();
  const auto values = a.values();
  // Rows are visited in order and keep A's column order, so S is written
  // as CSR directly.
  la::CsrMatrix s(a.rows(), a.cols());
  auto& srow = s.rowptr_mut();
  auto& scol = s.colind_mut();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    srow[i] = scol.size();
    double max_off = 0.0;
    for (std::size_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      if (colind[k] != i && -values[k] > max_off) max_off = -values[k];
    }
    if (max_off <= 0.0) continue;
    for (std::size_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      if (colind[k] != i && -values[k] >= theta * max_off) {
        scol.push_back(colind[k]);
      }
    }
  }
  srow[a.rows()] = scol.size();
  s.values_mut().assign(scol.size(), 1.0);
  return s;
}

std::vector<PointType> pmis_coarsen(const la::CsrMatrix& s,
                                    std::uint64_t seed) {
  const std::size_t n = s.rows();
  // Measure: number of points strongly influenced by i (column count of S),
  // plus a deterministic random tiebreak in (0, 1).
  const auto st = s.transpose();
  const auto sr = s.rowptr(), tr = st.rowptr();
  const auto sc = s.colind(), tc = st.colind();
  std::vector<double> measure(n);
  core::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    measure[i] = static_cast<double>(tr[i + 1] - tr[i]) + rng.uniform();
  }

  enum : std::uint8_t { kUndecided = 0, kC = 1, kF = 2 };
  std::vector<std::uint8_t> state(n, kUndecided);
  // Points with no strong connections at all become F immediately (they
  // smooth perfectly) unless they also influence nothing.
  for (std::size_t i = 0; i < n; ++i) {
    const bool no_out = sr[i + 1] == sr[i];
    const bool no_in = tr[i + 1] == tr[i];
    if (no_out && no_in) state[i] = kF;
  }

  // The PMIS neighbourhood of i is S(i) followed by S^T(i), walked in
  // place; visit(j) returns false to stop the walk.
  auto walk_neighbours = [&](std::size_t i, auto&& visit) {
    for (std::size_t k = sr[i]; k < sr[i + 1]; ++k) {
      if (!visit(sc[k])) return;
    }
    for (std::size_t k = tr[i]; k < tr[i + 1]; ++k) {
      if (!visit(tc[k])) return;
    }
  };

  bool changed = true;
  std::vector<std::size_t> new_c;
  while (changed) {
    changed = false;
    // Select local maxima among undecided points as C.
    new_c.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i] != kUndecided) continue;
      bool is_max = true;
      walk_neighbours(i, [&](std::size_t j) {
        is_max = !(state[j] == kUndecided && measure[j] > measure[i]);
        return is_max;
      });
      if (is_max) new_c.push_back(i);
    }
    for (std::size_t i : new_c) {
      state[i] = kC;
      changed = true;
      walk_neighbours(i, [&](std::size_t j) {
        if (state[j] == kUndecided) state[j] = kF;
        return true;
      });
    }
  }

  // Fixup: every F point must keep a strong C neighbour for interpolation.
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != kF) continue;
    if (sr[i + 1] == sr[i]) continue;  // truly isolated row
    bool has_c = false;
    for (std::size_t k = sr[i]; k < sr[i + 1]; ++k) {
      if (state[sc[k]] == kC) {
        has_c = true;
        break;
      }
    }
    if (!has_c) state[i] = kC;
  }

  std::vector<PointType> cf(n, PointType::Fine);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kC) cf[i] = PointType::Coarse;
  }
  return cf;
}

la::CsrMatrix direct_interpolation(const la::CsrMatrix& a,
                                   const la::CsrMatrix& s,
                                   const std::vector<PointType>& cf) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> coarse_index(n, 0);
  std::size_t nc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cf[i] == PointType::Coarse) coarse_index[i] = nc++;
  }

  // Rows are visited in order and coarse_index is increasing, so P is
  // written as CSR directly with sorted columns.
  la::CsrMatrix p(n, nc);
  auto& prow = p.rowptr_mut();
  auto& pcol = p.colind_mut();
  auto& pval = p.values_mut();
  const auto ar = a.rowptr();
  const auto ac = a.colind();
  const auto av = a.values();
  const auto sr = s.rowptr();
  const auto sc = s.colind();
  for (std::size_t i = 0; i < n; ++i) {
    prow[i] = pcol.size();
    if (cf[i] == PointType::Coarse) {
      pcol.push_back(static_cast<std::uint32_t>(coarse_index[i]));
      pval.push_back(1.0);
      continue;
    }
    // Collect the strong coarse set C_i.
    double sum_all_off = 0.0;
    double diag = 0.0;
    for (std::size_t k = ar[i]; k < ar[i + 1]; ++k) {
      if (ac[k] == i) {
        diag = av[k];
      } else {
        sum_all_off += av[k];
      }
    }
    double sum_strong_c = 0.0;
    for (std::size_t k = sr[i]; k < sr[i + 1]; ++k) {
      const std::size_t j = sc[k];
      if (cf[j] != PointType::Coarse) continue;
      // Find a_ij.
      for (std::size_t l = ar[i]; l < ar[i + 1]; ++l) {
        if (ac[l] == j) {
          sum_strong_c += av[l];
          break;
        }
      }
    }
    if (sum_strong_c == 0.0 || diag == 0.0) continue;  // isolated fine point
    const double alpha = sum_all_off / sum_strong_c;
    for (std::size_t k = sr[i]; k < sr[i + 1]; ++k) {
      const std::size_t j = sc[k];
      if (cf[j] != PointType::Coarse) continue;
      for (std::size_t l = ar[i]; l < ar[i + 1]; ++l) {
        if (ac[l] == j) {
          pcol.push_back(static_cast<std::uint32_t>(coarse_index[j]));
          pval.push_back(-alpha * av[l] / diag);
          break;
        }
      }
    }
  }
  prow[n] = pcol.size();
  return p;
}

BoomerAmg::BoomerAmg(la::CsrMatrix a_fine, const AmgOptions& opts)
    : opts_(opts) {
  la::CsrMatrix a = std::move(a_fine);
  for (std::size_t l = 0; l < opts_.max_levels; ++l) {
    AmgLevel level;
    level.a = std::move(a);
    level.diag = level.a.diagonal();
    level.l1 = level.a.l1_row_sums();
    const std::size_t n = level.a.rows();
    level.x.assign(n, 0.0);
    level.b.assign(n, 0.0);
    level.tmp.assign(n, 0.0);

    if (n <= opts_.coarse_size || l + 1 == opts_.max_levels) {
      levels_.push_back(std::move(level));
      break;
    }
    auto s = strength_graph(level.a, opts_.strength_theta);
    auto cf = pmis_coarsen(s);
    std::size_t nc = 0;
    for (auto t : cf) nc += (t == PointType::Coarse);
    if (nc == 0 || nc == n) {  // coarsening stalled
      levels_.push_back(std::move(level));
      break;
    }
    level.p = direct_interpolation(level.a, s, cf);
    level.r = level.p.transpose();
    a = level.r.multiply(level.a).multiply(level.p);  // Galerkin RAP
    levels_.push_back(std::move(level));
  }

  // Dense factorization of the coarsest operator.
  const auto& ac = levels_.back().a;
  la::DenseMatrix dense(ac.rows(), ac.cols());
  for (std::size_t i = 0; i < ac.rows(); ++i) {
    for (std::size_t k = ac.rowptr()[i]; k < ac.rowptr()[i + 1]; ++k) {
      dense(i, ac.colind()[k]) = ac.values()[k];
    }
  }
  coarse_lu_ = std::make_unique<la::LuFactor>(dense);
}

double BoomerAmg::grid_complexity() const {
  double fine = static_cast<double>(levels_[0].a.rows());
  double total = 0.0;
  for (const auto& l : levels_) total += static_cast<double>(l.a.rows());
  return total / fine;
}

double BoomerAmg::operator_complexity() const {
  double fine = static_cast<double>(levels_[0].a.nnz());
  double total = 0.0;
  for (const auto& l : levels_) total += static_cast<double>(l.a.nnz());
  return total / fine;
}

void BoomerAmg::cycle(core::ExecContext& ctx, std::size_t l) const {
  const AmgLevel& lev = levels_[l];
  const std::size_t n = lev.a.rows();
  if (l + 1 == levels_.size()) {
    // Coarse solve: copy b, LU solve. Charged as one dense solve kernel.
    for (std::size_t i = 0; i < n; ++i) lev.x[i] = lev.b[i];
    ctx.record_kernel({coarse_lu_->solve_flops(),
                       static_cast<double>(n * n) * 8.0});
    coarse_lu_->solve(lev.x);
    return;
  }

  la::fill(ctx, lev.x, 0.0);
  for (std::size_t s = 0; s < opts_.pre_sweeps; ++s) {
    la::jacobi_sweep(ctx, lev.a, lev.diag, opts_.jacobi_weight, lev.b, lev.x,
                     lev.tmp);
  }
  // Residual r = b - A x.
  lev.a.spmv(ctx, lev.x, lev.tmp);
  ctx.forall(n, {1.0, 24.0},
             [&](std::size_t i) { lev.tmp[i] = lev.b[i] - lev.tmp[i]; });
  // Restrict to the next level's b.
  const AmgLevel& next = levels_[l + 1];
  lev.r.spmv(ctx, lev.tmp, next.b);
  cycle(ctx, l + 1);
  // Prolongate and correct: x += P * x_coarse.
  lev.p.spmv(ctx, next.x, lev.tmp);
  la::axpy(ctx, 1.0, lev.tmp, lev.x);
  for (std::size_t s = 0; s < opts_.post_sweeps; ++s) {
    la::jacobi_sweep(ctx, lev.a, lev.diag, opts_.jacobi_weight, lev.b, lev.x,
                     lev.tmp);
  }
}

void BoomerAmg::apply(core::ExecContext& ctx, std::span<const double> r,
                      std::span<double> z) const {
  const AmgLevel& top = levels_[0];
  assert(r.size() == top.a.rows());
  for (std::size_t i = 0; i < r.size(); ++i) top.b[i] = r[i];
  cycle(ctx, 0);
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = top.x[i];
}

std::size_t BoomerAmg::solve(core::ExecContext& ctx,
                             std::span<const double> b, std::span<double> x,
                             double rel_tol, std::size_t max_iters) const {
  const auto& a = levels_[0].a;
  const std::size_t n = a.rows();
  std::vector<double> r(n), z(n);
  a.spmv(ctx, x, r);
  la::axpby(ctx, 1.0, b, -1.0, r, r);
  const double r0 = la::norm2(ctx, r);
  if (r0 == 0.0) return 0;
  for (std::size_t it = 1; it <= max_iters; ++it) {
    apply(ctx, r, z);
    la::axpy(ctx, 1.0, z, x);
    a.spmv(ctx, x, r);
    la::axpby(ctx, 1.0, b, -1.0, r, r);
    if (la::norm2(ctx, r) <= rel_tol * r0) return it;
  }
  return max_iters;
}

}  // namespace coe::amg
