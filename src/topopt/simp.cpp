#include "topopt/simp.hpp"

#include <algorithm>
#include <cmath>

#include "la/krylov.hpp"
#include "la/vector_ops.hpp"

namespace coe::topopt {

namespace {

constexpr double kNu = 0.3;

/// Standard bilinear-quad plane-stress element stiffness (Sigmund's
/// 99-line layout), for E = 1.
const std::array<double, 64>& ke_matrix() {
  static const std::array<double, 64> ke = [] {
    const double nu = kNu;
    const double k[8] = {
        0.5 - nu / 6.0,        0.125 + nu / 8.0,  -0.25 - nu / 12.0,
        -0.125 + 3.0 * nu / 8.0, -0.25 + nu / 12.0, -0.125 - nu / 8.0,
        nu / 6.0,              0.125 - 3.0 * nu / 8.0};
    const int idx[8][8] = {{0, 1, 2, 3, 4, 5, 6, 7}, {1, 0, 7, 6, 5, 4, 3, 2},
                           {2, 7, 0, 5, 6, 3, 4, 1}, {3, 6, 5, 0, 7, 2, 1, 4},
                           {4, 5, 6, 7, 0, 1, 2, 3}, {5, 4, 3, 2, 1, 0, 7, 6},
                           {6, 3, 4, 1, 2, 7, 0, 5}, {7, 2, 1, 4, 3, 6, 5, 0}};
    std::array<double, 64> m{};
    const double scale = 1.0 / (1.0 - nu * nu);
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        m[i * 8 + j] = scale * k[idx[i][j]];
      }
    }
    return m;
  }();
  return ke;
}

}  // namespace

const double* TopOpt::element_stiffness() { return ke_matrix().data(); }

TopOpt::TopOpt(core::ExecContext& ctx, TopOptConfig cfg)
    : ctx_(&ctx), cfg_(cfg), x_(cfg.nelx * cfg.nely, cfg.volfrac),
      u_(num_dofs(), 0.0), f_(num_dofs(), 0.0), fixed_(num_dofs(), false) {
  // Cantilever: clamp the left edge.
  for (std::size_t iy = 0; iy <= cfg_.nely; ++iy) {
    fixed_[2 * node(0, iy)] = true;
    fixed_[2 * node(0, iy) + 1] = true;
  }
  // Unit downward load at the middle of the right edge.
  f_[2 * node(cfg_.nelx, cfg_.nely / 2) + 1] = -1.0;
}

void TopOpt::element_dofs(std::size_t ex, std::size_t ey,
                          std::size_t dofs[8]) const {
  const std::size_t n1 = node(ex, ey);
  const std::size_t n2 = node(ex + 1, ey);
  dofs[0] = 2 * n1;
  dofs[1] = 2 * n1 + 1;
  dofs[2] = 2 * n2;
  dofs[3] = 2 * n2 + 1;
  dofs[4] = 2 * n2 + 2;
  dofs[5] = 2 * n2 + 3;
  dofs[6] = 2 * n1 + 2;
  dofs[7] = 2 * n1 + 3;
}

double TopOpt::bytes_per_element() const {
  // 8 dof gathers + 8 scatters (16 B each with indices) plus KE streaming;
  // the texture-cache path catches most repeated gathers on Pascal.
  const double gathers = cfg_.texture_cache ? 0.45 * 16.0 * 8.0 : 16.0 * 8.0;
  return gathers + 16.0 * 8.0 + 8.0;
}

void TopOpt::apply_stiffness(std::span<const double> u,
                             std::span<double> y) const {
  const auto& ke = ke_matrix();
  std::fill(y.begin(), y.end(), 0.0);
  ctx_->record_kernel(
      {140.0 * static_cast<double>(num_elements()),
       bytes_per_element() * static_cast<double>(num_elements())});
  std::size_t dofs[8];
  for (std::size_t ex = 0; ex < cfg_.nelx; ++ex) {
    for (std::size_t ey = 0; ey < cfg_.nely; ++ey) {
      element_dofs(ex, ey, dofs);
      const double e = young(x_[ex * cfg_.nely + ey]);
      double ue[8];
      for (int i = 0; i < 8; ++i) {
        ue[i] = fixed_[dofs[i]] ? 0.0 : u[dofs[i]];
      }
      for (int i = 0; i < 8; ++i) {
        double s = 0.0;
        for (int j = 0; j < 8; ++j) s += ke[i * 8 + j] * ue[j];
        y[dofs[i]] += e * s;
      }
    }
  }
  for (std::size_t d = 0; d < y.size(); ++d) {
    if (fixed_[d]) y[d] = u[d];
  }
}

la::CsrMatrix TopOpt::assemble() const {
  const auto& ke = ke_matrix();
  std::vector<la::Triplet> trips;
  std::size_t dofs[8];
  for (std::size_t ex = 0; ex < cfg_.nelx; ++ex) {
    for (std::size_t ey = 0; ey < cfg_.nely; ++ey) {
      element_dofs(ex, ey, dofs);
      const double e = young(x_[ex * cfg_.nely + ey]);
      for (int i = 0; i < 8; ++i) {
        if (fixed_[dofs[i]]) continue;
        for (int j = 0; j < 8; ++j) {
          if (fixed_[dofs[j]]) continue;
          trips.push_back({dofs[i], dofs[j], e * ke[i * 8 + j]});
        }
      }
    }
  }
  for (std::size_t d = 0; d < num_dofs(); ++d) {
    if (fixed_[d]) trips.push_back({d, d, 1.0});
  }
  return la::CsrMatrix::from_triplets(num_dofs(), num_dofs(),
                                      std::move(trips));
}

std::vector<double> TopOpt::stiffness_diagonal() const {
  const auto& ke = ke_matrix();
  std::vector<double> d(num_dofs(), 0.0);
  std::size_t dofs[8];
  for (std::size_t ex = 0; ex < cfg_.nelx; ++ex) {
    for (std::size_t ey = 0; ey < cfg_.nely; ++ey) {
      element_dofs(ex, ey, dofs);
      const double e = young(x_[ex * cfg_.nely + ey]);
      for (int i = 0; i < 8; ++i) d[dofs[i]] += e * ke[i * 8 + i];
    }
  }
  for (std::size_t k = 0; k < num_dofs(); ++k) {
    if (fixed_[k]) d[k] = 1.0;
  }
  return d;
}

IterationInfo TopOpt::iterate() {
  IterationInfo info;

  // FE solve K u = f, matrix-free CG with Jacobi preconditioning.
  struct MatFree final : la::Operator {
    const TopOpt* self;
    std::size_t rows() const override { return self->num_dofs(); }
    std::size_t cols() const override { return self->num_dofs(); }
    void apply(core::ExecContext&, std::span<const double> x,
               std::span<double> y) const override {
      self->apply_stiffness(x, y);
    }
  } op;
  op.self = this;
  struct DiagPrec final : la::Preconditioner {
    std::vector<double> d;
    void apply(core::ExecContext& c, std::span<const double> r,
               std::span<double> z) const override {
      const auto& dd = d;
      c.forall(r.size(), {1.0, 24.0},
               [&](std::size_t i) { z[i] = r[i] / dd[i]; });
    }
  } prec;
  prec.d = stiffness_diagonal();

  std::fill(u_.begin(), u_.end(), 0.0);
  auto res = la::cg(*ctx_, op, prec, f_, u_,
                    {.max_iters = cfg_.cg_max_iters,
                     .rel_tol = cfg_.cg_tol});
  info.cg_iters = res.iterations;

  // Compliance and sensitivities.
  const auto& ke = ke_matrix();
  const std::size_t nel = num_elements();
  std::vector<double> dc(nel, 0.0);
  std::size_t dofs[8];
  double compliance = 0.0;
  for (std::size_t ex = 0; ex < cfg_.nelx; ++ex) {
    for (std::size_t ey = 0; ey < cfg_.nely; ++ey) {
      element_dofs(ex, ey, dofs);
      double ue[8];
      for (int i = 0; i < 8; ++i) {
        ue[i] = fixed_[dofs[i]] ? 0.0 : u_[dofs[i]];
      }
      double ueku = 0.0;
      for (int i = 0; i < 8; ++i) {
        double s = 0.0;
        for (int j = 0; j < 8; ++j) s += ke[i * 8 + j] * ue[j];
        ueku += ue[i] * s;
      }
      const std::size_t e = ex * cfg_.nely + ey;
      compliance += young(x_[e]) * ueku;
      // dE/dx = penal * x^(penal-1) * (E0 - Emin).
      const double dedx = cfg_.penal * std::pow(x_[e], cfg_.penal - 1.0) *
                          (cfg_.e0 - cfg_.emin);
      dc[e] = -dedx * ueku;
    }
  }
  info.compliance = compliance;

  // Sensitivity filter (Sigmund's mesh-independence filter).
  std::vector<double> dcf(nel, 0.0);
  const auto r = static_cast<std::ptrdiff_t>(std::ceil(cfg_.rmin));
  for (std::ptrdiff_t ex = 0; ex < std::ptrdiff_t(cfg_.nelx); ++ex) {
    for (std::ptrdiff_t ey = 0; ey < std::ptrdiff_t(cfg_.nely); ++ey) {
      double num = 0.0, den = 0.0;
      for (std::ptrdiff_t ix = std::max<std::ptrdiff_t>(ex - r, 0);
           ix <= std::min<std::ptrdiff_t>(ex + r, cfg_.nelx - 1); ++ix) {
        for (std::ptrdiff_t iy = std::max<std::ptrdiff_t>(ey - r, 0);
             iy <= std::min<std::ptrdiff_t>(ey + r, cfg_.nely - 1); ++iy) {
          const double dist = std::sqrt(double((ex - ix) * (ex - ix) +
                                               (ey - iy) * (ey - iy)));
          const double w = cfg_.rmin - dist;
          if (w <= 0.0) continue;
          const std::size_t e2 = std::size_t(ix) * cfg_.nely + std::size_t(iy);
          num += w * x_[e2] * dc[e2];
          den += w;
        }
      }
      const std::size_t e = std::size_t(ex) * cfg_.nely + std::size_t(ey);
      dcf[e] = num / (den * std::max(x_[e], 1e-3));
    }
  }

  // Optimality-criteria update with bisection on the Lagrange multiplier.
  double l1 = 0.0, l2 = 1e9;
  std::vector<double> xnew(nel);
  const double target = cfg_.volfrac * static_cast<double>(nel);
  while (l2 - l1 > 1e-9 * (l1 + l2) + 1e-12) {
    const double lmid = 0.5 * (l1 + l2);
    double vol = 0.0;
    for (std::size_t e = 0; e < nel; ++e) {
      const double b = std::sqrt(std::max(-dcf[e], 0.0) / lmid);
      double xn = x_[e] * b;
      xn = std::clamp(xn, x_[e] - cfg_.move, x_[e] + cfg_.move);
      xn = std::clamp(xn, 1e-3, 1.0);
      xnew[e] = xn;
      vol += xn;
    }
    if (vol > target) {
      l1 = lmid;
    } else {
      l2 = lmid;
    }
  }
  double change = 0.0, vol = 0.0;
  for (std::size_t e = 0; e < nel; ++e) {
    change = std::max(change, std::abs(xnew[e] - x_[e]));
    x_[e] = xnew[e];
    vol += x_[e];
  }
  info.change = change;
  info.volume = vol / static_cast<double>(nel);
  return info;
}

std::vector<IterationInfo> TopOpt::run(std::size_t iters) {
  std::vector<IterationInfo> out;
  out.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) out.push_back(iterate());
  return out;
}

}  // namespace coe::topopt
