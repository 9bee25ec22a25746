#include "fem/elliptic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace coe::fem {

namespace {
// Stack bounds: order <= 10, quadrature = order + 2 points.
constexpr std::size_t kMaxP1 = 11;
constexpr std::size_t kMaxQ = 13;

/// Sparsity of the assembled operator along one lattice axis: line i
/// couples to the interior lines [lo[i], lo[i] + len[i]) -- those of the
/// one or two elements that hold line i, less the two boundary lines.
struct LatticeCoupling {
  std::vector<std::size_t> lo, len;
};

LatticeCoupling lattice_coupling(std::size_t nel, std::size_t p) {
  const std::size_t n = nel * p + 1;
  LatticeCoupling c{std::vector<std::size_t>(n), std::vector<std::size_t>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first_el = i == 0 ? 0 : (i - 1) / p;
    const std::size_t last_el = std::min(i / p, nel - 1);
    const std::size_t first = std::max<std::size_t>(first_el * p, 1);
    const std::size_t end = std::min((last_el + 1) * p, n - 2) + 1;
    c.lo[i] = first;
    c.len[i] = end > first ? end - first : 0;
  }
  return c;
}

/// What the partial-assembly element kernel reads besides x and y.
struct PaData {
  const TensorMesh2D* mesh;
  const double* b;     ///< Q x P1 basis values at the quadrature points
  const double* g;     ///< Q x P1 basis derivatives
  const double* bt;    ///< b transposed, P1 x Q
  const double* gt;    ///< g transposed, P1 x Q
  const double* ww;    ///< Q x Q tensor weights w[q1] w[q2]
  const double* mass;  ///< Q x Q element-independent alpha ww / 4
  const double* kappa_q;
  double beta;
};

/// One element of the sum-factorized apply, y += A_e x_e, with the 1D
/// sizes P1 = p + 1 and Q = p + 2 fixed at compile time. Each sum keeps
/// its order of terms; the two Q x Q contractions accumulate a whole row
/// of outputs at once so their inner loops vectorize.
template <std::size_t P1, std::size_t Q>
void pa_element(const PaData& d, std::size_t ex, std::size_t ey,
                std::span<const double> x, std::span<double> y) {
  const TensorMesh2D& mesh = *d.mesh;
  const double* B = d.b;
  const double* G = d.g;
  const double* kq = d.kappa_q + (ex * mesh.ny() + ey) * Q * Q;
  const double hx = mesh.elem_hx(ex);
  const double hy = mesh.elem_hy(ey);
  const std::size_t base = mesh.elem_dof(ex, ey, 0, 0);
  const std::size_t stride = mesh.ndof_y();
  const bool interior =
      ex > 0 && ey > 0 && ex + 1 < mesh.nx() && ey + 1 < mesh.ny();

  // ConstrainedOperator semantics: boundary columns are eliminated, so
  // boundary entries of x are treated as zero here and restored by the
  // identity rows afterwards. Interior elements hold no boundary dof.
  double E[P1][P1];
  for (std::size_t i = 0; i < P1; ++i) {
    for (std::size_t j = 0; j < P1; ++j) {
      const std::size_t dof = base + i * stride + j;
      E[i][j] = interior || !mesh.is_boundary(dof) ? x[dof] : 0.0;
    }
  }

  // Forward contractions: values and reference gradients at qpoints.
  double tb[Q][P1], tg[Q][P1];
  for (std::size_t q1 = 0; q1 < Q; ++q1) {
    for (std::size_t j = 0; j < P1; ++j) {
      double sb = 0.0, sg = 0.0;
      for (std::size_t i = 0; i < P1; ++i) {
        sb += B[q1 * P1 + i] * E[i][j];
        sg += G[q1 * P1 + i] * E[i][j];
      }
      tb[q1][j] = sb;
      tg[q1][j] = sg;
    }
  }
  // Second forward contraction, then the pointwise quadrature scaling.
  double Uq[Q][Q], Gx[Q][Q], Gy[Q][Q];
  for (std::size_t q1 = 0; q1 < Q; ++q1) {
    double su[Q] = {}, sx[Q] = {}, sy[Q] = {};
    for (std::size_t j = 0; j < P1; ++j) {
      const double b = tb[q1][j], g = tg[q1][j];
      for (std::size_t q2 = 0; q2 < Q; ++q2) {
        su[q2] += b * d.bt[j * Q + q2];
        sx[q2] += g * d.bt[j * Q + q2];
        sy[q2] += b * d.gt[j * Q + q2];
      }
    }
    for (std::size_t q2 = 0; q2 < Q; ++q2) {
      const std::size_t qq = q1 * Q + q2;
      const double c = d.beta * kq[qq] * d.ww[qq];
      Uq[q1][q2] = su[q2] * (d.mass[qq] * hx * hy);
      Gx[q1][q2] = sx[q2] * (c * hy / hx);
      Gy[q1][q2] = sy[q2] * (c * hx / hy);
    }
  }

  // Backward contractions: Y = B'(Uq)B + G'(Gx)B + B'(Gy)G.
  double sb1[P1][Q], sb2[P1][Q];
  for (std::size_t i = 0; i < P1; ++i) {
    double s1[Q] = {}, s2[Q] = {};
    for (std::size_t q1 = 0; q1 < Q; ++q1) {
      const double b = B[q1 * P1 + i], g = G[q1 * P1 + i];
      for (std::size_t q2 = 0; q2 < Q; ++q2) {
        s1[q2] += b * Uq[q1][q2] + g * Gx[q1][q2];
        s2[q2] += b * Gy[q1][q2];
      }
    }
    for (std::size_t q2 = 0; q2 < Q; ++q2) {
      sb1[i][q2] = s1[q2];
      sb2[i][q2] = s2[q2];
    }
  }
  for (std::size_t i = 0; i < P1; ++i) {
    for (std::size_t j = 0; j < P1; ++j) {
      double s = 0.0;
      for (std::size_t q2 = 0; q2 < Q; ++q2) {
        s += sb1[i][q2] * B[q2 * P1 + j] + sb2[i][q2] * G[q2 * P1 + j];
      }
      y[base + i * stride + j] += s;
    }
  }
}

using PaElement = void (*)(const PaData&, std::size_t, std::size_t,
                           std::span<const double>, std::span<double>);

/// pa_element for orders 1..10, indexed by order - 1.
template <std::size_t... I>
constexpr std::array<PaElement, sizeof...(I)> pa_elements(
    std::index_sequence<I...>) {
  return {&pa_element<I + 2, I + 3>...};
}
constexpr auto kPaElements =
    pa_elements(std::make_index_sequence<kMaxP1 - 1>{});

}  // namespace

EllipticOperator::EllipticOperator(const TensorMesh2D& mesh, Assembly mode,
                                   double alpha, double beta)
    : mesh_(&mesh), mode_(mode), alpha_(alpha), beta_(beta),
      el_(make_element(mesh.order())) {
  if (mesh.order() == 0 || mesh.order() + 1 > kMaxP1) {
    throw std::invalid_argument("EllipticOperator: order " +
                                std::to_string(mesh.order()) +
                                " is outside the supported 1..10");
  }
  const std::size_t q = el_.quad.points.size();
  kappa_q_.assign(mesh.num_elements() * q * q, 1.0);
  kappa_nodal_.assign(mesh.num_dofs(), 1.0);
}

void EllipticOperator::set_alpha_beta(double alpha, double beta) {
  alpha_ = alpha;
  beta_ = beta;
  full_built_ = false;
}

void EllipticOperator::set_kappa(
    const std::function<double(double, double)>& kappa) {
  const std::size_t q = el_.quad.points.size();
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const std::size_t e = ex * mesh_->ny() + ey;
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          kappa_q_[(e * q + q1) * q + q2] =
              kappa(mesh_->quad_x(ex, el_.quad.points[q1]),
                    mesh_->quad_y(ey, el_.quad.points[q2]));
        }
      }
    }
  }
  for (std::size_t ix = 0; ix < mesh_->ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < mesh_->ndof_y(); ++iy) {
      kappa_nodal_[mesh_->dof(ix, iy)] =
          kappa(mesh_->dof_x(ix), mesh_->dof_y(iy));
    }
  }
  full_built_ = false;
}

void EllipticOperator::set_kappa_from_nodal(
    std::span<const double> u, const std::function<double(double)>& k) {
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const auto& B = el_.tab;
  // Interpolate u to quadrature points per element, then apply k.
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const std::size_t e = ex * mesh_->ny() + ey;
      double tmp[kMaxQ][kMaxP1];
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t j = 0; j < p1; ++j) {
          double s = 0.0;
          for (std::size_t i = 0; i < p1; ++i) {
            s += B.b(q1, i) * u[mesh_->elem_dof(ex, ey, i, j)];
          }
          tmp[q1][j] = s;
        }
      }
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          double s = 0.0;
          for (std::size_t j = 0; j < p1; ++j) s += tmp[q1][j] * B.b(q2, j);
          kappa_q_[(e * q + q1) * q + q2] = k(s);
        }
      }
    }
  }
  for (std::size_t d = 0; d < mesh_->num_dofs(); ++d) {
    kappa_nodal_[d] = k(u[d]);
  }
  full_built_ = false;
}

void EllipticOperator::apply(core::ExecContext& ctx,
                             std::span<const double> x,
                             std::span<double> y) const {
  if (mode_ == Assembly::Partial) {
    apply_partial(ctx, x, y);
  } else {
    assembled_matrix().spmv(ctx, x, y);
  }
  // Identity rows on the Dirichlet boundary.
  const auto& bdr = mesh_->boundary_dofs();
  ctx.forall(bdr.size(), {0.0, 24.0},
             [&](std::size_t i) { y[bdr[i]] = x[bdr[i]]; });
}

void EllipticOperator::apply_partial(core::ExecContext& ctx,
                                     std::span<const double> x,
                                     std::span<double> y) const {
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const PaElement body = kPaElements[p1 - 2];
  // Transposed bases, and the element-independent factors of the
  // pointwise scaling, each rounded exactly as the per-point expressions
  // alpha * ww * 0.25 * hx * hy and beta * kappa * ww * hy / hx evaluate
  // them left to right.
  double bt[kMaxP1 * kMaxQ], gt[kMaxP1 * kMaxQ];
  for (std::size_t i = 0; i < p1; ++i) {
    for (std::size_t k = 0; k < q; ++k) {
      bt[i * q + k] = el_.tab.b(k, i);
      gt[i * q + k] = el_.tab.g(k, i);
    }
  }
  double ww[kMaxQ * kMaxQ], mass[kMaxQ * kMaxQ];
  for (std::size_t q1 = 0; q1 < q; ++q1) {
    for (std::size_t q2 = 0; q2 < q; ++q2) {
      ww[q1 * q + q2] = el_.quad.weights[q1] * el_.quad.weights[q2];
      mass[q1 * q + q2] = alpha_ * ww[q1 * q + q2] * 0.25;
    }
  }
  const PaData data{mesh_, el_.tab.eval.data(), el_.tab.deriv.data(),
                    bt,    gt,                  ww,
                    mass,  kappa_q_.data(),     beta_};

  ctx.forall(y.size(), {0.0, 8.0}, [&](std::size_t i) { y[i] = 0.0; });

  const double fpe = pa_flops_per_apply() /
                     static_cast<double>(mesh_->num_elements());
  const double bpe = pa_bytes_per_apply() /
                     static_cast<double>(mesh_->num_elements());

  // Four-color element sweep: same-color elements share no dofs, so the
  // scatter-add is race-free under the Threads backend.
  for (std::size_t color = 0; color < 4; ++color) {
    const std::size_t cx = color % 2, cy = color / 2;
    const std::size_t nex = (mesh_->nx() + 1 - cx) / 2;
    const std::size_t ney = (mesh_->ny() + 1 - cy) / 2;
    if (nex == 0 || ney == 0) continue;
    ctx.forall2(nex, ney, {fpe, bpe}, [&](std::size_t bx, std::size_t by) {
      const std::size_t ex = 2 * bx + cx;
      const std::size_t ey = 2 * by + cy;
      if (ex >= mesh_->nx() || ey >= mesh_->ny()) return;
      body(data, ex, ey, x, y);
    });
  }
}

void EllipticOperator::element_matrix(std::size_t ex, std::size_t ey,
                                      std::span<double> m) const {
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const auto& T = el_.tab;
  const auto& w = el_.quad.weights;
  const double hx = mesh_->elem_hx(ex);
  const double hy = mesh_->elem_hy(ey);
  const std::size_t e = ex * mesh_->ny() + ey;
  const std::size_t n2 = p1 * p1;
  if (m.size() < n2 * n2) {
    throw std::invalid_argument("element_matrix: buffer holds " +
                                std::to_string(m.size()) + " < " +
                                std::to_string(n2 * n2) + " entries");
  }
  std::fill(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(n2 * n2), 0.0);
  for (std::size_t q1 = 0; q1 < q; ++q1) {
    for (std::size_t q2 = 0; q2 < q; ++q2) {
      const double ww = w[q1] * w[q2];
      const double kq = kappa_q_[(e * q + q1) * q + q2];
      const double cm = alpha_ * ww * 0.25 * hx * hy;
      const double cx = beta_ * kq * ww * hy / hx;
      const double cy = beta_ * kq * ww * hx / hy;
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          const double bi = T.b(q1, i), bj = T.b(q2, j);
          const double gi = T.g(q1, i), gj = T.g(q2, j);
          double* row = m.data() + (i * p1 + j) * n2;
          for (std::size_t k = 0; k < p1; ++k) {
            for (std::size_t l = 0; l < p1; ++l) {
              const double bk = T.b(q1, k), bl = T.b(q2, l);
              const double gk = T.g(q1, k), gl = T.g(q2, l);
              row[k * p1 + l] += cm * bi * bj * bk * bl +
                                 cx * gi * bj * gk * bl +
                                 cy * bi * gj * bk * gl;
            }
          }
        }
      }
    }
  }
}

void EllipticOperator::build_full() const {
  const std::size_t p = mesh_->order();
  const std::size_t p1 = p + 1;
  const std::size_t n = mesh_->num_dofs();
  const LatticeCoupling cx = lattice_coupling(mesh_->nx(), p);
  const LatticeCoupling cy = lattice_coupling(mesh_->ny(), p);

  // Pattern first: row (ix, iy) couples to the interior lattice rectangle
  // cx x cy, whose dofs ascend in (ix, iy) order; boundary rows hold only
  // their diagonal.
  la::CsrMatrix a(n, n);
  auto& rowptr = a.rowptr_mut();
  auto& colind = a.colind_mut();
  auto& values = a.values_mut();
  for (std::size_t ix = 0; ix < mesh_->ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < mesh_->ndof_y(); ++iy) {
      const std::size_t r = mesh_->dof(ix, iy);
      rowptr[r + 1] = mesh_->is_boundary(r) ? 1 : cx.len[ix] * cy.len[iy];
    }
  }
  std::partial_sum(rowptr.begin(), rowptr.end(), rowptr.begin());
  colind.resize(rowptr[n]);
  values.assign(rowptr[n], 0.0);
  for (std::size_t ix = 0; ix < mesh_->ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < mesh_->ndof_y(); ++iy) {
      const std::size_t r = mesh_->dof(ix, iy);
      std::uint32_t* cols = colind.data() + rowptr[r];
      if (mesh_->is_boundary(r)) {
        *cols = static_cast<std::uint32_t>(r);
        values[rowptr[r]] = 1.0;
        continue;
      }
      for (std::size_t kx = 0; kx < cx.len[ix]; ++kx) {
        for (std::size_t ky = 0; ky < cy.len[iy]; ++ky) {
          *cols++ = static_cast<std::uint32_t>(
              mesh_->dof(cx.lo[ix] + kx, cy.lo[iy] + ky));
        }
      }
    }
  }

  // Then the element contributions, summed into their slots in element
  // order; boundary rows and columns are eliminated.
  std::vector<double> m(p1 * p1 * p1 * p1);
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      element_matrix(ex, ey, m);
      const double* mrow = m.data();
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j, mrow += p1 * p1) {
          const std::size_t ix = ex * p + i, iy = ey * p + j;
          const std::size_t r = mesh_->dof(ix, iy);
          if (mesh_->is_boundary(r)) continue;
          double* row = values.data() + rowptr[r];
          for (std::size_t k = 0; k < p1; ++k) {
            for (std::size_t l = 0; l < p1; ++l) {
              const std::size_t kx = ex * p + k, ky = ey * p + l;
              if (mesh_->is_boundary(mesh_->dof(kx, ky))) continue;
              row[(kx - cx.lo[ix]) * cy.len[iy] + (ky - cy.lo[iy])] +=
                  mrow[k * p1 + l];
            }
          }
        }
      }
    }
  }
  full_ = std::move(a);
  full_built_ = true;
}

const la::CsrMatrix& EllipticOperator::assembled_matrix() const {
  if (!full_built_) build_full();
  return full_;
}

la::CsrMatrix EllipticOperator::assemble_lor() const {
  // Order-1 mesh whose element boundaries are the GLL lattice lines.
  TensorMesh2D lor_mesh(mesh_->dof_xcoords(), mesh_->dof_ycoords(), 1);
  EllipticOperator lor(lor_mesh, Assembly::Full, alpha_, beta_);
  // Coefficient per LOR cell: mean of the four corner nodal values (the
  // corners are exactly the high-order dofs).
  const std::size_t q = lor.el_.quad.points.size();
  for (std::size_t ex = 0; ex < lor_mesh.nx(); ++ex) {
    for (std::size_t ey = 0; ey < lor_mesh.ny(); ++ey) {
      const double kavg = 0.25 * (kappa_nodal_[mesh_->dof(ex, ey)] +
                                  kappa_nodal_[mesh_->dof(ex + 1, ey)] +
                                  kappa_nodal_[mesh_->dof(ex, ey + 1)] +
                                  kappa_nodal_[mesh_->dof(ex + 1, ey + 1)]);
      const std::size_t e = ex * lor_mesh.ny() + ey;
      for (std::size_t qq = 0; qq < q * q; ++qq) {
        lor.kappa_q_[e * q * q + qq] = kavg;
      }
    }
  }
  return lor.assembled_matrix();
}

std::vector<double> EllipticOperator::assemble_diagonal() const {
  const std::size_t p1 = mesh_->order() + 1;
  const std::size_t q = el_.quad.points.size();
  const auto& T = el_.tab;
  const auto& w = el_.quad.weights;
  std::vector<double> d(mesh_->num_dofs(), 0.0);
  for (std::size_t ex = 0; ex < mesh_->nx(); ++ex) {
    for (std::size_t ey = 0; ey < mesh_->ny(); ++ey) {
      const double hx = mesh_->elem_hx(ex);
      const double hy = mesh_->elem_hy(ey);
      const std::size_t e = ex * mesh_->ny() + ey;
      // The diagonal of element_matrix(), term for term in the same order,
      // so it is bitwise the assembled diagonal.
      double de[kMaxP1][kMaxP1] = {};
      for (std::size_t q1 = 0; q1 < q; ++q1) {
        for (std::size_t q2 = 0; q2 < q; ++q2) {
          const double ww = w[q1] * w[q2];
          const double kq = kappa_q_[(e * q + q1) * q + q2];
          const double cm = alpha_ * ww * 0.25 * hx * hy;
          const double cx = beta_ * kq * ww * hy / hx;
          const double cy = beta_ * kq * ww * hx / hy;
          for (std::size_t i = 0; i < p1; ++i) {
            for (std::size_t j = 0; j < p1; ++j) {
              const double bi = T.b(q1, i), bj = T.b(q2, j);
              const double gi = T.g(q1, i), gj = T.g(q2, j);
              de[i][j] += cm * bi * bj * bi * bj + cx * gi * bj * gi * bj +
                          cy * bi * gj * bi * gj;
            }
          }
        }
      }
      for (std::size_t i = 0; i < p1; ++i) {
        for (std::size_t j = 0; j < p1; ++j) {
          d[mesh_->elem_dof(ex, ey, i, j)] += de[i][j];
        }
      }
    }
  }
  for (std::size_t b : mesh_->boundary_dofs()) d[b] = 1.0;
  return d;
}

double EllipticOperator::pa_flops_per_apply() const {
  const double p1 = static_cast<double>(mesh_->order() + 1);
  const double q = static_cast<double>(el_.quad.points.size());
  const double nel = static_cast<double>(mesh_->num_elements());
  // Forward: 2 fused passes (4 madds each over q*p1*p1 and q*q*p1 spaces),
  // pointwise: ~10 q^2, backward mirrors forward.
  const double per_elem = 8.0 * q * p1 * p1 + 12.0 * q * q * p1 +
                          10.0 * q * q + 8.0 * q * p1 * p1 +
                          12.0 * q * q * p1;
  return nel * per_elem;
}

double EllipticOperator::pa_bytes_per_apply() const {
  const double p1 = static_cast<double>(mesh_->order() + 1);
  const double q = static_cast<double>(el_.quad.points.size());
  const double nel = static_cast<double>(mesh_->num_elements());
  // Element dofs in+out plus quadrature coefficient data.
  return nel * (3.0 * p1 * p1 * 8.0 + q * q * 8.0);
}

double EllipticOperator::storage_bytes() const {
  if (mode_ == Assembly::Partial) {
    return static_cast<double>(kappa_q_.size()) * 8.0;
  }
  const auto& m = assembled_matrix();
  return static_cast<double>(m.nnz()) * 12.0 +
         static_cast<double>(m.rows()) * 8.0;
}

}  // namespace coe::fem
