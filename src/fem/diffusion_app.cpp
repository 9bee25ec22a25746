#include "fem/diffusion_app.hpp"

#include <cmath>

#include "la/vector_ops.hpp"
#include "prof/span.hpp"

namespace coe::fem {

namespace {

/// ydot = M^{-1} ( -K(u) u ), with the boundary pinned to zero.
class DiffusionRhs final : public ode::OdeRhs {
 public:
  DiffusionRhs(core::ExecContext& ctx, const TensorMesh2D& mesh,
               const DiffusionConfig& cfg, DiffusionReport& report)
      : ctx_(&ctx), cfg_(&cfg), report_(&report),
        mass_(mesh, cfg.assembly, 1.0, 0.0),
        stiff_(mesh, cfg.assembly, 0.0, 1.0),
        mass_diag_(mass_.assemble_diagonal()),
        scratch_(mesh.num_dofs()) {}

  void eval(double, const ode::NVector& y, ode::NVector& ydot) override {
    ctx_->set_phase("formulation");
    prof::Scope span(cfg_->profiler, ctx_, "formulation");
    stiff_.set_kappa_from_nodal(y.data(), cfg_->conductivity);
    stiff_.apply(*ctx_, y.data(), scratch_);
    la::scale(*ctx_, -1.0, scratch_);
    // Boundary rows: K apply returned x[b]; the boundary is static.
    const auto& bdr = stiff_.mesh().boundary_dofs();
    ctx_->forall(bdr.size(), {0.0, 16.0},
                 [&](std::size_t i) { scratch_[bdr[i]] = 0.0; });
    // Mass solve M ydot = -K u via Jacobi-preconditioned CG (the mass
    // matrix is well conditioned at any order on GLL nodes).
    DiagPrec prec{&mass_diag_};
    ydot.fill(0.0);
    auto res = la::cg(*ctx_, mass_, prec, scratch_, ydot.data(),
                      {.max_iters = 200,
                       .rel_tol = 1e-10,
                       .profiler = cfg_->profiler});
    report_->mass_cg_iterations += res.iterations;
  }

  EllipticOperator& stiffness() { return stiff_; }
  EllipticOperator& mass() { return mass_; }

 private:
  struct DiagPrec final : la::Preconditioner {
    const std::vector<double>* d;
    explicit DiagPrec(const std::vector<double>* diag) : d(diag) {}
    void apply(core::ExecContext& ctx, std::span<const double> r,
               std::span<double> z) const override {
      const auto& diag = *d;
      ctx.forall(r.size(), {1.0, 24.0},
                 [&](std::size_t i) { z[i] = r[i] / diag[i]; });
    }
  };

  core::ExecContext* ctx_;
  const DiffusionConfig* cfg_;
  DiffusionReport* report_;
  EllipticOperator mass_;
  EllipticOperator stiff_;
  std::vector<double> mass_diag_;
  std::vector<double> scratch_;
};

/// Solves (I - gamma*J) x = r with J ~ -M^{-1} K(y), i.e. the SPD system
/// (M + gamma K) x = M r, CG-preconditioned with BoomerAMG on the LOR
/// rediscretization (or Jacobi when cfg.use_amg is false).
class DiffusionNewtonSolver final : public ode::OdeLinearSolver {
 public:
  DiffusionNewtonSolver(core::ExecContext& ctx, const TensorMesh2D& mesh,
                        const DiffusionConfig& cfg, DiffusionReport& report)
      : ctx_(&ctx), cfg_(&cfg), report_(&report),
        system_(mesh, cfg.assembly, 1.0, 0.0),
        mass_(mesh, cfg.assembly, 1.0, 0.0),
        rhs_(mesh.num_dofs()) {}

  void setup(double, const ode::NVector& y, double gamma) override {
    ctx_->set_phase("preconditioner");
    prof::Scope span(cfg_->profiler, ctx_, "preconditioner");
    system_.set_alpha_beta(1.0, gamma);
    system_.set_kappa_from_nodal(y.data(), cfg_->conductivity);
    if (cfg_->use_amg) {
      auto lor = system_.assemble_lor();
      // LOR assembly priced as one sweep over the fine lattice.
      ctx_->record_kernel({static_cast<double>(lor.nnz()) * 8.0,
                           static_cast<double>(lor.nnz()) * 24.0});
      const double lor_nnz = static_cast<double>(lor.nnz());
      amg_ = std::make_unique<amg::BoomerAmg>(std::move(lor), amg::AmgOptions{});
      // AMG setup (strength graph, PMIS, interpolation, Galerkin RAP):
      // ~10 flops and ~60 bytes per fine nonzero per level, summed via the
      // operator complexity.
      const double setup_scale = amg_->operator_complexity();
      ctx_->record_kernel({10.0 * lor_nnz * setup_scale,
                           60.0 * lor_nnz * setup_scale});
      jacobi_.reset();
    } else {
      diag_ = system_.assemble_diagonal();
      jacobi_ = std::make_unique<DiagPrec>(&diag_);
      amg_.reset();
    }
  }

  void solve(const ode::NVector& r, ode::NVector& x) override {
    ctx_->set_phase("solve");
    prof::Scope span(cfg_->profiler, ctx_, "solve");
    mass_.apply(*ctx_, r.data(), rhs_);
    x.fill(0.0);
    const la::Preconditioner& prec =
        cfg_->use_amg ? static_cast<const la::Preconditioner&>(*amg_)
                      : static_cast<const la::Preconditioner&>(*jacobi_);
    auto res = la::cg(*ctx_, system_, prec, rhs_, x.data(),
                      {.max_iters = 500,
                       .rel_tol = 1e-8,
                       .profiler = cfg_->profiler});
    report_->cg_iterations += res.iterations;
    report_->cg_solves += 1;
  }

 private:
  struct DiagPrec final : la::Preconditioner {
    const std::vector<double>* d;
    explicit DiagPrec(const std::vector<double>* diag) : d(diag) {}
    void apply(core::ExecContext& ctx, std::span<const double> r,
               std::span<double> z) const override {
      const auto& diag = *d;
      ctx.forall(r.size(), {1.0, 24.0},
                 [&](std::size_t i) { z[i] = r[i] / diag[i]; });
    }
  };

  core::ExecContext* ctx_;
  const DiffusionConfig* cfg_;
  DiffusionReport* report_;
  EllipticOperator system_;
  EllipticOperator mass_;
  std::unique_ptr<amg::BoomerAmg> amg_;
  std::unique_ptr<DiagPrec> jacobi_;
  std::vector<double> diag_;
  std::vector<double> rhs_;
};

}  // namespace

NonlinearDiffusion::NonlinearDiffusion(core::ExecContext& ctx,
                                       DiffusionConfig cfg)
    : ctx_(&ctx), cfg_(cfg), mesh_(cfg.nx, cfg.nx, cfg.order),
      u_(mesh_.num_dofs(), 0.0) {
  for (std::size_t ix = 0; ix < mesh_.ndof_x(); ++ix) {
    for (std::size_t iy = 0; iy < mesh_.ndof_y(); ++iy) {
      u_[mesh_.dof(ix, iy)] =
          initial_condition(mesh_.dof_x(ix), mesh_.dof_y(iy));
    }
  }
  for (std::size_t b : mesh_.boundary_dofs()) u_[b] = 0.0;
}

double NonlinearDiffusion::initial_condition(double x, double y) {
  return std::sin(M_PI * x) * std::sin(M_PI * y);
}

DiffusionReport NonlinearDiffusion::run() {
  DiffusionReport report;
  report.dofs = mesh_.num_dofs();

  DiffusionRhs rhs(*ctx_, mesh_, cfg_, report);
  DiffusionNewtonSolver newton(*ctx_, mesh_, cfg_, report);

  ode::NVector y(*ctx_, u_.size());
  for (std::size_t i = 0; i < u_.size(); ++i) y.data()[i] = u_[i];

  ode::BdfOptions opts;
  opts.rtol = cfg_.rtol;
  opts.atol = cfg_.atol;
  opts.dt_init = cfg_.dt_init;
  opts.max_steps = cfg_.max_timesteps;
  ode::Bdf bdf(opts);
  report.ode = bdf.integrate(rhs, &newton, 0.0, cfg_.t_final, y);

  for (std::size_t i = 0; i < u_.size(); ++i) u_[i] = y.data()[i];
  return report;
}

}  // namespace coe::fem
