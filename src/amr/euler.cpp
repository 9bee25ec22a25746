#include "amr/euler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace coe::amr {

const char* EulerSolver::kRho = "rho";
const char* EulerSolver::kMx = "mx";
const char* EulerSolver::kMy = "my";
const char* EulerSolver::kE = "E";

namespace {

struct Cons {
  double rho, mx, my, e;
};

Cons to_cons(const PrimState& s, double gamma) {
  const double e =
      s.p / (gamma - 1.0) + 0.5 * s.rho * (s.u * s.u + s.v * s.v);
  return {s.rho, s.rho * s.u, s.rho * s.v, e};
}

PrimState to_prim(const Cons& c, double gamma) {
  PrimState s;
  s.rho = c.rho;
  s.u = c.mx / c.rho;
  s.v = c.my / c.rho;
  s.p = (gamma - 1.0) * (c.e - 0.5 * c.rho * (s.u * s.u + s.v * s.v));
  return s;
}

double sound_speed(const PrimState& s, double gamma) {
  return std::sqrt(gamma * std::max(s.p, 1e-12) / s.rho);
}

std::array<double, 4> flux_x(const Cons& c, const PrimState& s) {
  return {c.mx, c.mx * s.u + s.p, c.my * s.u, (c.e + s.p) * s.u};
}

std::array<double, 4> flux_y(const Cons& c, const PrimState& s) {
  return {c.my, c.mx * s.v, c.my * s.v + s.p, (c.e + s.p) * s.v};
}

/// A cell's half of every LLF face flux it takes part in: its conserved
/// state, its physical flux along x (axis 0) and y (axis 1), and its wave
/// speed bound along each axis.
struct HalfState {
  std::array<double, 4> u;
  std::array<double, 4> f[2];
  double a[2];
};

HalfState half_state(const Cons& c, double gamma) {
  const PrimState s = to_prim(c, gamma);
  const double cs = sound_speed(s, gamma);
  return {{c.rho, c.mx, c.my, c.e},
          {flux_x(c, s), flux_y(c, s)},
          {std::abs(s.u) + cs, std::abs(s.v) + cs}};
}

/// LLF numerical flux across the face between cells l and r along `axis`.
std::array<double, 4> llf(const HalfState& l, const HalfState& r, int axis) {
  const double a = std::max(l.a[axis], r.a[axis]);
  std::array<double, 4> f;
  for (int k = 0; k < 4; ++k) {
    f[k] = 0.5 * (l.f[axis][k] + r.f[axis][k]) - 0.5 * a * (r.u[k] - l.u[k]);
  }
  return f;
}

/// A patch's rho, mx, my and E fields (or their "_new" twins).
std::array<PatchField*, 4> cons_fields(Patch& patch,
                                       const std::string& suffix = "") {
  return {&patch.field(EulerSolver::kRho + suffix),
          &patch.field(EulerSolver::kMx + suffix),
          &patch.field(EulerSolver::kMy + suffix),
          &patch.field(EulerSolver::kE + suffix)};
}

/// Sum of a field over every patch interior, in patch, row, column order.
double interior_sum(const PatchLevel& level, const char* field) {
  double sum = 0.0;
  for (std::size_t p = 0; p < level.num_patches(); ++p) {
    const Patch& patch = level.patch(p);
    const Box& b = patch.box();
    const PatchField& f = patch.field(field);
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      const double* r = f.row(i);
      for (std::int64_t jj = 0; jj < b.nj(); ++jj) sum += r[jj];
    }
  }
  return sum;
}

}  // namespace

EulerSolver::EulerSolver(core::ExecContext& ctx, PatchLevel& level,
                         EulerConfig cfg)
    : ctx_(&ctx), level_(&level), cfg_(cfg) {
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    for (const char* f : {kRho, kMx, kMy, kE}) {
      patch.add_field(f);
      patch.add_field(std::string(f) + "_new");
    }
  }
}

void EulerSolver::init(
    const std::function<PrimState(std::int64_t, std::int64_t)>& f) {
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const Box& b = patch.box();
    const auto q = cons_fields(patch);
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      double* rho = q[0]->row(i);
      double* mx = q[1]->row(i);
      double* my = q[2]->row(i);
      double* en = q[3]->row(i);
      for (std::int64_t jj = 0; jj < b.nj(); ++jj) {
        const Cons c = to_cons(f(i, b.jlo + jj), cfg_.gamma);
        rho[jj] = c.rho;
        mx[jj] = c.mx;
        my[jj] = c.my;
        en[jj] = c.e;
      }
    }
  }
  t_ = 0.0;
}

double EulerSolver::compute_dt() const {
  // Each patch reads its own interior: the level's value at every cell,
  // since add_patch keeps the patches disjoint.
  double max_speed = 1e-12;
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const Box& b = patch.box();
    const auto q = cons_fields(patch);
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      const double* rho = q[0]->row(i);
      const double* mx = q[1]->row(i);
      const double* my = q[2]->row(i);
      const double* en = q[3]->row(i);
      for (std::int64_t jj = 0; jj < b.nj(); ++jj) {
        const PrimState s =
            to_prim(Cons{rho[jj], mx[jj], my[jj], en[jj]}, cfg_.gamma);
        const double c = sound_speed(s, cfg_.gamma);
        max_speed = std::max(max_speed,
                             std::max(std::abs(s.u), std::abs(s.v)) + c);
      }
    }
  }
  return cfg_.cfl * std::min(cfg_.dx, cfg_.dy) / max_speed;
}

void EulerSolver::step(double dt) {
  for (const char* f : {kRho, kMx, kMy, kE}) level_->fill_ghosts(f);

  const double gamma = cfg_.gamma;
  const double dtdx = dt / cfg_.dx;
  const double dtdy = dt / cfg_.dy;
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const Box& b = patch.box();
    const std::int64_t nj = b.nj();
    const auto q = cons_fields(patch);
    const auto q_new = cons_fields(patch, "_new");

    // Half-states of rows i-1, i and i+1, each row over j = jlo-1 .. jhi+1
    // (element jj + 1 holds column jlo + jj). Every cell's half-state is
    // computed once per step and shared by the faces it touches.
    std::vector<HalfState> rows(3 * static_cast<std::size_t>(nj + 2));
    HalfState* below = rows.data() + 1;
    HalfState* mid = below + (nj + 2);
    HalfState* above = mid + (nj + 2);
    auto load_row = [&](std::int64_t i, HalfState* h) {
      const double* rho = q[0]->row(i);
      const double* mx = q[1]->row(i);
      const double* my = q[2]->row(i);
      const double* en = q[3]->row(i);
      // Interior rows also need their two side ghosts; the ghost rows
      // i = ilo-1 and ihi+1 only feed x faces.
      const bool interior = i >= b.ilo && i <= b.ihi;
      const std::int64_t jj_lo = interior ? -1 : 0;
      const std::int64_t jj_hi = interior ? nj : nj - 1;
      for (std::int64_t jj = jj_lo; jj <= jj_hi; ++jj) {
        h[jj] = half_state(Cons{rho[jj], mx[jj], my[jj], en[jj]}, gamma);
      }
    };

    // ~220 flops and ~320 bytes per cell (4 fields, 2 flux pairs).
    ctx_->record_kernel({220.0 * double(b.size()), 320.0 * double(b.size())});

    load_row(b.ilo - 1, below);
    load_row(b.ilo, mid);
    for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
      load_row(i + 1, above);
      double* out[4] = {q_new[0]->row(i), q_new[1]->row(i), q_new[2]->row(i),
                        q_new[3]->row(i)};
      for (std::int64_t jj = 0; jj < nj; ++jj) {
        const HalfState& c = mid[jj];
        const auto fxl = llf(below[jj], c, 0);
        const auto fxr = llf(c, above[jj], 0);
        const auto fyl = llf(mid[jj - 1], c, 1);
        const auto fyr = llf(c, mid[jj + 1], 1);
        for (int k = 0; k < 4; ++k) {
          out[k][jj] = c.u[k] - dtdx * (fxr[k] - fxl[k]) -
                       dtdy * (fyr[k] - fyl[k]);
        }
      }
      HalfState* const done = below;
      below = mid;
      mid = above;
      above = done;
    }
  }
  // Commit by copying interior rows. The ghosts stay put until the next
  // fill_ghosts.
  for (std::size_t p = 0; p < level_->num_patches(); ++p) {
    auto& patch = level_->patch(p);
    const Box& b = patch.box();
    const auto q = cons_fields(patch);
    const auto q_new = cons_fields(patch, "_new");
    for (int k = 0; k < 4; ++k) {
      for (std::int64_t i = b.ilo; i <= b.ihi; ++i) {
        const double* src = q_new[k]->row(i);
        std::copy(src, src + b.nj(), q[k]->row(i));
      }
    }
  }
  t_ += dt;
}

std::size_t EulerSolver::advance(double t_end) {
  std::size_t steps = 0;
  while (t_ < t_end) {
    double dt = compute_dt();
    if (t_ + dt > t_end) dt = t_end - t_;
    step(dt);
    ++steps;
  }
  return steps;
}

double EulerSolver::total_mass() const {
  return interior_sum(*level_, kRho) * cfg_.dx * cfg_.dy;
}

double EulerSolver::total_energy() const {
  return interior_sum(*level_, kE) * cfg_.dx * cfg_.dy;
}

double EulerSolver::total_momentum_x() const {
  return interior_sum(*level_, kMx) * cfg_.dx * cfg_.dy;
}

PrimState EulerSolver::primitive_at(std::int64_t i, std::int64_t j) const {
  const Cons c{level_->value_at(kRho, i, j), level_->value_at(kMx, i, j),
               level_->value_at(kMy, i, j), level_->value_at(kE, i, j)};
  return to_prim(c, cfg_.gamma);
}

PrimState sod_state(std::int64_t i, std::int64_t i_mid) {
  if (i < i_mid) return {1.0, 0.0, 0.0, 1.0};
  return {0.125, 0.0, 0.0, 0.1};
}

}  // namespace coe::amr
