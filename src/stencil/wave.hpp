#pragma once
// sw4lite: the seismic-wave proxy kernel (Section 4.9). Solves the scalar
// wave equation u_tt = c^2 lap(u) + f on a 3D grid with a 4th-order
// spatial stencil and 2nd-order leapfrog in time. The optimization knobs
// mirror the sw4lite GPU work:
//
//  * tiled            -- shared-memory/cache-blocked stencil: same numerics,
//                        far less main-memory traffic ("improved ... almost
//                        2X using fast on-chip shared memory").
//  * fused            -- merge the Laplacian and time-update kernels
//                        ("merging small GPU kernels into larger ones").
//  * forcing_on_device - compute the source term on the device instead of
//                        computing it on the host and copying it over
//                        ("offloading the forcing computation ... 2X").

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/view.hpp"
#include "core/machine.hpp"
#include "resil/checkpoint.hpp"

namespace coe::prof {
class Profiler;
}

namespace coe::stencil {

struct WaveOptions {
  bool tiled = false;
  bool fused = true;
  bool forcing_on_device = true;
  /// Models the RAJA-vs-CUDA abstraction penalty the SW4 team measured
  /// ("approximately 30%"): same numerics, 1.3x modeled kernel cost.
  bool raja_abstraction = false;
  /// Issue the per-step work onto simulated streams: the host-forcing
  /// upload rides stream 1 and hides under the stencil, and the shake-map
  /// kernel rides stream 2 so it overlaps the next step's stencil instead
  /// of extending the critical path. Accounting-only — the numerics and
  /// their order are untouched, so fields are bitwise identical.
  bool use_streams = false;
  /// Optional span sink: when set, each step() wraps its stages in
  /// "wave_step" / "forcing_upload" / "stencil" / "forcing" / "shake"
  /// prof::Scope regions.
  prof::Profiler* profiler = nullptr;
};

/// A Ricker-like point source at a grid location.
struct PointSource {
  std::size_t i = 0, j = 0, k = 0;
  double amplitude = 1.0;
  double freq = 1.0;
  double t0 = 1.0;

  double value(double t) const;
};

class WaveSolver : public resil::Checkpointable {
 public:
  /// Interior grid n^3 on [0, L]^3, zero Dirichlet boundary, wave speed c.
  WaveSolver(core::ExecContext& ctx, std::size_t nx, std::size_t ny,
             std::size_t nz, double length, double c,
             WaveOptions opts = WaveOptions{});

  std::size_t nx() const { return nx_; }
  double h() const { return h_; }
  /// CFL-stable timestep (with safety factor).
  double stable_dt() const;

  /// Sets u(x, 0) and u_t(x, 0) from functions of position.
  void set_initial(const std::function<double(double, double, double)>& u0,
                   const std::function<double(double, double, double)>& v0,
                   double dt);

  /// Heterogeneous material: wave speed as a function of position (the
  /// paper's follow-on work, "model slower wave speeds"). Overrides the
  /// constant speed; stable_dt() then uses the maximum speed.
  void set_wave_speed(
      const std::function<double(double, double, double)>& c);
  bool heterogeneous() const { return !c2_field_.empty(); }

  void add_source(PointSource src) { sources_.push_back(src); }

  /// Advances one timestep of size dt.
  void step(double dt);

  double time() const { return t_; }
  std::size_t steps_taken() const { return steps_; }

  /// Current field value at interior grid point (i, j, k), 0-based.
  double at(std::size_t i, std::size_t j, std::size_t k) const;
  /// Max |u| over the grid.
  double max_abs() const;
  /// Priced ||u||^2 + ||u_prev||^2 over the ghosted arrays — the energy
  /// proxy coe::guard's drift/bound detectors monitor (a flipped exponent
  /// bit anywhere in the leapfrog state moves it violently; legitimate
  /// per-step evolution moves it smoothly).
  double field_norm2();
  /// Named views of the live leapfrog state (u, u_prev) for SDC targeting
  /// and checksum scrubbing. u_next/lap are per-step scratch — corruption
  /// there dies at the next step, so they are not exposed.
  std::vector<std::pair<std::string, std::span<double>>> sdc_targets();
  /// Surface slice |u| maxima over time -- the "shake map" (Figure 7).
  std::span<const double> shake_map() const { return shake_; }

  /// Model data: bytes touched per grid point for the current options.
  double bytes_per_point() const;
  double flops_per_point() const;

  /// Checkpointable: the leapfrog state (u, u_prev), the shake map, and
  /// the clock. Sources and material fields are configuration, not state.
  /// step() refreshes u's ghost shell after the buffer rotation, so the
  /// saved blob is Markov — restore + replay is bitwise reproducible even
  /// though the scratch buffer is not captured.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  std::size_t idx(std::size_t i, std::size_t j, std::size_t k) const {
    return (i * (ny_ + 4) + j) * (nz_ + 4) + k;
  }
  void fill_ghosts();
  void apply_laplacian_and_update(double dt);
  /// `skip_transfer` when the streamed step() already issued the upload.
  void apply_forcing(double dt, bool skip_transfer = false);

  core::ExecContext* ctx_;
  std::size_t nx_, ny_, nz_;
  double h_, c_;
  WaveOptions opts_;
  // Ghosted arrays (2-deep ghosts for the 4th-order stencil).
  std::vector<double> u_, u_prev_, u_next_, lap_;
  std::vector<double> c2_field_;  ///< per-point c^2 (heterogeneous media)
  double c_max_;                  ///< for the CFL bound
  std::vector<double> shake_;
  std::vector<PointSource> sources_;
  double t_ = 0.0;
  std::size_t steps_ = 0;
};

/// The 4th-order Laplacian at ghosted index `id` of `u` (x stride si,
/// y stride sj, unit z stride, ih2 = 1/h^2): the one stencil that the
/// serial solver and the distributed slabs both apply.
inline double lap4(const double* u, std::size_t id, std::size_t si,
                   std::size_t sj, double ih2) {
  constexpr double c0 = -30.0 / 12.0, c1 = 16.0 / 12.0, c2 = -1.0 / 12.0;
  const double lx = c2 * (u[id - 2 * si] + u[id + 2 * si]) +
                    c1 * (u[id - si] + u[id + si]) + c0 * u[id];
  const double ly = c2 * (u[id - 2 * sj] + u[id + 2 * sj]) +
                    c1 * (u[id - sj] + u[id + sj]) + c0 * u[id];
  const double lz = c2 * (u[id - 2] + u[id + 2]) +
                    c1 * (u[id - 1] + u[id + 1]) + c0 * u[id];
  return (lx + ly + lz) * ih2;
}

/// Alpha-beta model of one halo exchange for an n^3 block with 2-deep
/// ghosts (six faces, nonblocking pairs).
double halo_exchange_time(const hsim::ClusterModel& net, std::size_t n);

}  // namespace coe::stencil
