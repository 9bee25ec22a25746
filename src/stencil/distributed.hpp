#pragma once
// Distributed SW4-style wave propagation: the serial 4th-order kernel run
// over an x-slab decomposition with 2-deep halo exchange on the coe::mpi
// substrate -- the multi-node structure of the paper's 256-node Hayward
// runs, with real messages between real ranks.
//
// The communication preparation knobs reproduce the paper's scaling work:
// `aggregate_halos` coalesces the two halo planes per direction into one
// message (halving the per-step message count on this 1-D decomposition),
// and `overlap` computes the interior points — which read no ghost data —
// between posting and completing the exchange. Both paths are bit-identical
// in the field they produce; only the modeled communication cost moves,
// which net::reprice quantifies when a ClusterModel is attached.
//
// Every piece of per-rank arithmetic lives in one WaveSlab (DESIGN.md
// §17.2); distributed_wave_run and survivable_wave_run both host that one
// type and differ only in how the halo planes travel between slabs.

#include <array>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/machine.hpp"
#include "mpi/comm.hpp"
#include "net/net.hpp"
#include "obs/trace.hpp"
#include "resil/checkpoint.hpp"
#include "stencil/wave.hpp"

namespace coe::stencil {

struct DistributedWaveConfig {
  std::size_t nx = 32;   ///< global interior points per axis (x divisible
  std::size_t ny = 32;   ///  by the rank count)
  std::size_t nz = 32;
  double length = 1.0;
  double c = 1.0;
  int steps = 20;
  double dt_factor = 0.5;  ///< fraction of the CFL-stable dt

  /// One coalesced message per neighbor per step (both halo planes packed)
  /// instead of one message per plane.
  bool aggregate_halos = true;
  /// Update ghost-independent interior points between halo begin/finish.
  bool overlap = true;
  /// Node model pricing each rank's compute (and the pack/unpack kernels).
  hsim::MachineModel node = hsim::machines::host();
  /// When set, the run's traffic is logged and replayed through
  /// net::reprice against this interconnect (not owned; may be null).
  const hsim::ClusterModel* cluster = nullptr;
  /// When set alongside `cluster`, the raw per-rank traffic log is also
  /// appended here so coe::xray can merge the run offline (the `modeled`
  /// summary alone cannot be merged; not owned, may be null).
  net::NetLog* log = nullptr;

  /// Deliberate compute skew for straggler-hunt experiments: rank
  /// `skew_rank` (when >= 0) models `skew_factor`x the cost per point.
  /// Only the priced workload changes — the arithmetic and the produced
  /// field stay bit-identical to the unskewed run.
  int skew_rank = -1;
  double skew_factor = 1.0;

  /// Collect one rank-stamped obs::TraceBuffer per rank
  /// (result.rank_traces) with "stencil"/"halo" phases, for xray merging.
  bool trace_ranks = false;
};

struct DistributedWaveResult {
  std::vector<double> field;  ///< global interior field, x-major
  mpi::TrafficStats traffic;
  double dt = 0.0;
  net::HaloStats halo;         ///< summed over ranks
  net::RepriceResult modeled;  ///< populated when cfg.cluster is set
  /// Per-rank kernel traces (cfg.trace_ranks): entry r is rank r's buffer,
  /// rank-stamped for the merged Chrome export.
  std::vector<obs::TraceBuffer> rank_traces;
};

/// One x-slab: the ghosted leapfrog state and all of its arithmetic -- the
/// initial fill, the zero-Dirichlet wall fills, the Laplacian, the Taylor
/// backstep and leapfrog updates, the gather and the checkpoint blob.
class WaveSlab final : public resil::Checkpointable {
 public:
  /// Slab `part` of `parts` equal x-slabs of an nx*ny*nz interior grid on
  /// [0, length]^3 (wave speed c, dt = dt_factor * the CFL-stable step),
  /// with u0 sampled on its interior. `skew` scales only the priced work
  /// per point, never the arithmetic.
  WaveSlab(std::size_t nx, std::size_t ny, std::size_t nz, double length,
           double c, double dt_factor, int parts, int part,
           const std::function<double(double, double, double)>& u0,
           double skew = 1.0);

  double dt() const { return dt_; }
  bool first() const { return first_; }
  bool last() const { return last_; }
  /// Owned x-planes: [2, lnx() + 2) of the ghosted array.
  std::size_t lnx() const { return lnx_; }
  /// Doubles per x-plane (ghosted y*z).
  std::size_t plane() const { return plane_; }
  /// The ghosted current field, as the halo exchange sends and fills it.
  std::vector<double>& u() { return u_; }

  /// Offsets into u() of the two owned planes sent to the right (or left)
  /// neighbor, and of the two ghost planes that neighbor's planes fill;
  /// entry i of one pairs with entry i of the other.
  std::array<std::size_t, 2> send_offsets(bool right) const {
    return right ? std::array{lnx_ * plane_, (lnx_ + 1) * plane_}
                 : std::array{2 * plane_, 3 * plane_};
  }
  std::array<std::size_t, 2> ghost_offsets(bool right) const {
    return right ? std::array{(lnx_ + 2) * plane_, (lnx_ + 3) * plane_}
                 : std::array{std::size_t{0}, plane_};
  }

  /// Odd-reflection ghosts on the y and z walls (every slab has them).
  void fill_yz_walls();
  /// Odd-reflection ghosts on the global x walls (first and last slab).
  void fill_x_walls();

  /// The point update a sweep applies: the step-0 Taylor backstep into
  /// u_prev (v0 = 0), or the leapfrog into u_next (rotate() once every
  /// owned plane is updated).
  enum class Update { Taylor, Leapfrog };
  void rotate() {
    std::swap(up_, u_);
    std::swap(u_, un_);
  }

  /// Runs `update` over x-planes [a0, a1) and charges the node model once.
  /// Every point performs the same arithmetic whichever sweep it lands in,
  /// so splitting the owned planes cannot change a bit.
  void sweep(core::ExecContext& ctx, std::size_t a0, std::size_t a1,
             Update update);

  /// Copies the owned planes into the global x-major interior field.
  void gather(std::vector<double>& field) const;

  /// Checkpoint blob: (u, u_prev). u_next is scratch -- every entry a
  /// step reads is written first.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  // Per-point cost of the fused Laplacian + leapfrog update, matching the
  // serial WaveSolver pricing (5-point MACs per axis + time update; 13
  // stencil loads, u_prev load, u_next store).
  static constexpr double kFlopsPerPoint = 38.0;
  static constexpr double kBytesPerPoint = 120.0;

  std::size_t idx(std::size_t a, std::size_t j, std::size_t k) const {
    return (a * my_ + j) * mz_ + k;
  }

  std::size_t ny_, nz_, lnx_, my_, mz_, plane_, x0_;
  bool first_, last_;
  double skew_, dt_, cdt2_, ih2_;
  std::vector<double> u_, up_, un_;
};

/// Runs `ranks` threads, each owning an x-slab with zero-Dirichlet global
/// walls (odd-reflection ghosts) and neighbor halos exchanged every step.
/// The initial condition is a function of physical position.
DistributedWaveResult distributed_wave_run(
    int ranks, const DistributedWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0);

}  // namespace coe::stencil
