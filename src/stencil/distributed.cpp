#include "stencil/distributed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>

#include "core/exec.hpp"

namespace coe::stencil {

WaveSlab::WaveSlab(std::size_t nx, std::size_t ny, std::size_t nz,
                   double length, double c, double dt_factor, int parts,
                   int part,
                   const std::function<double(double, double, double)>& u0,
                   double skew)
    : ny_(ny),
      nz_(nz),
      lnx_(nx / static_cast<std::size_t>(parts)),
      my_(ny + 4),
      mz_(nz + 4),
      plane_(my_ * mz_),
      x0_(static_cast<std::size_t>(part) * lnx_),
      first_(part == 0),
      last_(part + 1 == parts),
      skew_(skew) {
  const double h = length / static_cast<double>(nx + 1);
  dt_ = dt_factor * 0.5 * h / (c * std::sqrt(3.0) * 1.16);
  cdt2_ = c * c * dt_ * dt_;
  ih2_ = 1.0 / (h * h);
  u_.assign((lnx_ + 4) * plane_, 0.0);
  up_.assign(u_.size(), 0.0);
  un_.assign(u_.size(), 0.0);
  for (std::size_t a = 2; a < lnx_ + 2; ++a) {
    const double x = h * static_cast<double>(x0_ + (a - 2) + 1);
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        u_[idx(a, j + 2, k + 2)] = u0(x, h * double(j + 1), h * double(k + 1));
      }
    }
  }
}

void WaveSlab::fill_yz_walls() {
  for (std::size_t a = 0; a < lnx_ + 4; ++a) {
    for (std::size_t k = 0; k < mz_; ++k) {
      u_[idx(a, 1, k)] = 0.0;
      u_[idx(a, 0, k)] = -u_[idx(a, 2, k)];
      u_[idx(a, my_ - 2, k)] = 0.0;
      u_[idx(a, my_ - 1, k)] = -u_[idx(a, my_ - 3, k)];
    }
    for (std::size_t j = 0; j < my_; ++j) {
      u_[idx(a, j, 1)] = 0.0;
      u_[idx(a, j, 0)] = -u_[idx(a, j, 2)];
      u_[idx(a, j, mz_ - 2)] = 0.0;
      u_[idx(a, j, mz_ - 1)] = -u_[idx(a, j, mz_ - 3)];
    }
  }
}

void WaveSlab::fill_x_walls() {
  if (first_) {
    for (std::size_t p = 0; p < plane_; ++p) {
      u_[1 * plane_ + p] = 0.0;
      u_[0 * plane_ + p] = -u_[2 * plane_ + p];
    }
  }
  if (last_) {
    for (std::size_t p = 0; p < plane_; ++p) {
      u_[(lnx_ + 2) * plane_ + p] = 0.0;
      u_[(lnx_ + 3) * plane_ + p] = -u_[(lnx_ + 1) * plane_ + p];
    }
  }
}

namespace {

/// x-planes [a0, a1) of a slab with y-rows of `ny` interior points at
/// stride mz and planes at stride `plane`, two ghosts deep. `out` is the
/// array the update writes (u_prev for Taylor, u_next for Leapfrog); `u`
/// and `prev` are only read. The row loop holds no branch and touches
/// only the three restrict pointers, so it vectorizes wherever it is
/// called from.
template <WaveSlab::Update kUpdate>
void sweep_planes(const double* __restrict u, const double* __restrict prev,
                  double* __restrict out, std::size_t a0, std::size_t a1,
                  std::size_t ny, std::size_t nz, std::size_t my,
                  std::size_t mz, std::size_t plane, double ih2,
                  double cdt2) {
  for (std::size_t a = a0; a < a1; ++a) {
    for (std::size_t j = 2; j < ny + 2; ++j) {
      const std::size_t row = (a * my + j) * mz;
      for (std::size_t k = 2; k < nz + 2; ++k) {
        const std::size_t id = row + k;
        if constexpr (kUpdate == WaveSlab::Update::Taylor) {
          out[id] = u[id] + 0.5 * cdt2 * lap4(u, id, plane, mz, ih2);
        } else {
          out[id] =
              2.0 * u[id] - prev[id] + cdt2 * lap4(u, id, plane, mz, ih2);
        }
      }
    }
  }
}

}  // namespace

void WaveSlab::sweep(core::ExecContext& ctx, std::size_t a0, std::size_t a1,
                     Update update) {
  if (a0 >= a1) return;
  if (update == Update::Taylor) {
    sweep_planes<Update::Taylor>(u_.data(), nullptr, up_.data(), a0, a1, ny_,
                                 nz_, my_, mz_, plane_, ih2_, cdt2_);
  } else {
    sweep_planes<Update::Leapfrog>(u_.data(), up_.data(), un_.data(), a0, a1,
                                   ny_, nz_, my_, mz_, plane_, ih2_, cdt2_);
  }
  const auto n = static_cast<double>((a1 - a0) * ny_ * nz_);
  ctx.record_kernel({kFlopsPerPoint * n * skew_, kBytesPerPoint * n * skew_});
}

void WaveSlab::gather(std::vector<double>& field) const {
  for (std::size_t a = 2; a < lnx_ + 2; ++a) {
    const std::size_t gi = x0_ + (a - 2);
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t k = 0; k < nz_; ++k) {
        field[(gi * ny_ + j) * nz_ + k] = u_[idx(a, j + 2, k + 2)];
      }
    }
  }
}

void WaveSlab::save_state(std::vector<double>& out) const {
  out.assign(u_.begin(), u_.end());
  out.insert(out.end(), up_.begin(), up_.end());
}

void WaveSlab::restore_state(const std::vector<double>& in) {
  const auto m = static_cast<long>(u_.size());
  std::copy(in.begin(), in.begin() + m, u_.begin());
  std::copy(in.begin() + m, in.end(), up_.begin());
}

DistributedWaveResult distributed_wave_run(
    int ranks, const DistributedWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0) {
  assert(cfg.nx % static_cast<std::size_t>(ranks) == 0);
  DistributedWaveResult result;
  result.field.assign(cfg.nx * cfg.ny * cfg.nz, 0.0);

  net::NetLog local_log;
  net::NetLog& netlog = cfg.log ? *cfg.log : local_log;
  std::mutex stats_mtx;
  if (cfg.trace_ranks) {
    result.rank_traces.resize(static_cast<std::size_t>(ranks));
  }

  result.traffic = mpi::run(ranks, [&](mpi::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    // Modeled-cost skew only: every rank still executes identical
    // arithmetic, so the field cannot change.
    WaveSlab slab(cfg.nx, cfg.ny, cfg.nz, cfg.length, cfg.c, cfg.dt_factor,
                  ranks, comm.rank(), u0,
                  comm.rank() == cfg.skew_rank ? cfg.skew_factor : 1.0);
    const std::size_t lnx = slab.lnx(), plane = slab.plane();

    core::ExecContext ctx(core::Backend::Seq, cfg.node);
    if (cfg.trace_ranks) {
      result.rank_traces[r].set_rank(comm.rank());
      ctx.set_trace(&result.rank_traces[r]);
      ctx.set_phase("stencil");
    }
    net::RankLogger logger((cfg.cluster || cfg.log) ? &netlog : nullptr,
                           comm.rank());
    double logged_sim = 0.0;
    auto log_compute = [&] {
      const double s = ctx.simulated_time();
      logger.compute(s - logged_sim);
      logged_sim = s;
    };

    // Halo plan: the two ghost-deep planes per direction, either one
    // neighbor carrying both faces (aggregated: 1 message per direction)
    // or one single-face neighbor per plane (the legacy 2 messages, with
    // the legacy tags).
    net::HaloPlan halo(&ctx);
    halo.set_logger(logger);
    for (const bool right : {false, true}) {
      if (right ? slab.last() : slab.first()) continue;
      const int peer = comm.rank() + (right ? 1 : -1);
      const auto send = slab.send_offsets(right);
      const auto ghost = slab.ghost_offsets(right);
      if (cfg.aggregate_halos) {
        const int nb = right ? halo.add_neighbor(peer, 31, 30)
                             : halo.add_neighbor(peer, 30, 31);
        for (int i = 0; i < 2; ++i) halo.add_send(nb, send[i], plane);
        for (int i = 0; i < 2; ++i) halo.add_recv(nb, ghost[i], plane);
      } else {
        for (int i = 0; i < 2; ++i) {
          const int nb = right ? halo.add_neighbor(peer, 22 + i, 20 + i)
                               : halo.add_neighbor(peer, 20 + i, 22 + i);
          halo.add_send(nb, send[i], plane);
          halo.add_recv(nb, ghost[i], plane);
        }
      }
    }

    // One exchange + update phase. Interior planes [4, lnx) read only
    // locally-owned data (their a +/- 2 neighbors are non-ghost), so with
    // overlap enabled they run between begin() and finish(); the four
    // ghost-adjacent boundary planes run after the halos land.
    const std::size_t int_lo = 4;
    const std::size_t int_hi = std::max<std::size_t>(4, lnx);
    auto comm_step = [&](WaveSlab::Update update) {
      slab.fill_yz_walls();
      log_compute();
      if (cfg.trace_ranks) ctx.set_phase("halo");
      halo.begin(comm, slab.u());
      if (cfg.trace_ranks) ctx.set_phase("stencil");
      if (cfg.overlap) slab.sweep(ctx, int_lo, int_hi, update);
      log_compute();
      if (cfg.trace_ranks) ctx.set_phase("halo");
      halo.finish(comm, slab.u());
      if (cfg.trace_ranks) ctx.set_phase("stencil");
      slab.fill_x_walls();
      if (cfg.overlap) {
        slab.sweep(ctx, 2, std::min<std::size_t>(4, lnx + 2), update);
        slab.sweep(ctx, int_hi, lnx + 2, update);
      } else {
        slab.sweep(ctx, 2, lnx + 2, update);
      }
      log_compute();
    };

    comm_step(WaveSlab::Update::Taylor);
    for (int s = 0; s < cfg.steps; ++s) {
      comm_step(WaveSlab::Update::Leapfrog);
      slab.rotate();
    }

    // Gather into the shared global field (disjoint slabs: no race).
    slab.gather(result.field);

    std::lock_guard<std::mutex> lk(stats_mtx);
    result.dt = slab.dt();
    result.halo.exchanges += halo.stats().exchanges;
    result.halo.messages += halo.stats().messages;
    result.halo.bytes += halo.stats().bytes;
  });

  if (cfg.cluster != nullptr) {
    result.modeled = net::reprice(netlog, *cfg.cluster, ranks);
  }
  return result;
}

}  // namespace coe::stencil
