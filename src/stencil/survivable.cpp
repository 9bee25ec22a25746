#include "stencil/survivable.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/exec.hpp"
#include "stencil/distributed.hpp"

namespace coe::stencil {

namespace {

constexpr int kChanRight = phoenix::RankContext::kChanApp;     // p -> p+1
constexpr int kChanLeft = phoenix::RankContext::kChanApp + 1;  // p -> p-1

WaveSlab& slab(phoenix::RankContext& rc, int p) {
  return static_cast<WaveSlab&>(rc.part(p));
}

/// Both planes toward one neighbor, aggregated into one message.
std::vector<double> pack(WaveSlab& w, bool right) {
  std::vector<double> v;
  v.reserve(2 * w.plane());
  for (const std::size_t off : w.send_offsets(right)) {
    const double* plane = w.u().data() + off;
    v.insert(v.end(), plane, plane + w.plane());
  }
  return v;
}

void unpack(WaveSlab& w, bool right, const std::vector<double>& v) {
  const auto ghost = w.ghost_offsets(right);
  for (std::size_t i = 0; i < 2; ++i) {
    std::copy_n(v.data() + i * w.plane(), w.plane(), w.u().data() + ghost[i]);
  }
}

}  // namespace

SurvivableWaveResult survivable_wave_run(
    const SurvivableWaveConfig& cfg,
    const std::function<double(double, double, double)>& u0) {
  if (cfg.workers < 1 ||
      cfg.nx % static_cast<std::size_t>(cfg.workers) != 0) {
    throw std::invalid_argument(
        "survivable_wave_run: nx must divide by workers");
  }
  SurvivableWaveResult result;
  result.field.assign(cfg.nx * cfg.ny * cfg.nz, 0.0);
  std::mutex field_mtx;

  phoenix::SurvivableHooks hooks;
  hooks.make = [&cfg, &u0](phoenix::RankContext&, int part) {
    return std::make_unique<WaveSlab>(cfg.nx, cfg.ny, cfg.nz, cfg.length,
                                      cfg.c, cfg.dt_factor, cfg.workers,
                                      part, u0);
  };
  hooks.step = [&cfg](phoenix::RankContext& rc, int step) {
    core::ExecContext& ctx = rc.ctx();
    if (cfg.trace_ranks) ctx.set_phase("stencil");
    for (int p : rc.owned()) slab(rc, p).fill_yz_walls();
    rc.log_compute();
    if (cfg.trace_ranks) ctx.set_phase("halo");
    // All sends posted (eager) before any receive blocks: deadlock-free
    // under any part->rank mapping, including a shrunken world where one
    // rank owns both ends of an exchange (those short-circuit locally).
    for (int p : rc.owned()) {
      WaveSlab& w = slab(rc, p);
      if (!w.first()) rc.part_send(p, p - 1, kChanLeft, pack(w, false));
      if (!w.last()) rc.part_send(p, p + 1, kChanRight, pack(w, true));
    }
    for (int p : rc.owned()) {
      WaveSlab& w = slab(rc, p);
      if (!w.first()) unpack(w, false, rc.part_recv(p - 1, p, kChanRight));
      if (!w.last()) unpack(w, true, rc.part_recv(p + 1, p, kChanLeft));
    }
    if (cfg.trace_ranks) ctx.set_phase("stencil");
    for (int p : rc.owned()) {
      WaveSlab& w = slab(rc, p);
      w.fill_x_walls();
      if (step == 0) {
        w.sweep(ctx, 2, w.lnx() + 2, WaveSlab::Update::Taylor);
      } else {
        w.sweep(ctx, 2, w.lnx() + 2, WaveSlab::Update::Leapfrog);
        w.rotate();
      }
    }
    rc.log_compute();
  };
  hooks.finish = [&result, &field_mtx](phoenix::RankContext& rc) {
    std::lock_guard<std::mutex> lk(field_mtx);
    for (int p : rc.owned()) {
      slab(rc, p).gather(result.field);
      result.dt = slab(rc, p).dt();
    }
  };

  // Driver step 0 is the Taylor backstep.
  result.report = phoenix::run_survivable(
      phoenix::survivable_config(cfg, cfg.steps + 1), hooks);
  if (cfg.cluster != nullptr && cfg.log != nullptr) {
    result.modeled = net::reprice(*cfg.log, *cfg.cluster, cfg.workers);
  }
  return result;
}

}  // namespace coe::stencil
