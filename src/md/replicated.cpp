#include "md/replicated.hpp"

#include <algorithm>
#include <mutex>

#include "core/exec.hpp"
#include "core/rng.hpp"
#include "md/forces.hpp"

namespace coe::md {

MdReplica::MdReplica(std::size_t per_side, double density, double temperature,
                     double rcut, double skin, double dt, std::uint64_t seed)
    : dt_(dt), pot_(1.0, 1.0, rcut), nl_(rcut, skin) {
  core::Rng rng(seed);
  init_lattice(p_, box_, per_side, density, temperature, rng);
  p_.zero_momentum();
  agg_.assign(3 * p_.n + 2, 0.0);
}

void MdReplica::partial_forces(core::ExecContext& ctx, std::size_t lo,
                               std::size_t hi) {
  // Positions are replica-identical, so every replica rebuilds (or not)
  // in lockstep and the row slices stay consistent.
  if (!nl_built_ || nl_.needs_rebuild(p_, box_)) {
    nl_.build(ctx, p_, box_);
    nl_built_ = true;
  }
  const std::size_t n = p_.n;
  p_.zero_forces();
  const PairResult pr = compute_pair_forces(ctx, p_, box_, nl_, pot_, lo, hi);
  std::copy(p_.fx.begin(), p_.fx.end(), agg_.begin());
  std::copy(p_.fy.begin(), p_.fy.end(), agg_.begin() + n);
  std::copy(p_.fz.begin(), p_.fz.end(), agg_.begin() + 2 * n);
  agg_[3 * n] = pr.energy;
  agg_[3 * n + 1] = pr.virial;
}

void MdReplica::adopt_forces() {
  const std::size_t n = p_.n;
  std::copy(agg_.begin(), agg_.begin() + n, p_.fx.begin());
  std::copy(agg_.begin() + n, agg_.begin() + 2 * n, p_.fy.begin());
  std::copy(agg_.begin() + 2 * n, agg_.begin() + 3 * n, p_.fz.begin());
  energy_ = agg_[3 * n];
  virial_ = agg_[3 * n + 1];
}

void MdReplica::half_kick_and_drift(core::ExecContext& ctx) {
  const std::size_t n = p_.n;
  ctx.record_kernel({9.0 * double(n), 96.0 * double(n)});
  for (std::size_t i = 0; i < n; ++i) {
    p_.half_kick(i, dt_);
    p_.drift(i, dt_, box_);
  }
}

void MdReplica::half_kick(core::ExecContext& ctx) {
  const std::size_t n = p_.n;
  ctx.record_kernel({6.0 * double(n), 96.0 * double(n)});
  for (std::size_t i = 0; i < n; ++i) p_.half_kick(i, dt_);
}

void MdReplica::save_state(std::vector<double>& out) const {
  out.clear();
  for (const auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz, &p_.fx,
                        &p_.fy, &p_.fz}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  out.push_back(energy_);
  out.push_back(virial_);
  nl_.save_state(out);
}

void MdReplica::restore_state(const std::vector<double>& in) {
  const double* at = in.data();
  for (auto* v : {&p_.x, &p_.y, &p_.z, &p_.vx, &p_.vy, &p_.vz, &p_.fx,
                  &p_.fy, &p_.fz}) {
    std::copy(at, at + p_.n, v->begin());
    at += p_.n;
  }
  energy_ = *at++;
  virial_ = *at++;
  nl_.load_state(at);
  nl_built_ = true;
}

ReplicatedResult replicated_md_run(int ranks, const ReplicatedConfig& cfg) {
  ReplicatedResult result;
  result.reductions_per_step = cfg.aggregate ? 1 : 5;
  std::mutex mtx;

  result.traffic = mpi::run(ranks, [&](mpi::Communicator& comm) {
    core::ExecContext ctx;
    MdReplica rep(cfg.per_side, cfg.density, cfg.temperature, cfg.rcut,
                  cfg.skin, cfg.dt, cfg.seed);
    const std::size_t n = rep.n();
    const auto nr = static_cast<std::size_t>(ranks);
    const auto r = static_cast<std::size_t>(comm.rank());
    const std::size_t lo = n * r / nr;
    const std::size_t hi = n * (r + 1) / nr;

    net::NetStats stats;
    net::RankLogger logger(cfg.log, comm.rank());
    double logged_sim = 0.0;
    // Flush the ctx simulated-time delta accrued since the last comm
    // action into the log, so the replay sees compute between reductions.
    auto log_compute = [&] {
      const double s = ctx.simulated_time();
      logger.compute(s - logged_sim);
      logged_sim = s;
    };

    // Partial forces over this rank's row slice, then the global sum:
    // either one (3n+2)-wide collective carrying forces + energy + virial,
    // or the five-round separate form over the same buffer.
    auto forces = [&] {
      rep.partial_forces(ctx, lo, hi);
      log_compute();
      const std::span<double> agg = rep.agg();
      if (cfg.aggregate) {
        net::allreduce_sum(comm, agg, cfg.algo, &stats, logger);
      } else {
        for (std::size_t c = 0; c < 3; ++c) {
          net::allreduce_sum(comm, agg.subspan(c * n, n), cfg.algo, &stats,
                             logger);
        }
        for (std::size_t c = 3 * n; c < 3 * n + 2; ++c) {
          agg[c] = net::allreduce_sum(comm, agg[c], cfg.algo, &stats, logger);
        }
      }
      rep.adopt_forces();
    };

    forces();
    for (int s = 0; s < cfg.steps; ++s) {
      rep.half_kick_and_drift(ctx);
      forces();
      rep.half_kick(ctx);
    }

    log_compute();  // tail: the final half-kick after the last reduction

    std::lock_guard<std::mutex> lk(mtx);
    result.net.messages += stats.messages;
    result.net.bytes += stats.bytes;
    result.net.reductions += stats.reductions;
    if (comm.rank() == 0) {
      result.n = n;
      result.potential = rep.energy();
      result.virial = rep.virial();
      result.kinetic = rep.kinetic();
      result.temperature = rep.temperature();
    }
  });
  if (cfg.log != nullptr && cfg.cluster != nullptr) {
    result.modeled = net::reprice(*cfg.log, *cfg.cluster, ranks);
  }
  return result;
}

}  // namespace coe::md
