#pragma once
// Replicated-data MD on the coe::mpi substrate (the decomposition ddcMD
// grew out of, and the paper's Section 4.6 baseline for small systems):
// every rank holds the full system and integrates identically; the pair
// force pass is split by neighbor-list rows, and one aggregated collective
// per step sums the partial force arrays plus the energy and virial —
// [fx | fy | fz | energy | virial] in a single (3n+2)-wide allreduce,
// instead of five rounds. With a rank-count-only reduction tree (recursive
// doubling, naive) the aggregated and separate forms reduce every element
// through the identical association, so trajectories are bitwise equal.
//
// Every piece of per-replica arithmetic lives in one MdReplica (DESIGN.md
// §15.3); replicated_md_run and survivable_md_run both host that one type
// and differ only in how the partial buffers are summed across replicas.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exec.hpp"
#include "core/machine.hpp"
#include "md/neighbor.hpp"
#include "md/particles.hpp"
#include "md/potentials.hpp"
#include "mpi/comm.hpp"
#include "net/collective.hpp"
#include "net/reprice.hpp"
#include "resil/checkpoint.hpp"

namespace coe::md {

struct ReplicatedConfig {
  std::size_t per_side = 5;   ///< particles per lattice side (n = side^3)
  double density = 0.8;
  double temperature = 1.0;
  double rcut = 2.5;
  double skin = 0.3;
  double dt = 0.002;
  int steps = 20;
  std::uint64_t seed = 2718;
  /// One (3n+2)-wide allreduce per step vs five separate rounds.
  bool aggregate = true;
  /// Reduction algorithm. Note the ring chunks by vector length, so only
  /// length-independent trees (RecursiveDoubling, Naive, Central) keep the
  /// aggregated and separate forms bitwise identical to each other.
  net::AllreduceAlgo algo = net::AllreduceAlgo::RecursiveDoubling;

  /// When set, every rank logs its collective traffic and the modeled
  /// compute deltas between reductions here (for coe::xray merging; not
  /// owned, may be null).
  net::NetLog* log = nullptr;
  /// When set alongside `log`, result.modeled carries the reprice summary
  /// of the logged traffic (not owned, may be null).
  const hsim::ClusterModel* cluster = nullptr;
};

struct ReplicatedResult {
  double potential = 0.0;    ///< final-step potential energy
  double kinetic = 0.0;
  double temperature = 0.0;
  double virial = 0.0;
  std::size_t n = 0;         ///< particle count
  mpi::TrafficStats traffic;
  net::NetStats net;         ///< summed over ranks
  std::size_t reductions_per_step = 0;
  net::RepriceResult modeled;  ///< populated when cfg.log and cfg.cluster set
};

/// One replica: the full LJ system, its lazily built neighbor list, the
/// velocity-Verlet kick and drift loops, and the (3n+2)-wide
/// [fx | fy | fz | energy | virial] reduction buffer.
class MdReplica final : public resil::Checkpointable {
 public:
  /// per_side^3 particles on a perturbed cubic lattice with zero net
  /// momentum; the same seed gives every replica the same bits.
  MdReplica(std::size_t per_side, double density, double temperature,
            double rcut, double skin, double dt, std::uint64_t seed);

  std::size_t n() const { return p_.n; }
  /// The reduction buffer: this replica's partial sums after
  /// partial_forces(), the global sums once the host has reduced it.
  std::span<double> agg() { return agg_; }

  /// Pair forces, energy and virial over neighbor-list rows [lo, hi) into
  /// agg(), (re)building the list first when it is missing or stale.
  void partial_forces(core::ExecContext& ctx, std::size_t lo, std::size_t hi);
  /// Installs the summed agg() as this replica's forces, energy and virial.
  void adopt_forces();
  void half_kick_and_drift(core::ExecContext& ctx);
  void half_kick(core::ExecContext& ctx);

  double energy() const { return energy_; }
  double virial() const { return virial_; }
  double kinetic() const { return p_.kinetic_energy(); }
  double temperature() const { return p_.temperature(); }

  /// Checkpoint blob: positions, velocities, forces, energy, virial AND the
  /// neighbor list (pairs + build-reference positions). The conditional
  /// rebuild schedule is part of the trajectory, so the list must roll back
  /// with the state it was built from.
  void save_state(std::vector<double>& out) const override;
  void restore_state(const std::vector<double>& in) override;

 private:
  double dt_;
  Particles p_;
  Box box_;
  LennardJones pot_;
  NeighborList nl_;
  bool nl_built_ = false;
  double energy_ = 0.0, virial_ = 0.0;
  std::vector<double> agg_;
};

/// Runs `ranks` replicated-data ranks for cfg.steps velocity-Verlet steps
/// (NVE, LJ fluid); returns rank 0's final thermodynamic state, which every
/// rank holds identically.
ReplicatedResult replicated_md_run(int ranks, const ReplicatedConfig& cfg);

}  // namespace coe::md
