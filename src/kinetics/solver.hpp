#pragma once
// The minikin solve path: assemble the rate matrix for each zone and solve
// for steady-state populations with a dense direct factorization (the
// cuSOLVER path of Section 4.3).
//
// Two threading modes reproduce the paper's CPU/GPU memory asymmetry:
//  * ZoneParallel (CPU): one worker per zone, each needing a full private
//    workspace; with bounded memory, cores sit idle on large models
//    ("memory constraints require idling 60% of CPU cores").
//  * TransitionParallel (GPU): all lanes cooperate on one zone at a time,
//    so only one workspace is ever live.

#include <span>
#include <vector>

#include "core/exec.hpp"
#include "kinetics/atomic.hpp"
#include "la/csr.hpp"

namespace coe::kinetics {

enum class ThreadMode { ZoneParallel, TransitionParallel };

/// Assembles the steady-state rate matrix with the closure sum(N) = 1:
/// rows are dN_i/dt = sum_j R_ij N_j with row 0 replaced by the
/// normalization. Returns a dense row-major matrix (levels x levels).
std::vector<double> assemble_rate_matrix(const AtomicModel& m, const Zone& z);

/// Steady-state populations of one zone (normalized to 1).
std::vector<double> solve_zone(const AtomicModel& m, const Zone& z);

/// Residual ||R N||_inf of the kinetic equations (excluding the
/// normalization row) -- the invariant tests check this is ~0.
double kinetics_residual(const AtomicModel& m, const Zone& z,
                         std::span<const double> populations);

struct BatchReport {
  std::size_t zones = 0;
  double flops = 0.0;
  /// Effective workers after the memory-capacity constraint.
  std::size_t active_workers = 0;
  std::size_t total_workers = 0;
  /// Modeled wall time on the context's machine.
  double modeled_time = 0.0;
};

/// Processes all zones, charging cost to the context under the given
/// threading mode. `workers` is the core/SM-lane count and `mem_bytes` the
/// memory available for workspaces.
BatchReport process_zones(core::ExecContext& ctx, const AtomicModel& m,
                          std::span<const Zone> zones, ThreadMode mode,
                          std::size_t workers,
                          double mem_bytes,
                          std::vector<std::vector<double>>* out = nullptr);

}  // namespace coe::kinetics
