#pragma once
// The templatized generic pair-processing infrastructure (Section 4.6).
// Any potential exposing rcut2() and operator()(r2) -> PairEval plugs in;
// the same traversal computes forces, potential energy, and the virial
// (needed by the Berendsen barostat).

#include <span>

#include "core/exec.hpp"
#include "md/neighbor.hpp"
#include "md/particles.hpp"
#include "md/potentials.hpp"

namespace coe::md {

struct PairResult {
  double energy = 0.0;
  double virial = 0.0;  ///< sum r . f over pairs (for pressure)
};

/// Evaluates the potential over the half neighbor list, accumulating
/// forces into p.f{x,y,z}. Charged to the context as one fused kernel
/// (ddcMD's force kernel is the hot spot the paper hand-optimized).
template <typename Potential>
PairResult compute_pair_forces(core::ExecContext& ctx, Particles& p,
                               const Box& box, const NeighborList& nl,
                               const Potential& pot) {
  const double rc2 = pot.rcut2();
  const auto row = nl.row_ptr();
  const auto nbr = nl.pair_j();
  double energy = 0.0, virial = 0.0;
  // ~45 flops and ~200 bytes per neighbor-list entry (gather + scatter).
  const double npairs = static_cast<double>(row[p.n] - row[0]);
  ctx.record_kernel({45.0 * npairs, 200.0 * npairs});
  for (std::size_t i = 0; i < p.n; ++i) {
    for (std::size_t k = row[i]; k < row[i + 1]; ++k) {
      const std::size_t j = nbr[k];
      const double dx = box.wrap(p.x[i] - p.x[j]);
      const double dy = box.wrap(p.y[i] - p.y[j]);
      const double dz = box.wrap(p.z[i] - p.z[j]);
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 > rc2 || r2 == 0.0) continue;
      const PairEval e = pot(r2);
      energy += e.energy;
      virial += e.fr * r2;
      p.fx[i] += e.fr * dx;
      p.fy[i] += e.fr * dy;
      p.fz[i] += e.fr * dz;
      p.fx[j] -= e.fr * dx;
      p.fy[j] -= e.fr * dy;
      p.fz[j] -= e.fr * dz;
    }
  }
  return {energy, virial};
}

/// Harmonic bond i-j with rest length r0 and stiffness k.
struct Bond {
  std::uint32_t i, j;
  double r0;
  double k;
};

/// Harmonic angle i-j-k (j is the apex) with rest angle theta0.
struct Angle {
  std::uint32_t i, j, k;
  double theta0;
  double kth;
};

/// Bonded-force evaluation; returns the bonded potential energy.
double compute_bond_forces(core::ExecContext& ctx, Particles& p,
                           const Box& box, std::span<const Bond> bonds);
double compute_angle_forces(core::ExecContext& ctx, Particles& p,
                            const Box& box, std::span<const Angle> angles);

/// Instantaneous pressure from the virial theorem (reduced units).
double pressure(const Particles& p, const Box& box, double pair_virial);

}  // namespace coe::md
