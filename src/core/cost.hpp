#pragma once
// Operation counting and time prediction. Kernels annotate their work with a
// Workload (per-iteration flops/bytes); a CostModel turns accumulated counts
// into predicted seconds on a MachineModel.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/machine.hpp"
#include "obs/trace.hpp"

namespace coe::hsim {

/// Per-iteration work annotation for a kernel. Totals are obtained by
/// multiplying by the iteration count at launch time.
struct Workload {
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
};

/// Total work of one kernel launch.
struct KernelCost {
  double flops = 0.0;
  double bytes = 0.0;

  KernelCost& operator+=(const KernelCost& o) {
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
};

inline KernelCost total(const Workload& w, std::size_t iters) {
  const auto n = static_cast<double>(iters);
  return {w.flops_per_iter * n, w.bytes_per_iter * n};
}

/// Running totals of everything an execution context did. These are the
/// quantities our NVProf-substitute reports (cf. Figure 6, which plots
/// global load/store counts next to time).
struct Counters {
  double flops = 0.0;
  double bytes = 0.0;
  std::uint64_t launches = 0;
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  std::uint64_t transfers = 0;

  void reset() { *this = Counters{}; }

  Counters& operator+=(const Counters& o) {
    flops += o.flops;
    bytes += o.bytes;
    launches += o.launches;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    transfers += o.transfers;
    return *this;
  }
};

/// Converts counts into predicted seconds on one machine.
class CostModel {
 public:
  explicit CostModel(MachineModel m) : machine_(std::move(m)) {}

  const MachineModel& machine() const { return machine_; }

  /// Roofline kernel time: launch overhead + max(compute, memory) time.
  double kernel_time(const KernelCost& c) const {
    const double t_flop = c.flops / machine_.flops();
    const double t_mem = c.bytes / machine_.bandwidth();
    return machine_.launch_overhead + (t_flop > t_mem ? t_flop : t_mem);
  }

  /// Host<->device transfer over the machine's link.
  double transfer_time(double bytes) const {
    return machine_.link_latency + bytes / machine_.link_bw;
  }

  /// Predicted time for a full counter set (kernels + transfers).
  ///
  /// CAUTION — this is a *lower bound*, not the authoritative accounting.
  /// It applies the roofline max over the run's AGGREGATE flop/byte
  /// totals, while the simulated clock (ExecContext::sim_time_, shadow
  /// pricing, reprice()) takes the max per launch:
  ///     max(sum f_i, sum b_i) <= sum max(f_i, b_i).
  /// The two agree exactly when every launch sits on the same side of the
  /// machine's ridge point; any run mixing compute- and memory-bound
  /// kernels makes this strictly optimistic. Per-launch pricing is
  /// authoritative — prefer a shadow machine or reprice() over a trace
  /// when per-launch information is available, and treat this as a quick
  /// aggregate estimate (e.g. for counter sets whose launch structure was
  /// never recorded).
  double predict(const Counters& c) const {
    const double t_flop = c.flops / machine_.flops();
    const double t_mem = c.bytes / machine_.bandwidth();
    const double t_kernels = (t_flop > t_mem ? t_flop : t_mem) +
                             static_cast<double>(c.launches) *
                                 machine_.launch_overhead;
    const double t_xfer =
        static_cast<double>(c.transfers) * machine_.link_latency +
        (c.h2d_bytes + c.d2h_bytes) / machine_.link_bw;
    return t_kernels + t_xfer;
  }

 private:
  MachineModel machine_;
};

/// Re-prices a recorded kernel/transfer trace on `m`, per event — the
/// authoritative per-launch form that CostModel::predict can only lower
/// bound. Restricting to one trace phase (empty = all) gives the
/// cross-machine per-phase breakdowns of Figures 2/8 without shadowing.
/// The phase filter is hierarchical: "solve" also matches events tagged
/// "solve/cg/spmv" by nested prof::Scope spans.
double reprice(const obs::TraceBuffer& trace, const CostModel& m,
               std::string_view phase = {});

}  // namespace coe::hsim
