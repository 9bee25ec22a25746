#pragma once
// Shared pieces of the coebench driver: command-line options, the outcome
// record each workload fills, the op ledger that turns check results into
// attempted/failed counts, and the pass loop that bounds a run's measured
// time. See coebench/README.md for the workloads and metric definitions.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace coebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds on the steady clock (CLOCK_MONOTONIC, shared with the launching
/// process, which turns a reading into a process-start-to-first-op time).
inline double mono_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used so far by every thread of this process. The kernel
/// leaves out time a vCPU was stolen by the hypervisor and time a thread
/// waited for a core, so other tenants' load does not enter it.
double process_cpu_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 reproduces the paper configuration
  double seconds = 10.0;   ///< measured time budget of one run
  bool trace = false;      ///< per-layer run instead of end-to-end
  bool setup_only = false; ///< set up, report the first-op time, exit
  bool tiny = false;       ///< self-test sizes
  bool wrong_reference = false;  ///< perturb one reference (self-test)
};

/// Everything one run of a workload reports back to main().
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  double first_op_mono_s = 0.0;       ///< mono_now() as the first op began
  std::vector<double> pass_wall_s;    ///< wall seconds in the ops, per pass
  std::vector<double> pass_cpu_s;     ///< CPU seconds / op threads, per pass
  std::vector<double> pass_sim_s;     ///< simulated seconds, per pass
  double paper_gap = 0.0;
  double peak_rss_mb = 0.0;  ///< read after the timed ops, before references
  std::vector<std::pair<std::string, double>> layers;  ///< trace mode only

  void layer(std::string name, double v) {
    layers.emplace_back(std::move(name), v);
  }
};

/// Per-op pass/fail ledger. Each op is attempted once; any failed check
/// (or exception) marks it failed. fail_all() is for run-level references
/// that every op was shown bitwise equal to.
class Ledger {
 public:
  explicit Ledger(Outcome& out) : out_(&out) {}

  /// Starts a new op; returns its index.
  std::size_t begin_op() {
    ok_.push_back(true);
    return ok_.size() - 1;
  }
  /// Records a check on op `op`.
  void check(std::size_t op, bool ok, const std::string& what);
  /// Marks every op attempted so far failed (a shared reference failed).
  void fail_all(const std::string& what);
  /// Writes attempted/failed into the outcome.
  void finish();

 private:
  Outcome* out_;
  std::vector<bool> ok_;
};

/// Threads a pass of fem_amg or amr_sod runs its ops on, one op each, all
/// at once, like the wave workloads' four rank threads. On a shared 4-vCPU
/// KVM guest the same single-threaded Euler step took 88 to 159 ms
/// depending on what the host's other guests were doing, and the slow
/// and fast spells lasted seconds; with all four vCPUs busy it stayed
/// within a few percent of its median.
constexpr int kThreads = 4;

/// Runs body(k) for k = 0 .. n-1, each on its own thread, all at once, and
/// waits for every thread. Returns, per k, the message of the exception
/// body(k) threw ("" when it returned).
std::vector<std::string> run_concurrently(
    int n, const std::function<void(int)>& body);

/// True while another pass fits the run's budget: always before the first
/// pass, then while elapsed + the longest pass so far stays within it.
bool another_pass(const Options& opt, Clock::time_point start,
                  const std::vector<double>& pass_s);

/// Peak resident set of this process so far, MiB (getrusage max RSS).
double peak_rss_mb();

/// Median of a sample (mean of the middle two when even; 0 when empty).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of a sample (0 when empty).
double quantile(std::vector<double> v, double q);

/// splitmix64 stream for seed-derived inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 7) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  long long range(long long lo, long long hi);

 private:
  std::uint64_t s_;
};

Outcome run_fem_amg(const Options& opt);
Outcome run_amr_sod(const Options& opt);
Outcome run_wave_dist(const Options& opt);
Outcome run_wave_survive(const Options& opt);

}  // namespace coebench
