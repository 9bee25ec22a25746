// fem_amg: Table 4's 329k-unknown row at p = 2 and p = 4, the pair run twice
// at once (four ops, one thread each). Each op is
// bench/table4_fem_speedup's speedup_for(): one BDF step of the
// nonlinear diffusion problem (partial-assembly FEM + BoomerAMG-on-LOR
// preconditioned CG) on a V100 context derated for unified memory, with a
// single-P9-thread shadow pricing the identical kernel stream.
// The seed sets the conductivity k(u) = 1 + a u^2 (a = 1 at seed 0).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bench.hpp"
#include "fem/fem.hpp"

namespace coebench {

namespace {

using namespace coe;

constexpr std::size_t kOrders[2] = {2, 4};
// Table 4 cells (paper) for the 329e3-unknown row at p = 2 and p = 4.
constexpr double kPaper[2] = {10.59, 13.71};
// The model cells bench/table4_fem_speedup prints for the same rows (two
// decimals, seed-0 conductivity): the 329e3 row and, for --tiny, the
// 20.8e3 row.
constexpr double kTable4Row329k[2] = {17.38, 16.83};
constexpr double kTable4Row20k[2] = {3.84, 3.16};

/// table4_fem_speedup's sizing: nx so that (nx p + 1)^2 ~ target.
std::size_t nx_for(std::size_t target, std::size_t order) {
  const double side = std::sqrt(static_cast<double>(target));
  return static_cast<std::size_t>(
      std::max(2.0, std::round((side - 1.0) / static_cast<double>(order))));
}

struct Op {
  std::size_t order = 0;
  std::size_t nx = 0;
  std::unique_ptr<core::ExecContext> gpu;
  std::size_t shadow = 0;
  std::unique_ptr<prof::Profiler> profiler;
  std::unique_ptr<fem::NonlinearDiffusion> app;
};

Op make_op(std::size_t target, std::size_t order, double a, bool traced) {
  Op op;
  op.order = order;
  op.nx = nx_for(target, order);
  auto v100_um = hsim::machines::v100();
  v100_um.name = "V100 (UM-managed)";
  v100_um.bw_efficiency = 0.55;
  op.gpu = std::make_unique<core::ExecContext>(core::make_device(v100_um));
  op.shadow = op.gpu->add_shadow(hsim::machines::power9_thread());
  fem::DiffusionConfig cfg;
  cfg.nx = op.nx;
  cfg.order = order;
  cfg.t_final = 1e-4;
  cfg.dt_init = 1e-4;
  cfg.rtol = 1e-3;
  cfg.max_timesteps = 1;
  cfg.conductivity = [a](double u) { return 1.0 + a * u * u; };
  if (traced) {
    op.profiler = std::make_unique<prof::Profiler>();
    cfg.profiler = op.profiler.get();
  }
  op.app = std::make_unique<fem::NonlinearDiffusion>(*op.gpu, cfg);
  return op;
}

/// Names the driver's profiler regions by the module doing the work.
const char* layer_of(const std::string& path) {
  if (path == "formulation") return "fem.formulation";
  if (path == "preconditioner") return "amg.setup";  // LOR + AMG setup
  if (path == "solve") return "fem.solve";
  if (path == "formulation/cg" || path == "solve/cg") return "la.cg";
  if (path == "formulation/cg/spmv" || path == "solve/cg/spmv") {
    return "fem.pa_apply";
  }
  if (path == "formulation/cg/precond") return "la.jacobi";
  if (path == "solve/cg/precond") return "amg.vcycle";
  if (path == "formulation/cg/blas1" || path == "solve/cg/blas1") {
    return "la.blas1";
  }
  return "other";
}

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sim_s = 0.0;
  hsim::Counters counters;
  std::size_t cg_iters = 0;
  std::size_t newton_iters = 0;
  double speedup[2] = {0.0, 0.0};
  double sim_per_op[2] = {0.0, 0.0};
  double all_launches = 0.0;  ///< launches of every op of the pass
};

}  // namespace

Outcome run_fem_amg(const Options& opt) {
  Outcome out;
  Ledger ledger(out);
  Tracer traced(opt.trace);
  Rng rng(opt.seed);
  // a in [0.96, 1.04]: a real change of the nonlinear operator that keeps
  // every seed on the paper's row.
  const double a =
      opt.seed == 0 ? 1.0 : 1.0 + 0.01 * static_cast<double>(rng.range(-4, 4));
  const std::size_t target = opt.tiny ? 20800 : 329000;
  const double* table4 = opt.tiny ? kTable4Row20k : kTable4Row329k;
  double expect[2] = {table4[0], table4[1]};
  if (opt.wrong_reference) expect[0] += 0.1;

  // One pass = kThreads ops on fresh contexts, one thread each, all at
  // once: orders 2, 4, 2, 4, so the op pair runs twice. Set-up is outside
  // the timing; the pass reports the first pair, and the second must match.
  auto pass = [&](bool trace_this, PassResult& pr) {
    std::vector<Op> ops;
    for (int k = 0; k < kThreads; ++k) {
      ops.push_back(make_op(target, kOrders[k % 2], a, trace_this));
    }
    if (out.first_op_mono_s == 0.0) out.first_op_mono_s = mono_now();
    if (opt.setup_only) return;
    std::vector<fem::DiffusionReport> reps(kThreads);
    std::vector<Tracer> tracers(kThreads, Tracer(trace_this));
    std::vector<int> span_ids(kThreads, -1);
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    const std::vector<std::string> errors =
        run_concurrently(kThreads, [&](int k) {
          const auto i = static_cast<std::size_t>(k);
          Tracer::Scope span(tracers[i], "fem_amg.op");
          reps[i] = ops[i].app->run();
          span.close();
          span_ids[i] = span.index();
        });
    pr.cpu_s = (process_cpu_s() - c0) / kThreads;
    pr.wall_s = seconds_between(t0, Clock::now());
    for (int k = 0; k < kThreads; ++k) {
      const auto i = static_cast<std::size_t>(k);
      const int pair = k % 2;
      Op& op = ops[i];
      const fem::DiffusionReport& rep = reps[i];
      const std::size_t id = ledger.begin_op();
      if (!errors[i].empty()) {
        ledger.check(id, false, "exception: " + errors[i]);
        continue;
      }
      // Checks, outside the timed window.
      const double sim = op.gpu->simulated_time();
      const double speedup = op.gpu->shadow_time(op.shadow) / sim;
      if (k < 2) {
        if (op.profiler) tracers[i].fold(*op.profiler, span_ids[i], layer_of);
        traced.absorb(tracers[i]);
        pr.sim_s += sim;
        pr.sim_per_op[pair] = sim;
        pr.speedup[pair] = speedup;
        pr.counters += op.gpu->counters();
        pr.cg_iters += rep.cg_iterations + rep.mass_cg_iterations;
        pr.newton_iters += rep.ode.newton_iters;
      } else {
        const Op& twin = ops[i - 2];
        const auto& c = op.gpu->counters();
        const auto& tc = twin.gpu->counters();
        ledger.check(id,
                     sim == pr.sim_per_op[pair] && c.launches == tc.launches &&
                         c.transfers == tc.transfers && c.flops == tc.flops &&
                         c.bytes == tc.bytes &&
                         std::ranges::equal(op.app->solution(),
                                            twin.app->solution()),
                     "op differs from its twin of the same order");
      }
      pr.all_launches += static_cast<double>(op.gpu->counters().launches);
      const std::size_t side = op.nx * op.order + 1;
      ledger.check(id, rep.dofs == side * side, "dof count != (nx p + 1)^2");
      ledger.check(id, rep.ode.steps == 1 && rep.ode.newton_failures == 0,
                   "BDF step did not converge");
      ledger.check(id,
                   rep.cg_solves > 0 && rep.cg_iterations < 500 * rep.cg_solves,
                   "Newton-system CG hit its iteration cap");
      ledger.check(id, rep.mass_cg_iterations < 200 * rep.ode.rhs_evals,
                   "mass-matrix CG hit its iteration cap");
      double umax = 0.0;
      bool finite = true;
      for (double u : op.app->solution()) {
        finite = finite && std::isfinite(u);
        umax = std::max(umax, std::abs(u));
      }
      // One short diffusion step from a unit bump: decays, but barely.
      ledger.check(id, finite && umax > 0.9 && umax <= 1.0,
                   "solution not finite or not a decayed unit bump");
      ledger.check(id, std::isfinite(speedup) && speedup > 1.0,
                   "model speedup not finite and > 1");
      if (opt.seed == 0) {
        ledger.check(id, std::abs(speedup - expect[pair]) <= 0.005 + 1e-9,
                     "speedup " + std::to_string(speedup) +
                         " != table4_fem_speedup cell " +
                         std::to_string(expect[pair]));
      }
    }
  };

  std::vector<PassResult> passes;
  const auto start = Clock::now();
  // Trace mode: untraced, traced, untraced (the untraced median is the
  // base of trace.overhead, so warm-up does not favour either side).
  while (opt.trace ? passes.size() < 3
                   : another_pass(opt, start, out.pass_wall_s)) {
    PassResult pr;
    const bool trace_this = opt.trace && passes.size() == 1;
    pass(trace_this, pr);
    if (opt.setup_only) return out;
    if (!trace_this) {
      out.pass_wall_s.push_back(pr.wall_s);
      out.pass_cpu_s.push_back(pr.cpu_s);
      out.pass_sim_s.push_back(pr.sim_s);
    }
    passes.push_back(pr);
  }
  out.peak_rss_mb = peak_rss_mb();

  const PassResult& first = passes.front();
  for (std::size_t p = 1; p < passes.size(); ++p) {
    const PassResult& pr = passes[p];
    for (int k = 0; k < 2; ++k) {
      if (pr.sim_per_op[k] != first.sim_per_op[k]) {
        ledger.fail_all("simulated time differs between passes");
      }
    }
    if (pr.counters.launches != first.counters.launches ||
        pr.counters.transfers != first.counters.transfers ||
        pr.counters.flops != first.counters.flops ||
        pr.counters.bytes != first.counters.bytes) {
      ledger.fail_all("core counters differ between passes (traced vs not)");
    }
  }
  out.paper_gap = 0.5 * (std::abs(std::log(first.speedup[0] / kPaper[0])) +
                         std::abs(std::log(first.speedup[1] / kPaper[1])));
  std::fprintf(stderr,
               "fem_amg: a=%.2f speedup p=2 %.4f (paper %.2f), p=4 %.4f"
               " (paper %.2f)\n",
               a, first.speedup[0], kPaper[0], first.speedup[1], kPaper[1]);

  if (opt.trace) {
    const PassResult& tp = passes[1];
    const double launches = static_cast<double>(tp.counters.launches);
    out.layer("core.launches", launches);
    out.layer("core.transfers", static_cast<double>(tp.counters.transfers));
    out.layer("core.flops", tp.counters.flops);
    out.layer("core.bytes", tp.counters.bytes);
    out.layer("core.host_us_per_launch",
              tp.cpu_s * kThreads / tp.all_launches * 1e6);
    out.layer("fem.formulation_s", traced.total_s("fem.formulation"));
    out.layer("fem.pa_apply_s", traced.total_s("fem.pa_apply"));
    out.layer("fem.pa_applies",
              static_cast<double>(traced.total_calls("fem.pa_apply")));
    out.layer("amg.setup_s", traced.total_s("amg.setup"));
    out.layer("amg.setup_sim_s", traced.total_sim_s("amg.setup"));
    out.layer("amg.vcycle_s", traced.total_s("amg.vcycle"));
    out.layer("amg.vcycles",
              static_cast<double>(traced.total_calls("amg.vcycle")));
    out.layer("la.cg_iters", static_cast<double>(tp.cg_iters));
    out.layer("la.blas1_s", traced.total_s("la.blas1"));
    out.layer("ode.newton_iters", static_cast<double>(tp.newton_iters));
    out.layer("host.wall_s", median(out.pass_wall_s));
    out.layer("trace.overhead", tp.wall_s / median(out.pass_wall_s));
    out.layer("trace.span_coverage", traced.child_coverage("fem_amg.op"));
    traced.write("fem_amg trace");
  }
  ledger.finish();
  return out;
}

}  // namespace coebench
