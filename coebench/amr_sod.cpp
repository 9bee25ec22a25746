// amr_sod: the Sod shock tube on table5_cleverleaf's single-device level
// (512^2 cells, four patches, outflow walls) on a V100 context. Each op
// advances a freshly built hierarchy 20 steps; a pass runs kThreads ops at
// once, one thread each.
// The seed moves the interface and the grid edge by a few cells (seed 0:
// 512^2, interface at the middle).
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "amr/euler.hpp"
#include "bench.hpp"

namespace coebench {

namespace {

using namespace coe;

struct Hierarchy {
  std::unique_ptr<core::MemoryPool> pool;
  std::unique_ptr<amr::PatchLevel> level;
  std::unique_ptr<core::ExecContext> ctx;
  std::unique_ptr<amr::EulerSolver> solver;
};

Hierarchy build(std::int64_t n, std::int64_t i_mid, bool four_patches) {
  Hierarchy h;
  h.pool = std::make_unique<core::MemoryPool>();
  h.level = std::make_unique<amr::PatchLevel>(
      *h.pool, amr::Box{0, 0, n - 1, n - 1}, 2, amr::BoundaryKind::Outflow);
  if (four_patches) {
    const std::int64_t m = n / 2;
    h.level->add_patch(amr::Box{0, 0, m - 1, m - 1});
    h.level->add_patch(amr::Box{m, 0, n - 1, m - 1});
    h.level->add_patch(amr::Box{0, m, m - 1, n - 1});
    h.level->add_patch(amr::Box{m, m, n - 1, n - 1});
  } else {
    h.level->add_patch(amr::Box{0, 0, n - 1, n - 1});
  }
  h.ctx = std::make_unique<core::ExecContext>(core::make_device());
  amr::EulerConfig cfg;
  cfg.dx = cfg.dy = 1.0 / static_cast<double>(n);
  h.solver = std::make_unique<amr::EulerSolver>(*h.ctx, *h.level, cfg);
  h.solver->init([i_mid](std::int64_t i, std::int64_t) {
    return amr::sod_state(i, i_mid);
  });
  return h;
}

/// Density and pressure over the whole level, x-major.
void snapshot(const amr::EulerSolver& s, std::int64_t n,
              std::vector<double>& rho, std::vector<double>& p) {
  rho.clear();
  p.clear();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto st = s.primitive_at(i, j);
      rho.push_back(st.rho);
      p.push_back(st.p);
    }
  }
}

/// table5_cleverleaf's P9-socket-vs-V100 ("Device") pricing of a kernel
/// stream, with its calibrated single-socket CPU efficiencies.
double table5_device_speedup(const hsim::Counters& c) {
  auto p9_socket = hsim::machines::power9_socket();
  p9_socket.bw_efficiency = 0.30;
  p9_socket.flop_efficiency = 0.25;
  return hsim::CostModel(p9_socket).predict(c) /
         hsim::CostModel(hsim::machines::v100()).predict(c);
}

}  // namespace

Outcome run_amr_sod(const Options& opt) {
  Outcome out;
  Ledger ledger(out);
  Tracer traced(opt.trace);
  Rng rng(opt.seed);
  const std::int64_t base = opt.tiny ? 64 : 512;
  const int steps = opt.tiny ? 5 : 20;
  std::int64_t n = base;
  std::int64_t i_mid = base / 2;
  if (opt.seed != 0) {
    n = base + rng.range(-1, 1);
    i_mid = n / 2 + rng.range(-8, 8);
  }

  std::vector<double> rho0, p0;  // first op's state, every later op must match
  std::vector<double> rho, p;
  hsim::Counters op_counters;
  double op_sim = 0.0;
  double traced_wall = 0.0;
  double traced_cpu = 0.0;
  std::vector<double> hierarchy_s;  // traced: step time per hierarchy
  hsim::Counters traced_counters;

  const auto start = Clock::now();
  int passes = 0;
  while (opt.trace ? passes < 3
                   : another_pass(opt, start, out.pass_wall_s)) {
    const bool trace_this = opt.trace && passes == 1;
    Hierarchy hs[kThreads];
    for (auto& h : hs) h = build(n, i_mid, true);
    if (out.first_op_mono_s == 0.0) out.first_op_mono_s = mono_now();
    if (opt.setup_only) return out;
    // One tracer per thread; they are merged after the pass.
    std::vector<Tracer> tracers(kThreads, Tracer(trace_this));
    double op_wall[kThreads] = {};
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    const std::vector<std::string> errors =
        run_concurrently(kThreads, [&](int k) {
          Hierarchy& h = hs[k];
          Tracer& tr = tracers[static_cast<std::size_t>(k)];
          Tracer::Scope span(tr, "amr_sod.op");
          const auto w0 = Clock::now();
          for (int s = 0; s < steps; ++s) {
            double dt;
            {
              Tracer::Scope d(tr, "amr.compute_dt");
              dt = h.solver->compute_dt();
            }
            Tracer::Scope st(tr, "amr.step");
            h.solver->step(dt);
          }
          op_wall[k] = seconds_between(w0, Clock::now());
        });
    const double cpu = (process_cpu_s() - c0) / kThreads;
    const double wall = seconds_between(t0, Clock::now());
    double sim = 0.0;
    for (int k = 0; k < kThreads; ++k) {
      Hierarchy& h = hs[k];
      const std::size_t id = ledger.begin_op();
      if (!errors[static_cast<std::size_t>(k)].empty()) {
        ledger.check(id, false,
                     "exception: " + errors[static_cast<std::size_t>(k)]);
        continue;
      }
      sim += h.ctx->simulated_time();
      if (trace_this) {
        hierarchy_s.push_back(op_wall[k]);
        traced_counters += h.ctx->counters();
        traced.absorb(tracers[static_cast<std::size_t>(k)]);
      }
      // Checks, outside the timed window.
      snapshot(*h.solver, n, rho, p);
      bool physical = true;
      for (std::size_t q = 0; q < rho.size(); ++q) {
        physical = physical && std::isfinite(rho[q]) && rho[q] > 0.0 &&
                   std::isfinite(p[q]) && p[q] > 0.0;
      }
      ledger.check(id, physical, "density or pressure not positive/finite");
      if (rho0.empty()) {
        rho0 = rho;
        p0 = p;
        op_counters = h.ctx->counters();
        op_sim = h.ctx->simulated_time();
      } else {
        ledger.check(id, rho == rho0 && p == p0,
                     "state differs from the first op's bitwise");
        ledger.check(id, h.ctx->simulated_time() == op_sim,
                     "simulated time differs from the first op's");
        const auto& c = h.ctx->counters();
        ledger.check(id,
                     c.launches == op_counters.launches &&
                         c.transfers == op_counters.transfers &&
                         c.flops == op_counters.flops &&
                         c.bytes == op_counters.bytes,
                     "core counters differ from the first op's");
      }
    }
    if (trace_this) {
      traced_wall = wall;
      traced_cpu = cpu;
    } else {
      out.pass_wall_s.push_back(wall);
      out.pass_cpu_s.push_back(cpu);
      out.pass_sim_s.push_back(sim);
    }
    ++passes;
  }
  out.peak_rss_mb = peak_rss_mb();

  // Reference: the same problem on one patch agrees to 1e-12.
  if (!rho0.empty()) {
    Hierarchy ref = build(n, i_mid, false);
    for (int s = 0; s < steps; ++s) ref.solver->step(ref.solver->compute_dt());
    snapshot(*ref.solver, n, rho, p);
    if (opt.wrong_reference) rho[rho.size() / 3] += 1e-9;
    double err = 0.0;
    for (std::size_t k = 0; k < rho.size(); ++k) {
      err = std::max(
          {err, std::abs(rho[k] - rho0[k]), std::abs(p[k] - p0[k])});
    }
    if (err > 1e-12) {
      ledger.fail_all("4-patch field differs from the 1-patch run by " +
                      std::to_string(err));
    }
  }

  const double model = table5_device_speedup(op_counters);
  out.paper_gap = std::abs(std::log(model / 15.0));
  std::fprintf(stderr, "amr_sod: n=%lld interface=%lld, P9 vs V100 model"
               " %.4fx (paper 15x)\n",
               static_cast<long long>(n), static_cast<long long>(i_mid), model);

  if (opt.trace) {
    const double launches = static_cast<double>(traced_counters.launches);
    out.layer("core.launches", launches);
    out.layer("core.transfers", static_cast<double>(traced_counters.transfers));
    out.layer("core.flops", traced_counters.flops);
    out.layer("core.bytes", traced_counters.bytes);
    out.layer("core.host_us_per_launch",
              traced_cpu * kThreads / launches * 1e6);
    auto ms = [&](const char* span) {
      std::vector<double> v = traced.durations(span);
      for (double& d : v) d *= 1e3;
      return v;
    };
    const std::vector<double> step_ms = ms("amr.step");
    out.layer("amr.step_ms.p50", quantile(step_ms, 0.5));
    out.layer("amr.step_ms.p80", quantile(step_ms, 0.8));
    out.layer("amr.dt_ms", median(ms("amr.compute_dt")));
    out.layer("amr.layout_spread",
              *std::max_element(hierarchy_s.begin(), hierarchy_s.end()) /
                  *std::min_element(hierarchy_s.begin(), hierarchy_s.end()));
    out.layer("host.wall_s", median(out.pass_wall_s));
    out.layer("trace.overhead", traced_wall / median(out.pass_wall_s));
    out.layer("trace.span_coverage", traced.child_coverage("amr_sod.op"));
    traced.write("amr_sod trace");
  }
  ledger.finish();
  return out;
}

}  // namespace coebench
