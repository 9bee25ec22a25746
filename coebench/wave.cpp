// wave_dist and wave_survive: the sw4lite 4th-order wave kernel on 4 rank
// threads, priced on sierra(4) by net::replay.
//
//  * wave_dist: x-slabs with aggregated, overlapped halos; 256x128x128
//    points, 400 steps. The seed sets the initial mode numbers and adds
//    up to +-2 steps (seed 0: the (1,1,1) mode, 400 steps).
//  * wave_survive: the same kernels on the phoenix survivable driver:
//    Shrink policy, 200 steps, a checkpoint every 20 steps, one rank
//    killed ten steps past the second commit. The seed picks the initial
//    modes and the victim.
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "phoenix/phoenix.hpp"
#include "stencil/distributed.hpp"
#include "stencil/survivable.hpp"
#include "xray/xray.hpp"

namespace coebench {

namespace {

using namespace coe;

constexpr int kRanks = 4;

struct Modes {
  double mx = 1.0, my = 1.0, mz = 1.0;
};

Modes seeded_modes(Rng& rng, std::uint64_t seed) {
  Modes m;
  if (seed != 0) {
    m.mx = static_cast<double>(rng.range(1, 3));
    m.my = static_cast<double>(rng.range(1, 3));
    m.mz = static_cast<double>(rng.range(1, 3));
  }
  return m;
}

std::function<double(double, double, double)> initial(Modes m) {
  return [m](double x, double y, double z) {
    return std::sin(m.mx * M_PI * x) * std::sin(m.my * M_PI * y) *
           std::sin(m.mz * M_PI * z);
  };
}

/// Exact launch/transfer/flop/byte totals of per-rank kernel traces.
hsim::Counters trace_counters(const std::vector<obs::TraceBuffer>& traces,
                              bool* complete) {
  hsim::Counters c;
  *complete = true;
  for (const auto& t : traces) {
    *complete = *complete && t.dropped() == 0;
    for (const auto& e : t.snapshot()) {
      if (e.kind == obs::TraceEvent::Kind::Kernel) {
        c.launches += 1;
        c.flops += e.flops;
        c.bytes += e.bytes;
      } else if (!obs::is_marker(e.kind)) {
        c.transfers += 1;
      }
    }
  }
  return c;
}

void core_layers(Outcome& out, const hsim::Counters& c, double wall_s) {
  out.layer("core.launches", static_cast<double>(c.launches));
  out.layer("core.transfers", static_cast<double>(c.transfers));
  out.layer("core.flops", c.flops);
  out.layer("core.bytes", c.bytes);
  out.layer("core.host_us_per_launch",
            c.launches ? wall_s / static_cast<double>(c.launches) * 1e6 : 0.0);
}

/// Section 4.9's per-node throughput model (bench/sec49_sw4): the same
/// kernel stream on a Cori-II KNL node (derated to 45% of STREAM) against
/// a Sierra node of 4 V100s at 88% halo efficiency. The abstract's claim
/// is "up to a 14X throughput increase over Cori".
double sec49_per_node_speedup(const hsim::Counters& c) {
  auto knl = hsim::machines::knl_node();
  knl.bw_efficiency = 0.45;
  const double v100 = hsim::CostModel(hsim::machines::v100()).predict(c);
  return hsim::CostModel(knl).predict(c) / (v100 / (4.0 * 0.88));
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double e = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    e = std::max(e, std::abs(a[k] - b[k]));
  }
  return e;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

Outcome run_wave_dist(const Options& opt) {
  Outcome out;
  Ledger ledger(out);
  Tracer untraced(false);
  Tracer traced(opt.trace);
  Rng rng(opt.seed);
  const Modes modes = seeded_modes(rng, opt.seed);
  stencil::DistributedWaveConfig cfg;
  cfg.nx = opt.tiny ? 32 : 256;
  cfg.ny = cfg.nz = opt.tiny ? 16 : 128;
  cfg.steps = (opt.tiny ? 20 : 400) +
              (opt.seed != 0 ? static_cast<int>(rng.range(-2, 2)) : 0);
  const auto sierra = hsim::clusters::sierra(kRanks);
  cfg.cluster = &sierra;
  const auto u0 = initial(modes);
  if (out.first_op_mono_s == 0.0) out.first_op_mono_s = mono_now();
  if (opt.setup_only) return out;

  std::vector<double> field0;
  double sim0 = 0.0;
  std::size_t messages0 = 0;
  double traced_wall = 0.0;
  stencil::DistributedWaveResult traced_res;
  net::NetLog log;
  const auto start = Clock::now();
  int passes = 0;
  while (opt.trace ? passes < 3
                   : another_pass(opt, start, out.pass_wall_s)) {
    const bool trace_this = opt.trace && passes == 1;
    stencil::DistributedWaveConfig c = cfg;
    if (trace_this) {
      c.log = &log;
      c.trace_ranks = true;
    }
    const std::size_t id = ledger.begin_op();
    ++passes;
    stencil::DistributedWaveResult res;
    double wall = 0.0, cpu = 0.0;
    try {
      Tracer::Scope span(trace_this ? traced : untraced, "wave.op");
      const auto t0 = Clock::now();
      const double c0 = process_cpu_s();
      res = stencil::distributed_wave_run(kRanks, c, u0);
      cpu = (process_cpu_s() - c0) / kRanks;
      wall = seconds_between(t0, Clock::now());
    } catch (const std::exception& e) {
      ledger.check(id, false, std::string("exception: ") + e.what());
      continue;
    }
    // Checks, outside the timed window.
    ledger.check(id, res.modeled.well_formed, "net::replay not well formed");
    ledger.check(id, res.modeled.messages == res.traffic.messages,
                 "replayed message count != sent messages");
    if (field0.empty()) {
      ledger.check(id, all_finite(res.field), "field not finite");
      field0 = res.field;
      sim0 = res.modeled.timeline_s;
      messages0 = res.traffic.messages;
    } else {
      ledger.check(id, res.field == field0,
                   "field differs from the first op's bitwise");
      ledger.check(id, res.modeled.timeline_s == sim0,
                   "simulated time differs from the first op's");
      ledger.check(id, res.traffic.messages == messages0,
                   "message count differs from the first op's");
    }
    if (trace_this) {
      traced_wall = wall;
      traced_res = std::move(res);
    } else {
      out.pass_wall_s.push_back(wall);
      out.pass_cpu_s.push_back(cpu);
      out.pass_sim_s.push_back(res.modeled.timeline_s);
    }
  }
  out.peak_rss_mb = peak_rss_mb();

  // Reference: a 2-rank run of the same problem (another decomposition, so
  // other halos) agrees to 1e-13; its kernel traces price the paper cell.
  stencil::DistributedWaveConfig ref_cfg = cfg;
  ref_cfg.cluster = nullptr;
  ref_cfg.trace_ranks = true;
  auto ref = stencil::distributed_wave_run(2, ref_cfg, u0);
  if (opt.wrong_reference) ref.field[ref.field.size() / 2] += 1e-9;
  const double err = max_abs_diff(ref.field, field0);
  if (!(err <= 1e-13)) {
    ledger.fail_all("field differs from the 2-rank run by " +
                    std::to_string(err));
  }
  bool complete = false;
  const hsim::Counters counters = trace_counters(ref.rank_traces, &complete);
  if (!complete) ledger.fail_all("2-rank trace ring dropped events");
  const double model = sec49_per_node_speedup(counters);
  out.paper_gap = std::abs(std::log(model / 14.0));
  std::fprintf(stderr, "wave_dist: modes (%g,%g,%g), %d steps, per-node model"
               " %.4fx (paper 14x)\n",
               modes.mx, modes.my, modes.mz, cfg.steps, model);

  if (opt.trace) {
    // The 1-rank run: the plain single-thread baseline, also a reference.
    stencil::DistributedWaveConfig one = cfg;
    one.cluster = nullptr;
    double serial_s = 0.0;
    {
      Tracer::Scope span(traced, "stencil.serial");
      const auto t0 = Clock::now();
      const auto serial = stencil::distributed_wave_run(1, one, u0);
      serial_s = seconds_between(t0, Clock::now());
      if (!(max_abs_diff(serial.field, field0) <= 1e-13)) {
        ledger.fail_all("field differs from the 1-rank run");
      }
    }
    xray::MergeInputs in;
    in.log = &log;
    in.cluster = &sierra;
    in.ranks = kRanks;
    in.rank_traces = &traced_res.rank_traces;
    xray::Report rep;
    double analyze_s = 0.0;
    {
      Tracer::Scope span(traced, "xray.analyze");
      const auto t0 = Clock::now();
      rep = xray::analyze(in);
      analyze_s = seconds_between(t0, Clock::now());
    }
    const double tol = 1e-9 * std::max(1.0, rep.makespan_s);
    if (!rep.well_formed || std::abs(rep.critical_s - rep.makespan_s) > tol) {
      ledger.fail_all("xray critical path does not tile the makespan");
    }
    bool traced_complete = false;
    const hsim::Counters tc =
        trace_counters(traced_res.rank_traces, &traced_complete);
    if (!traced_complete) ledger.fail_all("rank trace ring dropped events");
    core_layers(out, tc, traced_wall);
    out.layer("stencil.serial_s", serial_s);
    out.layer("mpi.parallel_eff",
              serial_s / (kRanks * median(out.pass_wall_s)));
    out.layer("mpi.messages", static_cast<double>(traced_res.traffic.messages));
    out.layer("mpi.bytes", traced_res.traffic.bytes);
    out.layer("net.timeline_s", traced_res.modeled.timeline_s);
    out.layer("net.sequential_s", traced_res.modeled.sequential_s);
    out.layer("xray.analyze_s", analyze_s);
    out.layer("xray.coverage", rep.coverage);
    out.layer("xray.comm_wait_pct", rep.fleet.pct(xray::Blame::CommWait));
    out.layer("xray.imbalance_ratio", rep.imbalance_ratio);
    out.layer("host.wall_s", median(out.pass_wall_s));
    out.layer("trace.overhead", traced_wall / median(out.pass_wall_s));
    traced.write("wave_dist trace");
  }
  ledger.finish();
  return out;
}

namespace {

/// Communicator ops one rank of the survivable wave performs per step: one
/// aggregated halo send and one receive per neighbour slab (edge slabs have
/// one neighbour). Checkpoint traffic adds a few ops per commit, so a kill
/// placed with this count lands a step or two early.
std::size_t ops_per_step(int rank) {
  return rank == 0 || rank == kRanks - 1 ? 2 : 4;
}

}  // namespace

Outcome run_wave_survive(const Options& opt) {
  Outcome out;
  Ledger ledger(out);
  Tracer untraced(false);
  Tracer traced(opt.trace);
  Rng rng(opt.seed);
  const Modes modes = seeded_modes(rng, opt.seed);
  stencil::SurvivableWaveConfig cfg;
  cfg.nx = opt.tiny ? 32 : 256;
  cfg.ny = cfg.nz = opt.tiny ? 16 : 128;
  cfg.steps = opt.tiny ? 20 : 200;
  cfg.workers = kRanks;
  cfg.spares = 0;
  cfg.policy = phoenix::RepairPolicy::Shrink;
  cfg.ckpt_every = opt.tiny ? 4 : 20;
  const auto sierra = hsim::clusters::sierra(kRanks);
  cfg.cluster = &sierra;
  // The kill lands ten steps past the second commit for every seed: after
  // a Shrink repair one survivor carries two slabs, so the kill step sets
  // how long the run stays unbalanced, and with it wall and simulated time.
  // The seed picks the victim (seed 0: rank 1).
  const int victim = opt.seed == 0 ? 1 : static_cast<int>(rng.range(0, 3));
  const int kill_step = 2 * cfg.ckpt_every + cfg.ckpt_every / 2;
  const std::size_t at_op =
      static_cast<std::size_t>(kill_step) * ops_per_step(victim);
  const auto u0 = initial(modes);

  stencil::DistributedWaveConfig ref_cfg;
  ref_cfg.nx = cfg.nx;
  ref_cfg.ny = cfg.ny;
  ref_cfg.nz = cfg.nz;
  ref_cfg.steps = cfg.steps;
  if (out.first_op_mono_s == 0.0) out.first_op_mono_s = mono_now();
  if (opt.setup_only) return out;

  std::vector<double> field0;
  double traced_wall = 0.0;
  stencil::SurvivableWaveResult traced_res;
  net::NetLog log;
  const auto start = Clock::now();
  int passes = 0;
  while (opt.trace ? passes < 3
                   : another_pass(opt, start, out.pass_wall_s)) {
    const bool trace_this = opt.trace && passes == 1;
    stencil::SurvivableWaveConfig c = cfg;
    c.fault_hook = phoenix::kill_rank_at(victim, at_op);
    // net::replay prices the run from its traffic log.
    net::NetLog pass_log;
    c.log = trace_this ? &log : &pass_log;
    c.trace_ranks = trace_this;
    const std::size_t id = ledger.begin_op();
    ++passes;
    stencil::SurvivableWaveResult res;
    double wall = 0.0, cpu = 0.0;
    try {
      Tracer::Scope span(trace_this ? traced : untraced, "phoenix.op");
      const auto t0 = Clock::now();
      const double c0 = process_cpu_s();
      res = stencil::survivable_wave_run(c, u0);
      cpu = (process_cpu_s() - c0) / kRanks;
      wall = seconds_between(t0, Clock::now());
    } catch (const std::exception& e) {
      // A loud phoenix abort (PhoenixUnrecoverable) lands here.
      ledger.check(id, false, std::string("exception: ") + e.what());
      continue;
    }
    ledger.check(id,
                 res.report.stats.kills == 1 && res.report.dead.size() == 1 &&
                     res.report.dead[0] == victim,
                 "expected exactly one kill, of rank " +
                     std::to_string(victim));
    ledger.check(id, res.modeled.well_formed, "net::replay not well formed");
    if (field0.empty()) {
      field0 = res.field;
    } else {
      ledger.check(id, res.field == field0,
                   "field differs from the first op's bitwise");
    }
    if (trace_this) {
      traced_wall = wall;
      traced_res = std::move(res);
    } else {
      out.pass_wall_s.push_back(wall);
      out.pass_cpu_s.push_back(cpu);
      out.pass_sim_s.push_back(res.modeled.timeline_s);
    }
  }
  out.peak_rss_mb = peak_rss_mb();

  // Reference: the fault-free distributed field of the same problem,
  // which the survivable driver promises to reproduce bitwise. Its kernel
  // traces price the paper cell, as for wave_dist.
  ref_cfg.trace_ranks = true;
  auto ref = stencil::distributed_wave_run(kRanks, ref_cfg, u0);
  if (opt.wrong_reference) ref.field[ref.field.size() / 2] += 1e-9;
  if (ref.field != field0) {
    ledger.fail_all("field differs from the fault-free distributed field");
  }
  bool complete = false;
  const hsim::Counters counters = trace_counters(ref.rank_traces, &complete);
  if (!complete) ledger.fail_all("reference trace ring dropped events");
  const double model = sec49_per_node_speedup(counters);
  out.paper_gap = std::abs(std::log(model / 14.0));
  std::fprintf(stderr, "wave_survive: victim %d at op %zu (step %d), per-node"
               " model %.4fx (paper 14x)\n",
               victim, at_op, kill_step, model);

  if (opt.trace) {
    bool traced_complete = false;
    const hsim::Counters tc =
        trace_counters(traced_res.report.rank_traces, &traced_complete);
    if (!traced_complete) ledger.fail_all("rank trace ring dropped events");
    core_layers(out, tc, traced_wall);
    // Fault-free runs with and without checkpoints price the commits.
    stencil::SurvivableWaveConfig ff = cfg;
    double ff_s = 0.0, nockpt_s = 0.0;
    stencil::SurvivableWaveResult ff_res;
    {
      Tracer::Scope span(traced, "phoenix.fault_free");
      const auto t0 = Clock::now();
      ff_res = stencil::survivable_wave_run(ff, u0);
      ff_s = seconds_between(t0, Clock::now());
    }
    ff.ckpt_every = 0;
    {
      Tracer::Scope span(traced, "phoenix.no_ckpt");
      const auto t0 = Clock::now();
      stencil::survivable_wave_run(ff, u0);
      nockpt_s = seconds_between(t0, Clock::now());
    }
    const auto& st = traced_res.report.stats;
    const double generations =
        static_cast<double>(ff_res.report.stats.ckpt_commits) / kRanks;
    const double survivors = static_cast<double>(kRanks) -
                             static_cast<double>(st.kills);
    const double driver_steps = static_cast<double>(cfg.steps + 1);
    const double replayed_per_rank =
        static_cast<double>(st.replayed_steps) / survivors;
    out.layer("phoenix.ckpt_s_per_commit",
              generations > 0 ? (ff_s - nockpt_s) / generations : 0.0);
    out.layer("phoenix.recovery_s", median(out.pass_wall_s) - ff_s);
    out.layer("phoenix.repair_s", st.repair_s);
    out.layer("phoenix.ckpt_commits", static_cast<double>(st.ckpt_commits));
    out.layer("phoenix.buddy_bytes", st.buddy_bytes);
    out.layer("phoenix.replayed_steps", static_cast<double>(st.replayed_steps));
    out.layer("phoenix.useful_step_frac",
              driver_steps / (driver_steps + replayed_per_rank));
    out.layer("mpi.messages",
              static_cast<double>(traced_res.report.traffic.messages));
    out.layer("mpi.bytes", traced_res.report.traffic.bytes);
    out.layer("net.timeline_s", traced_res.modeled.timeline_s);
    out.layer("net.sequential_s", traced_res.modeled.sequential_s);
    out.layer("host.wall_s", median(out.pass_wall_s));
    out.layer("trace.overhead", traced_wall / median(out.pass_wall_s));
    traced.write("wave_survive trace");
  }
  ledger.finish();
  return out;
}

}  // namespace coebench
