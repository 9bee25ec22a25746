// Real wall-clock microbenchmarks (google-benchmark) of the hot kernels
// across the workload: SpMV, AMG V-cycle, FEM partial vs full assembly,
// LOR assembly and AMG setup, FFT, transpose variants, MD pair forces,
// reaction kernels, the ParaDyn loop variants, the CleverLeaf patch
// loops, the distributed wave sweep, and the checkpoint CRC-32. These
// are the kernels the modeled experiments are built from; their
// *relative* behaviour is measurable even on one core.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "amg/amg.hpp"
#include "amr/euler.hpp"
#include "beamline/fft.hpp"
#include "bench/bench_main.hpp"
#include "core/crc32.hpp"
#include "core/exec.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "dyn/paradyn.hpp"
#include "fem/fem.hpp"
#include "la/la.hpp"
#include "md/md.hpp"
#include "reaction/membrane.hpp"
#include "reaction/monodomain.hpp"
#include "stencil/distributed.hpp"

using namespace coe;

namespace {

void BM_Spmv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = la::poisson2d(n, n);
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  auto ctx = core::make_seq();
  for (auto _ : state) {
    a.spmv(ctx, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(64)->Arg(128)->Arg(256);

void BM_AmgVcycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = la::poisson2d(n, n);
  amg::BoomerAmg solver(a, {});
  std::vector<double> b(a.rows(), 1.0), z(a.rows());
  auto ctx = core::make_seq();
  for (auto _ : state) {
    solver.apply(ctx, b, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_AmgVcycle)->Arg(32)->Arg(64);

void BM_FemApply(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const bool partial = state.range(1) != 0;
  // Fixed dof count across orders: nx*p ~ 48.
  fem::TensorMesh2D mesh(48 / p, 48 / p, p);
  fem::EllipticOperator op(mesh,
                           partial ? fem::Assembly::Partial
                                   : fem::Assembly::Full,
                           1.0, 1.0);
  if (!partial) (void)op.assembled_matrix();  // assemble outside the timer
  std::vector<double> x(mesh.num_dofs(), 1.0), y(mesh.num_dofs());
  auto ctx = core::make_seq();
  for (auto _ : state) {
    op.apply(ctx, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FemApply)
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0});

// The preconditioner set-up of the Table 4 driver on BM_FemApply's
// meshes: the order-1 LOR matrix, then the BoomerAMG hierarchy built on it.
double lor_bench_kappa(double x, double y) { return 1.0 + x * x + y; }

void BM_LorAssemble(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  fem::TensorMesh2D mesh(48 / p, 48 / p, p);
  fem::EllipticOperator op(mesh, fem::Assembly::Partial, 1.0, 0.5);
  op.set_kappa(lor_bench_kappa);
  for (auto _ : state) {
    auto lor = op.assemble_lor();
    benchmark::DoNotOptimize(lor.values().data());
  }
}
BENCHMARK(BM_LorAssemble)->Arg(2)->Arg(4)->Arg(8);

void BM_AmgSetup(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  fem::TensorMesh2D mesh(48 / p, 48 / p, p);
  fem::EllipticOperator op(mesh, fem::Assembly::Partial, 1.0, 0.5);
  op.set_kappa(lor_bench_kappa);
  const auto lor = op.assemble_lor();
  for (auto _ : state) {
    amg::BoomerAmg amg(lor, {});
    benchmark::DoNotOptimize(amg.operator_complexity());
  }
}
BENCHMARK(BM_AmgSetup)->Arg(2)->Arg(4)->Arg(8);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(5);
  std::vector<beamline::cplx> a(n);
  for (auto& v : a) v = beamline::cplx(rng.uniform(), rng.uniform());
  auto ctx = core::make_seq();
  for (auto _ : state) {
    beamline::fft(ctx, a, false);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = state.range(1) != 0 ? beamline::TransposeKind::Tiled
                                        : beamline::TransposeKind::Naive;
  core::Rng rng(7);
  std::vector<beamline::cplx> in(n * n), out;
  for (auto& v : in) v = beamline::cplx(rng.uniform(), rng.uniform());
  auto ctx = core::make_seq();
  for (auto _ : state) {
    beamline::transpose(ctx, in, out, n, n, kind);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * 16));
}
BENCHMARK(BM_Transpose)->Args({512, 0})->Args({512, 1})->Args({1024, 0})
    ->Args({1024, 1});

void BM_MdPairForces(benchmark::State& state) {
  core::Rng rng(11);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, static_cast<std::size_t>(state.range(0)), 0.8,
                   1.0, rng);
  auto ctx = core::make_seq();
  md::NeighborList nl(2.5, 0.3);
  nl.build(ctx, p, box);
  md::LennardJones lj(1.0, 1.0, 2.5);
  for (auto _ : state) {
    p.zero_forces();
    auto res = md::compute_pair_forces(ctx, p, box, nl, lj);
    benchmark::DoNotOptimize(res.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.num_pairs()));
}
BENCHMARK(BM_MdPairForces)->Arg(6)->Arg(10)->Arg(14);

void BM_ReactionKernel(benchmark::State& state) {
  const auto kind = state.range(0) != 0 ? reaction::RateKind::Rational
                                        : reaction::RateKind::Libm;
  reaction::MembraneKernel kernel(kind);
  std::vector<reaction::CellState> cells(
      static_cast<std::size_t>(state.range(1)));
  auto ctx = core::make_seq();
  for (auto _ : state) {
    kernel.step(ctx, cells, 0.01);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_ReactionKernel)->Args({0, 10000})->Args({1, 10000});

void BM_ParadynVariant(benchmark::State& state) {
  dyn::ElementArrays a(static_cast<std::size_t>(state.range(1)));
  const auto v = static_cast<dyn::LoopVariant>(state.range(0));
  auto ctx = core::make_seq();
  for (auto _ : state) {
    dyn::run_update(ctx, a, 1, v);
    benchmark::DoNotOptimize(a.v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_ParadynVariant)
    ->Args({0, 1 << 18})
    ->Args({1, 1 << 18})
    ->Args({2, 1 << 18});

void BM_ForallTracing(benchmark::State& state) {
  // Tracing-overhead check (DESIGN.md section 10.1): the same forall with
  // no trace buffer attached (Arg 0) vs a ring-buffer sink (Arg 1). With
  // tracing off the only per-launch cost is one branch.
  const bool traced = state.range(0) != 0;
  obs::TraceBuffer buf(1 << 12);
  auto ctx = core::make_seq();
  if (traced) ctx.set_trace(&buf);
  std::vector<double> v(1 << 14, 1.0);
  const hsim::Workload w{1.0, 16.0};
  for (auto _ : state) {
    ctx.forall(v.size(), w,
               [&](std::size_t i) { v[i] = v[i] * 1.0000001 + 1e-9; });
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size()));
}
BENCHMARK(BM_ForallTracing)->Arg(0)->Arg(1);

void BM_Forall3(benchmark::State& state) {
  // Host cost of the 3D index recovery: forall3 hoists the div/mod out of
  // the inner loop (increment-with-carry), so the per-iteration work is
  // the body plus two adds and a compare.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n * n * n, 1.0);
  auto ctx = core::make_seq();
  for (auto _ : state) {
    ctx.forall3(n, n, n, {1.0, 16.0},
                [&](std::size_t i, std::size_t j, std::size_t k) {
                  v[(i * n + j) * n + k] += 1.0;
                });
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size()));
}
BENCHMARK(BM_Forall3)->Arg(32)->Arg(64)->Arg(96);

void BM_CgFused(benchmark::State& state) {
  // Real-host cost of the fused CG iteration (Arg 1) vs the five separate
  // BLAS-1 sweeps (Arg 0); the answer is bitwise identical either way.
  const auto n = static_cast<std::size_t>(state.range(1));
  auto a = la::poisson2d(n, n);
  la::CsrOperator op(a);
  la::JacobiPreconditioner jacobi(a);
  std::vector<double> b(a.rows(), 1.0), x(a.rows());
  auto ctx = core::make_seq();
  la::SolveOptions opts;
  opts.fused = state.range(0) != 0;
  opts.max_iters = 50;
  opts.rel_tol = 0.0;  // fixed iteration count for a stable comparison
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    auto res = la::cg(ctx, op, jacobi, b, x, opts);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_CgFused)->Args({0, 128})->Args({1, 128});

void BM_WaveSweep(benchmark::State& state) {
  // One wave_survive/wave_dist rank's sweep: a 64 x 128 x 128 slab of the
  // 4th-order wave kernel, Taylor backstep (Arg 0: reads u, writes u_prev)
  // or leapfrog (Arg 1: reads u and u_prev, writes u_next). Bytes are the
  // arrays streamed, 8 per point per array.
  const bool leapfrog = state.range(0) == 1;
  stencil::WaveSlab slab(64, 128, 128, 1.0, 1.0, 0.5, 1, 0,
                         [](double x, double y, double z) {
                           return x * (1.0 - x) * y * (1.0 - y) * z *
                                  (1.0 - z);
                         });
  slab.fill_yz_walls();
  slab.fill_x_walls();
  auto ctx = core::make_seq();
  const auto update = leapfrog ? stencil::WaveSlab::Update::Leapfrog
                               : stencil::WaveSlab::Update::Taylor;
  for (auto _ : state) {
    slab.sweep(ctx, 2, slab.lnx() + 2, update);
    benchmark::DoNotOptimize(slab.u().data());
    benchmark::ClobberMemory();
  }
  const std::int64_t points = 64 * 128 * 128;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          points * 8 * (leapfrog ? 3 : 2));
}
BENCHMARK(BM_WaveSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  // The checksum of one wave_survive checkpoint blob: a (64+4) x 132 x 132
  // slab of u and u_prev, 19 MB. Every buddy commit hashes each blob twice
  // (at its owner and at the buddy). core::crc32 folds it with carry-less
  // multiplies where the CPU has PCLMULQDQ (Arg 1) and otherwise runs the
  // slicing-by-8 table loop (Arg 0, detail::crc32_table).
  const std::size_t words = std::size_t{64 + 4} * 132 * 132 * 2;
  std::vector<double> blob(words);
  core::Rng rng(7);
  for (double& w : blob) w = rng.uniform();
  const std::size_t bytes = words * sizeof(double);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        state.range(0) == 1 ? core::crc32(blob.data(), bytes)
                            : core::detail::crc32_table(blob.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// table5_cleverleaf's device level: a 512^2 Sod tube with outflow walls,
// as one patch (Arg 1) or four quadrant patches (Arg 4).
struct SodLevel {
  static constexpr std::int64_t kN = 512;
  core::MemoryPool pool;
  amr::PatchLevel level{pool, amr::Box{0, 0, kN - 1, kN - 1}, 2,
                        amr::BoundaryKind::Outflow};
  core::ExecContext ctx = core::make_device();
  std::unique_ptr<amr::EulerSolver> solver;

  explicit SodLevel(std::int64_t patches) {
    const std::int64_t h = kN / 2;
    if (patches == 4) {
      level.add_patch(amr::Box{0, 0, h - 1, h - 1});
      level.add_patch(amr::Box{h, 0, kN - 1, h - 1});
      level.add_patch(amr::Box{0, h, h - 1, kN - 1});
      level.add_patch(amr::Box{h, h, kN - 1, kN - 1});
    } else {
      level.add_patch(amr::Box{0, 0, kN - 1, kN - 1});
    }
    amr::EulerConfig cfg;
    cfg.dx = cfg.dy = 1.0 / double(kN);
    solver = std::make_unique<amr::EulerSolver>(ctx, level, cfg);
    solver->init(
        [h](std::int64_t i, std::int64_t) { return amr::sod_state(i, h); });
  }
};

void BM_EulerStep(benchmark::State& state) {
  // Ghost fill of the four conserved fields, the LLF update and the commit.
  SodLevel sod(state.range(0));
  const double dt = sod.solver->compute_dt();
  for (auto _ : state) {
    sod.solver->step(dt);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          SodLevel::kN * SodLevel::kN);
}
BENCHMARK(BM_EulerStep)->Arg(1)->Arg(4);

void BM_EulerComputeDt(benchmark::State& state) {
  // The CFL reduction over every interior cell.
  SodLevel sod(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(sod.solver->compute_dt());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          SodLevel::kN * SodLevel::kN);
}
BENCHMARK(BM_EulerComputeDt)->Arg(1)->Arg(4);

}  // namespace

namespace {

/// Simulated-cost half of the fusion ablation: launch counts and modeled
/// time on a V100 for the fused vs unfused CG iteration and Cardioid
/// reaction step. Fusion must strictly reduce both, with the solution
/// unchanged; the table goes to stdout and the metrics to the JSON.
void fusion_ablation(coe::bench::Harness& bench) {
  std::printf("\n=== fusion ablation (simulated V100) ===\n\n");
  core::Table t({"hot path", "launches", "sim ms", "fused gain"});

  double cg_launches[2], cg_ms[2], cg_xnorm[2];
  for (int fused = 0; fused < 2; ++fused) {
    auto ctx = core::make_device(hsim::machines::v100());
    auto a = la::poisson2d(96, 96);
    la::CsrOperator op(a);
    la::JacobiPreconditioner jacobi(a);
    std::vector<double> b(a.rows(), 1.0), x(a.rows());
    la::SolveOptions opts;
    opts.fused = fused != 0;
    opts.max_iters = 100;
    opts.rel_tol = 0.0;
    la::cg(ctx, op, jacobi, b, x, opts);
    cg_launches[fused] = static_cast<double>(ctx.counters().launches);
    cg_ms[fused] = ctx.simulated_time() * 1e3;
    cg_xnorm[fused] = la::norm2(ctx, x);
  }
  t.row({"CG iteration (unfused)", core::Table::num(cg_launches[0], 0),
         core::Table::num(cg_ms[0], 3), "1.00x"});
  t.row({"CG iteration (fused)", core::Table::num(cg_launches[1], 0),
         core::Table::num(cg_ms[1], 3),
         core::Table::num(cg_ms[0] / cg_ms[1], 2) + "x"});

  double rx_launches[2], rx_ms[2], rx_v[2];
  for (int fused = 0; fused < 2; ++fused) {
    auto dev = core::make_device(hsim::machines::v100());
    auto host = core::make_seq();
    reaction::TissueConfig cfg;
    cfg.nx = 128;
    cfg.ny = 128;
    cfg.rates = reaction::RateKind::Rational;
    cfg.fuse_reaction = fused != 0;
    reaction::Monodomain tissue(dev, host, cfg);
    tissue.stimulate(0, 16, 0, 16, 100.0, 1.0);
    tissue.run(5.0);
    rx_launches[fused] = static_cast<double>(dev.counters().launches);
    rx_ms[fused] = dev.simulated_time() * 1e3;
    rx_v[fused] = tissue.max_voltage();
  }
  t.row({"Cardioid step (unfused)", core::Table::num(rx_launches[0], 0),
         core::Table::num(rx_ms[0], 3), "1.00x"});
  t.row({"Cardioid step (fused)", core::Table::num(rx_launches[1], 0),
         core::Table::num(rx_ms[1], 3),
         core::Table::num(rx_ms[0] / rx_ms[1], 2) + "x"});
  t.print();
  std::printf("\nCG solutions identical: %s; tissue voltages identical:"
              " %s\n",
              cg_xnorm[0] == cg_xnorm[1] ? "yes" : "NO",
              rx_v[0] == rx_v[1] ? "yes" : "NO");

  bench.metrics().set("fusion.cg.unfused_launches", cg_launches[0]);
  bench.metrics().set("fusion.cg.fused_launches", cg_launches[1]);
  bench.metrics().set("fusion.cg.speedup", cg_ms[0] / cg_ms[1]);
  bench.metrics().set("fusion.reaction.unfused_launches", rx_launches[0]);
  bench.metrics().set("fusion.reaction.fused_launches", rx_launches[1]);
  bench.metrics().set("fusion.reaction.speedup", rx_ms[0] / rx_ms[1]);
}

}  // namespace

COE_BENCH_MAIN(microbench_kernels) {
  // Leftover argv (e.g. --benchmark_filter=...) goes straight through to
  // google-benchmark; the reporter mirrors each benchmark's per-iteration
  // real time into the metrics registry so BENCH_microbench_kernels.json
  // carries the headline numbers.
  class Reporter : public benchmark::ConsoleReporter {
   public:
    explicit Reporter(obs::MetricsRegistry& m) : metrics_(m) {}
    void ReportRuns(const std::vector<Run>& reports) override {
      for (const auto& run : reports) {
        if (run.error_occurred || run.iterations == 0) continue;
        metrics_.set("microbench." + run.benchmark_name() + ".real_s",
                     run.real_accumulated_time /
                         static_cast<double>(run.iterations));
      }
      ConsoleReporter::ReportRuns(reports);
    }

   private:
    obs::MetricsRegistry& metrics_;
  };

  int argc = bench.argc();
  benchmark::Initialize(&argc, bench.argv());
  Reporter reporter(bench.metrics());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  fusion_ablation(bench);
  return 0;
}
