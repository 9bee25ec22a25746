// Cross-module integration tests: the workflows the iCoE actually ran,
// stitched together from multiple libraries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analytics/lda.hpp"
#include "md/md.hpp"
#include "sched/scheduler.hpp"
#include "stencil/wave.hpp"
#include "topopt/simp.hpp"

namespace {

using namespace coe;

TEST(Integration, DistributedLdaShardStatisticsMatchSerial) {
  // Four "workers" each E-step a shard; one reducer sums their sufficient
  // statistics and runs the M-step. The result must equal the serial EM
  // iteration to rounding (the statistics are a sum, so sharding commutes).
  analytics::CorpusConfig ccfg;
  ccfg.vocab = 300;
  ccfg.topics = 5;
  ccfg.docs = 120;
  ccfg.words_per_doc = 60;
  auto corpus = analytics::generate_corpus(ccfg);
  analytics::LdaConfig lcfg;
  lcfg.topics = 5;

  analytics::LdaModel serial(corpus.vocab, lcfg);
  analytics::LdaModel distributed(corpus.vocab, lcfg);

  serial.em_iteration(corpus);

  const std::size_t workers = 4;
  const std::size_t shard = (corpus.docs.size() + workers - 1) / workers;
  auto merged = distributed.make_stats();
  for (std::size_t w = 0; w < workers; ++w) {
    auto stats = distributed.make_stats();
    distributed.accumulate(corpus, w * shard,
                           std::min((w + 1) * shard, corpus.docs.size()),
                           stats);
    for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += stats[i];
  }
  distributed.m_step(merged);

  for (std::size_t k = 0; k < lcfg.topics; ++k) {
    for (std::size_t w = 0; w < corpus.vocab; ++w) {
      EXPECT_NEAR(distributed.beta(k, w), serial.beta(k, w), 1e-12)
          << "topic " << k << " word " << w;
    }
  }
}

TEST(Integration, MummiStyleCampaignSchedulesRealMdJobs) {
  // MuMMI schedules thousands of micro-scale MD jobs (Section 4.6 + 4.7):
  // derive job durations from a *real* MD step measurement, then drive
  // the scheduler with them.
  core::Rng rng(5);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 8, 0.6, 1.0, rng);
  auto gpu = core::make_device(hsim::machines::v100());
  auto cpu = core::make_cpu();
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), {});
  const double t0 = gpu.simulated_time();
  for (int s = 0; s < 20; ++s) sim.step();
  const double sec_per_step = (gpu.simulated_time() - t0) / 20.0;
  ASSERT_GT(sec_per_step, 0.0);

  // Each campaign job = 50k steps +- spread.
  std::vector<sched::Job> jobs;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const double steps = 50000.0 * rng.uniform(0.5, 2.0);
    jobs.push_back({i, 0.0, steps * sec_per_step, steps * sec_per_step, 1});
  }
  sched::Simulator scheduler({4, sched::Policy::SjfQuota, 0.0, 0});
  auto m = scheduler.run(jobs);
  EXPECT_EQ(m.completed, 400u);
  EXPECT_GT(m.utilization, 0.95);  // a batch campaign keeps GPUs packed
}

TEST(Integration, TopOptCampaignDurationsFeedScheduler) {
  // The Opt activity end-to-end: per-design FE-solve cost from the real
  // matrix-free solver (CG iterations vary with the evolving design),
  // scheduled as a batch.
  auto ctx = core::make_device(hsim::machines::v100());
  topopt::TopOptConfig cfg;
  cfg.nelx = 16;
  cfg.nely = 8;
  topopt::TopOpt opt(ctx, cfg);
  std::vector<sched::Job> jobs;
  double prev_time = 0.0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    opt.iterate();
    const double dur = ctx.simulated_time() - prev_time;
    prev_time = ctx.simulated_time();
    ASSERT_GT(dur, 0.0);
    jobs.push_back({i, 0.0, dur, dur, 1});
  }
  sched::Simulator scheduler({2, sched::Policy::Sjf, 0.0, 0});
  auto m = scheduler.run(jobs);
  EXPECT_EQ(m.completed, 12u);
  // Conservation: utilization * gpus * makespan = total simulated work.
  double total = 0.0;
  for (const auto& j : jobs) total += j.duration;
  EXPECT_NEAR(m.utilization * 2.0 * m.makespan, total, 1e-9 * total);
}

TEST(Integration, SierraNodeDayOneWorkloadComparison) {
  // "Running the complete application workload ... well before system
  // acceptance": run three mini-apps under one device context and compare
  // the aggregate on the EA system (P100) vs the final system (V100) --
  // the final system must be uniformly faster.
  auto run_on = [](hsim::MachineModel machine) {
    auto ctx = core::make_device(std::move(machine));
    // Seismic step.
    {
      stencil::WaveSolver s(ctx, 24, 24, 24, 1.0, 1.0, {});
      const double dt = s.stable_dt();
      for (int k = 0; k < 5; ++k) s.step(dt);
    }
    // MD burst.
    {
      core::Rng rng(7);
      md::Particles p;
      md::Box box;
      md::init_lattice(p, box, 6, 0.7, 1.0, rng);
      auto cpu = core::make_cpu();
      md::Simulation<md::LennardJones> sim(
          ctx, cpu, std::move(p), box, md::LennardJones(1.0, 1.0, 2.5), {});
      for (int s = 0; s < 10; ++s) sim.step();
    }
    // Design-solver burst.
    {
      topopt::TopOptConfig cfg;
      cfg.nelx = 12;
      cfg.nely = 6;
      topopt::TopOpt opt(ctx, cfg);
      opt.iterate();
    }
    return ctx.simulated_time();
  };
  const double ea = run_on(hsim::machines::p100());
  const double final_system = run_on(hsim::machines::v100());
  EXPECT_LT(final_system, ea);
  EXPECT_GT(final_system, 0.3 * ea);  // same generation class, not 10x
}

}  // namespace
