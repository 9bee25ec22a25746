// Tests for coe::phoenix (DESIGN.md §17): the distributed checkpoint
// store, the rank-kill injectors, the mpi repair primitives under kills
// swept across every protocol phase, and the survivable wave driver's
// bitwise ride-through-failure guarantees.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "phoenix/phoenix.hpp"
#include "resil/resil.hpp"
#include "stencil/distributed.hpp"
#include "stencil/survivable.hpp"
#include "xray/xray.hpp"

namespace {

using namespace coe;

// ---------------------------------------------------------------------------
// DistributedCheckpointStore units
// ---------------------------------------------------------------------------

TEST(PhoenixStore, TwoPhaseCommitVisibilityAndPrune) {
  phoenix::DistributedCheckpointStore s;
  EXPECT_EQ(s.latest_committed(), phoenix::DistributedCheckpointStore::kNone);

  s.stage(10, 0, 4, {1.0, 2.0});
  // Staged but uncommitted blobs are invisible.
  EXPECT_FALSE(s.has(10, 0));
  EXPECT_EQ(s.latest_committed(), phoenix::DistributedCheckpointStore::kNone);

  s.commit(10);
  EXPECT_TRUE(s.has(10, 0));
  EXPECT_EQ(s.latest_committed(), 10u);

  std::vector<double> out;
  std::size_t step = 0;
  EXPECT_EQ(s.fetch(10, 0, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Ok);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(step, 4u);

  // Double buffering: only the newest two committed generations survive.
  s.stage(20, 0, 8, {3.0});
  s.commit(20);
  s.stage(30, 0, 12, {4.0});
  s.commit(30);
  EXPECT_FALSE(s.has(10, 0));
  EXPECT_TRUE(s.has(20, 0));
  EXPECT_TRUE(s.has(30, 0));
  EXPECT_EQ(s.latest_committed(), 30u);
  EXPECT_EQ(s.stats().commits, 3u);
}

TEST(PhoenixStore, AbortPendingDropsOnlyTheStagedGeneration) {
  phoenix::DistributedCheckpointStore s;
  s.stage(5, 1, 2, {7.0});
  s.commit(5);
  s.stage(9, 1, 3, {8.0});
  s.abort_pending();
  s.commit(9);  // nothing left to publish
  EXPECT_FALSE(s.has(9, 1));
  EXPECT_TRUE(s.has(5, 1));
  EXPECT_EQ(s.latest_committed(), 5u);
  EXPECT_EQ(s.stats().aborted, 1u);
}

TEST(PhoenixStore, CrcRefusalFallsBackToBuddyCopy) {
  phoenix::DistributedCheckpointStore own, buddy;
  const std::vector<double> blob{1.5, -2.5, 3.5};
  own.stage(7, 2, 6, blob);
  own.commit(7);
  buddy.stage(7, 2, 6, blob);
  buddy.commit(7);

  // Flip a word in the owner's committed copy; the stage-time CRC stays.
  (*own.mutable_payload(7, 2))[1] = 99.0;

  std::vector<double> out;
  std::size_t step = 0;
  EXPECT_EQ(own.fetch(7, 2, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Refused);
  EXPECT_EQ(own.stats().refused, 1u);
  EXPECT_EQ(own.fetch(7, 99, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Missing);

  // The buddy copy still serves, bit-exact.
  EXPECT_EQ(buddy.fetch(7, 2, &out, &step),
            phoenix::DistributedCheckpointStore::Fetch::Ok);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(step, 6u);
}

// ---------------------------------------------------------------------------
// Kill injectors
// ---------------------------------------------------------------------------

TEST(PhoenixFailure, KillRankAtFiresExactlyAtTheChosenOp) {
  auto hook = phoenix::kill_rank_at(2, 5);
  for (std::size_t op = 1; op <= 10; ++op) {
    EXPECT_EQ(hook(2, op), op == 5);
    EXPECT_FALSE(hook(1, op));
  }
  // at_op == 0 never fires.
  auto never = phoenix::kill_rank_at(0, 0);
  for (std::size_t op = 1; op <= 4; ++op) EXPECT_FALSE(never(0, op));
}

TEST(PhoenixFailure, SeededKillsAreDeterministicAndDistinct) {
  auto a = phoenix::seeded_kills(8, 3, 42, 5, 50);
  auto b = phoenix::seeded_kills(8, 3, 42, 5, 50);
  std::set<int> victims_a, victims_b;
  for (int r = 0; r < 8; ++r) {
    for (std::size_t op = 1; op <= 60; ++op) {
      if (a(r, op)) {
        victims_a.insert(r);
        EXPECT_GE(op, 5u);
        EXPECT_LE(op, 50u);
      }
      if (b(r, op)) victims_b.insert(r);
    }
  }
  EXPECT_EQ(victims_a.size(), 3u);
  EXPECT_EQ(victims_a, victims_b);
}

// ---------------------------------------------------------------------------
// mpi repair primitives: waitall containment and double-delivery
// ---------------------------------------------------------------------------

// Satellite (a): a failure waking waitall mid-flight must keep completed
// payloads readable, cancel the pending irecvs, and the subsequent repair
// must purge the unconsumed in-flight message so a same-tag retry can never
// observe the stale payload (double delivery).
TEST(PhoenixMpi, WaitallContainmentAndRepairKillsDoubleDelivery) {
  mpi::RunOptions opts;
  opts.recoverable = true;
  opts.timeout_seconds = 5.0;
  opts.max_retries = 1;
  // Rank 2 dies at its second op — after consuming rank 0's go-signal, so
  // the death deterministically lands after rank 0's sends are deposited.
  opts.fault_hook = phoenix::kill_rank_at(2, 2);

  std::mutex mtx;
  std::vector<mpi::PurgedMessage> purged;
  std::vector<double> delivered;

  mpi::run(3, opts, [&](mpi::Communicator& comm) {
    const int r = comm.rank();
    if (r == 2) {
      comm.recv(0, 9);          // go-signal: rank 0 has sent tags 4 and 5
      comm.send(0, 88, {0.0});  // killed on entry: never deposited
      return;
    }
    auto recover = [&](bool leader) {
      for (;;) {
        try {
          const int before = comm.epoch();
          comm.revoke();
          std::vector<int> dead;
          comm.agree_min(0, &dead);
          EXPECT_EQ(dead, (std::vector<int>{2}));
          if (leader) {
            mpi::RepairPlan plan;
            plan.retire = dead;
            auto res = comm.repair(plan);
            std::lock_guard<std::mutex> lk(mtx);
            purged = res.purged;
          } else {
            comm.await_repair(before);
          }
          return;
        } catch (const mpi::RankFailed&) {
        }
      }
    };
    if (r == 0) {
      comm.send(1, 4, {4.0});
      comm.send(1, 5, {1.0});  // stale: purged by the repair, never seen
      comm.send(2, 9, {0.0});  // go-signal: rank 2 may die now
      try {
        comm.recv(1, 77);  // parked: woken by the revocation
        ADD_FAILURE() << "recv should have been interrupted";
      } catch (const mpi::RankFailed&) {
      }
      recover(/*leader=*/true);
      comm.send(1, 5, {99.0});
    } else {  // r == 1
      std::vector<mpi::Request> rs(2);
      rs[0] = comm.irecv(0, 4);
      rs[1] = comm.irecv(2, 99);  // never sent: pending when the kill lands
      // Complete the first receive before the batch wait: tag 4 is already
      // (or about to be) deposited, and a deliverable operation completes
      // even with a failure pending.
      comm.wait(rs[0]);
      try {
        comm.waitall(rs);
        ADD_FAILURE() << "waitall should have raised RankFailed";
      } catch (const mpi::RankFailed&) {
      }
      // Completed request keeps its payload; the pending one is cancelled.
      EXPECT_TRUE(rs[0].done());
      EXPECT_FALSE(rs[0].cancelled());
      EXPECT_EQ(rs[0].data(), (std::vector<double>{4.0}));
      EXPECT_TRUE(rs[1].cancelled());
      EXPECT_TRUE(rs[1].data().empty());
      recover(/*leader=*/false);
      auto v = comm.recv(0, 5);
      std::lock_guard<std::mutex> lk(mtx);
      delivered = v;
    }
  });

  // The post-repair receive saw the fresh payload, not the purged one.
  EXPECT_EQ(delivered, (std::vector<double>{99.0}));
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].src, 0);
  EXPECT_EQ(purged[0].dest, 1);
  EXPECT_EQ(purged[0].tag, 5);
  EXPECT_EQ(purged[0].epoch, 0);
  EXPECT_EQ(purged[0].bytes, 8.0);
}

// ---------------------------------------------------------------------------
// Satellite (c), part 1: kill a rank at every phase of recursive-doubling
// allreduce. Survivors must always reach agreement (or the recoverable
// RankFailed) and never deadlock, across pof2 and non-pof2 world sizes and
// victim positions.
// ---------------------------------------------------------------------------

TEST(PhoenixMpi, RecursiveDoublingKillSweepAlwaysReachesAgreement) {
  for (int ws : {4, 5, 8}) {
    const std::vector<int> victims = {0, ws / 2, ws - 1};
    for (int victim : victims) {
      for (std::size_t at_op = 1; at_op <= 9; ++at_op) {
        mpi::RunOptions opts;
        opts.recoverable = true;
        opts.timeout_seconds = 5.0;
        opts.max_retries = 1;
        opts.fault_hook = phoenix::kill_rank_at(victim, at_op);

        std::mutex mtx;
        std::vector<double> totals;
        mpi::run(ws, opts, [&](mpi::Communicator& comm) {
          std::set<int> alive;
          for (int r = 0; r < ws; ++r) alive.insert(r);
          auto recover = [&] {
            for (;;) {
              try {
                const int before = comm.epoch();
                comm.revoke();
                std::vector<int> dead;
                comm.agree_min(0, &dead);
                for (int d : dead) alive.erase(d);
                if (comm.rank() == *alive.begin()) {
                  mpi::RepairPlan plan;
                  plan.retire = dead;
                  comm.repair(plan);
                } else {
                  comm.await_repair(before);
                }
                return;
              } catch (const mpi::RankFailed&) {
              }
            }
          };
          std::vector<double> v = {1.0};
          try {
            net::allreduce_sum(comm, v, net::AllreduceAlgo::RecursiveDoubling);
          } catch (const mpi::RankFailed&) {
            recover();
          }
          // Fault-tolerant completion: agree on the survivor count via the
          // repaired world's collective (retried through further repairs).
          double total = -1.0;
          while (total < 0.0) {
            try {
              total = comm.allreduce_sum(1.0);
            } catch (const mpi::RankFailed&) {
              recover();
            }
          }
          std::lock_guard<std::mutex> lk(mtx);
          totals.push_back(total);
        });

        // Every completing rank is a survivor and all agree on the same
        // total: the number of survivors.
        ASSERT_FALSE(totals.empty())
            << "ws=" << ws << " victim=" << victim << " op=" << at_op;
        for (double t : totals) {
          EXPECT_EQ(t, static_cast<double>(totals.size()))
              << "ws=" << ws << " victim=" << victim << " op=" << at_op;
        }
        EXPECT_GE(totals.size(), static_cast<std::size_t>(ws - 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Survivable wave
// ---------------------------------------------------------------------------

double wave_u0(double x, double y, double z) {
  return std::sin(M_PI * x) * std::sin(2.0 * M_PI * y) * std::sin(M_PI * z);
}

stencil::SurvivableWaveConfig wave_cfg(int workers, int spares,
                                       phoenix::RepairPolicy policy) {
  stencil::SurvivableWaveConfig c;
  c.nx = 20;  // divides by 4 and by 5
  c.ny = 4;
  c.nz = 4;
  c.steps = 5;
  c.workers = workers;
  c.spares = spares;
  c.policy = policy;
  c.ckpt_every = 2;
  c.mpi.timeout_seconds = 5.0;
  c.mpi.max_retries = 1;
  return c;
}

TEST(PhoenixWave, FaultFreeSurvivableMatchesDistributedBitwise) {
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto sur = stencil::survivable_wave_run(cfg, wave_u0);

  stencil::DistributedWaveConfig dc;
  dc.nx = cfg.nx;
  dc.ny = cfg.ny;
  dc.nz = cfg.nz;
  dc.steps = cfg.steps;
  auto dist = stencil::distributed_wave_run(4, dc, wave_u0);

  EXPECT_EQ(sur.dt, dist.dt);
  ASSERT_EQ(sur.field.size(), dist.field.size());
  EXPECT_EQ(sur.field, dist.field);
  EXPECT_EQ(sur.report.stats.kills, 0u);
  EXPECT_GT(sur.report.stats.ckpt_commits, 0u);
}

// Recorded on the drivers that each kept their own copy of the wave
// arithmetic: the shared slab must reproduce every field bit, kernel
// counter, message and modeled second of a fault-free survivable run.
TEST(PhoenixWave, FaultFreeRunIsPinned) {
  hsim::ClusterModel cl;
  cl.name = "test";
  cl.nodes = 64;
  cl.alpha = 1e-6;
  cl.beta = 1e-9;
  net::NetLog log;
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  cfg.cluster = &cl;
  cfg.log = &log;
  cfg.trace_ranks = true;
  const auto r = stencil::survivable_wave_run(cfg, wave_u0);

  std::size_t launches = 0;
  double flops = 0.0, bytes = 0.0;
  for (const auto& tb : r.report.rank_traces) {
    for (const auto& e : tb.snapshot()) {
      if (e.kind != obs::TraceEvent::Kind::Kernel) continue;
      ++launches;
      flops += e.flops;
      bytes += e.bytes;
    }
  }
  std::uint64_t h = 14695981039346656037ull;
  for (double d : r.field) {
    const auto w = std::bit_cast<std::uint64_t>(d);
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  EXPECT_EQ(h, 0x4439d3cd47b55a51ull);
  EXPECT_EQ(launches, 24u);
  EXPECT_EQ(flops, 72960.0);
  EXPECT_EQ(bytes, 230400.0);
  EXPECT_EQ(r.report.traffic.messages, 44u);
  EXPECT_EQ(r.report.stats.ckpt_commits, 8u);
  EXPECT_EQ(r.report.stats.buddy_msgs, 8u);
  EXPECT_EQ(r.report.stats.buddy_bytes, 73984.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.modeled.timeline_s),
            0x3f1821739300c072ull);
}

TEST(PhoenixWave, SpareSubstitutionRecoversBitwise) {
  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);
  ASSERT_EQ(ref.report.stats.kills, 0u);

  // Op 22 is rank 1's second commit vote: dying there guarantees its ring
  // predecessor already advanced past the agreed generation, so rollback
  // provably replays work (replayed_steps > 0 is deterministic).
  cfg.fault_hook = phoenix::kill_rank_at(1, 22);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_EQ(r.report.dead, (std::vector<int>{1}));
  EXPECT_GE(r.report.stats.repairs, 1u);
  EXPECT_EQ(r.report.stats.adoptions, 1u);
  EXPECT_EQ(r.report.stats.retirements, 0u);
  EXPECT_GT(r.report.stats.restores, 0u);
  EXPECT_GT(r.report.stats.replayed_steps, 0u);
  EXPECT_GE(r.report.stats.shipped_msgs, 1u);
  EXPECT_GE(r.report.epochs, 1);
  EXPECT_EQ(r.field, ref.field);
}

TEST(PhoenixWave, ShrinkRecoversBitwise) {
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  cfg.fault_hook = phoenix::kill_rank_at(2, 16);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 1u);
  EXPECT_GE(r.report.stats.repairs, 1u);
  EXPECT_EQ(r.report.stats.retirements, 1u);
  EXPECT_EQ(r.report.stats.adoptions, 0u);
  EXPECT_GT(r.report.stats.restores, 0u);
  // The shrunken world computes the identical global field: parts, not
  // ranks, own the arithmetic.
  EXPECT_EQ(r.field, ref.field);
}

// Under Shrink the first victim's parts move to its ring successor, whose
// buddy message then carries two blobs. Killing that successor after a
// post-repair commit makes its own successor restore both parts from the
// two-blob message. Rank 1 is retired before rank 2 dies, so the two are
// never neighbours in one live ring (contrast BuddyPairLossIsUnrecoverable).
TEST(PhoenixWave, ShrinkTwoBlobBuddyRestoreIsBitwise) {
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  cfg.steps = 8;
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);
  ASSERT_EQ(ref.report.stats.kills, 0u);

  auto h1 = phoenix::kill_rank_at(1, 16);
  auto h2 = phoenix::kill_rank_at(2, 40);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.dead, (std::vector<int>{1, 2}));
  EXPECT_EQ(r.report.stats.retirements, 2u);
  // First round: part 0 on rank 0, parts 1-2 on rank 2, part 3 on rank 3.
  // Second round: part 0 on rank 0, parts 1-3 on rank 3 -- parts 1 and 2
  // exist in rank 3's store only as the two-blob message from rank 2.
  EXPECT_EQ(r.report.stats.restores, 8u);
  EXPECT_EQ(r.report.stats.crc_fallbacks, 0u);
  EXPECT_EQ(r.field, ref.field);
}

// Satellite (c), part 2: kill a rank at every op index through the run —
// covering every phase of the buddy-exchange two-phase commit (stage, ship,
// receive, vote) as well as the halo phases around it — for pof2 and
// non-pof2 worlds and several victim positions. Every run must either ride
// through bitwise or (never, with a single kill and a spare in reserve)
// abort loudly; silent divergence and deadlock are the failure modes.
TEST(PhoenixWave, KillEveryPhaseSweepSpare) {
  for (int ws : {4, 5}) {
    auto base = wave_cfg(ws, 2, phoenix::RepairPolicy::Spare);
    auto ref = stencil::survivable_wave_run(base, wave_u0);
    const std::vector<int> victims = {0, ws / 2, ws - 1};
    for (int victim : victims) {
      for (std::size_t at_op = 1; at_op <= 24; ++at_op) {
        auto cfg = base;
        cfg.fault_hook = phoenix::kill_rank_at(victim, at_op);
        auto r = stencil::survivable_wave_run(cfg, wave_u0);
        EXPECT_LE(r.report.stats.kills, 1u);
        EXPECT_EQ(r.field, ref.field)
            << "ws=" << ws << " victim=" << victim << " op=" << at_op;
      }
    }
  }
}

TEST(PhoenixWave, KillEveryPhaseSweepShrink) {
  auto base = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  auto ref = stencil::survivable_wave_run(base, wave_u0);
  for (int victim : {1, 3}) {
    for (std::size_t at_op = 1; at_op <= 20; ++at_op) {
      auto cfg = base;
      cfg.fault_hook = phoenix::kill_rank_at(victim, at_op);
      auto r = stencil::survivable_wave_run(cfg, wave_u0);
      EXPECT_EQ(r.field, ref.field)
          << "victim=" << victim << " op=" << at_op;
    }
  }
}

TEST(PhoenixWave, SecondKillDuringRecoveryStillBitwise) {
  auto cfg = wave_cfg(4, 2, phoenix::RepairPolicy::Spare);
  cfg.steps = 6;
  auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  // Non-adjacent victims (their buddy holders survive), near-simultaneous:
  // the second death can land inside the first recovery round.
  auto h1 = phoenix::kill_rank_at(1, 16);
  auto h2 = phoenix::kill_rank_at(3, 17);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  auto r = stencil::survivable_wave_run(cfg, wave_u0);

  EXPECT_EQ(r.report.stats.kills, 2u);
  EXPECT_EQ(r.report.dead, (std::vector<int>{1, 3}));
  EXPECT_EQ(r.report.stats.adoptions, 2u);
  EXPECT_EQ(r.field, ref.field);
}

TEST(PhoenixWave, BuddyPairLossIsUnrecoverable) {
  // Ranks 1 and 2 are ring-adjacent: rank 2 holds rank 1's buddy copies.
  // Killing both inside one commit window leaves no intact copy of part 1.
  auto cfg = wave_cfg(4, 0, phoenix::RepairPolicy::Shrink);
  cfg.steps = 5;
  cfg.ckpt_every = 3;
  auto h1 = phoenix::kill_rank_at(1, 18);
  auto h2 = phoenix::kill_rank_at(2, 18);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  EXPECT_THROW(stencil::survivable_wave_run(cfg, wave_u0),
               phoenix::PhoenixUnrecoverable);
}

TEST(PhoenixWave, SpareExhaustionIsUnrecoverable) {
  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  cfg.steps = 10;
  cfg.ckpt_every = 3;
  auto h1 = phoenix::kill_rank_at(1, 6);
  auto h2 = phoenix::kill_rank_at(3, 30);
  cfg.fault_hook = [h1, h2](int r, std::size_t op) {
    return h1(r, op) || h2(r, op);
  };
  EXPECT_THROW(stencil::survivable_wave_run(cfg, wave_u0),
               phoenix::PhoenixUnrecoverable);
}

TEST(PhoenixDriver, ConfigValidation) {
  phoenix::SurvivableConfig cfg;
  phoenix::SurvivableHooks hooks;
  EXPECT_THROW(phoenix::run_survivable(cfg, hooks), std::invalid_argument);

  auto wcfg = wave_cfg(4, 2, phoenix::RepairPolicy::Shrink);
  EXPECT_THROW(stencil::survivable_wave_run(wcfg, wave_u0),
               std::invalid_argument);  // shrink takes no spares
  auto bad = wave_cfg(3, 0, phoenix::RepairPolicy::Shrink);
  EXPECT_THROW(stencil::survivable_wave_run(bad, wave_u0),
               std::invalid_argument);  // nx % workers != 0
}

// ---------------------------------------------------------------------------
// Observability: metrics, the xray merge, and drain logging
// ---------------------------------------------------------------------------

TEST(PhoenixObs, MetricsXrayAndDrainLoggingOnRecovery) {
  auto cluster = hsim::clusters::ethernet(4);
  net::NetLog log;
  obs::MetricsRegistry metrics;

  auto cfg = wave_cfg(4, 1, phoenix::RepairPolicy::Spare);
  cfg.nx = 16;
  cfg.steps = 6;
  cfg.ckpt_every = 3;
  cfg.cluster = &cluster;
  cfg.log = &log;
  cfg.metrics = &metrics;
  cfg.trace_ranks = true;
  // Second commit vote (see SpareSubstitutionRecoversBitwise): makes the
  // replayed_steps metric assertion below deterministic.
  cfg.fault_hook = phoenix::kill_rank_at(1, 30);
  auto r = stencil::survivable_wave_run(cfg, wave_u0);
  ASSERT_EQ(r.report.stats.kills, 1u);

  // phoenix.* metrics published (the schema validate_bench_json pins).
  EXPECT_EQ(metrics.counter("phoenix.kills"), 1.0);
  EXPECT_GE(metrics.counter("phoenix.detections"), 1.0);
  EXPECT_GE(metrics.counter("phoenix.repairs"), 1.0);
  EXPECT_EQ(metrics.counter("phoenix.adoptions"), 1.0);
  EXPECT_GT(metrics.counter("phoenix.ckpt_commits"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.restores"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.replayed_steps"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.buddy_msgs"), 0.0);
  EXPECT_GT(metrics.counter("phoenix.buddy_bytes"), 0.0);
  EXPECT_GE(metrics.counter("phoenix.shipped_msgs"), 1.0);
  EXPECT_GT(metrics.counter("phoenix.repair_s"), 0.0);

  const auto events = log.snapshot();
  // Recovery traffic is epoch-salted: post-repair tags live past 0x10000.
  bool salted = false;
  // Every send is matched by a receive — real or the repair leader's
  // synthetic drain — so the replay has no unmatched sends.
  std::map<std::tuple<int, int, int>, long> balance;
  for (const auto& e : events) {
    if (e.tag >= 0x10000) salted = true;
    if (e.kind == net::NetEvent::Kind::Send) {
      balance[{e.rank, e.peer, e.tag}] += 1;
    } else if (e.kind == net::NetEvent::Kind::Recv) {
      balance[{e.peer, e.rank, e.tag}] -= 1;
    }
  }
  EXPECT_TRUE(salted);
  for (const auto& [k, v] : balance) {
    EXPECT_EQ(v, 0) << "unbalanced (src=" << std::get<0>(k)
                    << ", dest=" << std::get<1>(k)
                    << ", tag=" << std::get<2>(k) << ")";
  }

  // The merged cross-rank view replays clean, and the repair has a trace
  // presence ("phoenix/repair" phase) for critical-path attribution.
  xray::MergeInputs in;
  in.log = &log;
  in.cluster = &cluster;
  in.ranks = 4;
  auto rep = xray::analyze(in);
  EXPECT_TRUE(rep.well_formed) << (rep.diagnostics.empty()
                                       ? std::string("no diagnostics")
                                       : rep.diagnostics.front());
  EXPECT_GT(rep.critical_s, 0.0);

  bool saw_repair = false, saw_ckpt = false;
  for (const auto& tb : r.report.rank_traces) {
    for (const auto& e : tb.snapshot()) {
      if (e.phase == "phoenix/repair") saw_repair = true;
      if (e.phase == "phoenix/ckpt") saw_ckpt = true;
    }
  }
  EXPECT_TRUE(saw_repair);
  EXPECT_TRUE(saw_ckpt);
}

// Satellite (b): the resil store-integrity counters ride the registry.
TEST(PhoenixObs, ResilStoreIntegrityCountersPublished) {
  struct One final : resil::Checkpointable {
    double v = 1.0;
    void save_state(std::vector<double>& out) const override { out = {v}; }
    void restore_state(const std::vector<double>& in) override { v = in[0]; }
  };
  One app;
  auto ctx = core::make_seq();
  obs::MetricsRegistry m;
  resil::ResilienceConfig cfg;
  cfg.metrics = &m;
  resil::run_resilient(
      app, ctx, 3,
      [&](std::size_t) {
        app.v += 1.0;
        ctx.record_kernel({8.0, 8.0});
      },
      cfg);
  const auto cs = m.counters();
  EXPECT_EQ(cs.count("resil.refused_generations"), 1u);
  EXPECT_EQ(cs.count("resil.crc_fallbacks"), 1u);
  EXPECT_EQ(cs.at("resil.refused_generations"), 0.0);
  EXPECT_EQ(cs.at("resil.crc_fallbacks"), 0.0);
}

// ---------------------------------------------------------------------------
// Chaos: CI's chaos job sweeps COE_CHAOS_SEED through this binary
// ---------------------------------------------------------------------------

/// Chaos seed for this process: CI sets COE_CHAOS_SEED per matrix entry; a
/// failure is reproducible by exporting the logged value.
std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("COE_CHAOS_SEED");
    std::uint64_t v = env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
    if (v == 0) v = 1;
    std::cout << "[chaos] COE_CHAOS_SEED=" << v << "\n";
    return v;
  }();
  return seed;
}

// The survivability contract under arbitrary seeded kill schedules: every
// run either rides through to the fault-free bits or aborts loudly with
// PhoenixUnrecoverable (a buddy pair died inside one commit window) —
// never a hang, never silently wrong bits. Any seed must pass.
TEST(PhoenixChaos, SeededKillSchedulesSurviveBitwiseOrFailLoud) {
  const std::uint64_t seed = chaos_seed();
  auto cfg = wave_cfg(4, 2, phoenix::RepairPolicy::Spare);
  cfg.steps = 8;
  cfg.ckpt_every = 3;
  const auto ref = stencil::survivable_wave_run(cfg, wave_u0);

  std::size_t survived = 0, aborted = 0;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    auto c = cfg;
    c.fault_hook = phoenix::seeded_kills(4, 2, seed * 1000 + trial, 4, 40);
    try {
      const auto r = stencil::survivable_wave_run(c, wave_u0);
      EXPECT_EQ(r.field, ref.field)
          << "seed " << seed << " trial " << trial;
      ++survived;
    } catch (const phoenix::PhoenixUnrecoverable&) {
      ++aborted;
    }
  }
  EXPECT_EQ(survived + aborted, 6u);
  std::cout << "[chaos] " << survived << " survived bitwise, " << aborted
            << " aborted loud\n";
}

}  // namespace
