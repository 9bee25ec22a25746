// Unit tests for the portability layer, machine models, buffers and pools.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "core/coe.hpp"
#include "core/crc32.hpp"
#include "resil/resil.hpp"

namespace {

using namespace coe;

TEST(MachineModel, CatalogSanity) {
  const auto v100 = hsim::machines::v100();
  const auto p9 = hsim::machines::power9();
  EXPECT_GT(v100.flops(), p9.flops());
  EXPECT_GT(v100.bandwidth(), p9.bandwidth());
  EXPECT_GT(v100.launch_overhead, 0.0);
  EXPECT_EQ(p9.launch_overhead, 0.0);
  EXPECT_GT(v100.ridge(), 0.0);
}

TEST(MachineModel, VoltaBeatsPascal) {
  const auto v = hsim::machines::v100();
  const auto p = hsim::machines::p100();
  EXPECT_GT(v.flops(), p.flops());
  EXPECT_GT(v.bandwidth(), p.bandwidth());
  EXPECT_GT(v.link_bw, p.link_bw);  // NVLink2 vs NVLink1
}

TEST(CostModel, RooflineRegimes) {
  hsim::CostModel cm(hsim::machines::v100());
  // Memory-bound: 0.1 flop/byte, far below the ridge.
  hsim::KernelCost mem{1e8, 1e9};
  EXPECT_NEAR(cm.kernel_time(mem),
              cm.machine().launch_overhead + 1e9 / cm.machine().bandwidth(),
              1e-12);
  // Compute-bound: 100 flop/byte.
  hsim::KernelCost cpu{1e12, 1e10};
  EXPECT_NEAR(cm.kernel_time(cpu),
              cm.machine().launch_overhead + 1e12 / cm.machine().flops(),
              1e-9);
}

TEST(CostModel, TransferIsLatencyPlusBandwidth) {
  hsim::CostModel cm(hsim::machines::v100());
  const double t1 = cm.transfer_time(0);
  const double t2 = cm.transfer_time(75e9);  // one second worth at link bw
  EXPECT_NEAR(t1, cm.machine().link_latency, 1e-15);
  EXPECT_NEAR(t2 - t1, 1.0, 1e-9);
}

TEST(ClusterModel, CollectiveScaling) {
  const auto net = hsim::clusters::sierra(1024);
  EXPECT_EQ(net.allreduce(1 << 20, 1), 0.0);
  // Allreduce grows ~log in latency; more ranks is never cheaper than 2.
  EXPECT_GT(net.allreduce(1 << 20, 1024), net.allreduce(1 << 20, 2));
  // Gather to one is linear in total data.
  EXPECT_GT(net.gather(1 << 20, 64), net.gather(1 << 20, 8));
}

TEST(Exec, ForallComputesAndCounts) {
  auto ctx = core::make_device();
  std::vector<double> x(1000, 2.0), y(1000, 1.0);
  ctx.forall(1000, {2.0, 24.0}, [&](std::size_t i) { y[i] += 3.0 * x[i]; });
  for (double v : y) EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_EQ(ctx.counters().launches, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().flops, 2000.0);
  EXPECT_DOUBLE_EQ(ctx.counters().bytes, 24000.0);
  EXPECT_GT(ctx.simulated_time(), 0.0);
}

TEST(Exec, ThreadsBackendMatchesSeq) {
  auto seq = core::make_seq();
  auto thr = core::make_threads();
  std::vector<double> a(10000);
  std::vector<double> b(10000);
  seq.forall(a.size(), [&](std::size_t i) { a[i] = double(i) * 1.5; });
  thr.forall(b.size(), [&](std::size_t i) { b[i] = double(i) * 1.5; });
  EXPECT_EQ(a, b);
}

TEST(Exec, Forall3CoversAllIndices) {
  auto ctx = core::make_seq();
  std::vector<int> hits(3 * 4 * 5, 0);
  core::View3D<int> v(hits.data(), 3, 4, 5);
  ctx.forall3(3, 4, 5, {}, [&](std::size_t i, std::size_t j, std::size_t k) {
    v(i, j, k) += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Exec, ReduceSumMatchesSerial) {
  auto thr = core::make_threads();
  const std::size_t n = 100000;
  const double got = thr.reduce_sum(n, {}, [](std::size_t i) {
    return static_cast<double>(i);
  });
  EXPECT_DOUBLE_EQ(got, double(n) * double(n - 1) / 2.0);
}

TEST(Exec, ThreadsReductionsAreDeterministic) {
  // Partials are indexed by chunk and summed in chunk order, so identical
  // calls give identical bits whichever thread finishes a chunk first.
  // The terms span twelve decades, so any reassociation would show.
  auto thr = core::make_threads();
  const std::size_t n = 20000;
  auto term = [](std::size_t i) {
    return std::sin(double(i)) * std::pow(10.0, double(i % 13) - 6.0);
  };
  const double sum0 = thr.reduce_sum(n, {}, term);
  const double max0 = thr.reduce_max(n, {}, term);
  for (int call = 1; call < 1000; ++call) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(thr.reduce_sum(n, {}, term)),
              std::bit_cast<std::uint64_t>(sum0))
        << "call " << call;
    ASSERT_EQ(thr.reduce_max(n, {}, term), max0) << "call " << call;
  }
}

TEST(Exec, ResetZeroesShadowAccumulators) {
  // Regression: reset() cleared counters and the clock but left shadow
  // machines' accumulated times, so shadow_time() reported stale totals.
  auto ctx = core::make_device();
  const auto shadow = ctx.add_shadow(hsim::machines::power9());
  ctx.forall(1000, {2.0, 16.0}, [](std::size_t) {});
  ctx.record_transfer(1e6, true);
  EXPECT_GT(ctx.shadow_time(shadow), 0.0);
  ctx.reset();
  EXPECT_DOUBLE_EQ(ctx.shadow_time(shadow), 0.0);
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 0.0);
  // The shadow keeps pricing after the reset.
  ctx.forall(1000, {2.0, 16.0}, [](std::size_t) {});
  EXPECT_GT(ctx.shadow_time(shadow), 0.0);
}

TEST(CostModel, AggregatePredictIsLowerBoundOnMixedWork) {
  // predict() maxes the roofline over *aggregate* totals, so on a workload
  // mixing compute- and memory-bound launches it under-prices the run;
  // per-launch accounting (sim_time, or reprice over a trace) is
  // authoritative. Equality holds when every launch sits on the same side
  // of the ridge.
  auto ctx = core::make_device(hsim::machines::v100());
  ctx.record_kernel({1e12, 1e6});  // strongly compute-bound
  ctx.record_kernel({1e6, 1e9});   // strongly memory-bound
  const hsim::CostModel same(hsim::machines::v100());
  const double agg = same.predict(ctx.counters());
  EXPECT_LT(agg, ctx.simulated_time());

  // Same-regime launches: the aggregate agrees with per-launch.
  auto uniform = core::make_device(hsim::machines::v100());
  uniform.record_kernel({1e12, 1e6});
  uniform.record_kernel({2e12, 1e6});
  EXPECT_NEAR(same.predict(uniform.counters()), uniform.simulated_time(),
              1e-12);
}

TEST(Exec, EmptyReductionsReturnIdentities) {
  for (auto mk : {core::make_seq, core::make_threads}) {
    auto ctx = mk();
    const double sum =
        ctx.reduce_sum(0, {}, [](std::size_t) { return 1.0; });
    EXPECT_DOUBLE_EQ(sum, 0.0);
    const double mx =
        ctx.reduce_max(0, {}, [](std::size_t) { return 1.0; });
    EXPECT_DOUBLE_EQ(mx, -1.7976931348623157e308);
  }
}

TEST(Buffer, TransfersOnlyWhenStale) {
  auto ctx = core::make_device();
  core::Buffer<double> buf(ctx, 1000);
  EXPECT_EQ(ctx.counters().transfers, 0u);
  (void)buf.device_read();  // fresh everywhere: no transfer
  EXPECT_EQ(ctx.counters().transfers, 0u);
  auto h = buf.host_write();
  h[0] = 42.0;
  (void)buf.device_read();  // host newer: h2d
  EXPECT_EQ(ctx.counters().transfers, 1u);
  EXPECT_DOUBLE_EQ(ctx.counters().h2d_bytes, 8000.0);
  (void)buf.device_read();  // already synced
  EXPECT_EQ(ctx.counters().transfers, 1u);
  (void)buf.device_write();
  auto hr = buf.host_read();  // device newer: d2h
  EXPECT_EQ(ctx.counters().transfers, 2u);
  EXPECT_DOUBLE_EQ(hr[0], 42.0);
}

TEST(UnifiedBuffer, MigratesIn64KPages) {
  auto ctx = core::make_device();
  // 64Ki doubles = 512 KiB = 8 pages.
  core::UnifiedBuffer<double> buf(ctx, 64 * 1024);
  EXPECT_EQ(buf.pages(), 8u);
  buf.device_touch(0, buf.size());
  EXPECT_EQ(ctx.counters().transfers, 8u);
  EXPECT_DOUBLE_EQ(ctx.counters().h2d_bytes, 8.0 * 64 * 1024);
  // Touching one element from the host migrates exactly one page back.
  buf.host_touch(0, 1);
  EXPECT_EQ(ctx.counters().transfers, 9u);
  // Re-touching from the host is free.
  buf.host_touch(0, 1);
  EXPECT_EQ(ctx.counters().transfers, 9u);
}

TEST(MemoryPool, ReusesFreedBlocks) {
  core::MemoryPool pool;
  void* a = pool.allocate(1000);
  pool.deallocate(a, 1000);
  void* b = pool.allocate(900);  // same 1024-byte size class
  EXPECT_EQ(a, b);
  pool.deallocate(b, 900);
  EXPECT_EQ(pool.stats().backing_allocs, 1u);
  EXPECT_EQ(pool.stats().reuse_count, 1u);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  EXPECT_EQ(pool.stats().highwater_bytes, 1024u);
}

TEST(MemoryPool, PoolArrayConstructsAndDestroys) {
  core::MemoryPool pool;
  {
    core::PoolArray<double> arr(pool, 100);
    for (std::size_t i = 0; i < arr.size(); ++i) arr[i] = double(i);
    EXPECT_DOUBLE_EQ(arr[99], 99.0);
  }
  EXPECT_EQ(pool.stats().current_bytes, 0u);
}

TEST(Rng, Deterministic) {
  core::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformMoments) {
  core::Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  core::Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 1e-2);
  EXPECT_NEAR(sum2 / n, 1.0, 2e-2);
}

TEST(Rng, GammaMean) {
  core::Rng rng(13);
  const double shape = 3.0, scale = 2.0;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(shape, scale);
  EXPECT_NEAR(sum / n, shape * scale, 0.1);
}

TEST(Table, FormatsAligned) {
  core::Table t({"name", "value"});
  t.row({"alpha", core::Table::num(1.5, 2)});
  t.row({"b", "x"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(ThreadPool, CoversRangeOnce) {
  core::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedDispatch) {
  core::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int r = 0; r < 50; ++r) {
    pool.parallel_for(100, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(static_cast<long>(hi - lo));
    });
  }
  EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPool, GuidedChunksCoverRangeOnce) {
  // The guided scheduler splits the range into ~4x chunks claimed by an
  // atomic counter; whatever the interleaving, each index runs exactly
  // once. A std::function binds the same template as a plain lambda --
  // same contract.
  core::ThreadPool pool(4);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{17}, std::size_t{1000},
        std::size_t{4099}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);

    std::function<void(std::size_t, std::size_t)> erased =
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        };
    pool.parallel_for(n, erased);
    for (auto& h : hits) EXPECT_EQ(h.load(), 2);
  }
}

TEST(ThreadPool, ChunkIndexIsPositional) {
  // Chunk c covers [n*c/K, n*(c+1)/K) whichever thread claims it, so a
  // per-chunk accumulator indexed by c is filled identically every call.
  core::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{5}, std::size_t{1000}}) {
    const std::size_t k = pool.chunk_count(n);
    std::vector<std::atomic<int>> seen(k);
    for (int call = 0; call < 50; ++call) {
      pool.parallel_for(n, [&](std::size_t c, std::size_t lo,
                               std::size_t hi) {
        ASSERT_LT(c, k);
        EXPECT_EQ(lo, n * c / k);
        EXPECT_EQ(hi, n * (c + 1) / k);
        seen[c].fetch_add(1);
      });
    }
    for (auto& s : seen) EXPECT_EQ(s.load(), 50);
  }
}

TEST(ThreadPool, ChunkedSumsIndependentOfPoolSize) {
  // The Threads backend's partition depends on n only, so chunk-indexed
  // partials folded in chunk order (ExecContext's reduce) give one bit
  // pattern on every pool size. The terms span twelve decades, so any
  // change of partition would show.
  const std::size_t n = 20000;
  auto term = [](std::size_t i) {
    return std::sin(double(i)) * std::pow(10.0, double(i % 13) - 6.0);
  };
  auto chunked_sum = [&](core::ThreadPool& pool) {
    std::vector<double> partial(pool.chunk_count(n), 0.0);
    pool.parallel_for(n, [&](std::size_t c, std::size_t lo, std::size_t hi) {
      double a = 0.0;
      for (std::size_t i = lo; i < hi; ++i) a += term(i);
      partial[c] = a;
    });
    double acc = 0.0;
    for (double p : partial) acc += p;
    return std::bit_cast<std::uint64_t>(acc);
  };
  core::ThreadPool one(1), two(2), four(4);
  EXPECT_EQ(one.chunk_count(n), 16u);
  const std::uint64_t ref = chunked_sum(one);
  EXPECT_EQ(chunked_sum(two), ref);
  EXPECT_EQ(chunked_sum(four), ref);
}

// ---------------------------------------------------------------------------
// CRC-32: every checkpoint checksum depends on these exact values.
// ---------------------------------------------------------------------------

/// The textbook byte-at-a-time CRC-32 (reflected 0xEDB88320, bitwise), kept
/// here as the oracle the table-driven core::crc32 must match exactly.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<unsigned char> b(n);
  for (auto& x : b) x = static_cast<unsigned char>(rng.next_u64() >> 56);
  return b;
}

TEST(Crc32, CheckValue) {
  const char* s = "123456789";
  EXPECT_EQ(core::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(core::crc32(s, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..300 cover the empty input, tails of every size and several
  // full 8-byte blocks; the start offset walks all 8 misalignments.
  const auto buf = random_bytes(300 + 8, 11);
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t off = 0; off < 8; ++off) {
      for (std::size_t n = 0; n <= 300; ++n) {
        const unsigned char* p = buf.data() + off;
        ASSERT_EQ(core::crc32(p, n, seed), crc32_bytewise(p, n, seed))
            << "seed=" << seed << " off=" << off << " n=" << n;
      }
    }
  }
}

TEST(Crc32, ChunkingIdentity) {
  // crc32(b, n) == crc32(b+k, n-k, crc32(b, k)) for every split point.
  const auto buf = random_bytes(257, 23);
  const std::size_t n = buf.size();
  const std::uint32_t whole = core::crc32(buf.data(), n);
  for (std::size_t k = 0; k <= n; ++k) {
    ASSERT_EQ(core::crc32(buf.data() + k, n - k, core::crc32(buf.data(), k)),
              whole)
        << "k=" << k;
  }
  std::vector<double> d(n / sizeof(double));
  std::memcpy(d.data(), buf.data(), d.size() * sizeof(double));
  EXPECT_EQ(core::crc32(std::span<const double>(d)),
            core::crc32(d.data(), d.size() * sizeof(double)));
}

struct FixedPayload : resil::Checkpointable {
  std::vector<double> v;
  void save_state(std::vector<double>& out) const override { out = v; }
  void restore_state(const std::vector<double>& in) override { v = in; }
};

TEST(Crc32, CheckpointStoreChecksumIsPinned) {
  // Recorded on the byte-at-a-time implementation: the checksum a
  // resil::CheckpointStore stores for a fixed 1000-double payload.
  FixedPayload app;
  app.v.resize(1000);
  for (std::size_t i = 0; i < app.v.size(); ++i)
    app.v[i] = 1.0 / static_cast<double>(i + 1) - static_cast<double>(i);
  auto ctx = core::make_device();
  resil::CheckpointStore store;
  store.write("fixed", 0, app, ctx);
  ASSERT_NE(store.latest("fixed"), nullptr);
  EXPECT_EQ(store.latest("fixed")->crc, 0x02C97818u);
}

}  // namespace
