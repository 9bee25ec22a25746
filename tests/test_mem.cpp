// Tests for coe::mem (DESIGN.md section 14): DeviceArena residency — LRU
// eviction order, dirty-spill vs clean-drop pricing, refault charging,
// upload/writeback elision — plus the accounting contract that matters
// most: with the working set under capacity, an arena-attached run of the
// wave/Cardioid/MD/CG drivers performs *bit-identical* accounting to a
// detached run. Also the allocator/UM bugfix regressions that ride along:
// MemoryPool size-class overflow and double-free detection, and
// UnifiedBuffer's partial trailing-page charge and read-touch elision.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "core/pool.hpp"
#include "core/rng.hpp"
#include "la/la.hpp"
#include "md/simulation.hpp"
#include "mem/mem.hpp"
#include "obs/metrics.hpp"
#include "reaction/monodomain.hpp"
#include "stencil/wave.hpp"

namespace {

using namespace coe;

constexpr auto kRead = core::MemAccess::Read;
constexpr auto kWrite = core::MemAccess::Write;

// --- DeviceArena unit behavior ---------------------------------------------

TEST(DeviceArena, AttachesAndDetaches) {
  auto ctx = core::make_device();
  EXPECT_EQ(ctx.arena(), nullptr);
  {
    mem::DeviceArena arena(ctx);
    EXPECT_EQ(ctx.arena(), &arena);
    // Default capacity comes from the machine model (16 GiB V100).
    EXPECT_EQ(arena.capacity(), ctx.model().machine().mem_capacity);
  }
  EXPECT_EQ(ctx.arena(), nullptr);
  // Detached, upload() is the raw record_transfer it replaces.
  ctx.upload("anything", 100.0);
  EXPECT_EQ(ctx.counters().h2d_bytes, 100.0);
}

TEST(DeviceArena, FirstAdmissionIsFreeAndLruOrderHolds) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.capacity_bytes = 100.0;
  mem::DeviceArena arena(ctx, cfg);

  ctx.touch_device("a", 40.0, kWrite);
  ctx.touch_device("b", 40.0, kRead);
  // Fresh data is born on the device (cudaMalloc), not copied there.
  EXPECT_EQ(ctx.counters().h2d_bytes, 0.0);
  EXPECT_EQ(ctx.counters().d2h_bytes, 0.0);
  EXPECT_EQ(arena.stats().admits, 2u);
  EXPECT_EQ(arena.lru_order(), (std::vector<std::string>{"a", "b"}));

  // Admitting c (40 B into the 20 B left) evicts the LRU victim a, whose
  // device copy is dirty: the spill is priced d2h.
  ctx.touch_device("c", 40.0, kRead);
  EXPECT_FALSE(arena.resident("a"));
  EXPECT_TRUE(arena.resident("b"));
  EXPECT_TRUE(arena.resident("c"));
  EXPECT_EQ(arena.stats().evictions, 1u);
  EXPECT_EQ(arena.stats().spill_bytes, 40.0);
  EXPECT_EQ(ctx.counters().d2h_bytes, 40.0);
  EXPECT_EQ(ctx.counters().h2d_bytes, 0.0);
  EXPECT_EQ(arena.lru_order(), (std::vector<std::string>{"b", "c"}));

  // Re-touching a evicts b — clean, so it drops free — and refaults a h2d.
  ctx.touch_device("a", 40.0, kRead);
  EXPECT_FALSE(arena.resident("b"));
  EXPECT_EQ(arena.stats().evictions, 2u);
  EXPECT_EQ(arena.stats().spill_bytes, 40.0);  // unchanged: b was clean
  EXPECT_EQ(arena.stats().faults, 1u);
  EXPECT_EQ(arena.stats().fault_bytes, 40.0);
  EXPECT_EQ(ctx.counters().h2d_bytes, 40.0);
  EXPECT_EQ(arena.lru_order(), (std::vector<std::string>{"c", "a"}));
}

TEST(DeviceArena, SingleAllocationOverCapacityThrows) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.capacity_bytes = 100.0;
  mem::DeviceArena arena(ctx, cfg);
  EXPECT_THROW(ctx.touch_device("big", 200.0, kRead), std::length_error);
}

TEST(DeviceArena, HostWriteForcesCoherenceFault) {
  auto ctx = core::make_device();
  mem::DeviceArena arena(ctx);
  ctx.touch_device("x", 64.0, kRead);
  ctx.touch_host("x", 64.0, kWrite);  // host copy is now newer
  EXPECT_EQ(ctx.counters().h2d_bytes, 0.0);
  ctx.touch_device("x", 64.0, kRead);  // device must re-pull it
  EXPECT_EQ(ctx.counters().h2d_bytes, 64.0);
  EXPECT_EQ(arena.stats().faults, 1u);
}

TEST(DeviceArena, HostReadOfDirtyDeviceDataWritesBack) {
  auto ctx = core::make_device();
  mem::DeviceArena arena(ctx);
  ctx.touch_device("x", 64.0, kWrite);
  ctx.touch_host("x", 64.0, kRead);
  EXPECT_EQ(ctx.counters().d2h_bytes, 64.0);
  EXPECT_EQ(arena.stats().writebacks, 1u);
  EXPECT_FALSE(arena.dirty("x"));
  // A second host read is coherent: free.
  ctx.touch_host("x", 64.0, kRead);
  EXPECT_EQ(ctx.counters().d2h_bytes, 64.0);
}

TEST(DeviceArena, UploadAndWritebackElision) {
  auto ctx = core::make_device();
  mem::DeviceArena arena(ctx);

  EXPECT_TRUE(ctx.arena()->upload("x", 100.0));
  EXPECT_EQ(ctx.counters().h2d_bytes, 100.0);
  // Device copy still current: the re-upload is elided and counted.
  EXPECT_FALSE(ctx.arena()->upload("x", 100.0));
  EXPECT_EQ(ctx.counters().h2d_bytes, 100.0);
  EXPECT_EQ(arena.stats().elided_transfers, 1u);
  EXPECT_EQ(arena.stats().elided_bytes, 100.0);

  // Host rewrite invalidates the device copy: upload charges again.
  ctx.touch_host("x", 100.0, kWrite);
  EXPECT_TRUE(ctx.arena()->upload("x", 100.0));
  EXPECT_EQ(ctx.counters().h2d_bytes, 200.0);

  // Clean device copy: the writeback is redundant, elided.
  EXPECT_FALSE(ctx.arena()->writeback("x", 100.0));
  EXPECT_EQ(ctx.counters().d2h_bytes, 0.0);
  ctx.touch_device("x", 100.0, kWrite);
  EXPECT_TRUE(ctx.arena()->writeback("x", 100.0));
  EXPECT_EQ(ctx.counters().d2h_bytes, 100.0);
}

TEST(DeviceArena, ElisionOffChargesEveryTransfer) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.elide_clean_transfers = false;
  mem::DeviceArena arena(ctx, cfg);
  ctx.upload("x", 100.0);
  ctx.upload("x", 100.0);
  ctx.writeback("x", 100.0);
  ctx.writeback("x", 100.0);
  EXPECT_EQ(ctx.counters().h2d_bytes, 200.0);
  EXPECT_EQ(ctx.counters().d2h_bytes, 200.0);
  EXPECT_EQ(arena.stats().elided_transfers, 0u);
}

TEST(DeviceArena, ReleaseDropsResidencyWithoutTraffic) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.capacity_bytes = 100.0;
  mem::DeviceArena arena(ctx, cfg);
  ctx.touch_device("x", 80.0, kWrite);  // dirty
  ctx.arena()->release("x");
  EXPECT_FALSE(arena.resident("x"));
  EXPECT_EQ(ctx.counters().d2h_bytes, 0.0);  // free() is not a copy
  // The space is genuinely back: y fits without evicting anything.
  ctx.touch_device("y", 80.0, kRead);
  EXPECT_EQ(arena.stats().evictions, 0u);
}

TEST(DeviceArena, PublishEmitsTheMemMetricsFamily) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.capacity_bytes = 100.0;
  mem::DeviceArena arena(ctx, cfg);
  ctx.touch_device("a", 60.0, kWrite);
  ctx.touch_device("b", 60.0, kRead);  // evicts a (dirty spill)
  obs::MetricsRegistry reg;
  arena.publish(reg);
  EXPECT_EQ(reg.counter("mem.admits"), 2.0);
  EXPECT_EQ(reg.counter("mem.evictions"), 1.0);
  EXPECT_EQ(reg.counter("mem.spill_bytes"), 60.0);
  EXPECT_EQ(reg.gauge("mem.resident_bytes"), 60.0);
  EXPECT_EQ(reg.gauge("mem.resident_highwater"), 60.0);
  EXPECT_EQ(reg.gauge("mem.capacity_bytes"), 100.0);
}

TEST(ArenaArray, PoolBackedStorageAndResidency) {
  auto ctx = core::make_device();
  mem::DeviceArena arena(ctx);
  {
    mem::ArenaArray<double> a(arena, "arr", 100);
    a.host_write()[0] = 1.0;
    EXPECT_EQ(a.device_read()[0], 1.0);  // host-dirty: faults h2d
    EXPECT_EQ(ctx.counters().h2d_bytes, 800.0);
    EXPECT_TRUE(arena.resident("arr"));
    EXPECT_EQ(arena.pool().stats().current_bytes, 1024u);  // rounded pow2
  }
  EXPECT_FALSE(arena.resident("arr"));
  EXPECT_EQ(arena.pool().stats().current_bytes, 0u);
}

// --- Bit-identical accounting under capacity --------------------------------

struct RunTotals {
  double sim = 0.0;
  hsim::Counters c;
};

bool totals_equal(const RunTotals& a, const RunTotals& b) {
  return a.sim == b.sim && a.c.flops == b.c.flops && a.c.bytes == b.c.bytes &&
         a.c.launches == b.c.launches && a.c.transfers == b.c.transfers &&
         a.c.h2d_bytes == b.c.h2d_bytes && a.c.d2h_bytes == b.c.d2h_bytes;
}

RunTotals run_wave(bool with_arena, bool elide, bool streams) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.elide_clean_transfers = elide;
  std::optional<mem::DeviceArena> arena;
  if (with_arena) arena.emplace(ctx, cfg);
  stencil::WaveOptions opts;
  opts.forcing_on_device = false;  // per-step host forcing uploads
  opts.use_streams = streams;
  stencil::WaveSolver solver(ctx, 10, 10, 10, 1.0, 1.0, opts);
  for (std::size_t s = 0; s < 40; ++s) {
    solver.add_source({s % 10, (3 * s) % 10, (7 * s) % 10, 1.0, 2.0, 0.2});
  }
  const double dt = solver.stable_dt();
  for (int s = 0; s < 6; ++s) solver.step(dt);
  ctx.sync();
  return {ctx.simulated_time(), ctx.counters()};
}

TEST(BitIdentical, WaveUnderCapacityMatchesDetachedRun) {
  for (const bool streams : {false, true}) {
    const RunTotals off = run_wave(false, false, streams);
    // The forcing staging buffer is host-rewritten before every upload, so
    // even with elision ON nothing is skipped: all three runs must match
    // the detached run bit for bit.
    EXPECT_TRUE(totals_equal(off, run_wave(true, false, streams)));
    EXPECT_TRUE(totals_equal(off, run_wave(true, true, streams)));
  }
}

RunTotals run_cardioid(bool with_arena, bool elide,
                       reaction::TissuePlacement placement,
                       std::uint64_t* elided = nullptr) {
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  mem::ArenaConfig acfg;
  acfg.elide_clean_transfers = elide;
  std::optional<mem::DeviceArena> arena;
  if (with_arena) arena.emplace(gpu, acfg);
  reaction::TissueConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.placement = placement;
  reaction::Monodomain tissue(gpu, cpu, cfg);
  tissue.stimulate(0, 4, 0, cfg.ny, 30.0, 2.0);
  for (int s = 0; s < 10; ++s) tissue.step();
  if (elided != nullptr) *elided = arena->stats().elided_transfers;
  return {gpu.simulated_time(), gpu.counters()};
}

TEST(BitIdentical, CardioidMatchesDetachedRunWithElisionOff) {
  for (const auto placement : {reaction::TissuePlacement::AllGpu,
                               reaction::TissuePlacement::SplitCpuDiffusion}) {
    const RunTotals off = run_cardioid(false, false, placement);
    EXPECT_TRUE(totals_equal(off, run_cardioid(true, false, placement)));
  }
}

TEST(Elision, CardioidSplitSkipsExactlyTheFirstCleanReadback) {
  // The constructor upload leaves the cell state clean on the device, so
  // the first step's voltage d2h is redundant; every later step's readback
  // follows a device-side reaction write and must still be priced.
  const auto placement = reaction::TissuePlacement::SplitCpuDiffusion;
  const RunTotals off = run_cardioid(true, false, placement);
  std::uint64_t elided = 0;
  const RunTotals on = run_cardioid(true, true, placement, &elided);
  const double cell_bytes = 16.0 * 16.0 * 8.0;
  EXPECT_EQ(off.c.d2h_bytes - on.c.d2h_bytes, cell_bytes);
  EXPECT_EQ(off.c.h2d_bytes, on.c.h2d_bytes);  // every lap upload is fresh
  EXPECT_EQ(elided, 1u);
  EXPECT_LT(on.sim, off.sim);
}

RunTotals run_md(bool with_arena, bool elide, md::Placement placement) {
  core::Rng rng(11);
  md::Particles p;
  md::Box box;
  md::init_lattice(p, box, 4, 0.7, 0.8, rng);
  auto gpu = core::make_device();
  auto cpu = core::make_cpu();
  mem::ArenaConfig acfg;
  acfg.elide_clean_transfers = elide;
  std::optional<mem::DeviceArena> arena;
  if (with_arena) arena.emplace(gpu, acfg);
  md::SimConfig cfg;
  cfg.placement = placement;
  md::Simulation<md::LennardJones> sim(gpu, cpu, std::move(p), box,
                                       md::LennardJones(1.0, 1.0, 2.5), cfg,
                                       0.4);
  for (int s = 0; s < 20; ++s) sim.step();
  return {gpu.simulated_time(), gpu.counters()};
}

TEST(BitIdentical, MdMatchesDetachedRunBothPlacementsBothElisionModes) {
  // Split MD rewrites positions on the host and forces on the device every
  // step, so nothing is ever elidable: all four arena combinations match
  // the detached run exactly.
  for (const auto placement : {md::Placement::AllGpu, md::Placement::Split}) {
    const RunTotals off = run_md(false, false, placement);
    EXPECT_TRUE(totals_equal(off, run_md(true, false, placement)));
    EXPECT_TRUE(totals_equal(off, run_md(true, true, placement)));
  }
}

struct CgRun {
  RunTotals totals;
  std::vector<double> x;
  la::SolveResult res;
  mem::DeviceArena::Stats stats;
};

CgRun run_cg(double capacity_bytes) {  // 0: huge (machine), -1: no arena
  auto ctx = core::make_device();
  std::optional<mem::DeviceArena> arena;
  if (capacity_bytes >= 0.0) {
    mem::ArenaConfig cfg;
    cfg.capacity_bytes = capacity_bytes;
    arena.emplace(ctx, cfg);
  }
  const la::CsrMatrix a = la::poisson2d(40, 40);
  const la::CsrOperator op(a);
  const la::JacobiPreconditioner prec(a);
  std::vector<double> b(a.rows(), 1.0), x(a.rows(), 0.0);
  CgRun r;
  r.res = la::cg(ctx, op, prec, b, x,
                 {.max_iters = 200, .rel_tol = 1e-8, .reduce = nullptr});
  ctx.sync();
  r.totals = {ctx.simulated_time(), ctx.counters()};
  r.x = std::move(x);
  if (arena) r.stats = arena->stats();
  return r;
}

TEST(BitIdentical, CgUnderCapacityMatchesDetachedRun) {
  const CgRun detached = run_cg(-1.0);
  const CgRun huge = run_cg(0.0);
  EXPECT_TRUE(detached.res.converged);
  EXPECT_TRUE(totals_equal(detached.totals, huge.totals));
  EXPECT_EQ(detached.x, huge.x);
  EXPECT_EQ(huge.stats.evictions, 0u);
}

TEST(DeviceArena, CgOverCapacityThrashesButSolvesIdentically) {
  const CgRun huge = run_cg(0.0);
  // Matrix footprint ~107 KB, 7 operands ~196 KB total: 120 KB holds the
  // matrix plus one vector, so every iteration's operand sweep thrashes.
  const CgRun tight = run_cg(120.0e3);
  EXPECT_GT(tight.stats.evictions, 0u);
  EXPECT_GT(tight.stats.spill_bytes, 0.0);  // x/r/z/p/ap evict dirty
  EXPECT_GT(tight.totals.sim, huge.totals.sim);
  // Residency pricing never perturbs the arithmetic.
  EXPECT_EQ(tight.x, huge.x);
  EXPECT_EQ(tight.res.iterations, huge.res.iterations);
}

// --- MemoryPool regressions (satellites 1 and 2) ----------------------------

TEST(MemoryPool, HugeRequestThrowsInsteadOfCorruptingFreeLists) {
  core::MemoryPool pool;
  // These used to compute size class k >= 64: free_[k] indexed out of
  // bounds and 1ull << k was UB. Now they are rejected up front, with the
  // pool untouched.
  EXPECT_THROW(pool.allocate(std::numeric_limits<std::size_t>::max()),
               std::length_error);
  EXPECT_THROW(pool.allocate((std::size_t{1} << 63) + 1), std::length_error);
  EXPECT_EQ(pool.stats().request_count, 0u);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  // The pool still works afterwards.
  void* p = pool.allocate(64);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, 64);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
}

TEST(MemoryPool, DeallocateNeverUnderflowsCurrentBytes) {
  core::MemoryPool pool;
  pool.set_debug_checks(false);  // the release-mode clamping path
  void* p = pool.allocate(100);  // class 2^7 = 128 B
  EXPECT_EQ(pool.stats().current_bytes, 128u);
  pool.deallocate(p, 100);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
  // A mismatched free used to wrap current_bytes to ~2^64 and poison the
  // highwater/reuse reporting forever; now the subtraction saturates.
  pool.deallocate(pool.allocate(8), 100);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
}

TEST(MemoryPool, DebugChecksDetectDoubleFree) {
  core::MemoryPool pool;
  pool.set_debug_checks(true);
  void* p = pool.allocate(100);
  pool.deallocate(p, 100);
  EXPECT_THROW(pool.deallocate(p, 100), std::logic_error);
}

TEST(MemoryPool, DebugChecksDetectSizeMismatchedFree) {
  core::MemoryPool pool;
  pool.set_debug_checks(true);
  void* p = pool.allocate(100);   // class 2^7
  EXPECT_THROW(pool.deallocate(p, 300), std::logic_error);  // class 2^9
  // The block is still live after the rejected free; a matched free works.
  pool.deallocate(p, 100);
  EXPECT_EQ(pool.stats().current_bytes, 0u);
}

// --- UnifiedBuffer regressions (satellite 3) + read-touch elision -----------

TEST(UnifiedBuffer, TrailingPartialPageChargesItsRealSize) {
  auto ctx = core::make_device();
  // 8200 doubles = 65600 B = one full 64 KiB page + a 64 B trailing page.
  core::UnifiedBuffer<double> ub(ctx, 8200);
  ASSERT_EQ(ub.pages(), 2u);
  ub.device_touch(0, ub.size());
  // The old model charged 2 * 65536 = 131072 B here.
  EXPECT_EQ(ctx.counters().h2d_bytes, 65600.0);
}

TEST(UnifiedBuffer, SubPageBufferChargesItsOwnBytes) {
  auto ctx = core::make_device();
  core::UnifiedBuffer<double> ub(ctx, 8);  // 64 B, one (tiny) page
  ub.device_touch(0, 8);
  EXPECT_EQ(ctx.counters().h2d_bytes, 64.0);  // not 65536
}

TEST(UnifiedBuffer, ReadTouchesElideTheReturnTrip) {
  auto ctx = core::make_device();
  core::UnifiedBuffer<double> ub(ctx, 8192);  // exactly one page
  ub.device_touch(0, ub.size());              // h2d migration
  EXPECT_EQ(ctx.counters().h2d_bytes, 65536.0);
  (void)ub.host_read(0, ub.size());  // d2h: host copy was stale
  EXPECT_EQ(ctx.counters().d2h_bytes, 65536.0);
  // Neither side has written since: the page is coherent, so re-reading it
  // from the device is free where the old model re-charged the crossing.
  (void)ub.device_read(0, ub.size());
  EXPECT_EQ(ctx.counters().h2d_bytes, 65536.0);
  EXPECT_EQ(ub.elided_transfers(), 1u);
  EXPECT_EQ(ub.elided_bytes(), 65536.0);
  (void)ub.host_read(0, ub.size());
  EXPECT_EQ(ctx.counters().d2h_bytes, 65536.0);
  EXPECT_EQ(ub.elided_transfers(), 2u);
}

TEST(UnifiedBuffer, WriteTouchPingPongMatchesTheLegacyModel) {
  auto ctx = core::make_device();
  core::UnifiedBuffer<double> ub(ctx, 8192);
  // The pre-dirty-tracking API: every crossing pays one page migration,
  // and nothing is ever elided — the legacy accounting, bit for bit.
  for (int i = 0; i < 3; ++i) {
    ub.device_touch(0, ub.size());
    ub.host_touch(0, ub.size());
  }
  EXPECT_EQ(ctx.counters().h2d_bytes, 3.0 * 65536.0);
  EXPECT_EQ(ctx.counters().d2h_bytes, 3.0 * 65536.0);
  EXPECT_EQ(ub.elided_transfers(), 0u);
}

// --- Named Buffer<T> under the arena ----------------------------------------

TEST(Buffer, NamedBufferRefaultsAfterEviction) {
  auto ctx = core::make_device();
  mem::ArenaConfig cfg;
  cfg.capacity_bytes = 10000.0;
  mem::DeviceArena arena(ctx, cfg);
  core::Buffer<double> buf(ctx, "buf.x", 1000);  // 8000 B
  (void)buf.device_read();                       // first admission: free
  EXPECT_EQ(ctx.counters().h2d_bytes, 0.0);
  ctx.touch_device("hog", 9000.0, kRead);  // evicts buf.x (clean)
  EXPECT_FALSE(arena.resident("buf.x"));
  (void)buf.device_read();  // refault: priced h2d
  EXPECT_EQ(ctx.counters().h2d_bytes, 8000.0);
  EXPECT_TRUE(arena.resident("buf.x"));
}

TEST(Buffer, UnnamedBufferKeepsRawAccountingEvenWithArenaAttached) {
  auto ctx = core::make_device();
  mem::DeviceArena arena(ctx);
  core::Buffer<double> buf(ctx, 1000);
  buf.host_write()[0] = 1.0;
  (void)buf.device_read();
  EXPECT_EQ(ctx.counters().h2d_bytes, 8000.0);
  EXPECT_EQ(arena.stats().admits, 0u);  // the arena never saw it
}

}  // namespace
