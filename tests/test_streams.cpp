// Stream semantics of the simulated clock (DESIGN.md section 11): per-
// stream ordering, the concurrent_kernels overlap bound, DMA engines,
// events, sync, stream-tagged traces, and serialized repricing. Numerics are
// never affected by streams -- only the accounting -- and the wave test at
// the bottom checks that end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/coe.hpp"
#include "obs/trace.hpp"
#include "stencil/wave.hpp"

namespace {

using namespace coe;

/// A flat test GPU: 1 GFLOP/s, 1 GB/s, 1 GB/s link, no overheads, so a
/// kernel of {t * 1e9, 0} or a transfer of t * 1e9 bytes takes exactly t
/// simulated seconds.
hsim::MachineModel test_gpu(int concurrent_kernels) {
  hsim::MachineModel m;
  m.name = "testgpu";
  m.kind = hsim::ProcessorKind::Gpu;
  m.peak_flops = 1e9;
  m.flop_efficiency = 1.0;
  m.mem_bw = 1e9;
  m.bw_efficiency = 1.0;
  m.launch_overhead = 0.0;
  m.concurrent_kernels = concurrent_kernels;
  m.link_bw = 1e9;
  m.link_latency = 0.0;
  return m;
}

/// A kernel that takes `ms` simulated milliseconds on test_gpu.
hsim::KernelCost kernel_ms(double ms) { return {ms * 1e6, 0.0}; }

/// Busy time: the summed durations of every traced launch and transfer.
double busy_s(const obs::TraceBuffer& buf) {
  double t = 0.0;
  for (const auto& e : buf.snapshot()) {
    if (!obs::is_marker(e.kind)) t += e.duration;
  }
  return t;
}

TEST(Streams, DefaultStreamMatchesSerializedClock) {
  // Everything on the default stream serializes regardless of the
  // concurrency knob -- the pre-stream accounting, unchanged.
  auto ctx = core::make_device(test_gpu(8));
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  ctx.record_kernel(kernel_ms(1.0));
  ctx.record_kernel(kernel_ms(2.0));
  ctx.record_transfer(3e6, true);
  ctx.record_kernel(kernel_ms(4.0));
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 10e-3);
  EXPECT_DOUBLE_EQ(busy_s(buf), ctx.simulated_time());
}

TEST(Streams, KernelsOverlapAcrossStreams) {
  auto ctx = core::make_device(test_gpu(8));
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  ctx.stream(0);
  ctx.record_kernel(kernel_ms(3.0));
  ctx.stream(1);
  ctx.record_kernel(kernel_ms(2.0));
  // Makespan is the longest stream; the trace keeps busy time.
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 3e-3);
  EXPECT_DOUBLE_EQ(busy_s(buf), 5e-3);
}

TEST(Streams, ConcurrentKernelsKnobBoundsOverlap) {
  // concurrent_kernels = 1: cross-stream kernels still serialize.
  auto serial = core::make_device(test_gpu(1));
  serial.stream(0);
  serial.record_kernel(kernel_ms(1.0));
  serial.stream(1);
  serial.record_kernel(kernel_ms(1.0));
  EXPECT_DOUBLE_EQ(serial.simulated_time(), 2e-3);

  // concurrent_kernels = 2 with three streams: the third kernel waits for
  // a slot.
  auto two = core::make_device(test_gpu(2));
  for (std::size_t s = 0; s < 3; ++s) {
    two.stream(s);
    two.record_kernel(kernel_ms(1.0));
  }
  EXPECT_DOUBLE_EQ(two.simulated_time(), 2e-3);
}

TEST(Streams, MakespanBounds) {
  // Round-robin kernels over three streams: the makespan never beats the
  // busiest stream and never loses to full serialization.
  const double ms[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto ctx = core::make_device(test_gpu(8));
  obs::TraceBuffer buf;
  ctx.set_trace(&buf);
  double serialized = 0.0;
  double per_stream[3] = {0.0, 0.0, 0.0};
  for (int i = 0; i < 6; ++i) {
    ctx.stream(static_cast<std::size_t>(i % 3));
    ctx.record_kernel(kernel_ms(ms[i]));
    serialized += ms[i] * 1e-3;
    per_stream[i % 3] += ms[i] * 1e-3;
  }
  const double busiest = std::max({per_stream[0], per_stream[1],
                                   per_stream[2]});
  EXPECT_LE(ctx.simulated_time(), serialized);
  EXPECT_GE(ctx.simulated_time(), busiest);
  EXPECT_DOUBLE_EQ(busy_s(buf), serialized);
}

TEST(Streams, TransfersAlwaysOverlapKernels) {
  // Even with concurrent_kernels = 1, the DMA engines are separate
  // resources: an upload on stream 1 hides under a kernel on stream 0.
  auto ctx = core::make_device(test_gpu(1));
  ctx.stream(0);
  ctx.record_kernel(kernel_ms(2.0));
  ctx.stream(1);
  ctx.record_transfer(2e6, true);
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 2e-3);
}

TEST(Streams, DmaEnginesPerDirection) {
  // h2d and d2h have an engine each: opposite directions overlap, same
  // direction serializes.
  auto both = core::make_device(test_gpu(8));
  both.stream(1);
  both.record_transfer(1e6, true);
  both.stream(2);
  both.record_transfer(1e6, false);
  EXPECT_DOUBLE_EQ(both.simulated_time(), 1e-3);

  auto same = core::make_device(test_gpu(8));
  same.stream(1);
  same.record_transfer(1e6, true);
  same.stream(2);
  same.record_transfer(1e6, true);
  EXPECT_DOUBLE_EQ(same.simulated_time(), 2e-3);
}

TEST(Streams, SyncJoinsAllStreams) {
  auto ctx = core::make_device(test_gpu(8));
  ctx.stream(0);
  ctx.record_kernel(kernel_ms(1.0));
  ctx.stream(1);
  ctx.record_kernel(kernel_ms(3.0));
  EXPECT_DOUBLE_EQ(ctx.sync(), 3e-3);
  // Work after the join starts at the joined time, even on a stream that
  // did not exist before the sync.
  ctx.stream(5);
  ctx.record_kernel(kernel_ms(1.0));
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 4e-3);
}

TEST(Streams, WaitEventOrdersAcrossStreams) {
  auto ctx = core::make_device(test_gpu(8));
  ctx.stream(0);
  ctx.record_kernel(kernel_ms(2.0));
  const auto done = ctx.record_event();
  ctx.stream(1);
  ctx.wait_event(done);
  ctx.record_kernel(kernel_ms(1.0));
  // Without the wait the kernels would overlap (makespan 2 ms); the event
  // serializes them.
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 3e-3);
}

TEST(Streams, TraceCarriesStreamIds) {
  obs::TraceBuffer buf(64);
  auto ctx = core::make_device(test_gpu(8));
  ctx.set_trace(&buf);
  ctx.stream(0);
  ctx.record_kernel(kernel_ms(1.0));
  ctx.stream(2);
  ctx.record_kernel(kernel_ms(1.0));
  ctx.stream(1);
  ctx.record_transfer(1e6, true);

  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].stream, 0);
  EXPECT_EQ(events[1].stream, 2);
  EXPECT_EQ(events[2].stream, 1);

  // Chrome export rows events by simulated stream.
  const std::string json = obs::chrome_trace_json(buf);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stream\":2"), std::string::npos);
}

TEST(Streams, RepriceBoundsSimulatedClock) {
  // The serialized per-launch repricing is an upper bound on the streamed
  // (overlapped) clock of the same trace.
  const auto mach = test_gpu(2);
  obs::TraceBuffer buf(256);
  auto ctx = core::make_device(mach);
  ctx.set_trace(&buf);
  for (int i = 0; i < 9; ++i) {
    ctx.stream(static_cast<std::size_t>(i % 3));
    ctx.record_kernel(kernel_ms(1.0 + i));
    if (i % 2 == 0) ctx.record_transfer(1e6 * (i + 1), i % 4 == 0);
  }
  const hsim::CostModel cm(mach);
  EXPECT_GE(hsim::reprice(buf, cm), ctx.simulated_time());
}

TEST(Streams, ResetClearsStreamState) {
  auto ctx = core::make_device(test_gpu(8));
  ctx.stream(3);
  ctx.record_kernel(kernel_ms(5.0));
  ctx.sync();
  ctx.reset();
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 0.0);
  ctx.stream(1);
  ctx.record_kernel(kernel_ms(1.0));
  EXPECT_DOUBLE_EQ(ctx.simulated_time(), 1e-3);
}

TEST(Streams, WaveStreamedBitwiseIdenticalAndFaster) {
  // The SW4 forcing-offload overlap: identical fields, strictly less
  // simulated time once the upload and shake map leave the critical path.
  const std::size_t n = 12;
  const int steps = 8;
  auto run = [&](bool use_streams, std::vector<double>& state) {
    auto ctx = core::make_device(hsim::machines::v100());
    stencil::WaveOptions opts;
    opts.forcing_on_device = false;
    opts.use_streams = use_streams;
    stencil::WaveSolver solver(ctx, n, n, n, 1.0, 1.0, opts);
    for (std::size_t s = 0; s < 256; ++s) {
      solver.add_source({s % n, (3 * s) % n, (7 * s) % n, 1.0, 2.0, 0.2});
    }
    const double dt = solver.stable_dt();
    for (int s = 0; s < steps; ++s) solver.step(dt);
    solver.save_state(state);
    return ctx.sync();
  };
  std::vector<double> serial_state, streamed_state;
  const double t_serial = run(false, serial_state);
  const double t_streamed = run(true, streamed_state);
  EXPECT_EQ(serial_state, streamed_state);
  EXPECT_LT(t_streamed, t_serial);
}

}  // namespace
