#pragma once
// Per-kernel trace ring buffer — the NVProf-substitute timeline the paper's
// figures are built from. An ExecContext with tracing enabled appends one
// TraceEvent per kernel launch and per host<->device transfer: the phase it
// accrued to, a label, exact flop/byte counts, the predicted duration, the
// backend, and the roofline classification (memory- vs compute-bound
// against the active machine's ridge point). Tracing is opt-in: a context
// without an attached buffer pays one branch per launch and nothing else.
//
// Beyond kernels and transfers the buffer also records zero-duration
// *marker* events for the host-side ordering edges (record_event,
// wait_event, sync). Markers carry no cost; they exist so an offline
// consumer (coe::prof) can rebuild the full
// dependency DAG of a streamed run instead of treating the streams as
// free-running.
//
// The buffer is a fixed-capacity ring so a long run cannot exhaust memory;
// when it wraps, the oldest events are dropped and counted.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace coe::obs {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    Kernel,
    TransferH2D,
    TransferD2H,
    // Zero-duration ordering markers (see header comment). `dep` holds the
    // stream-event id being recorded or waited on; Sync carries none.
    EventRecord,
    EventWait,
    Sync,
  };
  /// Roofline classification against the machine the event was priced on.
  enum class Bound : std::uint8_t { Compute, Memory };

  Kind kind = Kind::Kernel;
  Bound bound = Bound::Memory;
  const char* backend = "";  ///< static string ("seq"/"threads"/"device")
  std::string phase;         ///< timeline phase the event accrued to
  std::string label;         ///< kernel label (op kind when unlabeled)
  double flops = 0.0;
  double bytes = 0.0;        ///< kernel bytes moved, or transfer payload
  double t_start = 0.0;      ///< simulated seconds at event start
  double duration = 0.0;     ///< predicted seconds
  int stream = 0;            ///< simulated stream the event was issued on
  std::int64_t dep = -1;     ///< stream-event id for Record/Wait markers

  double end() const { return t_start + duration; }
};

const char* to_string(TraceEvent::Kind k);
const char* to_string(TraceEvent::Bound b);

/// True for the zero-duration ordering markers (no cost, no timeline
/// occupancy — repricing and utilization accounting skip them).
inline bool is_marker(TraceEvent::Kind k) {
  return k == TraceEvent::Kind::EventRecord ||
         k == TraceEvent::Kind::EventWait || k == TraceEvent::Kind::Sync;
}

/// Fixed-capacity ring of TraceEvents. Oldest events are overwritten once
/// full; `dropped()` counts them so truncation is never silent.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16)
      : capacity_(capacity ? capacity : 1) {}

  void push(TraceEvent e) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(e));
    } else {
      ring_[head_] = std::move(e);
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return ring_.empty(); }
  /// Events overwritten after the ring wrapped.
  std::uint64_t dropped() const { return dropped_; }
  /// Accounts for events lost outside the ring (e.g. restored from a
  /// truncated on-disk trace), so drop counts survive a round trip.
  void note_dropped(std::uint64_t n) { dropped_ += n; }

  /// Machine metadata stamped by ExecContext::set_trace: the name of the
  /// machine the events were priced on and its per-launch overhead (needed
  /// offline to split a kernel's duration into launch vs roofline time).
  void set_source(std::string machine, double launch_overhead) {
    source_ = std::move(machine);
    launch_overhead_ = launch_overhead;
  }
  const std::string& source() const { return source_; }
  double launch_overhead() const { return launch_overhead_; }

  /// The mpi rank this buffer's events belong to. Exported as the Chrome
  /// trace `pid` (with process_name / process_sort_index metadata rows) so
  /// per-rank traces merge into one ordered, labeled multi-process
  /// timeline; parse_chrome_trace restores it. 0 = single-process trace.
  void set_rank(int rank) { rank_ = rank; }
  int rank() const { return rank_; }

  /// Retained events in chronological order (oldest first).
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once full
  std::uint64_t dropped_ = 0;
  std::string source_;
  double launch_overhead_ = 0.0;
  int rank_ = 0;
  std::vector<TraceEvent> ring_;
};

/// Pre-serialized Chrome metadata rows ("ph":"M" process_name +
/// process_sort_index) naming viewer process `rank` as `label` and pinning
/// its sort order to the rank id. write_chrome_trace emits them for its own
/// buffer; multi-rank mergers (coe::xray) emit one pair per rank.
std::string process_metadata_events(int rank, const std::string& label);

/// Writes the buffer as a Chrome trace_event JSON document (the
/// `about:tracing` / Perfetto "JSON Array Format" with a `traceEvents`
/// object wrapper). Simulated seconds map to microseconds of trace time;
/// flops/bytes/backend/bound ride along in each event's `args`, markers as
/// zero-duration events. `otherData` carries the dropped-event count and
/// the source machine so a truncated ring is visible in the viewer instead
/// of silently short. `extra_events` (pre-serialized JSON objects, e.g.
/// critical-path flow events from coe::prof) are appended to the array.
void write_chrome_trace(std::ostream& os, const TraceBuffer& buf,
                        const std::vector<std::string>* extra_events = nullptr);

/// Same, as a string.
std::string chrome_trace_json(const TraceBuffer& buf);

/// Parses a Chrome trace document produced by write_chrome_trace back into
/// a TraceBuffer (the round trip coe_report uses to consume on-disk
/// TRACE_*.json). Events this writer did not emit (flow
/// events, metadata rows) are skipped; dropped counts and the machine
/// metadata are restored. Throws JsonError on malformed documents.
TraceBuffer parse_chrome_trace(std::string_view text);

}  // namespace coe::obs
