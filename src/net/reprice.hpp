#pragma once
// Per-link occupancy repricing (DESIGN.md section 15.4). A fully
// sequentialized bound (sequential_s) has every message in the whole run
// pay alpha + beta*bytes back to back, as if one wire carried everything
// and nobody computed meanwhile. reprice() replays a NetLog
// against a ClusterModel with per-rank injection/ejection engines and
// per-rank program clocks, so messages from different nodes overlap each
// other and logged compute hides transfers posted before it. The gap
// between sequential_s and timeline_s is exactly the benefit the paper's
// communication preparation work (aggregation + overlap) is after.
//
// replay() is the same machinery with the schedule kept: every event's
// program-clock interval, the wire occupancy of each send, the matched
// send index behind each receive, and the per-rank finish clocks. It is
// the substrate coe::xray (DESIGN.md section 16) builds the merged
// timeline and the distributed critical path on; reprice() is a thin
// summary of it, bit-identical to the original single-pass version.
//
// The log holds only Send, Recv and Compute events, so no rank ever parks
// at a global synchronization point: a rank advances until it reaches a
// receive whose message has not been sent yet, and a collective is priced
// by the messages it is built from.

#include <cstddef>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "net/log.hpp"

namespace coe::net {

struct RepriceResult {
  /// Overlap-aware makespan: max over ranks of program clock and link
  /// engines, floored by the bisection bound.
  double timeline_s = 0.0;
  /// The legacy bound for the same traffic: per-rank compute critical path
  /// plus every message sequentialized at alpha + beta*bytes.
  double sequential_s = 0.0;
  double comm_sequential_s = 0.0;  ///< communication part of sequential_s
  double compute_s = 0.0;          ///< max per-rank logged compute seconds
  /// Lower bound from traffic crossing the machine midpoint through the
  /// fabric's bisection (bisection_factor * injection_bw * ranks/2).
  double bisection_floor_s = 0.0;
  std::size_t messages = 0;  ///< point-to-point sends in the log
  double bytes = 0.0;        ///< payload bytes of those sends
  /// False if the replay deadlocked (a recv with no matching send) or an
  /// event names an out-of-range rank — results are then partial.
  bool well_formed = true;

  double speedup() const {
    return timeline_s > 0.0 ? sequential_s / timeline_s : 1.0;
  }
};

/// One NetEvent placed on the replayed timeline. Times are replay seconds
/// (every rank's program clock starts at 0).
struct ReplayEvent {
  NetEvent ev;               ///< the logged event (copied out of the log)
  std::size_t pos = 0;       ///< position in its rank's program order
  double t_before = 0.0;     ///< rank program clock on reaching the event
  double t_after = 0.0;      ///< rank program clock after the event
  // Send only: occupancy of the source's injection engine, and the time
  // the message lands at the destination (wire_end + alpha).
  double wire_start = 0.0;
  double wire_end = 0.0;
  double arrival = 0.0;
  double inj_before = 0.0;   ///< injection engine availability at the send
  // Recv only: ejection engine availability, the matched send's arrival,
  // the drain interval, and the completion point.
  double ej_before = 0.0;
  double eject_start = 0.0;
  double done = 0.0;
  /// Recv: index (into Replay::events) of the matched Send; Send: index of
  /// the matching Recv once one consumed the message. -1 = unmatched.
  std::ptrdiff_t match = -1;
};

/// The full replayed schedule of a NetLog.
struct Replay {
  int ranks = 0;
  std::vector<ReplayEvent> events;  ///< log order (same order as the NetLog)
  /// Per-rank indices into `events`, program order. rank_events[r][p] is
  /// rank r's p-th event.
  std::vector<std::vector<std::size_t>> rank_events;
  std::vector<double> finish;  ///< per-rank final program clock
  std::vector<double> inj;     ///< per-rank final injection-engine time
  std::vector<double> ej;      ///< per-rank final ejection-engine time
  /// Event makespan: max over ranks of program clock and both engines
  /// (the quantity the bisection floor is applied to).
  double makespan_s = 0.0;
  RepriceResult result;
  /// Human-readable replay problems: blocked receives, unmatched sends,
  /// events with out-of-range ranks. Non-empty
  /// means the log was malformed or truncated; `result.well_formed` is
  /// false for the subset of these the legacy reprice() also detected
  /// (unmatched *sends* alone do not deadlock a replay, so they surface
  /// only here).
  std::vector<std::string> diagnostics;
};

/// Replays `log` over `ranks` program orders against `net`, keeping the
/// full schedule. Event model: sends occupy the source's injection engine
/// (blocking sends also advance the program clock through the injection;
/// posted sends charge only alpha), receives complete at max(arrival,
/// ejection-engine availability) + the ejection time, and compute advances
/// the program clock by its logged seconds.
Replay replay(const NetLog& log, const hsim::ClusterModel& net, int ranks);

/// Summary-only replay: exactly replay(...).result.
RepriceResult reprice(const NetLog& log, const hsim::ClusterModel& net,
                      int ranks);

}  // namespace coe::net
