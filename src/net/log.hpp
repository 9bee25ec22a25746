#pragma once
// Traffic log for net::reprice (DESIGN.md section 15.4). Drivers and the
// net collectives append one event per communication action or overlapped
// compute interval; reprice() replays the log against a ClusterModel's
// per-link occupancy to produce a timeline estimate alongside the old
// fully-sequentialized alpha-beta bound. There are three event kinds and
// no collective kind: a collective is logged as the Send/Recv events of
// its real message pattern (net::allreduce_sum), and the Communicator's
// shared-buffer collectives cannot be logged at all.
//
// Event conventions:
//  * Send is logged at post time. `blocking` distinguishes a synchronous
//    send (the rank's program clock advances past the injection) from an
//    isend (only the link engine is occupied).
//  * Recv is logged at its COMPLETION point — for irecv that is the
//    wait()/waitall() call, which is exactly what lets compute logged
//    between post and wait hide the transfer in the replay.
//  * Compute carries modeled kernel seconds (e.g. an ExecContext
//    simulated-time delta) spent between communication actions.

#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

namespace coe::net {

struct NetEvent {
  enum class Kind { Send, Recv, Compute };
  Kind kind = Kind::Compute;
  int rank = 0;      ///< rank whose program order this event belongs to
  int peer = -1;     ///< destination (Send) / source (Recv)
  int tag = 0;
  double bytes = 0.0;    ///< message payload (Send/Recv)
  double seconds = 0.0;  ///< Compute only: modeled kernel seconds
  bool blocking = true;  ///< Send only: synchronous vs posted
  /// Wall-clock seconds since the owning log's epoch, stamped at the
  /// event's completion point (Recv only: the wait that delivered the
  /// message). -1 when unstamped. Purely diagnostic — reprice ignores it;
  /// coe::xray uses it to cross-check that the modeled merge agrees with
  /// the order the waits actually completed in.
  double t_wall = -1.0;
};

/// Thread-safe append-only event log shared by every rank of a world.
class NetLog {
 public:
  NetLog() : epoch_(std::chrono::steady_clock::now()) {}

  void push(const NetEvent& e) {
    std::lock_guard<std::mutex> lk(mtx_);
    events_.push_back(e);
  }

  /// Monotonic wall seconds since this log was created — the clock Recv
  /// completion stamps are expressed in.
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::vector<NetEvent> snapshot() const {
    std::lock_guard<std::mutex> lk(mtx_);
    return events_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mtx_);
    return events_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mtx_);
    events_.clear();
  }

 private:
  mutable std::mutex mtx_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<NetEvent> events_;
};

/// Per-rank logging facade; every method is a cheap no-op when constructed
/// without a log, so instrumented drivers behave identically unlogged.
class RankLogger {
 public:
  RankLogger() = default;
  RankLogger(NetLog* log, int rank) : log_(log), rank_(rank) {}

  explicit operator bool() const { return log_ != nullptr; }
  int rank() const { return rank_; }

  void send(int dest, int tag, double bytes, bool blocking) const {
    if (log_) {
      log_->push({NetEvent::Kind::Send, rank_, dest, tag, bytes, 0.0,
                  blocking});
    }
  }
  void recv(int src, int tag, double bytes) const {
    if (log_) {
      log_->push({NetEvent::Kind::Recv, rank_, src, tag, bytes, 0.0, true,
                  log_->now_s()});
    }
  }
  void compute(double seconds) const {
    if (log_ && seconds > 0.0) {
      log_->push({NetEvent::Kind::Compute, rank_, -1, 0, 0.0, seconds, true});
    }
  }

 private:
  NetLog* log_ = nullptr;
  int rank_ = 0;
};

}  // namespace coe::net
