#pragma once
// A small message-passing substrate in the spirit of the MPI programs the
// iCoE workload is built from (every production code in the paper is
// MPI-based; the paper's node-level work sat on top of existing scalable
// MPI implementations). Ranks are real threads with blocking mailboxes,
// so send/recv/collective semantics are genuine; traffic is counted so
// cluster models can price a run.
//
// Failure semantics (coe::resil integration): every blocking operation
// carries a real-time deadline, so a mismatched-tag recv or a lost peer
// surfaces as a thrown CommTimeout rather than an indefinite hang. When any
// rank exits with an exception — including an injected resil::RankFailure —
// the world aborts: peers blocked in recv/barrier/allreduce wake
// immediately and throw PeerFailure, and run() rethrows the original
// failure after joining everyone.
//
// Run-through recovery (coe::phoenix integration, DESIGN.md §17): with
// RunOptions::recoverable set, an injected RankFailure no longer aborts the
// world. The dead rank's thread retires quietly; survivors' blocked and
// subsequent operations raise the *recoverable* RankFailed instead of the
// fatal PeerFailure, and the ULFM-style primitive set — revoke(),
// agree_min(), repair()/await_repair(), park_spare()/adopted_view() — lets
// a recovery protocol rebuild the world: acknowledge the dead, bump the
// mailbox epoch (pre-repair in-flight messages are purged and returned so
// a logger can drain them), shrink the collective membership or substitute
// a parked warm spare under the dead rank's id, and resume.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "resil/fault.hpp"

namespace coe::mpi {

struct TrafficStats {
  std::size_t messages = 0;
  double bytes = 0.0;
  std::size_t allreduces = 0;
  std::size_t barriers = 0;
  std::size_t retries = 0;  ///< deadline expiries retried with backoff
};

/// A blocking operation exceeded its real-time deadline (no matching send,
/// or a peer stopped participating without the abort flag being raised).
struct CommTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Raised out of a blocking operation on a surviving rank after another
/// rank failed: the collective/message can never complete.
struct PeerFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Recoverable peer-death notification (recoverable worlds only): raised on
/// survivors instead of the fatal PeerFailure when a rank dies or the world
/// is revoked. `rank` is the first unacknowledged dead rank, or -1 when the
/// world was merely revoked. Catch it, run the recovery protocol
/// (revoke -> agree_min -> repair/await_repair), and continue.
struct RankFailed : std::runtime_error {
  RankFailed(int rank_, const std::string& what)
      : std::runtime_error(what), rank(rank_) {}
  int rank;
};

/// One in-flight message discarded by repair() when the mailbox epoch was
/// bumped. Returned to the repair leader so recovery tooling can log a
/// synthetic drain receive for it (keeping a net::replay of the run free of
/// unmatched sends).
struct PurgedMessage {
  int epoch = 0;  ///< mailbox epoch the message was posted in
  int src = 0;
  int dest = 0;
  int tag = 0;
  double bytes = 0.0;
};

/// Membership change executed by one repair: dead ranks are either retired
/// (shrink — collectives stop expecting them) or adopted by a parked spare
/// (the spare wakes up owning the dead rank's id and mailbox address).
struct RepairPlan {
  std::vector<int> retire;
  /// {dead rank, spare physical thread} pairs.
  std::vector<std::pair<int, int>> adopt;
};

struct RepairResult {
  int epoch = 0;  ///< the new mailbox epoch
  std::vector<PurgedMessage> purged;
};

/// What an adopted spare wakes up with: the identity it now owns and the
/// rank that performed the repair (so the spare knows whom to ask for
/// bootstrap state).
struct Adoption {
  int rank = -1;    ///< adopted rank id (-1: world shut down, no adoption)
  int leader = -1;  ///< rank that committed the repair
  int epoch = 0;    ///< epoch the adoption happened in
  bool adopted() const { return rank >= 0; }
};

struct RunOptions {
  /// Real-time deadline (seconds) for each blocking operation; expiry
  /// throws CommTimeout instead of hanging forever.
  double timeout_seconds = 30.0;
  /// Deadline-retry policy: an expired wait is retried up to this many
  /// times before CommTimeout is raised, each retry waiting an
  /// exponentially growing extension (retry_backoff_seconds doubling per
  /// attempt, with ±50% seeded jitter so ranks that timed out together do
  /// not re-arm in lockstep). 0 restores fail-immediately behavior.
  int max_retries = 2;
  double retry_backoff_seconds = 0.05;
  std::uint64_t retry_seed = 0x5eed;
  /// Fault-injection hook, consulted on every communicator operation with
  /// (rank, operations completed by that rank). Returning true raises
  /// resil::RankFailure inside that rank. Called concurrently from all
  /// rank threads — must be thread-safe (see resil::make_rank_fault_hook).
  std::function<bool(int, std::size_t)> fault_hook;
  /// Optional telemetry sink (not owned; must outlive run()). Publishes
  /// "mpi.messages"/".bytes"/".allreduces"/".barriers"/".retries" when the
  /// world finishes, and "mpi.timeouts"/".rank_failures"/".peer_failures"
  /// as they occur.
  obs::MetricsRegistry* metrics = nullptr;
  /// Run-through recovery (coe::phoenix): a rank dying with RankFailure no
  /// longer aborts the world — survivors get the recoverable RankFailed and
  /// the revoke/agree/repair primitives become usable. Any other exception
  /// (CommTimeout, user errors) still aborts fatally.
  bool recoverable = false;
  /// Number of ranks at the top of the world reserved as parked warm
  /// spares. They must call park_spare() immediately; they take no part in
  /// collectives until a repair adopts them under a dead rank's id. Only
  /// meaningful together with `recoverable`.
  int spares = 0;
};

class World;
class Communicator;

/// Handle on a pending nonblocking operation (MPI_Request analog). Sends
/// are eager on the mailbox substrate, so an isend's request is born
/// complete; an irecv's request completes inside wait()/waitall(), which
/// run through the same deadline/retry/abort machinery as blocking recv —
/// a pending request wakes with PeerFailure when any rank dies, and
/// deadline expiries are retried with backoff before CommTimeout.
class Request {
 public:
  Request() = default;
  /// True once the operation finished (always true for isend requests).
  bool done() const { return done_; }
  /// True if this handle refers to an operation at all.
  bool valid() const { return world_ != nullptr; }
  /// True if the operation was cancelled (waitall unwinding past a failure,
  /// or an explicit Communicator::cancel) before it could complete; the
  /// payload is empty and wait()/test() are no-ops.
  bool cancelled() const { return cancelled_; }
  /// Completed irecv payload (empty for sends or before completion).
  const std::vector<double>& data() const { return data_; }
  /// Moves the payload out (irecv, after wait).
  std::vector<double> take() { return std::move(data_); }

 private:
  friend class Communicator;
  World* world_ = nullptr;
  int self_ = -1;   ///< posting rank
  int peer_ = -1;   ///< source (irecv) or destination (isend)
  int tag_ = 0;
  bool is_recv_ = false;
  bool done_ = false;
  bool cancelled_ = false;
  std::vector<double> data_;
};

/// Per-rank handle (MPI_Comm analog). Valid only inside run().
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking tagged send/recv of double payloads.
  void send(int dest, int tag, std::vector<double> data);
  std::vector<double> recv(int src, int tag);

  // --- nonblocking point-to-point (coe::net substrate) -------------------
  /// Posts a send; on this eager substrate the message is deposited
  /// immediately and the returned request is already complete (the traffic
  /// is counted at post time, like a buffered MPI_Isend).
  Request isend(int dest, int tag, std::vector<double> data);
  /// Posts a receive for (src, tag); completion is deferred to
  /// wait()/waitall()/test(). Multiple pending irecvs on the same (src,
  /// tag) drain the FIFO mailbox in the order they are *waited*, not the
  /// order they were posted.
  Request irecv(int src, int tag);
  /// Blocks until `r` completes; returns the payload for receives (empty
  /// for sends). Waiting an already-complete request is a no-op returning
  /// its payload. Deadline expiry retries with backoff, then CommTimeout;
  /// a peer failure wakes the wait with PeerFailure.
  std::vector<double> wait(Request& r);
  /// Completes every request, in order; done requests are skipped, so a
  /// mix of complete and pending handles is fine. Payloads stay readable
  /// through Request::data(). If a wait fails mid-flight (PeerFailure /
  /// RankFailed / CommTimeout), already-completed requests keep their
  /// payloads and every not-yet-completed request is cancelled before the
  /// failure propagates — no half-consumed request can leak a matched
  /// message into a repaired world.
  void waitall(std::span<Request> rs);
  /// Nonblocking completion probe: true (and fills the request's payload)
  /// if the operation can finish now.
  bool test(Request& r);
  /// Cancels a pending request: it reports done with an empty payload and
  /// cancelled() == true. Completed requests are left untouched.
  void cancel(Request& r);

  /// In-place sum-allreduce over all ranks.
  void allreduce_sum(std::span<double> inout);
  double allreduce_sum(double v);
  /// Max-allreduce, a native single-pass reduction on the shared-buffer
  /// plumbing (one collective, no messages).
  double allreduce_max(double v);
  void allreduce_max(std::span<double> inout);

  void barrier();

  // --- run-through recovery primitives (coe::phoenix, DESIGN.md §17) -----
  // All of these require RunOptions::recoverable; calling them on a
  // non-recoverable world throws std::logic_error.

  /// True when the world was built with RunOptions::recoverable.
  bool recoverable() const;
  /// Current mailbox epoch (bumped by every committed repair). Useful for
  /// salting logged tags so pre- and post-repair traffic cannot alias.
  int epoch() const;
  /// Dead-but-unacknowledged ranks, in death order.
  std::vector<int> failed_ranks() const;
  /// Poisons the world: every non-recovery operation on every rank raises
  /// RankFailed until a repair commits. Idempotent; survivors call it on
  /// catching RankFailed so peers still blocked in ordinary operations are
  /// flushed into the recovery protocol too.
  void revoke();
  /// Fault-tolerant agreement: blocks until every *live* active rank has
  /// contributed, then returns the minimum contributed value on all of
  /// them. Ranks dying mid-agreement are excluded and the round still
  /// completes (their death is reported through `dead`, the set of
  /// unacknowledged dead ranks snapshotted at completion — identical on
  /// every participant). Usable while the world is revoked; a kill can
  /// still land on entry, raising RankFailure in the victim.
  std::uint64_t agree_min(std::uint64_t value,
                          std::vector<int>* dead = nullptr);
  /// Leader side of recovery: acknowledges the plan's dead ranks (retiring
  /// them or activating spare adoptions), bumps the mailbox epoch, purges
  /// in-flight messages (returned for drain logging), resets collective
  /// state, and clears the revocation. Ranks that died after the agreement
  /// stay unacknowledged and re-trigger RankFailed on the next operation.
  RepairResult repair(const RepairPlan& plan);
  /// Non-leader side: blocks until a repair commits (returns the new
  /// epoch) or another death lands first (raises RankFailed so the caller
  /// restarts recovery).
  int await_repair(int epoch_before);
  /// Spare side: parks this rank until a repair adopts it (returns the
  /// adopted identity) or every non-parked thread has finished, which
  /// releases all spares with rank = -1. Parked ranks cannot be killed by
  /// the fault hook.
  Adoption park_spare();
  /// A view of the same world under a different rank id — how an adopted
  /// spare continues the dead rank's program. Using it while the original
  /// owner's thread is live would corrupt the mailbox; only use ids handed
  /// out by park_spare().
  Communicator adopted_view(int rank) const;

 private:
  friend TrafficStats run(int, const RunOptions&,
                          const std::function<void(Communicator&)>&);
  Communicator(World* w, int rank) : world_(w), rank_(rank) {}
  World* world_;
  int rank_;
};

/// Runs fn on `ranks` concurrent threads with a shared mailbox world;
/// returns the aggregate traffic stats once every rank finishes. Any rank
/// throwing aborts the world (unblocking survivors) and propagates out of
/// run() after joining the others; survivors' secondary PeerFailure
/// exceptions never mask the original error.
TrafficStats run(int ranks, const RunOptions& opts,
                 const std::function<void(Communicator&)>& fn);

/// Default options: 30 s deadlines, no fault injection.
TrafficStats run(int ranks, const std::function<void(Communicator&)>& fn);

}  // namespace coe::mpi
