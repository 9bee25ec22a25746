#pragma once
// Survivable distributed runs (DESIGN.md §17): the recovery orchestration
// that lets a multi-rank driver ride through injected rank kills. The
// world's work is decomposed into fixed logical *parts* (one per initial
// worker rank); parts — not ranks — own the numerics and the checkpoints,
// so a repair can remap parts onto survivors (shrink)
// or onto a warm spare adopting the dead rank's id (spare substitution)
// without perturbing a single bit of the arithmetic.
//
// The protocol, end to end:
//   1. Steady state: hooks.step() advances every owned part; every
//      cfg.ckpt_every steps checkpoint_exchange() stages each part's blob
//      locally, replicates it to the ring successor in ONE aggregated
//      tagged message (priced by net::replay, "phoenix/ckpt" span), votes
//      on the Communicator's unlogged shared-buffer collective — the
//      all-or-none decision of a two-phase commit — and commits generation
//      (epoch << 32 | step).
//   2. A kill raises resil::RankFailure in the victim (the thread retires
//      and coe::mpi marks the rank dead); survivors' operations raise the
//      recoverable mpi::RankFailed. Each survivor revokes the world,
//      aborts any pending checkpoint, and enters recovery.
//   3. Recovery: agree_min over latest committed generations (also fixing
//      the dead set), deterministic plan (shrink: retire; spare: adopt),
//      leader = lowest non-needy survivor commits repair() — purged
//      in-flight messages get synthetic drain Recv events so the replay
//      timeline stays free of unmatched sends — everyone else
//      await_repair()s. Post-repair, holders ship buddy blobs to adopted
//      spares ("bootstrap"), shrink reassigns dead ranks' parts to the
//      ring successor holding their buddy copies.
//   4. Restore: every rank reloads its (possibly newly adopted) parts
//      from the agreed generation — own copy first, CRC-refused blobs
//      fall back to a surviving buddy copy — then the world immediately
//      re-replicates at the restore point (closing the single-copy
//      window) and replays steps to bitwise-identical state.
//
// A NetLog has no collective event kind, so no logged collective can park
// a dead rank's slot in a net::replay: votes ride the Communicator's
// unlogged shared-buffer reduction, and app data moves only as
// part-addressed point-to-point messages (bitwise stable under any
// part->rank mapping).
// All logged tags are epoch-salted so pre- and post-repair traffic cannot
// alias.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/exec.hpp"
#include "mpi/comm.hpp"
#include "net/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phoenix/ckpt.hpp"
#include "prof/span.hpp"
#include "resil/checkpoint.hpp"

namespace coe::phoenix {

/// The buddy model ran out of copies: both members of a buddy pair died
/// within one commit window, spares were exhausted, or no intact blob of a
/// needed part survives. Deliberately fatal and loud — this aborts the
/// world rather than continuing from wrong state.
struct PhoenixUnrecoverable : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class RepairPolicy {
  Shrink,  ///< retire dead ranks; ring successor adopts their parts
  Spare,   ///< parked warm spare adopts the dead rank's id and parts
};

struct PhoenixStats {
  std::size_t kills = 0;        ///< distinct ranks that died
  std::size_t detections = 0;   ///< RankFailed catches (rank-summed)
  std::size_t repairs = 0;      ///< committed repairs
  std::size_t adoptions = 0;    ///< spare substitutions
  std::size_t retirements = 0;  ///< shrink retirements
  std::size_t ckpt_commits = 0;    ///< committed generations (rank-summed)
  std::size_t ckpt_aborts = 0;     ///< pending generations dropped
  std::size_t restores = 0;        ///< part blobs restored
  std::size_t crc_fallbacks = 0;   ///< restores served by a buddy copy
  std::size_t replayed_steps = 0;  ///< steps re-executed after rollback
  std::size_t buddy_msgs = 0;      ///< committed-round replication messages
  double buddy_bytes = 0.0;
  std::size_t shipped_msgs = 0;  ///< bootstrap ships to adopted spares
  double shipped_bytes = 0.0;
  double repair_s = 0.0;     ///< wall seconds inside recovery (rank-summed)
  double lost_work_s = 0.0;  ///< simulated seconds rolled back (rank-summed)
};

struct SurvivableConfig {
  int workers = 4;  ///< initial worker ranks == logical part count
  int spares = 0;   ///< parked warm spares (Spare policy)
  RepairPolicy policy = RepairPolicy::Shrink;
  int steps = 8;       ///< hooks.step calls per part (step 0 may be init)
  int ckpt_every = 4;  ///< checkpoint before steps that are multiples of this
  /// Base communicator options; recoverable/spares/fault_hook/metrics are
  /// overwritten by the driver.
  mpi::RunOptions mpi;
  hsim::MachineModel node = hsim::machines::host();
  /// Shared traffic log (net::replay / coe::xray); may be null.
  net::NetLog* log = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  bool trace_ranks = false;
  /// Kill injector (phoenix::kill_rank_at / seeded_kills /
  /// resil::make_rank_fault_hook); may be null for a fault-free run.
  std::function<bool(int, std::size_t)> fault_hook;
};

/// The driver settings an app's survivable config carries under the same
/// names, for `steps` driver steps.
template <typename AppConfig>
SurvivableConfig survivable_config(const AppConfig& app, int steps) {
  return {.workers = app.workers, .spares = app.spares, .policy = app.policy,
          .steps = steps, .ckpt_every = app.ckpt_every, .mpi = app.mpi,
          .node = app.node, .log = app.log, .metrics = app.metrics,
          .trace_ranks = app.trace_ranks, .fault_hook = app.fault_hook};
}

class RankContext;

/// Application plug-in. `make` builds one part's app (called for initial
/// ownership, adoption, and fresh rebuilds — it must be deterministic in
/// the part index). `step` advances every part the context owns by one
/// step, using only RankContext communication (part_send/part_recv) —
/// never unlogged side channels and never logged collectives. `finish`
/// runs once per surviving rank after the final consistency vote; it must
/// be communication-free.
struct SurvivableHooks {
  std::function<std::unique_ptr<resil::Checkpointable>(RankContext&, int)>
      make;
  std::function<void(RankContext&, int)> step;
  std::function<void(RankContext&)> finish;
};

struct SurvivableReport {
  mpi::TrafficStats traffic;
  PhoenixStats stats;
  int epochs = 0;          ///< final mailbox epoch (== committed repairs)
  std::vector<int> dead;   ///< every rank id that died, ascending
  std::vector<obs::TraceBuffer> rank_traces;  ///< per physical thread
};

namespace detail {
struct Shared;
}

/// Per-rank runtime handed to the hooks. Owned parts, their apps and the
/// part-addressed messaging live here; the recovery machinery is internal.
class RankContext {
 public:
  /// Current logical rank id (an adopted spare reports the adopted id).
  int rank() const { return rank_; }
  int nparts() const { return nparts_; }
  /// Parts this rank currently owns, ascending.
  const std::vector<int>& owned() const { return owned_; }
  /// Current owner rank of a part.
  int owner(int part) const { return pmap_[static_cast<std::size_t>(part)]; }
  resil::Checkpointable& part(int p);
  core::ExecContext& ctx() { return ctx_; }
  int step() const { return step_; }

  /// Part-addressed tagged message on channel `chan` (app channels are
  /// kChanApp..). Same-rank transfers short-circuit through a local queue
  /// (no message, no log); remote ones are real epoch-salted-logged mpi
  /// traffic. Sends are eager (never block), so a phase that posts all
  /// sends before any receive is deadlock-free.
  void part_send(int from_part, int to_part, int chan,
                 std::vector<double> payload);
  std::vector<double> part_recv(int from_part, int to_part, int chan);

  /// Flushes the simulated-time delta accrued since the last flush into
  /// the traffic log as a Compute event.
  void log_compute();

  /// First app channel; kChanBuddy/kChanBoot below it are reserved for
  /// the checkpoint and bootstrap protocol.
  static constexpr int kChanApp = 8;

 private:
  friend SurvivableReport run_survivable(const SurvivableConfig&,
                                         const SurvivableHooks&);
  friend struct detail::Shared;

  RankContext(detail::Shared& sh, int phys, mpi::Communicator& comm0);

  // Lifecycle (driver-internal; defined in driver.cpp).
  void begin_as_worker();
  bool begin_as_spare();  ///< false: released without adoption
  void common_init();
  void main_loop();
  void flush_stats();

  void recover();
  void restore();
  void checkpoint_exchange();
  void ship_bootstrap_to(int d);
  void receive_bootstrap();
  void send_rank(int dest, int chan, std::vector<double> payload);
  std::vector<double> recv_rank(int src, int chan);
  static int ring_successor(const std::vector<int>& ring, int of);
  static int ring_predecessor(const std::vector<int>& ring, int of);
  std::uint64_t gen_now() const;
  int logged_tag(int wire) const;

  detail::Shared& sh_;
  int phys_;       ///< physical thread index (== store index)
  mpi::Communicator* base_comm_;
  int rank_ = -1;  ///< current logical rank id
  int nparts_ = 0;
  mpi::Communicator* comm_ = nullptr;
  std::unique_ptr<mpi::Communicator> adopted_comm_;
  core::ExecContext ctx_;
  net::RankLogger logger_;
  prof::Profiler prof_;
  DistributedCheckpointStore* store_ = nullptr;

  // Bookkeeping every non-needy rank tracks deterministically (identical
  // on all of them): membership, part ownership, spare usage, and the
  // ring/pmap snapshot of each committed generation.
  std::vector<int> pmap_;
  std::vector<int> owned_;
  std::set<int> alive_;
  std::set<int> needy_;  ///< adopted but not yet covered by a commit
  int spares_used_ = 0;
  std::map<int, int> embodiment_;  ///< logical rank -> physical thread
  struct GenSnapshot {
    std::vector<int> ring;
    std::vector<int> pmap;
    double sim_s = 0.0;
  };
  std::map<std::uint64_t, GenSnapshot> gens_;

  std::map<int, std::unique_ptr<resil::Checkpointable>> parts_;
  std::map<std::uint64_t, std::queue<std::vector<double>>> local_mail_;

  int step_ = 0;
  int last_ckpt_step_ = -1;
  int world_epoch_ = 0;
  bool needy_self_ = false;
  bool need_recover_ = false;
  bool pending_boot_ = false;
  bool pending_restore_ = false;
  std::uint64_t agreed_ = DistributedCheckpointStore::kNone;
  double logged_sim_ = 0.0;
  PhoenixStats local_;
};

/// Runs the survivable world: cfg.workers + cfg.spares threads, recovery
/// enabled. Returns after every surviving rank finished (or rethrows the
/// first unrecoverable failure).
SurvivableReport run_survivable(const SurvivableConfig& cfg,
                                const SurvivableHooks& hooks);

}  // namespace coe::phoenix
