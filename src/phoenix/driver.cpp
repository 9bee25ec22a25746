#include "phoenix/driver.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace coe::phoenix {

namespace {

constexpr int kChanBuddy = 0;  ///< aggregated ring replication messages
constexpr int kChanBoot = 1;   ///< bootstrap ships to adopted spares

/// Wire tag for a channel + id (part or rank). Channels are 0x400 apart so
/// epoch salting (tag + epoch * 0x10000) never collides across channels.
int wire_tag(int chan, int id) { return chan * 0x400 + id; }

/// Local-mail key for same-rank part transfers.
std::uint64_t local_key(int chan, int from, int to) {
  return (static_cast<std::uint64_t>(chan) << 20) |
         (static_cast<std::uint64_t>(from) << 10) |
         static_cast<std::uint64_t>(to);
}

double wall_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Blob messages are read from the back: each blob record is its words
// followed by (part, step, nwords), then comes the record count, then any
// bookkeeping words. Popping the trailer leaves a one-blob message holding
// exactly that blob's words, so the receiver stores the message buffer
// itself instead of copying the blob out.

void put_blob(std::vector<double>& m, int part, std::size_t step,
              const std::vector<double>& words) {
  m.insert(m.end(), words.begin(), words.end());
  m.push_back(static_cast<double>(part));
  m.push_back(static_cast<double>(step));
  m.push_back(static_cast<double>(words.size()));
}

double pop_word(std::vector<double>& m) {
  if (m.empty()) throw std::logic_error("phoenix: truncated blob message");
  const double w = m.back();
  m.pop_back();
  return w;
}

/// Stages every blob record of `m` (records plus their count, with any
/// bookkeeping words already popped) as generation `gen`.
void stage_blobs(DistributedCheckpointStore& store, std::uint64_t gen,
                 std::vector<double> m) {
  const auto nb = static_cast<std::size_t>(pop_word(m));
  for (std::size_t b = 0; b < nb; ++b) {
    const auto n = static_cast<std::size_t>(pop_word(m));
    const auto st = static_cast<std::size_t>(pop_word(m));
    const int p = static_cast<int>(pop_word(m));
    if (n > m.size()) throw std::logic_error("phoenix: truncated blob message");
    if (nb == 1 && n == m.size()) {
      store.stage(gen, p, st, std::move(m));
      return;
    }
    const auto at = static_cast<long>(m.size() - n);
    store.stage(gen, p, st, std::vector<double>(m.begin() + at, m.end()));
    m.resize(m.size() - n);
  }
}

}  // namespace

namespace detail {

/// World-shared driver state: config, the per-physical-thread checkpoint
/// stores (indexable cross-rank for buddy-fallback restores), traces, and
/// the aggregated report.
struct Shared {
  const SurvivableConfig& cfg;
  const SurvivableHooks& hooks;
  std::vector<std::unique_ptr<DistributedCheckpointStore>> stores;
  std::vector<obs::TraceBuffer> traces;
  std::mutex agg;
  PhoenixStats stats;   ///< under agg
  std::set<int> dead;   ///< under agg; every rank id ever marked dead
  int max_epoch = 0;    ///< under agg

  Shared(const SurvivableConfig& c, const SurvivableHooks& h)
      : cfg(c), hooks(h) {
    const int n = c.workers + c.spares;
    stores.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      stores.push_back(std::make_unique<DistributedCheckpointStore>());
    if (c.trace_ranks) traces.resize(static_cast<std::size_t>(n));
  }
};

}  // namespace detail

RankContext::RankContext(detail::Shared& sh, int phys,
                         mpi::Communicator& comm0)
    : sh_(sh),
      phys_(phys),
      base_comm_(&comm0),
      nparts_(sh.cfg.workers),
      ctx_(core::Backend::Seq, sh.cfg.node),
      store_(sh.stores[static_cast<std::size_t>(phys)].get()) {}

void RankContext::common_init() {
  logger_ = net::RankLogger(sh_.cfg.log, rank_);
  if (sh_.cfg.trace_ranks) {
    auto& tb = sh_.traces[static_cast<std::size_t>(phys_)];
    tb.set_rank(rank_);
    ctx_.set_trace(&tb);
  }
  pmap_.resize(static_cast<std::size_t>(nparts_));
  for (int p = 0; p < nparts_; ++p) pmap_[static_cast<std::size_t>(p)] = p;
  owned_ = {rank_};
  alive_.clear();
  for (int r = 0; r < nparts_; ++r) alive_.insert(r);
}

void RankContext::begin_as_worker() {
  rank_ = phys_;
  comm_ = base_comm_;
  world_epoch_ = comm_->epoch();
  common_init();
  parts_[rank_] = sh_.hooks.make(*this, rank_);
}

bool RankContext::begin_as_spare() {
  const mpi::Adoption a = base_comm_->park_spare();
  if (!a.adopted()) return false;
  rank_ = a.rank;
  adopted_comm_ = std::make_unique<mpi::Communicator>(
      base_comm_->adopted_view(a.rank));
  comm_ = adopted_comm_.get();
  world_epoch_ = a.epoch;
  common_init();
  // An adopted spare is "needy": it has no bookkeeping and no blobs until
  // the holder of its buddy copies ships the bootstrap message. It stays
  // needy (and never leads a repair) until a commit covers it.
  needy_self_ = true;
  needy_.insert(rank_);
  pending_boot_ = true;
  pending_restore_ = true;
  return true;
}

resil::Checkpointable& RankContext::part(int p) { return *parts_.at(p); }

std::uint64_t RankContext::gen_now() const {
  // epoch-major so generations are strictly monotone across rollbacks:
  // a re-checkpoint at an earlier step after a repair still sorts newer
  // than anything committed before the failure.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(world_epoch_))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(step_));
}

int RankContext::logged_tag(int wire) const {
  return wire + world_epoch_ * 0x10000;
}

int RankContext::ring_successor(const std::vector<int>& ring, int of) {
  auto it = std::upper_bound(ring.begin(), ring.end(), of);
  return it == ring.end() ? ring.front() : *it;
}

int RankContext::ring_predecessor(const std::vector<int>& ring, int of) {
  auto it = std::lower_bound(ring.begin(), ring.end(), of);
  return it == ring.begin() ? ring.back() : *(it - 1);
}

void RankContext::send_rank(int dest, int chan, std::vector<double> payload) {
  const int wire = wire_tag(chan, dest);
  const double bytes = static_cast<double>(payload.size()) * 8.0;
  comm_->send(dest, wire, std::move(payload));
  // Log after the deposit returns: a kill fires on operation entry, so an
  // event is logged iff the message actually entered the mailbox.
  logger_.send(dest, logged_tag(wire), bytes, true);
}

std::vector<double> RankContext::recv_rank(int src, int chan) {
  const int wire = wire_tag(chan, rank_);
  std::vector<double> v = comm_->recv(src, wire);
  logger_.recv(src, logged_tag(wire), static_cast<double>(v.size()) * 8.0);
  return v;
}

void RankContext::part_send(int from_part, int to_part, int chan,
                            std::vector<double> payload) {
  const int o = owner(to_part);
  if (o == rank_) {
    local_mail_[local_key(chan, from_part, to_part)].push(std::move(payload));
    return;
  }
  const int wire = wire_tag(chan, to_part);
  const double bytes = static_cast<double>(payload.size()) * 8.0;
  comm_->send(o, wire, std::move(payload));
  logger_.send(o, logged_tag(wire), bytes, false);
}

std::vector<double> RankContext::part_recv(int from_part, int to_part,
                                           int chan) {
  const int o = owner(from_part);
  if (o == rank_) {
    auto it = local_mail_.find(local_key(chan, from_part, to_part));
    if (it == local_mail_.end() || it->second.empty())
      throw std::logic_error("phoenix: part_recv with no local message");
    std::vector<double> v = std::move(it->second.front());
    it->second.pop();
    return v;
  }
  const int wire = wire_tag(chan, to_part);
  std::vector<double> v = comm_->recv(o, wire);
  logger_.recv(o, logged_tag(wire), static_cast<double>(v.size()) * 8.0);
  return v;
}

void RankContext::log_compute() {
  const double sim = ctx_.simulated_time();
  if (sim > logged_sim_) {
    logger_.compute(sim - logged_sim_);
    logged_sim_ = sim;
  }
}

void RankContext::checkpoint_exchange() {
  prof::Scope span(&prof_, &ctx_, "phoenix/ckpt");
  const std::uint64_t gen = gen_now();
  const auto st = static_cast<std::size_t>(step_);
  // Each own blob is written once by save_state, copied once into the
  // aggregated buddy message, then moved into the store.
  std::vector<std::pair<int, std::vector<double>>> blobs;
  blobs.reserve(owned_.size());
  std::size_t words = 1;
  for (int p : owned_) {
    std::vector<double> blob;
    parts_.at(p)->save_state(blob);
    ctx_.record_transfer(static_cast<double>(blob.size()) * 8.0,
                         /*to_device=*/false);
    words += blob.size() + 3;
    blobs.emplace_back(p, std::move(blob));
  }
  const bool replicate = alive_.size() > 1;
  std::vector<double> payload;
  if (replicate) {
    payload.reserve(words);
    for (const auto& [p, blob] : blobs) put_blob(payload, p, st, blob);
    payload.push_back(static_cast<double>(blobs.size()));
  }
  for (auto& [p, blob] : blobs) store_->stage(gen, p, st, std::move(blob));
  std::size_t msgs = 0;
  double bytes = 0.0;
  if (replicate) {
    const std::vector<int> ring(alive_.begin(), alive_.end());
    const int succ = ring_successor(ring, rank_);
    const int pred = ring_predecessor(ring, rank_);
    bytes = static_cast<double>(payload.size()) * 8.0;
    log_compute();
    send_rank(succ, kChanBuddy, std::move(payload));
    stage_blobs(*store_, gen, recv_rank(pred, kChanBuddy));
    msgs = 1;
  }
  // Two-phase commit decision: the Communicator's unlogged shared-buffer
  // collective (a NetLog has no event for it). Reaching it means every
  // active rank staged and replicated; any failure before this point
  // raises RankFailed first and the pending generation is aborted.
  comm_->allreduce_max(0.0);
  store_->commit(gen);
  GenSnapshot snap;
  snap.ring.assign(alive_.begin(), alive_.end());
  snap.pmap = pmap_;
  snap.sim_s = ctx_.simulated_time();
  gens_[gen] = std::move(snap);
  while (gens_.size() > 2) gens_.erase(gens_.begin());
  // A commit covers every adopted spare: their blobs are now replicated
  // like everyone else's, so they graduate to full members.
  needy_.clear();
  needy_self_ = false;
  last_ckpt_step_ = step_;
  local_.ckpt_commits += 1;
  local_.buddy_msgs += msgs;
  local_.buddy_bytes += bytes;
}

void RankContext::ship_bootstrap_to(int d) {
  // [(words..., part, step, nwords) | nothing, nblobs, needy..., n_needy,
  //  spares_used, agreed | -1], read from the back.
  std::vector<double> payload;
  std::size_t nblobs = 0;
  if (agreed_ != DistributedCheckpointStore::kNone) {
    // Under the Spare policy pmap is identity: rank d owns exactly part d,
    // and this rank — d's ring successor — holds the buddy copy.
    std::vector<double> blob;
    std::size_t st = 0;
    if (store_->fetch(agreed_, d, &blob, &st) ==
        DistributedCheckpointStore::Fetch::Ok) {
      payload.reserve(blob.size() + needy_.size() + 7);
      put_blob(payload, d, st, blob);
      ++nblobs;
    }
  }
  payload.push_back(static_cast<double>(nblobs));
  for (int r : needy_) payload.push_back(static_cast<double>(r));
  payload.push_back(static_cast<double>(needy_.size()));
  payload.push_back(static_cast<double>(spares_used_));
  payload.push_back(agreed_ == DistributedCheckpointStore::kNone
                        ? -1.0
                        : static_cast<double>(agreed_));
  local_.shipped_msgs += 1;
  local_.shipped_bytes += static_cast<double>(payload.size()) * 8.0;
  send_rank(d, kChanBoot, std::move(payload));
}

void RankContext::receive_bootstrap() {
  const int holder = (rank_ + 1) % nparts_;
  std::vector<double> in = recv_rank(holder, kChanBoot);
  const double g = pop_word(in);
  agreed_ = g < 0.0 ? DistributedCheckpointStore::kNone
                    : static_cast<std::uint64_t>(g);
  spares_used_ = static_cast<int>(pop_word(in));
  const auto nn = static_cast<std::size_t>(pop_word(in));
  needy_.clear();
  for (std::size_t i = 0; i < nn; ++i)
    needy_.insert(static_cast<int>(pop_word(in)));
  stage_blobs(*store_, agreed_, std::move(in));
  if (agreed_ != DistributedCheckpointStore::kNone) {
    store_->commit(agreed_);
    GenSnapshot snap;
    snap.ring.resize(static_cast<std::size_t>(nparts_));
    for (int r = 0; r < nparts_; ++r)
      snap.ring[static_cast<std::size_t>(r)] = r;
    snap.pmap = pmap_;
    snap.sim_s = 0.0;
    gens_[agreed_] = std::move(snap);
  }
}

void RankContext::recover() {
  const auto w0 = std::chrono::steady_clock::now();
  prof::Scope span(&prof_, &ctx_, "phoenix/repair");
  // Nominal bookkeeping kernel: gives the repair a trace presence (a
  // "phoenix/repair" phase on the timeline / critical path) and a
  // simulated-time footprint the next log_compute pins on the replay.
  ctx_.record_kernel({1e6, 8e6});

  // Sampled before the agreement: the leader may commit the repair the
  // moment its own agree_min returns, and await_repair must see that bump
  // as "already done" rather than wait for a second one.
  const int before = comm_->epoch();
  std::vector<int> dead;
  agreed_ = comm_->agree_min(store_->latest_committed(), &dead);
  {
    std::lock_guard<std::mutex> lk(sh_.agg);
    for (int d : dead) sh_.dead.insert(d);
  }

  mpi::RepairPlan plan;
  int leader = -1;
  if (!needy_self_) {
    // Every non-needy survivor computes the identical plan from the
    // identical dead set; only the leader commits it.
    for (int d : dead) {
      if (sh_.cfg.policy == RepairPolicy::Spare) {
        if (spares_used_ >= sh_.cfg.spares) {
          throw PhoenixUnrecoverable(
              "phoenix: spares exhausted adopting rank " + std::to_string(d));
        }
        const int s = sh_.cfg.workers + spares_used_;
        plan.adopt.emplace_back(d, s);
        embodiment_[d] = s;
        ++spares_used_;
        needy_.insert(d);
      } else {
        plan.retire.push_back(d);
        alive_.erase(d);
      }
    }
    for (int r : alive_) {
      if (!needy_.count(r)) {
        leader = r;
        break;
      }
    }
    if (leader < 0) {
      throw PhoenixUnrecoverable(
          "phoenix: no non-needy survivor left to lead the repair");
    }
  }

  if (!needy_self_ && rank_ == leader) {
    const mpi::RepairResult res = comm_->repair(plan);
    world_epoch_ = res.epoch;
    local_.repairs += 1;
    local_.adoptions += plan.adopt.size();
    local_.retirements += plan.retire.size();
    // Drain every purged in-flight message: a synthetic Recv at its
    // destination, salted with the epoch it was posted in, so the replay
    // timeline stays well-formed (no unmatched sends).
    if (sh_.cfg.log) {
      for (const mpi::PurgedMessage& pm : res.purged) {
        sh_.cfg.log->push({net::NetEvent::Kind::Recv, pm.dest, pm.src,
                           pm.tag + pm.epoch * 0x10000, pm.bytes, 0.0, true,
                           sh_.cfg.log->now_s()});
      }
    }
  } else {
    world_epoch_ = comm_->await_repair(before);
  }

  if (sh_.cfg.policy == RepairPolicy::Spare) {
    if (!needy_self_) {
      // Validate first so every non-needy survivor throws consistently,
      // then ship. A needy holder has no blobs: the dead rank's buddy
      // copies died with the pair — unrecoverable by construction.
      for (int d : needy_) {
        const int h = (d + 1) % nparts_;
        if (h != d && needy_.count(h)) {
          throw PhoenixUnrecoverable(
              "phoenix: buddy pair lost around rank " + std::to_string(d));
        }
      }
      for (int d : needy_) {
        if ((d + 1) % nparts_ == rank_ && d != rank_) ship_bootstrap_to(d);
      }
    }
    // needy_self_: the bootstrap receive runs via pending_boot_ in
    // main_loop, once per recovery round, matching the holder's ship.
  } else {
    // Shrink: reassign every part of a dead owner to the ring successor
    // (at the agreed generation) that replicated its blobs.
    GenSnapshot fresh;
    const GenSnapshot* snap = nullptr;
    if (agreed_ == DistributedCheckpointStore::kNone) {
      fresh.ring.resize(static_cast<std::size_t>(nparts_));
      fresh.pmap.resize(static_cast<std::size_t>(nparts_));
      for (int p = 0; p < nparts_; ++p) {
        fresh.ring[static_cast<std::size_t>(p)] = p;
        fresh.pmap[static_cast<std::size_t>(p)] = p;
      }
      snap = &fresh;
    } else {
      auto it = gens_.find(agreed_);
      if (it == gens_.end()) {
        throw PhoenixUnrecoverable(
            "phoenix: no membership snapshot for the agreed generation");
      }
      snap = &it->second;
    }
    std::vector<int> np(static_cast<std::size_t>(nparts_));
    for (int p = 0; p < nparts_; ++p) {
      const int o = snap->pmap[static_cast<std::size_t>(p)];
      if (alive_.count(o)) {
        np[static_cast<std::size_t>(p)] = o;
        continue;
      }
      int h = ring_successor(snap->ring, o);
      if (agreed_ == DistributedCheckpointStore::kNone) {
        // Fresh rebuild: no blobs to inherit, any survivor can take it.
        while (!alive_.count(h)) h = ring_successor(snap->ring, h);
      } else if (!alive_.count(h)) {
        throw PhoenixUnrecoverable("phoenix: buddy pair lost for part " +
                                   std::to_string(p));
      }
      np[static_cast<std::size_t>(p)] = h;
    }
    pmap_ = std::move(np);
    owned_.clear();
    for (int p = 0; p < nparts_; ++p) {
      if (pmap_[static_cast<std::size_t>(p)] == rank_) owned_.push_back(p);
    }
    for (auto it = parts_.begin(); it != parts_.end();) {
      if (pmap_[static_cast<std::size_t>(it->first)] != rank_) {
        it = parts_.erase(it);
      } else {
        ++it;
      }
    }
  }

  local_.repair_s += wall_since(w0);
  pending_restore_ = true;
}

void RankContext::restore() {
  if (agreed_ == DistributedCheckpointStore::kNone) {
    for (int p : owned_) parts_[p] = sh_.hooks.make(*this, p);
    step_ = 0;
  } else {
    const int st = static_cast<int>(agreed_ & 0xffffffffull);
    for (int p : owned_) {
      if (!parts_.count(p)) parts_[p] = sh_.hooks.make(*this, p);
      std::vector<double> blob;
      std::size_t bstep = 0;
      auto f = store_->fetch(agreed_, p, &blob, &bstep);
      if (f != DistributedCheckpointStore::Fetch::Ok && !needy_self_) {
        // Own copy missing or CRC-refused: scan the surviving stores for
        // the buddy copy. Dead ranks' stores died with them, and needy
        // ranks have nothing to serve yet.
        for (int r : alive_) {
          if (r == rank_ || needy_.count(r)) continue;
          const auto eit = embodiment_.find(r);
          const int ph = eit == embodiment_.end() ? r : eit->second;
          if (sh_.stores[static_cast<std::size_t>(ph)]->fetch(
                  agreed_, p, &blob, &bstep) ==
              DistributedCheckpointStore::Fetch::Ok) {
            f = DistributedCheckpointStore::Fetch::Ok;
            local_.crc_fallbacks += 1;
            break;
          }
        }
      }
      if (f != DistributedCheckpointStore::Fetch::Ok) {
        throw PhoenixUnrecoverable("phoenix: no intact copy of part " +
                                   std::to_string(p) + " at generation " +
                                   std::to_string(agreed_));
      }
      parts_.at(p)->restore_state(blob);
      ctx_.record_transfer(static_cast<double>(blob.size()) * 8.0,
                           /*to_device=*/true);
      local_.restores += 1;
    }
    if (step_ > st)
      local_.replayed_steps += static_cast<std::size_t>(step_ - st);
    auto git = gens_.find(agreed_);
    if (git != gens_.end() && ctx_.simulated_time() > git->second.sim_s)
      local_.lost_work_s += ctx_.simulated_time() - git->second.sim_s;
    step_ = st;
  }
  // Re-replicate at the restore point: a membership change (retired rank,
  // adopted spare) leaves some blobs single-copy until the next exchange —
  // commit one now so a second failure in this window stays recoverable.
  checkpoint_exchange();
}

void RankContext::main_loop() {
  while (true) {
    try {
      if (need_recover_) {
        need_recover_ = false;
        recover();
      }
      if (pending_boot_) {
        receive_bootstrap();
        pending_boot_ = false;
        pending_restore_ = true;
      }
      if (pending_restore_) {
        restore();
        pending_restore_ = false;
      }
      while (step_ < sh_.cfg.steps) {
        if (sh_.cfg.ckpt_every > 0 && step_ > 0 &&
            step_ % sh_.cfg.ckpt_every == 0 && last_ckpt_step_ != step_) {
          checkpoint_exchange();
        }
        sh_.hooks.step(*this, step_);
        ++step_;
      }
      // Final all-or-none vote: nobody reports success until everyone
      // finished every step (a late failure rolls all of us back).
      comm_->allreduce_max(0.0);
      log_compute();
      if (sh_.hooks.finish) sh_.hooks.finish(*this);
      break;
    } catch (const mpi::RankFailed&) {
      local_.detections += 1;
      store_->abort_pending();
      local_mail_.clear();  // half-executed step's same-rank transfers
      comm_->revoke();
      need_recover_ = true;
      if (needy_self_) pending_boot_ = true;  // the holder re-ships
    }
  }
}

void RankContext::flush_stats() {
  local_.ckpt_aborts = store_->stats().aborted;
  std::lock_guard<std::mutex> lk(sh_.agg);
  PhoenixStats& a = sh_.stats;
  a.detections += local_.detections;
  a.repairs += local_.repairs;
  a.adoptions += local_.adoptions;
  a.retirements += local_.retirements;
  a.ckpt_commits += local_.ckpt_commits;
  a.ckpt_aborts += local_.ckpt_aborts;
  a.restores += local_.restores;
  a.crc_fallbacks += local_.crc_fallbacks;
  a.replayed_steps += local_.replayed_steps;
  a.buddy_msgs += local_.buddy_msgs;
  a.buddy_bytes += local_.buddy_bytes;
  a.shipped_msgs += local_.shipped_msgs;
  a.shipped_bytes += local_.shipped_bytes;
  a.repair_s += local_.repair_s;
  a.lost_work_s += local_.lost_work_s;
  sh_.max_epoch = std::max(sh_.max_epoch, world_epoch_);
  local_ = PhoenixStats{};
}

SurvivableReport run_survivable(const SurvivableConfig& cfg,
                                const SurvivableHooks& hooks) {
  if (cfg.workers < 1) throw std::invalid_argument("phoenix: workers < 1");
  if (!hooks.make || !hooks.step)
    throw std::invalid_argument("phoenix: hooks.make and hooks.step required");
  if (cfg.policy == RepairPolicy::Shrink && cfg.spares > 0)
    throw std::invalid_argument("phoenix: shrink policy takes no spares");

  detail::Shared sh(cfg, hooks);
  mpi::RunOptions opts = cfg.mpi;
  opts.recoverable = true;
  opts.spares = cfg.spares;
  opts.fault_hook = cfg.fault_hook;
  opts.metrics = cfg.metrics;

  SurvivableReport rep;
  rep.traffic = mpi::run(
      cfg.workers + cfg.spares, opts, [&](mpi::Communicator& comm) {
        RankContext rc(sh, comm.rank(), comm);
        try {
          if (comm.rank() >= cfg.workers) {
            if (!rc.begin_as_spare()) {
              rc.flush_stats();
              return;
            }
          } else {
            rc.begin_as_worker();
          }
          rc.main_loop();
          rc.flush_stats();
        } catch (...) {
          // Victims and fatal failures still contribute their counters.
          rc.flush_stats();
          throw;
        }
      });

  rep.stats = sh.stats;
  rep.stats.kills = sh.dead.size();
  rep.dead.assign(sh.dead.begin(), sh.dead.end());
  rep.epochs = sh.max_epoch;
  rep.rank_traces = std::move(sh.traces);

  if (cfg.metrics) {
    auto& m = *cfg.metrics;
    const PhoenixStats& s = rep.stats;
    m.add("phoenix.kills", static_cast<double>(s.kills));
    m.add("phoenix.detections", static_cast<double>(s.detections));
    m.add("phoenix.repairs", static_cast<double>(s.repairs));
    m.add("phoenix.adoptions", static_cast<double>(s.adoptions));
    m.add("phoenix.retirements", static_cast<double>(s.retirements));
    m.add("phoenix.ckpt_commits", static_cast<double>(s.ckpt_commits));
    m.add("phoenix.ckpt_aborts", static_cast<double>(s.ckpt_aborts));
    m.add("phoenix.restores", static_cast<double>(s.restores));
    m.add("phoenix.crc_fallbacks", static_cast<double>(s.crc_fallbacks));
    m.add("phoenix.replayed_steps", static_cast<double>(s.replayed_steps));
    m.add("phoenix.buddy_msgs", static_cast<double>(s.buddy_msgs));
    m.add("phoenix.buddy_bytes", s.buddy_bytes);
    m.add("phoenix.shipped_msgs", static_cast<double>(s.shipped_msgs));
    m.add("phoenix.shipped_bytes", s.shipped_bytes);
    m.add("phoenix.repair_s", s.repair_s);
    m.add("phoenix.lost_work_s", s.lost_work_s);
  }
  return rep;
}

}  // namespace coe::phoenix
