#include "xray/merge.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace coe::xray {

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Root: return "root";
    case EdgeKind::Program: return "program";
    case EdgeKind::Message: return "message";
    case EdgeKind::Injection: return "injection";
    case EdgeKind::Ejection: return "ejection";
  }
  return "?";
}

const char* to_string(Blame b) {
  switch (b) {
    case Blame::Compute: return "compute";
    case Blame::Memory: return "memory";
    case Blame::LaunchTransfer: return "launch_transfer";
    case Blame::CommWait: return "comm_wait";
    case Blame::Imbalance: return "imbalance";
  }
  return "?";
}

Blame RankBlame::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    if (seconds[i] > seconds[best]) best = i;
  }
  return static_cast<Blame>(best);
}

namespace {

/// Which interval of an event the backward walk is currently chained
/// through: the rank's program clock, a send's injection-engine (wire)
/// occupancy, or a receive's ejection-engine drain.
enum class Aspect : std::uint8_t { Program, Wire, Eject };

struct Walker {
  const net::Replay& rep;
  Report& out;
  // Per-event index of the same rank's previous Send / previous Recv (the
  // event holding the engine before this one), -1 when none.
  std::vector<std::ptrdiff_t> prev_send;
  std::vector<std::ptrdiff_t> prev_recv;

  explicit Walker(const net::Replay& r, Report& o) : rep(r), out(o) {
    prev_send.assign(rep.events.size(), -1);
    prev_recv.assign(rep.events.size(), -1);
    for (const auto& order : rep.rank_events) {
      std::ptrdiff_t ls = -1, lr = -1;
      for (std::size_t ei : order) {
        prev_send[ei] = ls;
        prev_recv[ei] = lr;
        const auto k = rep.events[ei].ev.kind;
        if (k == net::NetEvent::Kind::Send) ls = static_cast<std::ptrdiff_t>(ei);
        if (k == net::NetEvent::Kind::Recv) lr = static_cast<std::ptrdiff_t>(ei);
      }
    }
  }

  void emit(std::size_t ei, EdgeKind via, double lower, double upper) {
    CritStep s;
    s.event = ei;
    s.rank = rep.events[ei].ev.rank;
    s.via = via;
    s.start_s = lower;
    s.end_s = upper;
    out.critical_path.push_back(s);
    out.edge_seconds[static_cast<std::size_t>(via)] += upper - lower;
  }

  struct Pred {
    bool has = false;
    std::size_t ei = 0;
    Aspect aspect = Aspect::Program;
  };

  /// Same-rank program predecessor of event `ei` (the event whose t_after
  /// is this one's t_before).
  Pred program_pred(std::size_t ei) const {
    const net::ReplayEvent& re = rep.events[ei];
    if (re.pos == 0) return {};
    const auto& order =
        rep.rank_events[static_cast<std::size_t>(re.ev.rank)];
    return {true, order[re.pos - 1], Aspect::Program};
  }

  /// Runs the backward walk from the terminal constraint. Steps come out
  /// latest-first; analyze() reverses them.
  void walk(std::size_t ei, Aspect aspect, double upper) {
    const double eps = 1e-12 * std::max(1.0, rep.makespan_s);
    // Positions strictly decrease along every rank's chain, so the walk
    // cannot loop; the cap is a belt-and-braces guard.
    std::size_t guard = 2 * rep.events.size() + 16;
    while (guard-- > 0) {
      const net::ReplayEvent& re = rep.events[ei];
      const auto kind = re.ev.kind;
      double lower = 0.0;
      EdgeKind via = EdgeKind::Root;
      Pred pred;

      if (aspect == Aspect::Wire) {
        // A send's wire occupancy [wire_start, upper]; upper includes the
        // alpha latency when the consumer is a message edge.
        lower = re.wire_start;
        if (re.t_before >= re.inj_before) {
          via = EdgeKind::Program;
          pred = program_pred(ei);
        } else {
          via = EdgeKind::Injection;
          if (prev_send[ei] >= 0) {
            pred = {true, static_cast<std::size_t>(prev_send[ei]),
                    Aspect::Wire};
          }
        }
      } else if (aspect == Aspect::Eject ||
                 (kind == net::NetEvent::Kind::Recv &&
                  re.t_after > re.t_before)) {
        // A receive's drain [eject_start, done]: bound either by the
        // matched message's arrival or by the ejection engine still
        // draining the previous receive.
        lower = re.eject_start;
        if (re.arrival >= re.ej_before) {
          via = EdgeKind::Message;
          if (re.match >= 0) {
            pred = {true, static_cast<std::size_t>(re.match), Aspect::Wire};
          }
        } else {
          via = EdgeKind::Ejection;
          if (prev_recv[ei] >= 0) {
            pred = {true, static_cast<std::size_t>(prev_recv[ei]),
                    Aspect::Eject};
          }
        }
      } else if (kind == net::NetEvent::Kind::Send && re.ev.blocking &&
                 re.t_after > re.t_before) {
        // Blocking send: the program rode the wire to wire_end.
        lower = re.wire_start;
        if (re.t_before >= re.inj_before) {
          via = EdgeKind::Program;
          pred = program_pred(ei);
        } else {
          via = EdgeKind::Injection;
          if (prev_send[ei] >= 0) {
            pred = {true, static_cast<std::size_t>(prev_send[ei]),
                    Aspect::Wire};
          }
        }
      } else {
        // Compute, posted send (alpha), or any zero-advance event: plain
        // program chaining.
        if (re.t_after <= re.t_before) {
          // No clock advance — transparent link in the chain.
          pred = program_pred(ei);
          if (!pred.has) {
            if (upper > eps) {
              out.diagnostics.push_back(
                  "critical-path chain broke at rank " +
                  std::to_string(re.ev.rank) + " t=" +
                  std::to_string(upper) + "s — inconsistent replay");
            }
            return;
          }
          ei = pred.ei;
          aspect = pred.aspect;
          continue;
        }
        lower = re.t_before;
        via = EdgeKind::Program;
        pred = program_pred(ei);
      }

      if (!pred.has) via = EdgeKind::Root;
      emit(ei, via, lower, upper);
      if (!pred.has || lower <= eps) {
        if (!pred.has && lower > eps) {
          out.diagnostics.push_back(
              "critical-path chain broke at rank " +
              std::to_string(re.ev.rank) + " t=" + std::to_string(lower) +
              "s — inconsistent replay");
        }
        return;
      }
      ei = pred.ei;
      aspect = pred.aspect;
      upper = lower;
    }
    out.diagnostics.push_back(
        "critical-path walk exceeded its step budget — inconsistent replay");
  }
};

/// Finds the terminal constraint — the (event, aspect) whose completion
/// time equals the event makespan — and runs the walk from it.
void critical_path(const net::Replay& rep, Report& out) {
  const double M = rep.makespan_s;
  if (M <= 0.0 || rep.events.empty()) {
    out.coverage = 1.0;
    return;
  }
  Walker w(rep, out);
  for (std::size_t r = 0; r < rep.finish.size(); ++r) {
    if (rep.finish[r] >= M && !rep.rank_events[r].empty()) {
      w.walk(rep.rank_events[r].back(), Aspect::Program, M);
      break;
    }
    if (rep.inj[r] >= M) {
      // The injection engine outlived the program: the makespan is the
      // last posted send still on the wire.
      std::ptrdiff_t last = -1;
      for (std::size_t ei : rep.rank_events[r]) {
        if (rep.events[ei].ev.kind == net::NetEvent::Kind::Send) {
          last = static_cast<std::ptrdiff_t>(ei);
        }
      }
      if (last >= 0) {
        w.walk(static_cast<std::size_t>(last), Aspect::Wire, M);
        break;
      }
    }
    if (rep.ej[r] >= M) {
      std::ptrdiff_t last = -1;
      for (std::size_t ei : rep.rank_events[r]) {
        if (rep.events[ei].ev.kind == net::NetEvent::Kind::Recv) {
          last = static_cast<std::ptrdiff_t>(ei);
        }
      }
      if (last >= 0) {
        w.walk(static_cast<std::size_t>(last), Aspect::Eject, M);
        break;
      }
    }
  }
  std::reverse(out.critical_path.begin(), out.critical_path.end());
  for (const CritStep& s : out.critical_path) {
    out.critical_s += s.seconds();
  }
  out.coverage = M > 0.0 ? out.critical_s / M : 1.0;
}

/// Roofline fractions of one rank's kernel trace: how its busy time splits
/// into compute-bound roofline time, memory-bound roofline time, and
/// launch overhead + host<->device transfers.
struct TraceSplit {
  double compute = 1.0, memory = 0.0, launch_transfer = 0.0;
};

TraceSplit trace_split(const obs::TraceBuffer& buf) {
  TraceSplit f;
  double comp = 0.0, mem = 0.0, lx = 0.0;
  const double overhead = buf.launch_overhead();
  for (const auto& e : buf.snapshot()) {
    if (obs::is_marker(e.kind)) continue;
    if (e.kind == obs::TraceEvent::Kind::Kernel) {
      const double launch = std::min(e.duration, overhead);
      lx += launch;
      if (e.bound == obs::TraceEvent::Bound::Compute) {
        comp += e.duration - launch;
      } else {
        mem += e.duration - launch;
      }
    } else {
      lx += e.duration;
    }
  }
  const double tot = comp + mem + lx;
  if (tot > 0.0) {
    f.compute = comp / tot;
    f.memory = mem / tot;
    f.launch_transfer = lx / tot;
  }
  return f;
}

void phase_imbalance(const MergeInputs& in, Report& out) {
  if (!in.rank_traces) return;
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> per_phase;
  const std::size_t nr = static_cast<std::size_t>(in.ranks);
  for (std::size_t r = 0; r < nr && r < in.rank_traces->size(); ++r) {
    for (const auto& e : (*in.rank_traces)[r].snapshot()) {
      if (obs::is_marker(e.kind) || e.duration <= 0.0) continue;
      auto [it, fresh] = per_phase.try_emplace(e.phase);
      if (fresh) {
        it->second.assign(nr, 0.0);
        order.push_back(e.phase);
      }
      it->second[r] += e.duration;
    }
  }
  for (const std::string& name : order) {
    PhaseImbalance p;
    p.name = name;
    p.per_rank_s = per_phase[name];
    double sum = 0.0;
    for (std::size_t r = 0; r < p.per_rank_s.size(); ++r) {
      sum += p.per_rank_s[r];
      if (p.per_rank_s[r] > p.max_s) {
        p.max_s = p.per_rank_s[r];
        p.max_rank = static_cast<int>(r);
      }
    }
    p.mean_s = p.per_rank_s.empty() ? 0.0 : sum / p.per_rank_s.size();
    p.ratio = p.mean_s > 0.0 ? p.max_s / p.mean_s : 1.0;
    out.phases.push_back(std::move(p));
  }
}

}  // namespace

Report analyze(const MergeInputs& in) {
  Report out;
  if (!in.log || !in.cluster || in.ranks <= 0) {
    out.well_formed = false;
    out.diagnostics.push_back("xray::analyze needs a log, a cluster model, "
                              "and a positive rank count");
    return out;
  }
  out.ranks = in.ranks;
  out.replay = net::replay(*in.log, *in.cluster, in.ranks);
  const net::Replay& rep = out.replay;
  out.diagnostics = rep.diagnostics;
  out.makespan_s = rep.makespan_s;
  out.timeline_s = rep.result.timeline_s;
  for (const auto& re : rep.events) {
    if (re.ev.kind == net::NetEvent::Kind::Recv && re.match >= 0) {
      ++out.matched_messages;
    }
    if (re.ev.kind == net::NetEvent::Kind::Send && re.match < 0) {
      ++out.unmatched_sends;
    }
  }

  // The distributed critical path only makes sense over a replay that ran
  // to completion; a deadlocked one has partial clocks.
  if (rep.result.well_formed) critical_path(rep, out);

  // Five-way blame. Per rank: program-clock advances classify directly
  // (compute stays compute for now; sends and receive waits + drains are
  // comm-wait), the tail from the rank's finish to the event makespan is
  // imbalance, and any bisection-floor excess beyond the
  // makespan is comm-wait on every rank (the fabric held everyone back).
  // The five buckets therefore sum to timeline_s exactly, per rank.
  const std::size_t nr = static_cast<std::size_t>(in.ranks);
  out.blame.resize(nr);
  std::vector<double> raw_busy(nr, 0.0);
  for (std::size_t r = 0; r < nr && r < rep.rank_events.size(); ++r) {
    RankBlame& b = out.blame[r];
    b.rank = static_cast<int>(r);
    auto add = [&](Blame k, double s) {
      b.seconds[static_cast<std::size_t>(k)] += s;
    };
    for (std::size_t ei : rep.rank_events[r]) {
      const net::ReplayEvent& re = rep.events[ei];
      const double adv = re.t_after - re.t_before;
      switch (re.ev.kind) {
        case net::NetEvent::Kind::Compute:
          raw_busy[r] += adv;
          break;
        case net::NetEvent::Kind::Send:
        case net::NetEvent::Kind::Recv:
          add(Blame::CommWait, adv);
          break;
      }
    }
    const double finish = r < rep.finish.size() ? rep.finish[r] : 0.0;
    add(Blame::Imbalance, std::max(0.0, out.makespan_s - finish));
    add(Blame::CommWait, std::max(0.0, out.timeline_s - out.makespan_s));
    b.busy_s = raw_busy[r];

    // Refine the rank's busy seconds through its kernel trace's roofline
    // classification; without a trace everything stays Compute.
    TraceSplit f;
    if (in.rank_traces && r < in.rank_traces->size() &&
        !(*in.rank_traces)[r].empty()) {
      f = trace_split((*in.rank_traces)[r]);
    }
    add(Blame::Compute, raw_busy[r] * f.compute);
    add(Blame::Memory, raw_busy[r] * f.memory);
    add(Blame::LaunchTransfer, raw_busy[r] * f.launch_transfer);
  }

  // Fleet view: across-rank mean of every bucket.
  out.fleet.rank = -1;
  double busy_sum = 0.0, busy_max = 0.0;
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t k = 0; k < 5; ++k) {
      out.fleet.seconds[k] += out.blame[r].seconds[k] / nr;
    }
    busy_sum += raw_busy[r];
    if (raw_busy[r] > busy_max) {
      busy_max = raw_busy[r];
      out.straggler_rank = static_cast<int>(r);
    }
  }
  out.fleet.busy_s = busy_sum / nr;
  if (busy_sum > 0.0) {
    out.imbalance_ratio = busy_max / (busy_sum / nr);
    std::vector<std::size_t> by_busy(nr);
    for (std::size_t r = 0; r < nr; ++r) by_busy[r] = r;
    std::stable_sort(by_busy.begin(), by_busy.end(),
                     [&](std::size_t a, std::size_t b) {
                       return raw_busy[a] > raw_busy[b];
                     });
    const std::size_t k = std::min<std::size_t>(nr, 5);
    for (std::size_t i = 0; i < k; ++i) {
      out.stragglers.push_back({static_cast<int>(by_busy[i]),
                                raw_busy[by_busy[i]],
                                raw_busy[by_busy[i]] / busy_sum});
    }
  }

  phase_imbalance(in, out);
  out.well_formed = rep.result.well_formed && out.diagnostics.empty();
  return out;
}

}  // namespace coe::xray
