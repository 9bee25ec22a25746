#include "net/reprice.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <utility>

namespace coe::net {

Replay replay(const NetLog& log, const hsim::ClusterModel& net, int ranks) {
  Replay rep;
  rep.ranks = ranks;
  RepriceResult& res = rep.result;
  if (ranks <= 0) return rep;
  const auto snapshot = log.snapshot();
  rep.events.resize(snapshot.size());
  rep.rank_events.assign(static_cast<std::size_t>(ranks), {});

  // Per-rank program orders. Each rank thread pushes its own events in
  // order, so the per-rank subsequence of the shared log IS program order.
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const NetEvent& e = snapshot[i];
    rep.events[i].ev = e;
    if (e.rank < 0 || e.rank >= ranks) {
      res.well_formed = false;
      rep.diagnostics.push_back(
          "event " + std::to_string(i) + " has out-of-range rank " +
          std::to_string(e.rank) + " (world has " + std::to_string(ranks) +
          " ranks)");
      continue;
    }
    auto& order = rep.rank_events[static_cast<std::size_t>(e.rank)];
    rep.events[i].pos = order.size();
    order.push_back(i);
  }

  const double binj = net.effective_injection_bw();
  auto wire_time = [&](double bytes) {
    return binj > 0.0 ? bytes / binj : 0.0;
  };

  const std::size_t nr = rep.rank_events.size();
  std::vector<double> t(nr, 0.0);    // program clock
  std::vector<double> inj(nr, 0.0);  // NIC injection engine
  std::vector<double> ej(nr, 0.0);   // NIC ejection engine
  std::vector<double> comp(nr, 0.0);
  std::vector<std::size_t> pos(nr, 0);
  // In-flight messages: (arrival time, index of the Send in rep.events),
  // FIFO per (src, dst, tag) — the matching the mailbox substrate enforces.
  std::map<std::tuple<int, int, int>, std::deque<std::pair<double, std::size_t>>>
      arrivals;
  double cross_bytes = 0.0;
  const int half = ranks / 2;

  while (true) {
    bool progress = false;
    for (std::size_t r = 0; r < nr; ++r) {
      while (pos[r] < rep.rank_events[r].size()) {
        const std::size_t ei = rep.rank_events[r][pos[r]];
        ReplayEvent& re = rep.events[ei];
        const NetEvent& e = re.ev;
        re.t_before = t[r];
        if (e.kind == NetEvent::Kind::Compute) {
          t[r] += e.seconds;
          comp[r] += e.seconds;
        } else if (e.kind == NetEvent::Kind::Send) {
          const double dur = wire_time(e.bytes);
          const double start = std::max(t[r], inj[r]);
          re.inj_before = inj[r];
          re.wire_start = start;
          re.wire_end = start + dur;
          re.arrival = start + net.alpha + dur;
          inj[r] = start + dur;
          arrivals[{static_cast<int>(r), e.peer, e.tag}].push_back(
              {start + net.alpha + dur, ei});
          if (e.blocking) {
            t[r] = inj[r];
          } else {
            t[r] += net.alpha;  // posting overhead only; the NIC drains it
          }
          res.messages += 1;
          res.bytes += e.bytes;
          if ((static_cast<int>(r) < half) != (e.peer < half)) {
            cross_bytes += e.bytes;
          }
        } else {  // Recv
          auto it = arrivals.find({e.peer, static_cast<int>(r), e.tag});
          if (it == arrivals.end() || it->second.empty()) break;  // blocked
          const auto [arrival, send_index] = it->second.front();
          it->second.pop_front();
          re.arrival = arrival;
          re.ej_before = ej[r];
          re.eject_start = std::max(arrival, ej[r]);
          re.match = static_cast<std::ptrdiff_t>(send_index);
          rep.events[send_index].match = static_cast<std::ptrdiff_t>(ei);
          const double done = re.eject_start + wire_time(e.bytes);
          re.done = done;
          ej[r] = done;
          // Logged at the wait point: if the rank computed past the
          // arrival meanwhile, the transfer cost vanishes — overlap.
          t[r] = std::max(t[r], done);
        }
        re.t_after = t[r];
        ++pos[r];
        progress = true;
      }
    }

    bool exhausted = true;
    for (std::size_t r = 0; r < nr; ++r) {
      if (pos[r] < rep.rank_events[r].size()) exhausted = false;
    }
    if (exhausted) break;  // replay complete

    if (!progress) {
      // Every unfinished rank waits in a recv whose send no rank can still
      // post: a deadlocked trace.
      res.well_formed = false;
      for (std::size_t r = 0; r < nr; ++r) {
        if (pos[r] >= rep.rank_events[r].size()) continue;
        const NetEvent& e = rep.events[rep.rank_events[r][pos[r]]].ev;
        rep.diagnostics.push_back(
            "rank " + std::to_string(r) + " is blocked in recv(src=" +
            std::to_string(e.peer) + ", tag=" + std::to_string(e.tag) +
            ") with no matching send — truncated or malformed log");
      }
      break;
    }
  }

  // Sends nobody consumed: harmless to the legacy summary (the injection
  // engine still carried them) but a malformed merge — a receiver-side log
  // was truncated, or tags disagree.
  for (const auto& [key, q] : arrivals) {
    if (q.empty()) continue;
    rep.diagnostics.push_back(
        std::to_string(q.size()) + " unmatched send(s) rank " +
        std::to_string(std::get<0>(key)) + " -> rank " +
        std::to_string(std::get<1>(key)) + " tag " +
        std::to_string(std::get<2>(key)));
  }

  double makespan = 0.0;
  for (std::size_t r = 0; r < nr; ++r) {
    makespan = std::max({makespan, t[r], inj[r], ej[r]});
    res.compute_s = std::max(res.compute_s, comp[r]);
  }
  if (ranks >= 2 && binj > 0.0 && net.bisection_factor > 0.0) {
    res.bisection_floor_s =
        cross_bytes / (net.bisection_factor * binj * half);
  }
  rep.finish = std::move(t);
  rep.inj = std::move(inj);
  rep.ej = std::move(ej);
  rep.makespan_s = makespan;
  res.timeline_s = std::max(makespan, res.bisection_floor_s);
  res.comm_sequential_s = static_cast<double>(res.messages) * net.alpha +
                          net.beta * res.bytes;
  res.sequential_s = res.compute_s + res.comm_sequential_s;
  return rep;
}

RepriceResult reprice(const NetLog& log, const hsim::ClusterModel& net,
                      int ranks) {
  return replay(log, net, ranks).result;
}

}  // namespace coe::net
