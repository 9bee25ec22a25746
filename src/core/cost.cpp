#include "core/cost.hpp"

namespace coe::hsim {

namespace {

/// Phase filter used by reprice: exact match, or a hierarchical child
/// ("solve" matches "solve/cg/spmv" but not "solve2"). Spans (prof::Scope)
/// tag events with "/"-joined paths; callers aggregating by a coarse phase
/// name keep working unchanged.
bool phase_matches(std::string_view event_phase, std::string_view phase) {
  if (event_phase == phase) return true;
  return event_phase.size() > phase.size() &&
         event_phase.compare(0, phase.size(), phase) == 0 &&
         event_phase[phase.size()] == '/';
}

}  // namespace

double reprice(const obs::TraceBuffer& trace, const CostModel& m,
               std::string_view phase) {
  double t = 0.0;
  for (const auto& e : trace.snapshot()) {
    if (obs::is_marker(e.kind)) continue;
    if (!phase.empty() && !phase_matches(e.phase, phase)) continue;
    if (e.kind == obs::TraceEvent::Kind::Kernel) {
      t += m.kernel_time({e.flops, e.bytes});
    } else {
      t += m.transfer_time(e.bytes);
    }
  }
  return t;
}

}  // namespace coe::hsim
