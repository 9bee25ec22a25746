#pragma once
// In-memory span recorder for the traced (per-layer) run. The benchmark
// opens a span around each call it makes into a module; spans nest by
// call order, and a prof::Profiler tree that a module filled through its
// existing `profiler` field can be folded in beneath the open span. Spans
// are kept in memory and written out once, when the run ends. A disabled
// tracer records nothing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/span.hpp"

namespace coebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double dur_s = 0.0;    ///< total duration (all calls, for folded nodes)
    double sim_s = 0.0;    ///< simulated seconds, folded nodes only
    std::uint64_t calls = 1;
  };

  explicit Tracer(bool on);

  bool on() const { return on_; }

  /// RAII span around one call into a module; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span early; returns its duration (0 when tracing is off).
    double close();
    /// The span's index, a parent for fold() (-1 when tracing is off).
    int index() const { return index_; }

   private:
    Tracer* t_;
    int index_ = -1;
    bool open_ = false;
    double dur_ = 0.0;
  };

  /// Folds a profiler tree beneath span `parent` (-1: top level). Each
  /// node becomes a span named by `rename(node path)`, e.g. "solve/cg".
  void fold(const coe::prof::Profiler& p, int parent,
            const char* (*rename)(const std::string&));

  /// Appends every span of `other` (a tracer another thread filled).
  void absorb(const Tracer& other);

  /// Duration minus the durations of direct children.
  double self_s(std::size_t i) const;
  /// Sum of durations / simulated seconds / calls over spans with this name.
  double total_s(const std::string& name) const;
  double total_sim_s(const std::string& name) const;
  std::uint64_t total_calls(const std::string& name) const;
  /// Durations of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Share of the named spans' time covered by their direct children.
  double child_coverage(const std::string& name) const;

  /// Per-name table (calls, total, self) to stderr.
  void write(const std::string& title) const;

 private:
  void fold_node(const coe::prof::Profiler::Node& n, int parent,
                 const char* (*rename)(const std::string&));
  double now() const;

  bool on_;
  double t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace coebench
