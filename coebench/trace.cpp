#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace coebench {

namespace {
double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Tracer(bool on) : on_(on), t0_(steady_s()) {}

double Tracer::now() const { return steady_s() - t0_; }

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(&t) {
  if (!t_->on_) return;
  Span s;
  s.name = name;
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.start_s = t_->now();
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(index_);
  open_ = true;
}

double Tracer::Scope::close() {
  if (!open_) return dur_;
  Span& s = t_->spans_[static_cast<std::size_t>(index_)];
  s.dur_s = t_->now() - s.start_s;
  dur_ = s.dur_s;
  t_->open_.pop_back();
  open_ = false;
  return dur_;
}

Tracer::Scope::~Scope() { close(); }

void Tracer::fold(const coe::prof::Profiler& p, int parent,
                  const char* (*rename)(const std::string&)) {
  if (!on_) return;
  for (const auto& c : p.root().children) fold_node(*c, parent, rename);
}

void Tracer::fold_node(const coe::prof::Profiler::Node& n, int parent,
                       const char* (*rename)(const std::string&)) {
  Span s;
  s.name = rename(n.path);
  s.parent = parent;
  s.dur_s = n.wall_s;
  s.sim_s = n.sim_s;
  s.calls = n.calls;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  for (const auto& c : n.children) fold_node(*c, id, rename);
}

void Tracer::absorb(const Tracer& other) {
  if (!on_) return;
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

double Tracer::self_s(std::size_t i) const {
  double d = spans_[i].dur_s;
  for (const auto& s : spans_) {
    if (s.parent == static_cast<int>(i)) d -= s.dur_s;
  }
  return d;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) t += s.dur_s;
  }
  return t;
}

double Tracer::total_sim_s(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) t += s.sim_s;
  }
  return t;
}

std::uint64_t Tracer::total_calls(const std::string& name) const {
  std::uint64_t n = 0;
  for (const auto& s : spans_) {
    if (s.name == name) n += s.calls;
  }
  return n;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> d;
  for (const auto& s : spans_) {
    if (s.name == name) d.push_back(s.dur_s);
  }
  return d;
}

double Tracer::child_coverage(const std::string& name) const {
  double total = 0.0, covered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += spans_[i].dur_s;
    covered += spans_[i].dur_s - self_s(i);
  }
  return total > 0.0 ? covered / total : 0.0;
}

void Tracer::write(const std::string& title) const {
  if (!on_) return;
  struct Row {
    std::uint64_t calls = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = rows.try_emplace(spans_[i].name);
    if (fresh) order.push_back(spans_[i].name);
    it->second.calls += spans_[i].calls;
    it->second.total += spans_[i].dur_s;
    it->second.self += self_s(i);
  }
  std::fprintf(stderr, "%s: %zu spans\n  %-24s %10s %12s %12s\n",
               title.c_str(), spans_.size(), "span", "calls", "total_s",
               "self_s");
  for (const auto& name : order) {
    const Row& r = rows[name];
    std::fprintf(stderr, "  %-24s %10llu %12.6f %12.6f\n", name.c_str(),
                 static_cast<unsigned long long>(r.calls), r.total, r.self);
  }
}

}  // namespace coebench
