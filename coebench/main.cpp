// coebench: runs one seeded minicoe workload through the public APIs of
// the src/ modules and prints one JSON line of raw results (per-pass wall
// and simulated seconds, check failures, per-layer metrics when traced).
// coebench/run.py builds this program, launches it, and turns that line
// into the benchmark's metrics.
//
//   coebench --workload fem_amg|amr_sod|wave_dist|wave_survive
//            [--seed N] [--seconds S] [--trace 0|1]
//            [--setup-only] [--tiny] [--wrong-reference]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace coebench {

void Ledger::check(std::size_t op, bool ok, const std::string& what) {
  if (!ok) {
    ok_[op] = false;
    out_->failures.push_back("op " + std::to_string(op) + ": " + what);
  }
}

void Ledger::fail_all(const std::string& what) {
  out_->failures.push_back("all ops: " + what);
  std::fill(ok_.begin(), ok_.end(), false);
}

void Ledger::finish() {
  out_->attempted = ok_.size();
  out_->failed = static_cast<std::size_t>(
      std::count(ok_.begin(), ok_.end(), false));
}

std::vector<std::string> run_concurrently(
    int n, const std::function<void(int)>& body) {
  std::vector<std::string> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(errors.size());
  for (int k = 0; k < n; ++k) {
    threads.emplace_back([&body, &errors, k] {
      std::string& err = errors[static_cast<std::size_t>(k)];
      try {
        body(k);
      } catch (const std::exception& e) {
        err = *e.what() ? e.what() : "exception";
      }
    });
  }
  for (auto& t : threads) t.join();
  return errors;
}

bool another_pass(const Options& opt, Clock::time_point start,
                  const std::vector<double>& pass_s) {
  if (pass_s.empty()) return true;
  const double longest = *std::max_element(pass_s.begin(), pass_s.end());
  return seconds_between(start, Clock::now()) + longest <= opt.seconds;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;  // every op failed; the run reports failures
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

long long Rng::range(long long lo, long long hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<long long>(next() % span);
}

}  // namespace coebench

namespace {

using namespace coebench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "coebench: %s\nusage: coebench --workload NAME [--seed N]"
               " [--seconds S] [--trace 0|1] [--setup-only] [--tiny]"
               " [--wrong-reference]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--wrong-reference") {
      opt.wrong_reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  return opt;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_array(const std::vector<double>& v) {
  std::putchar('[');
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i ? ", " : "", v[i]);
  }
  std::putchar(']');
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "fem_amg") run = run_fem_amg;
  if (opt.workload == "amr_sod") run = run_amr_sod;
  if (opt.workload == "wave_dist") run = run_wave_dist;
  if (opt.workload == "wave_survive") run = run_wave_survive;
  if (!run) usage(("unknown workload '" + opt.workload + "'").c_str());

  Outcome out;
  try {
    out = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coebench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.setup_only) {
    std::printf("{\"first_op_mono_s\": %.17g}\n", out.first_op_mono_s);
    return 0;
  }
  for (const auto& f : out.failures) {
    std::fprintf(stderr, "coebench: %s check failed: %s\n",
                 opt.workload.c_str(), f.c_str());
  }
  std::printf("{\"workload\": ");
  print_json_string(opt.workload);
  std::printf(", \"attempted\": %zu, \"failed\": %zu, \"failures\": [",
              out.attempted, out.failed);
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(out.failures[i]);
  }
  std::printf("], \"first_op_mono_s\": %.17g, \"wall_s\": ",
              out.first_op_mono_s);
  print_array(out.pass_wall_s);
  std::printf(", \"cpu_s\": ");
  print_array(out.pass_cpu_s);
  std::printf(", \"sim_s\": ");
  print_array(out.pass_sim_s);
  std::printf(", \"paper_gap\": %.17g, \"peak_rss_mb\": %.17g, \"layers\": {",
              out.paper_gap, out.peak_rss_mb);
  for (std::size_t i = 0; i < out.layers.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(out.layers[i].first);
    std::printf(": %.17g", out.layers[i].second);
  }
  std::printf("}}\n");
  return 0;
}
