// The three benchmark workloads.  Each generates its inputs from the seed,
// measures for the given number of seconds, checks every result, and fills
// a RunResult with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Worker count of every threaded call (T in the benchmark doc).
inline constexpr int kThreads = 2;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  long attempted = 0;  // solves attempted
  long failed = 0;     // solves that failed the ok_frac rule
  std::vector<Metric> metrics;
  /// Sample counts and other context, printed before the result line.
  std::vector<std::pair<std::string, double>> detail;
  std::vector<std::string> errors;  // failed correctness checks

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) {
    detail.emplace_back(std::move(name), value);
  }
  /// Records a failed check; the run then exits non-zero.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  /// Counts one solve against ok_frac.
  void count_solve(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

RunResult run_cold_table1(const RunConfig& cfg);
RunResult run_newton_grid3d(const RunConfig& cfg);
RunResult run_service_mix(const RunConfig& cfg);

}  // namespace perfbench
