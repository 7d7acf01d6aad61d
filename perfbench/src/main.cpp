// Repository benchmark: the program perfbench/run.py builds and runs.
//
//   plu_perfbench --workload <cold_table1|newton_grid3d|service_mix>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Generates the workload's inputs from the seed, measures for the given
// seconds, checks every result, and prints as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  A line
// before it ("detail") carries sample counts and the host witness.  Exits 1
// on a failed check or a non-finite metric, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace {

void print_json_pairs(const std::vector<std::pair<std::string, double>>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s\"%s\": ", i ? ", " : "", v[i].first.c_str());
    if (std::isfinite(v[i].second)) {
      std::printf("%.17g", v[i].second);
    } else {
      std::printf("null");
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: plu_perfbench --workload <cold_table1|newton_grid3d|"
               "service_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      cfg.trace = v == "1";
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0)) return usage();
  RunResult (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "cold_table1") run = run_cold_table1;
  if (cfg.workload == "newton_grid3d") run = run_newton_grid3d;
  if (cfg.workload == "service_mix") run = run_service_mix;
  if (!run) return usage();
  if (cfg.trace) Tracer::get().enable();
#ifdef __GLIBC__
  // Fixed thresholds: every block of 1 MiB or more is mapped on its own and
  // returned to the system when freed.  With glibc's adaptive thresholds,
  // peak RSS of one workload switched between ~130 and ~157 MB from run to
  // run, depending on which freed blocks the heap happened to keep.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 20);
#endif

  const CpuTimes cpu0 = CpuTimes::read();
  const double calib0 = calibration_seconds();
  RunResult r;
  try {
    r = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double calib1 = calibration_seconds();
  const double steal = steal_fraction(cpu0, CpuTimes::read());
  const double calib = 0.5 * (calib0 + calib1);
  r.note("host.calib_start_s", calib0);
  r.note("host.calib_end_s", calib1);
  r.note("host.steal_frac", steal);
  if (cfg.trace) {
    r.add("host.steal_frac", steal, "ratio");
    r.add("host.calib_s", calib, "s");
    if (!trace_out.empty() && !Tracer::get().write_chrome_json(trace_out)) {
      r.errors.push_back("cannot write the trace to " + trace_out);
    }
  }
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.errors.push_back("non-finite metric " + m.name);
  }

  std::printf("{\"detail\": {");
  print_json_pairs(r.detail);
  std::printf("}}\n");
  for (const std::string& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  if (!r.errors.empty()) return 1;

  std::printf("{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
