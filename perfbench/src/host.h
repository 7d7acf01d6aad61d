// Host witness: records how busy the machine was while a run measured, so
// a run taken during host drift is visible instead of silently widening
// the bounds.  Nothing here is library code, and no metric is divided by
// it.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

/// Aggregate CPU jiffies from /proc/stat ("cpu" line); all zero when the
/// file is unreadable.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTimes read() {
    CpuTimes t;
    std::ifstream f("/proc/stat");
    std::string line;
    if (!std::getline(f, line) || line.rfind("cpu ", 0) != 0) return t;
    std::istringstream is(line.substr(4));
    std::uint64_t v = 0;
    for (int field = 0; is >> v; ++field) {
      if (field < 8) t.total += v;  // user..steal; guest time is inside user
      if (field == 7) t.steal = v;
    }
    return t;
  }
};

/// Share of CPU time the hypervisor stole between two readings.
inline double steal_fraction(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

/// A fixed scalar loop owned by the benchmark (a dependent floating-point
/// recurrence, 0.16-0.4 s on a 4-vCPU virtual machine); its wall time
/// tracks how fast the core it runs on is right now.
inline double calibration_seconds() {
  auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 0.0;
  double x = 0.5;
  for (int i = 0; i < 40'000'000; ++i) x = 3.7 * x * (1.0 - x);
  sink = x;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
