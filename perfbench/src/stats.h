// Statistics helpers of the benchmark: medians, the tail percentile that
// still has enough samples beyond it, closed-loop request accounting, and
// the seed mixer every generated input derives from.  Header-only; unit
// tests in perfbench/tests/test_stats.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the two middle ones for an even count).
/// Throws std::invalid_argument on an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

/// The highest nearest-rank percentile (capped at `cap_pct`) whose value
/// still has at least `min_beyond` samples strictly above its rank.
struct Tail {
  bool ok = false;     // false when the sample has <= min_beyond entries
  double pct = 0.0;    // the percentile reported, in percent
  double value = 0.0;  // sample value at that percentile
  int beyond = 0;      // samples ranked above it
  int samples = 0;     // sample count
};

inline Tail tail_percentile(std::vector<double> v, int min_beyond = 10,
                            double cap_pct = 99.0) {
  Tail t;
  t.samples = static_cast<int>(v.size());
  if (t.samples <= min_beyond) return t;
  std::sort(v.begin(), v.end());
  const int n = t.samples;
  // Nearest rank r (1-based) of percentile p is ceil(p/100 * n); the rank
  // of the cap, and the largest rank leaving min_beyond samples above it.
  const int cap_rank =
      std::max(1, static_cast<int>(std::ceil(cap_pct / 100.0 * n - 1e-9)));
  const int rank = std::min(cap_rank, n - min_beyond);
  t.ok = true;
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.pct = 100.0 * rank / n;
  return t;
}

/// Closed-loop accounting: every attempted request is recorded, and one
/// that failed or was refused counts against ok_frac and as an infinite
/// latency, so it misses every latency bound and pushes percentiles up.
class LoopAccount {
 public:
  void record(bool ok, double latency) {
    ++attempted_;
    if (ok) {
      ++ok_;
      latencies_.push_back(latency);
    } else {
      latencies_.push_back(std::numeric_limits<double>::infinity());
    }
  }
  long attempted() const { return attempted_; }
  long failed() const { return attempted_ - ok_; }
  double ok_frac() const {
    return attempted_ > 0 ? static_cast<double>(ok_) / attempted_ : 0.0;
  }
  /// Latencies of every attempted request, failures as +infinity.
  const std::vector<double>& latencies() const { return latencies_; }
  /// Fraction of attempted requests that succeeded within `bound`.
  double within(double bound) const {
    if (attempted_ == 0) return 0.0;
    long n = 0;
    for (double l : latencies_) n += l <= bound ? 1 : 0;
    return static_cast<double>(n) / attempted_;
  }

 private:
  long attempted_ = 0;
  long ok_ = 0;
  std::vector<double> latencies_;
};

/// SplitMix64 finalizer: derives independent, reproducible sub-seeds from
/// the run seed, a stream tag and an index.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t index = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    index * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
