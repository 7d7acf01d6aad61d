// Seeded input generation for the three workloads.  Every input derives
// from the run seed through mix_seed, so the same seed gives byte-identical
// matrices and right-hand sides (tests/test_stats.cpp); the library only
// ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csc.h"

namespace perfbench {

struct Problem {
  std::string name;
  plu::CscMatrix a;
  std::vector<double> b;
};

/// Uniform [-1, 1) right-hand side.
std::vector<double> make_rhs(int n, std::uint64_t seed);

/// The seven Table-1 stand-ins in paper order, values scaled by a seeded
/// +-2 % perturbation (patterns fixed), each with a seeded right-hand side.
std::vector<Problem> cold_table1_inputs(std::uint64_t seed);

/// New values for refactorizing matrix `i` in op `op`: the pattern of `a`,
/// every value rescaled by a seeded +-2 %.
plu::CscMatrix revalued(const plu::CscMatrix& a, std::uint64_t seed, long op,
                        int i);

/// The Newton base matrix: 7-point grid3d(17,17,17), n = 4913, with
/// seeded stencil values, and its right-hand side.
Problem newton_base(std::uint64_t seed);
/// Values of Newton step `step`: the base pattern, every value rescaled by
/// a seeded +-5 % perturbation.
plu::CscMatrix newton_step(const plu::CscMatrix& base, std::uint64_t seed,
                           long step);

/// The six hot patterns of the service mix (n = 500..1000), seeded values.
std::vector<Problem> service_hot(std::uint64_t seed);

/// Request `index` of the service mix: with probability 0.8 a hot pattern
/// with freshly perturbed values (a cache hit), otherwise a thinned grid
/// pattern no other request carries (a cache miss).
struct ServiceRequest {
  bool hot = false;
  int pattern = -1;  // index into the hot set, -1 for a miss
  Problem p;
};
ServiceRequest service_request(const std::vector<Problem>& hot,
                               std::uint64_t seed, long index);

}  // namespace perfbench
