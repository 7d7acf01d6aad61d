#include "inputs.h"

#include <random>

#include "matrix/generators.h"
#include "matrix/named_matrices.h"
#include "stats.h"

namespace perfbench {

namespace {

// Stream tags of mix_seed, one per kind of generated input.
enum Stream : std::uint64_t {
  kColdValues = 1,
  kColdRhs,
  kRevalued,
  kNewtonGrid,
  kNewtonRhs,
  kNewtonStep,
  kHotValues,
  kHotRhs,
  kRequestKind,
  kRequestValues,
  kRequestPattern,
  kRequestRhs,
};

}  // namespace

std::vector<double> make_rhs(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = dist(rng);
  return v;
}

std::vector<Problem> cold_table1_inputs(std::uint64_t seed) {
  std::vector<Problem> out;
  std::uint64_t i = 0;
  for (plu::NamedMatrix& m : plu::make_benchmark_suite()) {
    Problem p;
    p.name = m.name;
    p.a = plu::gen::perturb_values(m.a, 0.02, mix_seed(seed, kColdValues, i));
    p.b = make_rhs(p.a.rows(), mix_seed(seed, kColdRhs, i));
    out.push_back(std::move(p));
    ++i;
  }
  return out;
}

plu::CscMatrix revalued(const plu::CscMatrix& a, std::uint64_t seed, long op,
                        int i) {
  return plu::gen::perturb_values(
      a, 0.02,
      mix_seed(seed, kRevalued, static_cast<std::uint64_t>(op) * 16 + i));
}

Problem newton_base(std::uint64_t seed) {
  plu::gen::StencilOptions opt;
  opt.seed = mix_seed(seed, kNewtonGrid);
  Problem p;
  p.name = "grid3d-17";
  p.a = plu::gen::grid3d(17, 17, 17, opt);
  p.b = make_rhs(p.a.rows(), mix_seed(seed, kNewtonRhs));
  return p;
}

plu::CscMatrix newton_step(const plu::CscMatrix& base, std::uint64_t seed,
                           long step) {
  return plu::gen::perturb_values(
      base, 0.05, mix_seed(seed, kNewtonStep, static_cast<std::uint64_t>(step)));
}

std::vector<Problem> service_hot(std::uint64_t seed) {
  // Fixed structures (generator seeds are constants); the run seed only
  // rescales their values, so every seed serves the same six patterns.
  std::vector<Problem> out(6);
  plu::gen::StencilOptions g;
  g.seed = 101;
  out[0] = {"grid2d-32", plu::gen::grid2d(32, 32, g), {}};
  g.seed = 102;
  out[1] = {"grid3d-10", plu::gen::grid3d(10, 10, 10, g), {}};
  out[2] = {"banded-1000",
            plu::gen::banded(1000, {-17, -6, -1, 1, 6, 17}, 0.7, 0.6, 103), {}};
  out[3] = {"fem-p2-8", plu::gen::fem_p2(8, 8, 2, 104), {}};
  out[4] = {"circuit-1000", plu::gen::circuit(1000, 4, 3.0, 105), {}};
  out[5] = {"random-500", plu::gen::random_sparse(500, 3.0, 0.5, 0.7, 106), {}};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].a = plu::gen::perturb_values(out[i].a, 0.05,
                                        mix_seed(seed, kHotValues, i));
    out[i].b = make_rhs(out[i].a.rows(), mix_seed(seed, kHotRhs, i));
  }
  return out;
}

ServiceRequest service_request(const std::vector<Problem>& hot,
                               std::uint64_t seed, long index) {
  const auto idx = static_cast<std::uint64_t>(index);
  std::mt19937_64 rng(mix_seed(seed, kRequestKind, idx));
  ServiceRequest r;
  r.hot = rng() % 10 < 8;
  if (r.hot) {
    r.pattern = static_cast<int>(rng() % hot.size());
    const Problem& h = hot[static_cast<std::size_t>(r.pattern)];
    r.p.name = h.name;
    r.p.a = plu::gen::perturb_values(h.a, 0.05,
                                     mix_seed(seed, kRequestValues, idx));
  } else {
    // A thinned 5-point grid: the dropped edge pairs make the pattern one
    // no other request carries.
    plu::gen::StencilOptions g;
    g.drop_probability = 0.15;
    g.seed = mix_seed(seed, kRequestPattern, idx);
    const int nx = 24 + static_cast<int>(rng() % 9);
    const int ny = 24 + static_cast<int>(rng() % 9);
    r.p.name = "grid2d-miss";
    r.p.a = plu::gen::grid2d(nx, ny, g);
  }
  r.p.b = make_rhs(r.p.a.rows(), mix_seed(seed, kRequestRhs, idx));
  return r;
}

}  // namespace perfbench
