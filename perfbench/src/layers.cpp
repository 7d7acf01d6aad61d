#include "layers.h"

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blas/factor.h"
#include "blas/level3.h"
#include "inputs.h"
#include "runtime/dag_executor.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

plu::Analysis analyze_traced(const plu::CscMatrix& a, const plu::Options& opt) {
  Span s("analyze");
  plu::Analysis an = plu::analyze(a, opt);
  const plu::AnalysisTimings& t = an.timings;
  const std::pair<const char*, double> phases[] = {
      {"ordering", t.ordering},
      {"graph.transversal", t.transversal},
      {"symbolic.static", t.symbolic},
      {"graph.eforest_postorder", t.eforest_postorder},
      {"symbolic.supernode_partition", t.supernodes},
      {"symbolic.blocks", t.blocks},
      {"taskgraph.build", t.taskgraph}};
  double at = s.start_s();
  for (const auto& [name, seconds] : phases) {
    s.add_child(name, at, at + seconds);
    at += seconds;
  }
  return an;
}

double noop_dag_seconds(const plu::taskgraph::TaskGraph& g, int threads,
                        int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    plu::rt::ExecutionReport rep =
        plu::rt::execute_task_graph(g, threads, [](int) {});
    t.push_back(seconds_since(t0));
    if (!rep.completed) throw std::runtime_error("no-op DAG did not complete");
  }
  return median(t);
}

namespace {

/// Fills a dense matrix with seeded values in [-1, 1).
plu::blas::DenseMatrix seeded_dense(int m, int n, std::uint64_t seed) {
  plu::blas::DenseMatrix d(m, n);
  std::vector<double> v = make_rhs(m * n, seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) d(i, j) = v[static_cast<std::size_t>(j) * m + i];
  }
  return d;
}

/// Runs `body` in batches of `per_batch` calls for ~0.25 s and returns the
/// median GFLOP/s over the batches.
template <class Body>
double rate(double flops_per_call, int per_batch, Body body) {
  std::vector<double> g;
  auto start = std::chrono::steady_clock::now();
  while (g.size() < 5 || (seconds_since(start) < 0.25 && g.size() < 200)) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < per_batch; ++i) body();
    g.push_back(flops_per_call * per_batch / seconds_since(t0) * 1e-9);
  }
  return median(g);
}

}  // namespace

double gemm_gflops() {
  using plu::blas::Trans;
  const int m = 256, n = 256, k = 64;
  plu::blas::DenseMatrix a = seeded_dense(m, k, 1), b = seeded_dense(k, n, 2);
  plu::blas::DenseMatrix c = seeded_dense(m, n, 3);
  return rate(plu::blas::gemm_flops(m, n, k), 4, [&] {
    plu::blas::gemm(Trans::No, Trans::No, -1e-3, a.view(), b.view(), 1.0,
                    c.view());
  });
}

double getrf_gflops() {
  const int m = 512, n = 64;
  const plu::blas::DenseMatrix src = seeded_dense(m, n, 4);
  plu::blas::DenseMatrix work(m, n);
  std::vector<int> ipiv;
  return rate(plu::blas::getrf_flops(m, n), 4, [&] {
    plu::blas::copy(src.view(), work.view());
    if (plu::blas::getrf(work.view(), ipiv) != 0) {
      throw std::runtime_error("getrf probe hit a zero pivot");
    }
  });
}

}  // namespace perfbench
