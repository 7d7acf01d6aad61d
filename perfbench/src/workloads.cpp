#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/sparse_lu.h"
#include "inputs.h"
#include "layers.h"
#include "service/solver_service.h"
#include "stats.h"
#include "taskgraph/analysis.h"
#include "trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using plu::service::RequestResult;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process: every thread, also threads that have
/// exited.  With paravirtual steal accounting the kernel leaves out time
/// the hypervisor took a vCPU away.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed op: its process CPU time, which the end-to-end metrics report,
/// and its wall time, which goes to the detail line.
struct Sample {
  double cpu = 0.0;
  double wall = 0.0;
};

struct Stopwatch {
  Clock::time_point t0 = Clock::now();
  double c0 = process_cpu_s();
  Sample read() const { return {process_cpu_s() - c0, since(t0)}; }
};

struct Samples {
  std::vector<double> cpu, wall;
  void add(Sample s) {
    cpu.push_back(s.cpu);
    wall.push_back(s.wall);
  }
};

constexpr double kResidualBound = 1e-12;
// newton_grid3d's cold_cpu_s is timed in its set-ups, so they repeat often
// enough for a steady median.
constexpr int kSetupReps = 9;
// cold_table1's set-up only generates the Table-1 inputs (~0.04 s), so it
// repeats more often for a steadier median.  Each pass runs two
// refactorization rounds per matrix, so the refactorization and solve
// medians have twice as many samples as the cold ones.
constexpr int kColdSetupReps = 7;
constexpr int kRoundsPerPass = 2;

/// Default options (exact minimum-degree ordering) with the T-lane
/// parallel analysis.
plu::Options parallel_analysis_options() {
  plu::Options o;
  o.analysis.parallel_analyze = true;
  o.analysis.threads = kThreads;
  return o;
}

plu::NumericOptions numeric_at(int threads) {
  plu::NumericOptions n;
  if (threads == 1) {
    n.mode = plu::ExecutionMode::kSequential;
  } else {
    n.mode = plu::ExecutionMode::kThreaded;
    n.threads = threads;
  }
  return n;
}

/// The ok_frac rule: a usable factorization and a finite relative
/// residual of at most 1e-12.
bool solve_ok(plu::FactorStatus st, const plu::CscMatrix& a,
              const std::vector<double>& x, const std::vector<double>& b) {
  if (!plu::factor_usable(st) || x.size() != b.size()) return false;
  const double r = plu::relative_residual(a, x, b);
  return std::isfinite(r) && r <= kResidualBound;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

/// Solves with `lu`'s factors kSolveReps times back to back into `x` (all
/// solves give the same x) and returns the fastest: one solve is short and
/// memory-bound, so a burst of host interference lands on a single solve,
/// and the fastest of three skips it.
constexpr int kSolveReps = 3;
Sample fastest_solve(const plu::SparseLU& lu, const std::vector<double>& b,
                     std::vector<double>& x) {
  Sample best;
  for (int k = 0; k < kSolveReps; ++k) {
    Stopwatch sw;
    x = lu.solve(b);
    const Sample s = sw.read();
    if (k == 0 || s.cpu < best.cpu) best = s;
  }
  return best;
}

/// True while a time-boxed loop may start another op of about `op_s`
/// seconds: it stops at the budget, and also skips an op that would end
/// more than half an op past it.  At least `min_ops` ops always run.
bool keep_going(Clock::time_point start, double budget_s, long done,
                long min_ops, double op_s) {
  if (done < min_ops) return true;
  return since(start) + 0.5 * op_s < budget_s;
}

/// Adds the metrics every untraced run reports last.
void add_common(RunResult& r) {
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("ok_frac",
        r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / r.attempted
            : 0.0,
        "ratio");
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping: structural counts, probes, and the span summary.

struct LayerFacts {
  // Sums over the patterns one op analyzes or factorizes.
  double nnz_a = 0.0;
  double nnz_abar = 0.0;
  double supernodes = 0.0;
  double tasks = 0.0;
  double edges = 0.0;
  double model_flops = 0.0;
  double critical_flops = 0.0;
  double routed_packed = 0.0;
  double routed_direct = 0.0;
  double noop_dag_s = 0.0;
  std::vector<RequestResult> service;
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;

  void add_structure(const plu::Analysis& an) {
    nnz_a += an.nnz_input;
    nnz_abar += static_cast<double>(an.symbolic.abar.nnz());
    supernodes += an.partition.count();
    plu::taskgraph::GraphStats g = plu::taskgraph::graph_stats(an.graph, an.costs);
    tasks += g.tasks;
    edges += static_cast<double>(g.edges);
    model_flops += g.total_flops;
    critical_flops += g.critical_path_flops;
    noop_dag_s += noop_dag_seconds(an.graph, kThreads, 5);
  }
};

/// Factorizes `a` over `an` at T, 1 and 4 threads -- interleaved, and in an
/// order rotated by the op so no thread count always runs first -- each in
/// its span; the T factors are solved inside core.solve and checked.
void factor_probe(const plu::Analysis& an, const plu::CscMatrix& a,
                  const std::vector<double>& b, long op, RunResult& r,
                  LayerFacts* routing) {
  static constexpr int kCounts[3] = {kThreads, 1, 4};
  const long rotation = (op % 3 + 3) % 3;  // the warm-up op is -1
  for (int k = 0; k < 3; ++k) {
    const int t = kCounts[(k + rotation) % 3];
    const char* name =
        t == kThreads ? "core.factor" : (t == 1 ? "core.factor_1t" : "core.factor_4t");
    std::unique_ptr<plu::Factorization> f;
    {
      Span s(name);
      f = std::make_unique<plu::Factorization>(an, a, numeric_at(t));
    }
    const bool usable = plu::factor_usable(f->status());
    r.check(usable, std::string("factorization unusable at ") +
                        std::to_string(t) + " threads");
    if (t != kThreads) continue;
    if (routing) {
      routing->routed_packed += f->blocking_stats().routed_packed;
      routing->routed_direct += f->blocking_stats().routed_direct;
    }
    std::vector<double> x;
    {
      Span s("core.solve");
      if (usable) x = f->solve(b);
    }
    const bool ok = solve_ok(f->status(), a, x, b);
    r.count_solve(ok);
    r.check(ok, "traced solve failed the residual rule");
  }
}

/// Median over ops of the summed self time of the spans named `name`.
class SpanSummary {
 public:
  SpanSummary() {
    std::vector<SpanRecord> s = Tracer::get().spans();
    std::vector<double> self = Tracer::self_times(s);
    for (std::size_t i = 0; i < s.size(); ++i) {
      per_op_[s[i].name][s[i].op] += self[i];
    }
  }
  bool has(const std::string& name) const { return per_op_.count(name) > 0; }
  double median_s(const std::string& name) const {
    auto it = per_op_.find(name);
    if (it == per_op_.end()) return 0.0;
    std::vector<double> v;
    for (auto& [op, s] : it->second) v.push_back(s);
    return median(v);
  }
  /// Median over ops of num/den, for ops that have both.
  double median_ratio(const std::string& num, const std::string& den) const {
    auto a = per_op_.find(num), b = per_op_.find(den);
    std::vector<double> v;
    if (a == per_op_.end() || b == per_op_.end()) return 0.0;
    for (auto& [op, s] : a->second) {
      auto d = b->second.find(op);
      if (d != b->second.end() && d->second > 0) v.push_back(s / d->second);
    }
    return v.empty() ? 0.0 : median(v);
  }

 private:
  std::map<std::string, std::map<long, double>> per_op_;
};

void add_service_layer(RunResult& r, const std::vector<RequestResult>& rs) {
  std::vector<double> q, an, fa, so;
  double hits = 0.0, failed = 0.0;
  for (const RequestResult& x : rs) {
    q.push_back(x.queue_seconds * 1e3);
    an.push_back(x.analyze_seconds * 1e3);
    fa.push_back(x.factor_seconds * 1e3);
    so.push_back(x.solve_seconds * 1e3);
    hits += x.cache_hit ? 1.0 : 0.0;
    failed += x.state == plu::service::RequestState::kDone ? 0.0 : 1.0;
  }
  r.check(!rs.empty(), "no service requests in the traced run");
  if (rs.empty()) return;
  r.add("service.queue_ms", median(q), "ms");
  r.add("service.analyze_ms", median(an), "ms");
  r.add("service.factor_ms", median(fa), "ms");
  r.add("service.solve_ms", median(so), "ms");
  r.add("service.cache_hit_frac", hits / static_cast<double>(rs.size()), "ratio");
  r.add("service.failed", failed, "count");
  r.note("service.requests", static_cast<double>(rs.size()));
}

/// Emits every per-layer metric from the spans and the facts.
void add_layer_metrics(RunResult& r, const LayerFacts& f) {
  SpanSummary s;
  static const char* kRequired[] = {
      "ordering",        "graph.transversal", "graph.eforest_postorder",
      "symbolic.static", "symbolic.supernode_partition",
      "symbolic.blocks", "taskgraph.build",   "core.factor",
      "core.factor_1t",  "core.factor_4t",    "core.solve"};
  for (const char* name : kRequired) {
    r.check(s.has(name), std::string("no spans recorded for ") + name);
  }
  r.add("ordering.s", s.median_s("ordering"), "s");
  r.add("graph.transversal_s", s.median_s("graph.transversal"), "s");
  r.add("graph.eforest_postorder_s", s.median_s("graph.eforest_postorder"), "s");
  r.add("symbolic.static_s", s.median_s("symbolic.static"), "s");
  r.add("symbolic.supernodes_s", s.median_s("symbolic.supernode_partition"), "s");
  r.add("symbolic.blocks_s", s.median_s("symbolic.blocks"), "s");
  r.add("symbolic.fill_ratio", f.nnz_a > 0 ? f.nnz_abar / f.nnz_a : 0.0, "ratio");
  r.add("symbolic.supernodes", f.supernodes, "count");
  r.add("taskgraph.build_s", s.median_s("taskgraph.build"), "s");
  r.add("taskgraph.tasks", f.tasks, "count");
  r.add("taskgraph.edges", f.edges, "count");
  r.add("taskgraph.model_gflop", f.model_flops * 1e-9, "GFLOP");
  r.add("taskgraph.max_parallelism",
        f.critical_flops > 0 ? f.model_flops / f.critical_flops : 0.0, "ratio");
  r.add("runtime.noop_dag_ms", f.noop_dag_s * 1e3, "ms");
  const double factor_s = s.median_s("core.factor");
  r.add("core.factor_s", factor_s, "s");
  r.add("core.factor_1t_s", s.median_s("core.factor_1t"), "s");
  r.add("core.factor_4t_s", s.median_s("core.factor_4t"), "s");
  r.add("core.factor_speedup", s.median_ratio("core.factor_1t", "core.factor"),
        "ratio");
  r.add("core.factor_model_gflops",
        factor_s > 0 ? f.model_flops / factor_s * 1e-9 : 0.0, "GFLOP/s");
  r.add("core.routed_packed", f.routed_packed, "count");
  r.add("core.routed_direct", f.routed_direct, "count");
  r.add("core.solve_ms", s.median_s("core.solve") * 1e3, "ms");
  r.add("blas.gemm_gflops", gemm_gflops(), "GFLOP/s");
  r.add("blas.getrf_gflops", getrf_gflops(), "GFLOP/s");
  add_service_layer(r, f.service);
  r.check(!f.traced_op_s.empty() && !f.untraced_op_s.empty(),
          "traced run needs both traced and untraced ops");
  if (!f.traced_op_s.empty() && !f.untraced_op_s.empty()) {
    r.add("trace.overhead_ratio",
          median(f.traced_op_s) / median(f.untraced_op_s), "ratio");
    r.note("trace.traced_ops", static_cast<double>(f.traced_op_s.size()));
    r.note("trace.untraced_ops", static_cast<double>(f.untraced_op_s.size()));
  }
}

/// Pushes each problem through a fresh service once as a miss and then
/// `hits` more times with perturbed values (cache hits): the service-layer
/// numbers of a traced run whose workload does not run the service.
void service_leg(const plu::Options& analyze, const std::vector<Problem>& ps,
                 int hits, std::uint64_t seed, RunResult& r, LayerFacts& f) {
  plu::service::ServiceOptions so;
  so.threads = kThreads;
  so.max_concurrent = 2;
  so.analyze = analyze;
  plu::service::SolverService svc(so);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (int k = 0; k <= hits; ++k) {
      // Op ids past any loop's keep these values apart from the loop's.
      plu::CscMatrix a =
          k == 0 ? ps[i].a : revalued(ps[i].a, seed, 1'000'000 + k, static_cast<int>(i));
      RequestResult res = svc.submit(a, ps[i].b)->wait();
      const bool ok = res.state == plu::service::RequestState::kDone &&
                      solve_ok(res.factor_status, a, res.x, ps[i].b);
      r.count_solve(ok);
      r.check(ok, "service-leg request failed");
      r.check(res.cache_hit == (k > 0), "service-leg cache hit/miss mismatch");
      res.x.clear();
      f.service.push_back(std::move(res));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// cold_table1: fresh SparseLU per matrix, analyze -> factorize -> solve on
// the seven Table-1 stand-ins, then refactorizations with new values at T
// and at 1 thread, and solves.

RunResult run_cold_table1(const RunConfig& cfg) {
  RunResult r;
  // The library's default sequential analysis, as in newton_grid3d: on a
  // 4-vCPU virtual machine the T-lane analysis team made the cold passes
  // 35 % slower whenever the hypervisor stole ~8 % of CPU time, against
  // ~0.3 % steal in the runs before.
  const plu::Options opt;

  if (!cfg.trace) {
    // Set-up generates the inputs only.
    Samples setups;
    std::vector<Problem> probs;
    for (int rep = 0; rep < kColdSetupReps; ++rep) {
      Stopwatch sw;
      probs = cold_table1_inputs(cfg.seed);
      setups.add(sw.read());
    }

    // Per matrix and pass: cold analyze->factorize->solve on a fresh
    // SparseLU, then kRoundsPerPass rounds in which the same object
    // refactorizes new values at T and at 1 thread, interleaved in an order
    // that alternates by round so both see the same host; each solve is
    // checked and the T factors give one solve sample.  A metric sums each
    // matrix's median over its samples, so one slow matrix in one pass
    // cannot move it.
    const std::size_t m = probs.size();
    std::vector<Samples> cold(m), refactor(m), refactor_1t(m), solve(m);
    double storage = 0.0;
    auto run_pass = [&](long p, bool record) {
      double pass_storage = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const Problem& P = probs[i];
        plu::SparseLU lu(opt);
        lu.numeric_options() = numeric_at(kThreads);
        Stopwatch sw;
        lu.analyze(P.a);
        lu.factorize(P.a);
        std::vector<double> x;
        if (plu::factor_usable(lu.factor_status())) x = lu.solve(P.b);
        const Sample cold_op = sw.read();
        bool ok = solve_ok(lu.factor_status(), P.a, x, P.b);
        r.count_solve(ok);
        r.check(ok, P.name + ": cold solve failed the residual rule");
        pass_storage += static_cast<double>(lu.factorization().blocks().storage_bytes());
        if (record) cold[i].add(cold_op);

        for (int j = 0; j < 2 * kRoundsPerPass; ++j) {
          const long k = p * kRoundsPerPass + j / 2;  // round
          const int which = static_cast<int>((j + k) % 2);  // 0: T, 1: one thread
          const plu::CscMatrix a =
              revalued(P.a, cfg.seed, 2 * k + which, static_cast<int>(i));
          lu.numeric_options() = numeric_at(which == 0 ? kThreads : 1);
          Stopwatch fsw;
          lu.factorize(a);
          const Sample f = fsw.read();
          x.clear();
          Sample solve_op;
          const bool usable = plu::factor_usable(lu.factor_status());
          if (usable) x = lu.solve(P.b);
          if (usable && which == 0) solve_op = fastest_solve(lu, P.b, x);
          ok = solve_ok(lu.factor_status(), a, x, P.b);
          r.count_solve(ok);
          r.check(ok, P.name + ": refactorization failed the residual rule");
          if (!record) continue;
          (which == 0 ? refactor : refactor_1t)[i].add(f);
          if (usable && which == 0) solve[i].add(solve_op);
        }
        r.check(lu.analyze_count() == 1, P.name + ": refactorization re-analyzed");
      }
      if (storage == 0.0) storage = pass_storage;
      r.check(pass_storage == storage, "factor storage changed between passes");
    };

    run_pass(0, false);  // warm-up
    long passes = 0;
    auto loop_start = Clock::now();
    double pass_s = 0.0;
    while (keep_going(loop_start, cfg.seconds, passes, 2, pass_s)) {
      auto t0 = Clock::now();
      run_pass(++passes, true);
      pass_s = since(t0);
    }

    // Sum over the matrices of each one's median of the given clock.
    auto sum_of_medians = [](const std::vector<Samples>& v,
                             std::vector<double> Samples::*clock) {
      double sum = 0.0;
      for (const Samples& per_matrix : v) sum += median(per_matrix.*clock);
      return sum;
    };
    r.add("setup_s", median(setups.cpu), "s");
    r.add("cold_cpu_s", sum_of_medians(cold, &Samples::cpu), "s");
    r.add("refactor_cpu_s", sum_of_medians(refactor, &Samples::cpu), "s");
    r.add("refactor_1t_cpu_s", sum_of_medians(refactor_1t, &Samples::cpu), "s");
    r.add("solve_cpu_ms", sum_of_medians(solve, &Samples::cpu) * 1e3, "ms");
    r.add("factor_mb", storage / 1e6, "MB");
    add_common(r);
    r.note("wall.setup_s", median(setups.wall));
    r.note("wall.cold_s", sum_of_medians(cold, &Samples::wall));
    r.note("wall.refactor_s", sum_of_medians(refactor, &Samples::wall));
    r.note("wall.refactor_1t_s", sum_of_medians(refactor_1t, &Samples::wall));
    r.note("wall.solve_ms", sum_of_medians(solve, &Samples::wall) * 1e3);
    r.note("samples.setup", kColdSetupReps);
    r.note("samples.passes", static_cast<double>(passes));
    return r;
  }

  // Traced run: analyses with a span per phase, factor probes at T/1/4
  // threads; after an untraced warm-up pass, passes alternate traced and
  // untraced for the overhead ratio.
  const std::vector<Problem> probs = cold_table1_inputs(cfg.seed);
  LayerFacts f;
  auto run_pass = [&](long op) {
    OpScope scope(op);
    double wall = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      auto t0 = Clock::now();
      const plu::Analysis an = analyze_traced(probs[i].a, opt);
      factor_probe(an, probs[i].a, probs[i].b, op, r, op == 0 ? &f : nullptr);
      wall += since(t0);
      if (op == 0) f.add_structure(an);
    }
    return wall;
  };
  Tracer::suppressed() = true;
  run_pass(-1);  // warm-up
  long op = 0;
  auto loop_start = Clock::now();
  double op_s = 0.0;
  while (keep_going(loop_start, cfg.seconds, op, 2, op_s)) {
    const bool traced = op % 2 == 0;
    Tracer::suppressed() = !traced;
    op_s = run_pass(op);
    (traced ? f.traced_op_s : f.untraced_op_s).push_back(op_s);
    ++op;
  }
  Tracer::suppressed() = false;
  service_leg(opt, probs, 1, cfg.seed, r, f);
  add_layer_metrics(r, f);
  return r;
}

// ---------------------------------------------------------------------------
// newton_grid3d: one nested-dissection analysis of grid3d(17,17,17) in
// set-up, then per step refactorizations with new values at T and at 1
// thread, and solves.

RunResult run_newton_grid3d(const RunConfig& cfg) {
  RunResult r;
  // The library's default sequential analysis, unlike the other workloads:
  // on a 4-vCPU virtual machine, the T-lane analysis team made
  // this grid's analysis 1.4-2.7x slower than sequential and bimodal from
  // run to run, which swamped setup_s and cold_s.
  plu::Options opt;
  opt.ordering = plu::ordering::Method::kNestedDissectionAtA;

  if (!cfg.trace) {
    Samples setups, colds;
    Problem P;
    std::unique_ptr<plu::SparseLU> lu;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      lu.reset();
      Stopwatch setup_sw;
      P = newton_base(cfg.seed);
      Stopwatch cold_sw;
      lu = std::make_unique<plu::SparseLU>(opt);
      lu->numeric_options() = numeric_at(kThreads);
      lu->analyze(P.a);
      setups.add(setup_sw.read());
      lu->factorize(P.a);
      std::vector<double> x;
      if (plu::factor_usable(lu->factor_status())) x = lu->solve(P.b);
      colds.add(cold_sw.read());
      const bool ok = solve_ok(lu->factor_status(), P.a, x, P.b);
      r.count_solve(ok);
      r.check(ok, "cold Newton step failed the residual rule");
    }
    const double storage =
        static_cast<double>(lu->factorization().blocks().storage_bytes());

    // Each step refactorizes new values at T and at 1 thread, interleaved
    // in an order that alternates by step so both see the same host.
    Samples refactor, refactor_1t, solve;
    auto step = [&](long k, bool record) {
      for (int w = 0; w < 2; ++w) {
        const int which = (w + k) % 2;  // 0: T threads, 1: one thread
        const plu::CscMatrix a = newton_step(P.a, cfg.seed, 2 * k + which);
        lu->numeric_options() = numeric_at(which == 0 ? kThreads : 1);
        Stopwatch sw;
        lu->factorize(a);
        const Sample f = sw.read();
        std::vector<double> x;
        Sample solve_op;
        const bool usable = plu::factor_usable(lu->factor_status());
        if (usable) x = lu->solve(P.b);
        if (usable && which == 0) solve_op = fastest_solve(*lu, P.b, x);
        const bool ok = solve_ok(lu->factor_status(), a, x, P.b);
        r.count_solve(ok);
        r.check(ok, "Newton step " + std::to_string(k) + " failed the residual rule");
        if (!record) continue;
        (which == 0 ? refactor : refactor_1t).add(f);
        if (usable && which == 0) solve.add(solve_op);
      }
    };
    step(0, false);  // warm-up
    auto loop_start = Clock::now();
    long k = 1;
    double step_s = 0.0;
    while (keep_going(loop_start, cfg.seconds, k - 1, 3, step_s)) {
      auto t0 = Clock::now();
      step(k++, true);
      step_s = since(t0);
    }
    r.check(lu->analyze_count() == 1, "a Newton step re-ran the analysis");
    r.check(static_cast<double>(lu->factorization().blocks().storage_bytes()) == storage,
            "factor storage changed across steps");

    r.add("setup_s", median(setups.cpu), "s");
    r.add("cold_cpu_s", median(colds.cpu), "s");
    r.add("refactor_cpu_s", median(refactor.cpu), "s");
    r.add("refactor_1t_cpu_s", median(refactor_1t.cpu), "s");
    r.add("solve_cpu_ms", median(solve.cpu) * 1e3, "ms");
    r.add("factor_mb", storage / 1e6, "MB");
    add_common(r);
    r.note("wall.setup_s", median(setups.wall));
    r.note("wall.cold_s", median(colds.wall));
    r.note("wall.refactor_s", median(refactor.wall));
    r.note("wall.refactor_1t_s", median(refactor_1t.wall));
    r.note("wall.solve_ms", median(solve.wall) * 1e3);
    r.note("samples.setup", kSetupReps);
    r.note("samples.steps", static_cast<double>(refactor.cpu.size()));
    return r;
  }

  // Traced run: the analysis in set-up; then per step T/1/4-thread
  // factorizations, after an untraced warm-up step alternating traced and
  // untraced steps for the overhead ratio.
  LayerFacts f;
  const Problem P = newton_base(cfg.seed);
  const plu::Analysis an = analyze_traced(P.a, opt);
  f.add_structure(an);
  auto run_step = [&](long op) {
    const plu::CscMatrix a = newton_step(P.a, cfg.seed, op + 1);
    OpScope scope(op);
    auto t0 = Clock::now();
    factor_probe(an, a, P.b, op, r, op == 0 ? &f : nullptr);
    return since(t0);
  };
  Tracer::suppressed() = true;
  run_step(-1);  // warm-up
  long op = 0;
  auto loop_start = Clock::now();
  double op_s = 0.0;
  while (keep_going(loop_start, cfg.seconds, op, 2, op_s)) {
    const bool traced = op % 2 == 0;
    Tracer::suppressed() = !traced;
    op_s = run_step(op);
    (traced ? f.traced_op_s : f.untraced_op_s).push_back(op_s);
    ++op;
  }
  Tracer::suppressed() = false;
  service_leg(opt, {P}, 2, cfg.seed, r, f);
  add_layer_metrics(r, f);
  return r;
}

// ---------------------------------------------------------------------------
// service_mix: closed loop of 2 clients on one SolverService.

namespace {

struct RequestRecord {
  long index = 0;
  bool hot = false;
  bool ok = false;
  double latency = 0.0;
  RequestResult result;  // x cleared
};

/// Runs the closed loop until `seconds` pass; request indices start at
/// `first`.  In a traced run every other request is timed with spans off.
std::vector<RequestRecord> closed_loop(plu::service::SolverService& svc,
                                       const std::vector<Problem>& hot,
                                       std::uint64_t seed, long first,
                                       double seconds, double* wall_s) {
  std::atomic<long> next{first};
  std::mutex mu;
  std::vector<RequestRecord> out;
  auto start = Clock::now();
  auto client = [&] {
    std::vector<RequestRecord> mine;
    for (;;) {
      if (since(start) >= seconds) break;
      const long i = next.fetch_add(1);
      ServiceRequest req = service_request(hot, seed, i);
      Tracer::suppressed() = i % 2 == 1;
      OpScope scope(i);
      RequestRecord rec;
      rec.index = i;
      rec.hot = req.hot;
      auto t0 = Clock::now();
      bool refused = false;
      {
        Span s("service.request");
        try {
          rec.result = svc.submit(req.p.a, req.p.b)->wait();
        } catch (const std::exception&) {
          refused = true;  // counts as a failed request
        }
      }
      rec.latency = since(t0);
      Tracer::suppressed() = false;
      rec.ok = !refused && rec.result.state == plu::service::RequestState::kDone &&
               solve_ok(rec.result.factor_status, req.p.a, rec.result.x, req.p.b);
      rec.result.x.clear();
      mine.push_back(std::move(rec));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (auto& m : mine) out.push_back(std::move(m));
  };
  std::thread c1(client), c2(client);
  c1.join();
  c2.join();
  *wall_s = since(start);
  return out;
}

}  // namespace

RunResult run_service_mix(const RunConfig& cfg) {
  RunResult r;
  plu::service::ServiceOptions so;
  so.threads = kThreads;
  so.max_concurrent = 2;
  so.analyze = parallel_analysis_options();

  Samples setups;
  std::unique_ptr<plu::service::SolverService> svc;
  std::vector<Problem> hot;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    Stopwatch sw;
    svc = std::make_unique<plu::service::SolverService>(so);
    hot = service_hot(cfg.seed);
    for (const Problem& h : hot) {
      RequestResult res = svc->submit(h.a, h.b)->wait();
      const bool ok = res.state == plu::service::RequestState::kDone &&
                      solve_ok(res.factor_status, h.a, res.x, h.b);
      r.count_solve(ok);
      r.check(ok, h.name + ": warm-up request failed");
      r.check(!res.cache_hit, h.name + ": warm-up request hit the cache");
    }
    setups.add(sw.read());
  }

  LayerFacts f;
  if (cfg.trace) {
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const plu::Analysis an = analyze_traced(hot[i].a, so.analyze);
      f.add_structure(an);
      for (long op = 0; op < 3; ++op) {
        OpScope scope(op);
        factor_probe(an, hot[i].a, hot[i].b, op, r, op == 0 ? &f : nullptr);
      }
    }
  }

  // Warm-up requests, then the measured closed loop.
  double warm_s = 0.0, loop_s = 0.0;
  const long warm_first = 1L << 40;  // request indices disjoint from the loop's
  std::vector<RequestRecord> warm =
      closed_loop(*svc, hot, cfg.seed, warm_first, 0.5, &warm_s);
  const plu::service::CacheStats c0 = svc->stats().cache;
  std::vector<RequestRecord> recs =
      closed_loop(*svc, hot, cfg.seed, 0, cfg.seconds, &loop_s);
  const plu::service::CacheStats c1 = svc->stats().cache;
  r.check((c1.hits - c0.hits) + (c1.misses - c0.misses) ==
              static_cast<long>(recs.size()),
          "cache hits + misses != requests");

  LoopAccount acct;
  long misses = 0, evicted_hot = 0;
  for (const RequestRecord& x : warm) {
    r.count_solve(x.ok);
    r.check(x.ok, "warm-up request failed");
  }
  for (const RequestRecord& x : recs) {
    r.count_solve(x.ok);
    acct.record(x.ok, x.latency);
    r.check(x.hot || !x.result.cache_hit, "a never-seen pattern hit the cache");
    if (x.hot && !x.result.cache_hit) ++evicted_hot;
    if (!x.result.cache_hit) ++misses;
  }
  r.check(acct.failed() == 0, "a service request failed");
  r.check(misses > 0 && misses < static_cast<long>(recs.size()),
          "the loop needs both cache hits and misses");
  if (!r.errors.empty()) return r;

  if (cfg.trace) {
    // Even request indices ran with spans, odd ones without.
    for (const RequestRecord& x : recs) {
      f.service.push_back(x.result);
      (x.index % 2 == 0 ? f.traced_op_s : f.untraced_op_s).push_back(x.latency);
    }
    add_layer_metrics(r, f);
    return r;
  }

  const Tail tail = tail_percentile(acct.latencies());
  r.add("setup_s", median(setups.cpu), "s");
  add_common(r);
  r.note("wall.setup_s", median(setups.wall));
  r.add("svc_rps", static_cast<double>(recs.size()) / loop_s, "1/s");
  r.add("svc_p50_ms", median(acct.latencies()) * 1e3, "ms");
  // Only a true p99 with at least 10 samples beyond it.
  if (tail.ok && tail.pct >= 99.0) r.add("svc_p99_ms", tail.value * 1e3, "ms");
  r.note("samples.setup", kSetupReps);
  r.note("samples.requests", static_cast<double>(recs.size()));
  r.note("samples.misses", static_cast<double>(misses));
  r.note("hot_requests_evicted", static_cast<double>(evicted_hot));
  if (tail.ok) {
    r.note("req_tail_pct", tail.pct);
    r.note("req_tail_ms", tail.value * 1e3);
    r.note("req_tail_beyond", tail.beyond);
  }
  return r;
}

}  // namespace perfbench
