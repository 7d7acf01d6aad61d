// Ablation A5: scheduler policy and placement model.  Crosses
// {critical-path, FIFO} priorities with {free-schedule, owner-computes}
// placement on both dependence graphs, at P = 8.  Two findings this pins
// down (EXPERIMENTS.md):
//   * under owner-computes every update into a column is serialized on its
//     owner, so the dependence-graph choice is nearly irrelevant there;
//   * under free scheduling, the eforest graph's advantage over the
//     program-order S* baseline survives even the FIFO scheduler.
// A second table runs the REAL fuzzed DAG executor (random ready-queue pop
// order) over spin-per-flop task bodies and reports the makespan spread
// across interleavings: how sensitive each graph's makespan is to the
// schedule the runtime happens to pick.
// A third table runs the work-stealing runtime itself (per-worker deques,
// critical-path priorities), wall-clock, on the eforest graph's
// spin-per-flop bodies across thread counts, against its own 1-thread
// makespan.  With --json it appends one record per (matrix, threads) cell.
#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bench_common.h"
#include "runtime/dag_executor.h"

namespace plu::bench {
namespace {

// Wall-clock makespan of one fuzzed execution with task bodies that spin
// proportionally to the task's flop count.
double fuzzed_makespan_ms(const taskgraph::TaskGraph& g,
                          const std::vector<double>& flops, int threads,
                          std::uint64_t seed) {
  // ~1 spin unit per 'scale' flops keeps each run in the few-ms range.
  double max_flops = 1.0;
  for (double f : flops) max_flops = std::max(max_flops, f);
  const double scale = max_flops / 4000.0;
  rt::FuzzOptions fuzz;
  fuzz.seed = seed;
  fuzz.max_delay_us = 0;  // perturb pop order only, not task durations
  auto t0 = std::chrono::steady_clock::now();
  rt::execute_task_graph_fuzzed(g, threads, fuzz, [&](int id) {
    volatile double sink = 0.0;
    const long spins = static_cast<long>(flops[id] / scale) + 1;
    for (long s = 0; s < spins; ++s) sink = sink + static_cast<double>(s);
    (void)sink;
  });
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Wall-clock makespan of one NON-fuzzed execution on the work-stealing
// runtime, same spin-per-flop bodies as fuzzed_makespan_ms.
double executor_makespan_ms(const taskgraph::TaskGraph& g,
                            const std::vector<double>& flops, int threads) {
  double max_flops = 1.0;
  for (double f : flops) max_flops = std::max(max_flops, f);
  const double scale = max_flops / 4000.0;
  auto t0 = std::chrono::steady_clock::now();
  rt::execute_task_graph(g, threads, [&](int id) {
    volatile double sink = 0.0;
    const long spins = static_cast<long>(flops[id] / scale) + 1;
    for (long s = 0; s < spins; ++s) sink = sink + static_cast<double>(s);
    (void)sink;
  });
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void print_executor_scaling_table() {
  std::printf("\nWork-stealing runtime scaling (real DAG executor, eforest "
              "graph,\nspin-per-flop bodies, best of 5 reps)\n");
  print_rule(58);
  std::printf("%-10s %8s %14s %14s\n", "Matrix", "threads", "makespan ms",
              "vs 1 thread");
  print_rule(58);
  const int kReps = 5;
  for (const char* name : {"orsreg1", "goodwin"}) {
    NamedMatrix nm = make_named_matrix(name);
    Options opt;
    opt.task_graph = taskgraph::GraphKind::kEforest;
    Analysis an = analyze(nm.a, opt);
    double total_flops = 0.0;
    for (double f : an.costs.flops) total_flops += f;
    double one_thread = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      double best = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        best = std::min(best, executor_makespan_ms(an.graph, an.costs.flops,
                                                   threads));
      }
      if (threads == 1) one_thread = best;
      std::printf("%-10s %8d %14.2f %13.2fx\n", name, threads, best,
                  one_thread / best);
      json_append(JsonRecord()
                      .field("bench", "ablation_scheduler")
                      .field("matrix", name)
                      .field("graph", "eforest")
                      .field("threads", threads)
                      .field("makespan_ms", best)
                      .field("speedup_vs_1t", one_thread / best)
                      .field("gflops", total_flops / (best * 1e6)));
    }
  }
  print_rule(58);
}

void print_fuzz_variance_table() {
  std::printf("\nFuzzed-schedule makespan variance (real DAG executor, "
              "spin-per-flop bodies,\n8 threads, 10 seeds; spread = "
              "(max-min)/mean)\n");
  print_rule(84);
  std::printf("%-10s %-20s %10s %10s %10s %9s\n", "Matrix", "graph",
              "min ms", "mean ms", "max ms", "spread");
  print_rule(84);
  for (const char* name : {"orsreg1", "goodwin"}) {
    NamedMatrix nm = make_named_matrix(name);
    for (auto kind : {taskgraph::GraphKind::kEforest,
                      taskgraph::GraphKind::kSStarProgramOrder,
                      taskgraph::GraphKind::kSStar}) {
      Options opt;
      opt.task_graph = kind;
      Analysis an = analyze(nm.a, opt);
      double lo = 1e300, hi = 0.0, sum = 0.0;
      const int kSeeds = 10;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        double ms = fuzzed_makespan_ms(an.graph, an.costs.flops, 8, seed);
        lo = std::min(lo, ms);
        hi = std::max(hi, ms);
        sum += ms;
      }
      double mean = sum / kSeeds;
      std::printf("%-10s %-20s %10.2f %10.2f %10.2f %8.1f%%\n", name,
                  taskgraph::to_string(kind).c_str(), lo, mean, hi,
                  100.0 * (hi - lo) / mean);
    }
  }
  print_rule(84);
}

void print_table() {
  std::printf("\nAblation A5: scheduling policy x placement (P=8, simulated "
              "seconds)\n");
  const auto kinds = {taskgraph::GraphKind::kEforest,
                      taskgraph::GraphKind::kSStarProgramOrder,
                      taskgraph::GraphKind::kSStar};
  print_rule(100);
  std::printf("%-10s %-20s %12s %12s %12s %12s\n", "Matrix", "graph", "CP/free",
              "FIFO/free", "CP/owner", "FIFO/owner");
  print_rule(100);
  for (const char* name : {"orsreg1", "goodwin"}) {
    NamedMatrix nm = make_named_matrix(name);
    for (auto kind : kinds) {
      Options opt;
      opt.task_graph = kind;
      Analysis an = analyze(nm.a, opt);
      rt::MachineModel m = rt::MachineModel::origin2000(8);
      auto run = [&](rt::SchedulePolicy pol, rt::MappingPolicy map) {
        return rt::simulate(an.graph, an.costs, m, pol, false, map).makespan;
      };
      std::printf("%-10s %-20s %12.3f %12.3f %12.3f %12.3f\n", name,
                  taskgraph::to_string(kind).c_str(),
                  run(rt::SchedulePolicy::kCriticalPath,
                      rt::MappingPolicy::kFreeSchedule),
                  run(rt::SchedulePolicy::kFifo, rt::MappingPolicy::kFreeSchedule),
                  run(rt::SchedulePolicy::kCriticalPath,
                      rt::MappingPolicy::kOwnerComputes),
                  run(rt::SchedulePolicy::kFifo,
                      rt::MappingPolicy::kOwnerComputes));
    }
  }
  print_rule(100);
  print_fuzz_variance_table();
  print_executor_scaling_table();
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_table)
