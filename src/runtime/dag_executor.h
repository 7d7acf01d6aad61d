// Shared-memory execution of a task dependence graph.
//
// Dependences are enforced with atomic indegree counters: a finished task
// decrements each successor's counter (release) and the worker that drops a
// counter to zero acquires the task -- the release/acquire pair on the
// counter makes every predecessor's writes visible before the successor
// runs (see DESIGN.md, "The work-stealing runtime").  Tasks left unordered
// by the graph (updates from independent subtrees) touch disjoint blocks --
// Theorem 4 / verify_candidate_disjointness -- so no additional
// synchronization is required beyond what the numeric layer chooses to
// take.
//
// Every threaded run executes on the work-stealing runtime
// (runtime/shared_runtime.h): per-worker Chase-Lev deques, successors pushed
// in ascending critical-path priority and popped LIFO, randomized FIFO
// steals, exponential backoff before parking.  Without ExecOptions::shared
// a run gets a private team for the call -- the calling thread is worker 0
// and no thread outlives the call; with it, the graph joins a persistent
// multi-DAG pool.  The fuzzed executors below are the schedule-perturbing
// reference of the race harness, and execute_sequential the one-thread
// reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "taskgraph/build.h"

namespace plu::rt {

/// Cooperative cancellation of a DAG execution.  Any task body (or an
/// outside observer) may call cancel(); from then on the executors stop
/// releasing dependences, so every already-queued task drains WITHOUT
/// running and no new task becomes ready.  Tasks already in flight finish
/// normally -- nothing is interrupted mid-kernel, so the shared state a
/// task was mutating is never torn.  The numeric drivers use this to stop
/// the factorization at the first pivot breakdown (core/status.h).
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> flag_{false};
};

struct ExecutionReport {
  long tasks_run = 0;
  bool completed = false;  // false if the graph was cyclic or cancelled
  bool cancelled = false;  // the run was stopped by a CancelToken (or by a
                           // worker exception, which cancels before rethrow)
};

class SharedRuntime;  // runtime/shared_runtime.h: persistent multi-DAG pool

/// Policy knobs for execute_dag / execute_task_graph.
struct ExecOptions {
  /// When set, the graph is NOT run on a private worker team: it is
  /// submitted to this persistent multi-DAG runtime and the calling thread
  /// blocks until it completes, so DAGs from concurrent callers interleave
  /// on one shared pool (the solver-service path).  `num_threads` is
  /// ignored -- the pool's size applies; priorities, cancellation and the
  /// rethrow-on-caller exception contract carry over unchanged.
  SharedRuntime* shared = nullptr;
  /// Per-request priority fold for the shared runtime: added to this
  /// graph's normalized critical-path priorities, so a caller can bias the
  /// pool toward (or away from) its request.  Ignored without `shared`.
  double request_priority = 0.0;
  /// Per-task priorities, higher = schedule earlier (size n or empty).
  /// When empty, execute_task_graph derives critical-path bottom levels
  /// from the graph's flop annotations; execute_dag treats all tasks equal.
  const std::vector<double>* priorities = nullptr;
  /// Optional cooperative cancellation: when the token is cancelled the
  /// executor stops releasing dependences and drains queued tasks without
  /// running them (ExecutionReport::cancelled).  A worker exception cancels
  /// the same token, so the caller can observe WHY a run stopped early.
  CancelToken* cancel = nullptr;
};

/// Schedule perturbation for the fuzzed executors: instead of the pop order
/// the scheduler happens to produce, workers pop a seed-determined RANDOM
/// ready task and may sleep a random delay before running it, so repeated
/// runs explore many legal interleavings of the unordered tasks (the ones
/// Theorem 4 leaves unordered).  Used by the concurrency-correctness tier
/// (tests/test_race_harness.cpp, ctest -L sanitize).
struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Maximum injected pre-task delay in microseconds (uniform in
  /// [0, max_delay_us]; 0 disables delays and only shuffles pop order).
  int max_delay_us = 50;
  /// Same cooperative cancellation contract as ExecOptions::cancel.
  CancelToken* cancel = nullptr;
};

/// Executes the graph on `num_threads` threads (the caller plus
/// `num_threads - 1` helpers started for the call), invoking run(task_id)
/// for each task after all its predecessors finished.  Critical-path
/// priorities come from the graph's flop annotations unless `opt` supplies
/// them.
///
/// Worker-exception safety: if run(id) throws, the exception is captured
/// via std::exception_ptr, the execution is cancelled (queued tasks drain
/// without running, dependences stop being released), the helper threads
/// are joined, and the exception is RETHROWN on the calling thread -- never
/// std::terminate.  When several in-flight tasks throw, the exception of
/// the lowest task id among those that actually ran wins, so a single
/// failing task reports deterministically across schedules.
ExecutionReport execute_task_graph(const taskgraph::TaskGraph& g, int num_threads,
                                   const std::function<void(int)>& run,
                                   const ExecOptions& opt = {});

/// Graph-shape-agnostic variant: any DAG as successor lists + indegrees
/// (used by the parallel triangular solves and the 2-D experiments).  A
/// cyclic graph runs the acyclic prefix exactly once and reports
/// completed == false.
ExecutionReport execute_dag(const std::vector<std::vector<int>>& succ,
                            const std::vector<int>& indegree, int num_threads,
                            const std::function<void(int)>& run,
                            const ExecOptions& opt = {});

/// Like execute_task_graph, but with the fuzzed ready-queue discipline of
/// `fuzz`.  Same completion semantics; different (still legal) interleaving
/// per seed.
ExecutionReport execute_task_graph_fuzzed(const taskgraph::TaskGraph& g,
                                          int num_threads, const FuzzOptions& fuzz,
                                          const std::function<void(int)>& run);

/// Fuzzed variant of execute_dag.  A cyclic graph runs the acyclic prefix
/// and reports completed == false (no task runs twice).
ExecutionReport execute_dag_fuzzed(const std::vector<std::vector<int>>& succ,
                                   const std::vector<int>& indegree,
                                   int num_threads, const FuzzOptions& fuzz,
                                   const std::function<void(int)>& run);

/// Sequential reference execution in a given topological order (or the
/// default one when `order` is empty).
ExecutionReport execute_sequential(const taskgraph::TaskGraph& g,
                                   const std::function<void(int)>& run,
                                   const std::vector<int>& order = {});

}  // namespace plu::rt
