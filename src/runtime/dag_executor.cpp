#include "runtime/dag_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <random>
#include <thread>

#include "runtime/shared_runtime.h"
#include "taskgraph/analysis.h"

namespace plu::rt {

ExecutionReport execute_dag(const std::vector<std::vector<int>>& succ,
                            const std::vector<int>& indegree, int num_threads,
                            const std::function<void(int)>& run,
                            const ExecOptions& opt) {
  // The runtime keeps succ/indegree by pointer; this call keeps them (and
  // `run`) alive until the graph retired, and any worker exception is
  // rethrown here.
  SharedRuntime::GraphSpec spec;
  spec.succ = &succ;
  spec.indegree = &indegree;
  spec.run = run;
  spec.priorities = opt.priorities;
  spec.cancel = opt.cancel;
  if (opt.shared != nullptr) {
    spec.boost = opt.request_priority;
    return opt.shared->run_graph(std::move(spec));
  }
  return SharedRuntime::run_private(num_threads, std::move(spec));
}

ExecutionReport execute_dag_fuzzed(const std::vector<std::vector<int>>& succ,
                                   const std::vector<int>& indegree,
                                   int num_threads, const FuzzOptions& fuzz,
                                   const std::function<void(int)>& run) {
  ExecutionReport rep;
  const int n = static_cast<int>(succ.size());
  if (n == 0) {
    rep.completed = true;
    return rep;
  }
  num_threads = std::max(1, num_threads);

  // One shared ready list under a mutex: workers pop a random element (so
  // the schedule is not the FIFO order the queue would impose) and sleep a
  // random delay before running, widening the window in which unordered
  // tasks actually overlap.  Termination: all tasks done, or the ready list
  // drained with nothing in flight (cyclic remainder).
  CancelToken own_cancel;
  CancelToken* const token = fuzz.cancel ? fuzz.cancel : &own_cancel;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> indeg = indegree;
  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  long done = 0;
  int active = 0;
  bool stop = ready.empty();  // all-cyclic graph: nothing ever runs
  int error_task = 0;
  std::exception_ptr error;

  auto worker = [&](int tid) {
    std::mt19937_64 rng(fuzz.seed * 0x9E3779B97F4A7C15ull +
                        static_cast<std::uint64_t>(tid + 1) * 0x100000001B3ull);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return stop || !ready.empty(); });
      if (ready.empty()) {
        if (stop) return;
        continue;
      }
      const std::size_t pick = rng() % ready.size();
      std::swap(ready[pick], ready.back());
      const int id = ready.back();
      ready.pop_back();
      // Cancelled: drain the ready list without running or releasing.
      if (token->cancelled()) {
        if (ready.empty() && active == 0) {
          stop = true;
          cv.notify_all();
        }
        continue;
      }
      ++active;
      lock.unlock();
      if (fuzz.max_delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            rng() % static_cast<std::uint64_t>(fuzz.max_delay_us + 1)));
      }
      bool ran = false;
      try {
        run(id);
        ran = true;
      } catch (...) {
        lock.lock();
        if (!error || id < error_task) {
          error_task = id;
          error = std::current_exception();
        }
        lock.unlock();
        token->cancel();
      }
      lock.lock();
      --active;
      if (ran && !token->cancelled()) {
        ++done;
        for (int s : succ[id]) {
          if (--indeg[s] == 0) ready.push_back(s);
        }
      } else if (ran) {
        ++done;  // ran before cancellation tripped; no release
      }
      if (done == n || (ready.empty() && active == 0)) {
        stop = true;
        cv.notify_all();
      } else if (!ready.empty()) {
        cv.notify_all();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  rep.tasks_run = done;
  rep.cancelled = token->cancelled();
  rep.completed = done == n;
  return rep;
}

ExecutionReport execute_task_graph_fuzzed(const taskgraph::TaskGraph& g,
                                          int num_threads,
                                          const FuzzOptions& fuzz,
                                          const std::function<void(int)>& run) {
  if (g.size() != 0 && !taskgraph::is_acyclic(g)) return {};
  return execute_dag_fuzzed(g.succ, g.indegree, num_threads, fuzz, run);
}

ExecutionReport execute_task_graph(const taskgraph::TaskGraph& g, int num_threads,
                                   const std::function<void(int)>& run,
                                   const ExecOptions& opt) {
  if (g.size() != 0 && !taskgraph::is_acyclic(g)) return {};
  // Critical-path priority layer, computed once per execution: bottom
  // levels over the flop annotations taskgraph::build attaches at either
  // granularity (a task's priority is the weighted longest path from it to
  // a sink -- the classic list-scheduling priority).
  if (opt.priorities == nullptr &&
      g.flops.size() == static_cast<std::size_t>(g.size())) {
    std::vector<double> prio = taskgraph::bottom_levels(g, g.flops);
    ExecOptions with_prio = opt;
    with_prio.priorities = &prio;
    return execute_dag(g.succ, g.indegree, num_threads, run, with_prio);
  }
  return execute_dag(g.succ, g.indegree, num_threads, run, opt);
}

ExecutionReport execute_sequential(const taskgraph::TaskGraph& g,
                                   const std::function<void(int)>& run,
                                   const std::vector<int>& order) {
  ExecutionReport rep;
  std::vector<int> topo = order.empty() ? taskgraph::topological_order(g) : order;
  if (static_cast<int>(topo.size()) != g.size()) return rep;
  for (int id : topo) {
    run(id);
    ++rep.tasks_run;
  }
  rep.completed = true;
  return rep;
}

}  // namespace plu::rt
