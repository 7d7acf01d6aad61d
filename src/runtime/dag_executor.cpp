#include "runtime/dag_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "runtime/shared_runtime.h"
#include "runtime/thread_pool.h"
#include "runtime/work_steal_deque.h"
#include "taskgraph/analysis.h"

namespace plu::rt {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// The work-stealing engine: one Chase-Lev deque per worker, lock-free
/// atomic indegree release, two-choice critical-path steal preference,
/// exponential backoff before parking.  One instance per execute() call --
/// the whole object lives on the calling thread's stack frame, so worker
/// threads never outlive the graph or the run closure.
class WorkStealEngine {
 public:
  WorkStealEngine(const std::vector<std::vector<int>>& succ,
                  const std::vector<int>& indegree, int num_threads,
                  const std::function<void(int)>& run,
                  const std::vector<double>* priorities, int max_spin,
                  CancelToken* cancel)
      : succ_(succ),
        run_(run),
        prio_(priorities && static_cast<int>(priorities->size()) ==
                                static_cast<int>(succ.size())
                  ? priorities
                  : nullptr),
        max_spin_(std::max(1, max_spin)),
        cancel_(cancel ? cancel : &own_cancel_),
        n_(static_cast<int>(succ.size())),
        indeg_(n_) {
    for (int v = 0; v < n_; ++v) {
      indeg_[v].store(indegree[v], std::memory_order_relaxed);
    }
    const int w = std::max(1, num_threads);
    workers_.reserve(w);
    for (int t = 0; t < w; ++t) {
      workers_.push_back(std::make_unique<Worker>(t, n_ / w + 8));
    }
  }

  ExecutionReport execute() {
    ExecutionReport rep;
    if (n_ == 0) {
      rep.completed = true;
      return rep;
    }
    // Seed the deques with the roots: dealt round-robin for initial balance,
    // swept in ascending priority order so each worker's LAST push -- the
    // first it will pop -- is its most critical root.
    std::vector<int> roots;
    for (int v = 0; v < n_; ++v) {
      if (indeg_[v].load(std::memory_order_relaxed) == 0) roots.push_back(v);
    }
    if (roots.empty()) return rep;  // fully cyclic: nothing ever runs
    sort_ascending_priority(roots);
    outstanding_.store(static_cast<long>(roots.size()),
                       std::memory_order_relaxed);
    const int w = static_cast<int>(workers_.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      workers_[i % w]->deque.push(roots[i]);
    }

    std::vector<std::thread> threads;
    threads.reserve(w - 1);
    for (int t = 1; t < w; ++t) {
      threads.emplace_back([this, t] { worker_loop(t); });
    }
    worker_loop(0);
    for (std::thread& th : threads) th.join();

    // Worker-exception safety: rethrow the captured exception on the
    // calling thread, AFTER every worker has been joined (no thread touches
    // the engine or the run closure past this point).
    if (error_) std::rethrow_exception(error_);
    rep.tasks_run = done_.load(std::memory_order_relaxed);
    rep.cancelled = cancel_->cancelled();
    rep.completed = rep.tasks_run == n_;
    return rep;
  }

 private:
  struct alignas(64) Worker {
    Worker(int id_, std::int64_t cap_hint)
        : id(id_),
          deque(cap_hint),
          rng(0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(id_) + 1)) {}
    const int id;
    WorkStealDeque deque;
    std::mt19937_64 rng;
    std::vector<int> ready;  // scratch for newly released successors
  };

  void sort_ascending_priority(std::vector<int>& ids) const {
    if (!prio_) return;
    std::stable_sort(ids.begin(), ids.end(), [this](int a, int b) {
      return (*prio_)[a] < (*prio_)[b];
    });
  }

  void worker_loop(int tid) {
    Worker& me = *workers_[tid];
    while (!stop_.load(std::memory_order_acquire)) {
      int id = me.deque.pop();
      if (id < 0) id = steal(me);
      if (id >= 0) {
        run_task(me, id);
        continue;
      }
      idle();
    }
  }

  void run_task(Worker& me, int id) {
    // Cooperative cancellation: once the token trips, queued tasks DRAIN
    // here -- no run, no dependence release -- so outstanding_ still
    // reaches zero and the engine terminates cleanly.
    if (!cancel_->cancelled()) {
      try {
        run_(id);
        done_.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        capture_error(id, std::current_exception());
        cancel_->cancel();
      }
    }
    // Lock-free release: the release half of the acq_rel fetch_sub publishes
    // every write this task made; the worker that drops a successor's
    // counter to zero acquires them all (dag_executor.h, DESIGN.md).
    me.ready.clear();
    if (!cancel_->cancelled()) {
      for (int s : succ_[id]) {
        if (indeg_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          me.ready.push_back(s);
        }
      }
    }
    if (!me.ready.empty()) {
      // Ascending priority: the most critical successor is pushed last and
      // popped first, so this worker dives along the critical path.
      sort_ascending_priority(me.ready);
      outstanding_.fetch_add(static_cast<long>(me.ready.size()),
                             std::memory_order_relaxed);
      for (int s : me.ready) me.deque.push(s);
      wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> lock(park_mu_);
        park_cv_.notify_all();
      }
    }
    // This task is done: outstanding_ counts ready-or-running tasks, so the
    // successors were added BEFORE our own decrement -- the counter can only
    // reach zero when no task is queued anywhere and none is in flight
    // (which is also the cyclic-remainder exit).
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      stop_.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(park_mu_);
      park_cv_.notify_all();
    }
  }

  int pick_victim(Worker& me) {
    const int w = static_cast<int>(workers_.size());
    int v = static_cast<int>(me.rng() % static_cast<std::uint64_t>(w - 1));
    return v + (v >= me.id ? 1 : 0);  // uniform over the other workers
  }

  int steal(Worker& me) {
    const int w = static_cast<int>(workers_.size());
    if (w == 1) return WorkStealDeque::kEmpty;
    // Two-choice with critical-path preference: peek the oldest task of two
    // random victims and hit the one whose task has the higher bottom-level
    // priority first (the hint is racy; staleness only mis-prioritizes).
    for (int round = 0; round < 2; ++round) {
      int v1 = pick_victim(me);
      int v2 = pick_victim(me);
      if (prio_ && v1 != v2) {
        const int t1 = workers_[v1]->deque.peek_top();
        const int t2 = workers_[v2]->deque.peek_top();
        const double p1 = t1 >= 0 ? (*prio_)[t1] : -1.0;
        const double p2 = t2 >= 0 ? (*prio_)[t2] : -1.0;
        if (p2 > p1) std::swap(v1, v2);
      }
      for (int v : {v1, v2}) {
        const int r = workers_[v]->deque.steal();
        if (r >= 0) return r;
      }
    }
    // Full sweep from a random start so a lone loaded victim is found.
    const int start = static_cast<int>(me.rng() % static_cast<std::uint64_t>(w));
    for (int i = 0; i < w; ++i) {
      const int v = (start + i) % w;
      if (v == me.id) continue;
      int r = workers_[v]->deque.steal();
      if (r == WorkStealDeque::kAbort) r = workers_[v]->deque.steal();
      if (r >= 0) return r;
    }
    return WorkStealDeque::kEmpty;
  }

  bool work_visible() const {
    for (const auto& w : workers_) {
      if (w->deque.size_hint() > 0) return true;
    }
    return false;
  }

  void idle() {
    // Exponential backoff: spin rounds of 1, 2, 4, ..., max_spin pause
    // iterations, re-probing between rounds; yield each round so on an
    // oversubscribed core the worker actually holding work gets to run.
    for (int spins = 1; spins <= max_spin_; spins *= 2) {
      if (stop_.load(std::memory_order_acquire)) return;
      for (int i = 0; i < spins; ++i) cpu_relax();
      if (work_visible()) return;  // back to the caller's pop/steal loop
      std::this_thread::yield();
    }
    // Park.  Epoch protocol against lost wakeups: a producer bumps the
    // epoch AFTER pushing, so either we see its work in the probe below or
    // the epoch predicate is already true when we reach the wait.
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
    if (work_visible() || stop_.load(std::memory_order_acquire)) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               wake_epoch_.load(std::memory_order_seq_cst) != epoch;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Keeps the exception of the LOWEST task id among those that threw, so
  /// the reported error is deterministic whenever a single task fails
  /// (cancellation usually prevents more than one from running anyway).
  void capture_error(int id, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_ || id < error_task_) {
      error_task_ = id;
      error_ = std::move(e);
    }
  }

  const std::vector<std::vector<int>>& succ_;
  const std::function<void(int)>& run_;
  const std::vector<double>* prio_;
  const int max_spin_;
  CancelToken own_cancel_;  // used when the caller passed no token
  CancelToken* const cancel_;
  const int n_;
  std::vector<std::atomic<int>> indeg_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex error_mu_;
  int error_task_ = 0;
  std::exception_ptr error_;

  std::atomic<long> outstanding_{0};  // tasks queued or in flight
  std::atomic<long> done_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

/// The ablation baseline: every ready-task handoff goes through one
/// mutex/condvar FIFO queue (ThreadPool), self-submitting closures enqueue
/// newly released successors.
ExecutionReport execute_dag_central(const std::vector<std::vector<int>>& succ,
                                    const std::vector<int>& indegree,
                                    int num_threads,
                                    const std::function<void(int)>& run,
                                    CancelToken* cancel) {
  ExecutionReport rep;
  const int n = static_cast<int>(succ.size());
  if (n == 0) {
    rep.completed = true;
    return rep;
  }

  CancelToken own_cancel;
  CancelToken* const token = cancel ? cancel : &own_cancel;
  std::vector<std::atomic<int>> indeg(n);
  for (int v = 0; v < n; ++v) indeg[v].store(indegree[v], std::memory_order_relaxed);
  std::atomic<long> done{0};
  std::mutex error_mu;
  int error_task = 0;
  std::exception_ptr error;

  ThreadPool pool(num_threads);
  // self-submitting closure: running a task enqueues its newly-ready succs.
  // Once the token trips, queued closures drain without running or
  // releasing, so wait_idle() still returns.  An exception is captured (the
  // ThreadPool's workers would std::terminate otherwise), cancels the run,
  // and is rethrown on the submitting thread below.
  std::function<void(int)> run_task = [&](int id) {
    if (!token->cancelled()) {
      try {
        run(id);
        done.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error || id < error_task) {
            error_task = id;
            error = std::current_exception();
          }
        }
        token->cancel();
      }
    }
    if (token->cancelled()) return;
    for (int s : succ[id]) {
      if (indeg[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pool.submit([&run_task, s] { run_task(s); });
      }
    }
  };
  for (int v = 0; v < n; ++v) {
    if (indegree[v] == 0) {
      pool.submit([&run_task, v] { run_task(v); });
    }
  }
  pool.wait_idle();
  if (error) std::rethrow_exception(error);
  rep.tasks_run = done.load();
  rep.cancelled = token->cancelled();
  rep.completed = rep.tasks_run == n;
  return rep;
}

}  // namespace

const char* to_string(ExecutorKind k) {
  return k == ExecutorKind::kWorkStealing ? "work-stealing" : "central-queue";
}

ExecutionReport execute_dag(const std::vector<std::vector<int>>& succ,
                            const std::vector<int>& indegree, int num_threads,
                            const std::function<void(int)>& run,
                            const ExecOptions& opt) {
  if (opt.shared != nullptr) {
    // Multi-DAG path: hand the graph to the persistent pool and block.  The
    // pool owns the worker team; this call keeps succ/indegree/run alive
    // for the duration, and wait() rethrows any worker exception here.
    SharedRuntime::GraphSpec spec;
    spec.succ = &succ;
    spec.indegree = &indegree;
    spec.run = run;
    spec.priorities = opt.priorities;
    spec.boost = opt.request_priority;
    spec.cancel = opt.cancel;
    return opt.shared->run_graph(std::move(spec));
  }
  if (opt.kind == ExecutorKind::kCentralQueue) {
    return execute_dag_central(succ, indegree, num_threads, run, opt.cancel);
  }
  WorkStealEngine engine(succ, indegree, num_threads, run, opt.priorities,
                         opt.max_spin, opt.cancel);
  return engine.execute();
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
  if ((opt.kind == ExecutorKind::kWorkStealing || opt.shared != nullptr) &&
      opt.priorities == nullptr &&
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
