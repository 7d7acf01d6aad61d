#include "runtime/shared_runtime.h"

#include <algorithm>

namespace plu::rt {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Pause iterations of the final backoff round before an idle worker parks.
constexpr int kMaxSpin = 256;

/// Run::state_ fields: one ran task in the high word, and the low word of
/// queued-or-running tasks.
constexpr std::int64_t kRanOne = std::int64_t(1) << 32;
constexpr std::int64_t kOutstandingMask = kRanOne - 1;

}  // namespace

ExecutionReport SharedRuntime::Run::wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return finished_; });
    // Taken, not copied, so the exception is freed on this thread: the Run
    // itself may be destroyed on a worker, and the exception's reference
    // count lives in the C++ runtime, where ThreadSanitizer cannot see it
    // order the two releases.
    error = std::move(error_);
  }
  if (error) std::rethrow_exception(error);
  return report_;
}

bool SharedRuntime::Run::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

SharedRuntime::SharedRuntime(int threads, int max_graphs)
    : SharedRuntime(threads, max_graphs, /*private_team=*/false) {
  start_threads(0);
}

SharedRuntime::SharedRuntime(int threads, int max_graphs, bool private_team)
    : max_graphs_(std::max(1, max_graphs)), private_team_(private_team) {
  slots_ = std::make_unique<std::atomic<Run*>[]>(max_graphs_);
  for (int s = 0; s < max_graphs_; ++s) {
    slots_[s].store(nullptr, std::memory_order_relaxed);
  }
  owners_.resize(max_graphs_);
  free_slots_.reserve(max_graphs_);
  for (int s = max_graphs_ - 1; s >= 0; --s) free_slots_.push_back(s);
  const int w = std::max(1, threads);
  workers_.reserve(w);
  for (int t = 0; t < w; ++t) {
    workers_.push_back(std::make_unique<Worker>(
        t, 0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(t) + 1)));
  }
}

void SharedRuntime::start_threads(int from) {
  for (int t = from; t < threads(); ++t) {
    workers_[t]->thread = std::thread([this, t] { worker_loop(t); });
  }
}

SharedRuntime::~SharedRuntime() {
  {
    std::unique_lock<std::mutex> lock(reg_mu_);
    drain_cv_.wait(lock, [&] { return active_ == 0; });
  }
  stop_workers();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void SharedRuntime::stop_workers() {
  shutdown_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(park_mu_);
  park_cv_.notify_all();
}

std::shared_ptr<SharedRuntime::Run> SharedRuntime::prepare(
    GraphSpec& spec, std::vector<int>& roots) {
  auto run = std::shared_ptr<Run>(new Run());
  const int n = static_cast<int>(spec.succ->size());
  run->succ_ = spec.succ;
  run->body_ = std::move(spec.run);
  run->cancel_ = spec.cancel ? spec.cancel : &run->own_cancel_;
  run->n_ = n;

  if (n > 0) {
    run->indeg_ = std::vector<std::atomic<int>>(n);
    for (int v = 0; v < n; ++v) {
      run->indeg_[v].store((*spec.indegree)[v], std::memory_order_relaxed);
      if ((*spec.indegree)[v] == 0) roots.push_back(v);
    }
  }
  // Degenerate graphs never touch the workers: report immediately.
  if (roots.empty()) {
    run->finished_ = true;
    run->report_.completed = n == 0;  // fully cyclic: nothing ever runs
    graphs_completed_.fetch_add(1, std::memory_order_relaxed);
    return run;
  }

  // Fold the per-request boost into NORMALIZED bottom levels so graphs of
  // very different sizes compare fairly (header comment).
  if (spec.priorities && static_cast<int>(spec.priorities->size()) == n) {
    double max_p = 0.0;
    for (double p : *spec.priorities) max_p = std::max(max_p, p);
    const double scale = max_p > 0.0 ? 1.0 / max_p : 0.0;
    run->prio_.resize(n);
    for (int v = 0; v < n; ++v) {
      run->prio_[v] = spec.boost + (*spec.priorities)[v] * scale;
    }
  } else if (spec.boost != 0.0) {
    run->prio_.assign(n, spec.boost);
  }
  run->state_.store(static_cast<std::int64_t>(roots.size()),
                    std::memory_order_relaxed);
  return run;
}

int SharedRuntime::publish(const std::shared_ptr<Run>& run) {
  int slot;
  {
    std::unique_lock<std::mutex> lock(reg_mu_);
    slot_cv_.wait(lock, [&] { return !free_slots_.empty(); });
    slot = free_slots_.back();
    free_slots_.pop_back();
    owners_[slot] = run;
    ++active_;
  }
  run->slot_ = slot;
  slots_[slot].store(run.get(), std::memory_order_release);
  return slot;
}

std::shared_ptr<SharedRuntime::Run> SharedRuntime::submit(GraphSpec spec) {
  std::vector<int> roots;
  std::shared_ptr<Run> run = prepare(spec, roots);
  if (run->finished_) return run;
  // Inject the roots FIFO, most critical first within this graph.
  if (!run->prio_.empty()) {
    std::stable_sort(roots.begin(), roots.end(), [&](int a, int b) {
      return run->prio_[a] > run->prio_[b];
    });
  }
  const int slot = publish(run);  // blocking = admission backpressure
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    for (int v : roots) inject_.push_back(pack(slot, v));
    inject_count_.store(static_cast<long>(inject_.size()),
                        std::memory_order_release);
  }
  wake_workers();
  return run;
}

ExecutionReport SharedRuntime::run_private(int threads, GraphSpec spec) {
  SharedRuntime team(threads, /*max_graphs=*/1, /*private_team=*/true);
  std::vector<int> roots;
  std::shared_ptr<Run> run = team.prepare(spec, roots);
  if (run->finished_) return run->wait();
  // Deal the roots round-robin for initial balance, swept in ascending
  // priority so each worker's LAST push -- the first it pops -- is its most
  // critical root.  No helper runs yet, so the caller may push into every
  // deque; starting the threads publishes the pushes to their owners.
  if (!run->prio_.empty()) {
    std::stable_sort(roots.begin(), roots.end(), [&](int a, int b) {
      return run->prio_[a] < run->prio_[b];
    });
  }
  const int slot = team.publish(run);
  const int w = team.threads();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    team.workers_[i % w]->deque.push(pack(slot, roots[i]));
  }
  team.start_threads(1);
  team.worker_loop(0);  // returns once the graph retired (finish_run)
  return run->wait();   // the destructor joins the helpers
}

void SharedRuntime::wake_workers() {
  wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
}

void SharedRuntime::worker_loop(int tid) {
  Worker& me = *workers_[tid];
  for (;;) {
    std::int64_t item = me.deque.pop();
    if (item < 0) item = steal(me);
    if (item < 0) item = take_injected();
    if (item >= 0) {
      run_item(me, item);
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    idle();
  }
}

void SharedRuntime::run_item(Worker& me, std::int64_t item) {
  const int slot = static_cast<int>(item >> 32);
  const int id = static_cast<int>(item & 0xFFFFFFFFll);
  // The item holds its graph live (outstanding > 0 until we decrement
  // below), so this dereference can never see a retired slot.
  Run* r = slots_[slot].load(std::memory_order_acquire);
  // Cooperative cancellation: once the token trips, queued tasks DRAIN here
  // -- no run, no dependence release -- so outstanding still reaches zero.
  bool ran = false;
  if (!r->cancel_->cancelled()) {
    try {
      r->body_(id);
      ran = true;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(r->err_mu_);
        if (!r->error_ || id < r->err_task_) {
          r->err_task_ = id;
          r->error_ = std::current_exception();
        }
      }
      r->cancel_->cancel();
    }
  }
  // Lock-free release: the release half of the acq_rel fetch_sub publishes
  // every write this task made; the worker that drops a successor's counter
  // to zero acquires them all (dag_executor.h, DESIGN.md).
  me.ready.clear();
  if (!r->cancel_->cancelled()) {
    for (int s : (*r->succ_)[id]) {
      if (r->indeg_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        me.ready.push_back(s);
      }
    }
  }
  if (me.ready.size() > 1 && !r->prio_.empty()) {
    // Ascending priority: the most critical successor is pushed last and
    // popped first -- the worker dives along this graph's critical path.
    std::stable_sort(me.ready.begin(), me.ready.end(), [&](int a, int b) {
      return r->prio_[a] < r->prio_[b];
    });
  }
  // One update per task: this task leaves the outstanding count, its
  // released successors join it, and a task that ran is counted.  It lands
  // BEFORE the successors are pushed, so the count only reaches zero when
  // nothing of the graph is queued anywhere or in flight (also the
  // cyclic-remainder exit), and `r` is not touched after it.
  const std::int64_t delta = (ran ? kRanOne : 0) +
                             static_cast<std::int64_t>(me.ready.size()) - 1;
  const std::int64_t after =
      r->state_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  if (!me.ready.empty()) {
    for (int s : me.ready) me.deque.push(pack(slot, s));
    wake_workers();
  } else if ((after & kOutstandingMask) == 0) {
    finish_run(r, static_cast<long>(after >> 32));
  }
}

void SharedRuntime::finish_run(Run* r, long tasks_run) {
  // Outstanding hit zero: no item for this graph exists in any deque or in
  // the injection queue, so the slot can be recycled.  Keep a strong ref
  // across the teardown -- dropping owners_[slot] must not free `r` while
  // this worker still touches it.
  ExecutionReport rep;
  rep.tasks_run = tasks_run;
  rep.cancelled = r->cancel_->cancelled();
  rep.completed = rep.tasks_run == r->n_;
  std::shared_ptr<Run> self;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    self = std::move(owners_[r->slot_]);
    slots_[r->slot_].store(nullptr, std::memory_order_relaxed);
    free_slots_.push_back(r->slot_);
    --active_;
    slot_cv_.notify_one();
    if (active_ == 0) drain_cv_.notify_all();
  }
  graphs_completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(r->mu_);
    r->report_ = rep;
    r->finished_ = true;
  }
  r->cv_.notify_all();
  // A private team runs exactly one graph: its retirement ends the team.
  if (private_team_) stop_workers();
}

std::int64_t SharedRuntime::steal(Worker& me) {
  const int w = static_cast<int>(workers_.size());
  if (w == 1) return WorkStealDeque64::kEmpty;
  // Two random victims, then a full sweep from a random start.  No priority
  // peek here -- see the header for the lifetime argument.
  for (int round = 0; round < 2; ++round) {
    int v = static_cast<int>(next_rand(me) % static_cast<std::uint64_t>(w - 1));
    v += (v >= me.id) ? 1 : 0;
    const std::int64_t r = workers_[v]->deque.steal();
    if (r >= 0) return r;
  }
  const int start = static_cast<int>(next_rand(me) % static_cast<std::uint64_t>(w));
  for (int i = 0; i < w; ++i) {
    const int v = (start + i) % w;
    if (v == me.id) continue;
    std::int64_t r = workers_[v]->deque.steal();
    if (r == WorkStealDeque64::kAbort) r = workers_[v]->deque.steal();
    if (r >= 0) return r;
  }
  return WorkStealDeque64::kEmpty;
}

std::int64_t SharedRuntime::take_injected() {
  if (inject_count_.load(std::memory_order_acquire) == 0) {
    return WorkStealDeque64::kEmpty;
  }
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (inject_.empty()) return WorkStealDeque64::kEmpty;
  const std::int64_t v = inject_.front();
  inject_.pop_front();
  inject_count_.store(static_cast<long>(inject_.size()),
                      std::memory_order_release);
  return v;
}

bool SharedRuntime::work_visible() const {
  if (inject_count_.load(std::memory_order_acquire) > 0) return true;
  for (const auto& w : workers_) {
    if (w->deque.size_hint() > 0) return true;
  }
  return false;
}

void SharedRuntime::idle() {
  // Exponential backoff: spin rounds of 1, 2, 4, ..., kMaxSpin pause
  // iterations, re-probing between rounds; yield each round so on an
  // oversubscribed core the worker actually holding work gets to run.
  for (int spins = 1; spins <= kMaxSpin; spins *= 2) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < spins; ++i) cpu_relax();
    if (work_visible()) return;
    std::this_thread::yield();
  }
  // Park.  Epoch protocol against lost wakeups: producers bump the epoch
  // AFTER making work visible, so either the probe below sees the work or
  // the epoch predicate is already true at the wait.
  const std::uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
  if (work_visible() || shutdown_.load(std::memory_order_acquire)) return;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    park_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             wake_epoch_.load(std::memory_order_seq_cst) != epoch;
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace plu::rt
