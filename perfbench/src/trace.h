// In-memory span recorder for the traced run.  A Span is opened around a
// call into one library layer; it records name, start, end, parent span
// and op id, and is written out as Chrome trace-event JSON at exit.  When
// tracing is off a Span costs one branch.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1: a root span
  long op = -1;     // the workload op the span belongs to (-1: set-up)
  int tid = 0;      // small per-thread index
  const char* name = "";
  double start_s = 0.0;  // seconds since the tracer started
  double end_s = 0.0;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  /// True when spans opened on this thread are recorded.
  bool enabled() const { return enabled_ && !suppressed(); }
  void enable() { enabled_ = true; }
  /// Per-thread switch: the traced run times some ops with spans off, to
  /// measure the tracing overhead against the same code.
  static bool& suppressed() {
    thread_local bool off = false;
    return off;
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Reserves a span id; the record is stored when the span closes.
  int open() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  void close(SpanRecord r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
  }

  /// Snapshot of every closed span.
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Per-span self time: duration minus the union of its children's
  /// intervals (clipped to the span), indexed like spans().
  static std::vector<double> self_times(const std::vector<SpanRecord>& s) {
    std::map<int, std::size_t> at;
    for (std::size_t i = 0; i < s.size(); ++i) at[s[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> kids(s.size());
    for (const SpanRecord& r : s) {
      auto p = at.find(r.parent);
      if (p != at.end()) kids[p->second].push_back({r.start_s, r.end_s});
    }
    std::vector<double> self(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s[i].start_s);
        hi = std::min(hi, s[i].end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[i] = (s[i].end_s - s[i].start_s) - covered;
    }
    return self;
  }

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::vector<SpanRecord> s = spans();
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < s.size(); ++i) {
      const SpanRecord& r = s[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                   "\"parent\":%d,\"op\":%ld}}%s\n",
                   r.name, r.tid, r.start_s * 1e6,
                   (r.end_s - r.start_s) * 1e6, r.id, r.parent, r.op,
                   i + 1 < s.size() ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

  /// The op id spans opened on this thread are attributed to.
  static long& current_op() {
    thread_local long op = -1;
    return op;
  }
  static int& current_parent() {
    thread_local int parent = -1;
    return parent;
  }
  int thread_index() {
    thread_local int idx = -1;
    if (idx < 0) {
      std::lock_guard<std::mutex> lock(mu_);
      idx = next_tid_++;
    }
    return idx;
  }

 private:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  int next_id_ = 0;
  int next_tid_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span; nests under the span open on the same thread.
class Span {
 public:
  explicit Span(const char* name) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    active_ = true;
    rec_.id = t.open();
    rec_.parent = Tracer::current_parent();
    rec_.op = Tracer::current_op();
    rec_.tid = t.thread_index();
    rec_.name = name;
    Tracer::current_parent() = rec_.id;
    rec_.start_s = t.now();
  }
  ~Span() {
    if (!active_) return;
    Tracer& t = Tracer::get();
    rec_.end_s = t.now();
    Tracer::current_parent() = rec_.parent;
    t.close(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records a closed child of this span on the same thread, from
  /// `start_s` to `end_s` (tracer clock): a phase whose time the library
  /// measured itself.  No-op when this span is not recorded.
  void add_child(const char* name, double start_s, double end_s) const {
    if (!active_) return;
    Tracer& t = Tracer::get();
    SpanRecord c = rec_;
    c.id = t.open();
    c.parent = rec_.id;
    c.name = name;
    c.start_s = start_s;
    c.end_s = end_s;
    t.close(c);
  }
  /// Start of the span on the tracer clock (0 when not recorded).
  double start_s() const { return rec_.start_s; }

 private:
  bool active_ = false;
  SpanRecord rec_;
};

/// Sets the op id of spans opened on this thread for its lifetime.
class OpScope {
 public:
  explicit OpScope(long op) : saved_(Tracer::current_op()) {
    Tracer::current_op() = op;
  }
  ~OpScope() { Tracer::current_op() = saved_; }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  long saved_;
};

}  // namespace perfbench
