// In-memory span recorder for the benchmark's traced pass.
//
// A Span brackets one call from the harness into a layer's public
// function.  Spans nest per thread (the innermost open span is the
// parent), and every span of one benchmark operation carries that
// operation's request id.  Nothing is written while the workload runs:
// the records stay in memory until the harness summarizes them and
// writes the trace file at the end.
//
// With no Tracer installed (the untraced pass) a Span only reads the
// clock, so the same helpers serve both passes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t request = 0;
  uint64_t thread = 0;
};

class Tracer {
 public:
  void record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{0};
};

/// The installed recorder; nullptr in the untraced pass.
inline Tracer* g_tracer = nullptr;

namespace detail {
inline thread_local std::vector<uint64_t> open_spans;
inline thread_local uint64_t current_request = 0;
inline thread_local uint64_t thread_index = 0;
}  // namespace detail

/// Labels the spans this thread records from now on (trace "tid").
inline void set_trace_thread(uint64_t index) { detail::thread_index = index; }

class Span {
 public:
  explicit Span(const char* name) : name_(name), start_ns_(now_ns()) {
    if (g_tracer != nullptr) {
      id_ = g_tracer->next_id();
      parent_ = detail::open_spans.empty() ? 0 : detail::open_spans.back();
      detail::open_spans.push_back(id_);
    }
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  int64_t close() {
    if (open_) {
      open_ = false;
      const int64_t end = now_ns();
      duration_ns_ = end - start_ns_;
      if (g_tracer != nullptr) {
        detail::open_spans.pop_back();
        g_tracer->record(SpanRecord{name_, start_ns_, end, id_, parent_,
                                    detail::current_request,
                                    detail::thread_index});
      }
    }
    return duration_ns_;
  }

 private:
  const char* name_;
  int64_t start_ns_;
  int64_t duration_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool open_ = true;
};

/// One benchmark operation: sets the request id shared by its spans and
/// opens the root span (named "op") that the layer spans nest under.
class Operation {
 public:
  explicit Operation(uint64_t request)
      : previous_(std::exchange(detail::current_request, request)),
        root_("op") {}
  ~Operation() {
    root_.close();
    detail::current_request = previous_;
  }
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

 private:
  uint64_t previous_;  // declared first: set before root_ opens
  Span root_;
};

/// Per-name self times of a finished trace.  A span's self time is its
/// duration minus the time its direct children cover.
struct TraceSummary {
  std::map<std::string, double> self_ns;  // spans inside "op" roots
  std::map<std::string, std::pair<double, size_t>> root_ns;  // other roots
  double op_ns = 0.0;       // summed wall time of the "op" roots
  double op_self_ns = 0.0;  // the part of it no layer span covers
  size_t ops = 0;
};

inline TraceSummary summarize(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, double> child_ns;
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  // Which root each span belongs to, so probe roots (ping, handle) stay
  // out of the per-operation self times.
  auto root_of = [&](const SpanRecord* s) {
    while (s->parent != 0) {
      const auto it = by_id.find(s->parent);
      if (it == by_id.end()) break;
      s = it->second;
    }
    return s;
  };
  TraceSummary summary;
  for (const SpanRecord& s : spans) {
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    const double self = duration - child_ns[s.id];
    const std::string name = s.name;
    if (s.parent == 0) {
      if (name == "op") {
        summary.op_ns += duration;
        summary.op_self_ns += self;
        ++summary.ops;
      } else {
        auto& [total, count] = summary.root_ns[name];
        total += duration;
        ++count;
      }
      continue;
    }
    if (std::string(root_of(&s)->name) == "op") summary.self_ns[name] += self;
  }
  return summary;
}

}  // namespace perfbench
