#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <stdexcept>

namespace simphony::util {

namespace {

/// True on the process-wide executor's workers.  Lets parallel_for run
/// a nested loop inline instead of queueing helpers behind the very
/// loop this thread is helping with.
thread_local bool t_executor_worker = false;

struct GlobalBulkCounters {
  std::atomic<uint64_t> dispatches{0};
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> chunks{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> items{0};
};

GlobalBulkCounters& global_counters() {
  static GlobalBulkCounters counters;
  return counters;
}

/// Shared state of one parallel_for dispatch.  The caller and every
/// helper job hold it through a shared_ptr: a helper that only starts
/// after its caller returned must still find `closed` to turn into a
/// no-op, and must never touch `ctx` (the caller's stack).
struct BulkControl {
  /// One contiguous slice of [0, n) owned by one participant.  The cursor
  /// is padded to its own cache line: neighbors' fetch_adds must not
  /// false-share.
  struct alignas(64) Segment {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  void (*invoke)(void*, size_t) = nullptr;
  void* ctx = nullptr;
  size_t chunk = 1;
  std::vector<Segment> segments;  // one per participant (helpers + caller)

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> chunks{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> items{0};

  std::mutex mutex;  // guards everything below
  std::condition_variable helpers_done;
  bool closed = false;  // the caller stopped admitting helpers
  size_t running = 0;   // helpers admitted and not yet finished
  std::exception_ptr error;
  size_t error_index = 0;
};

/// Claims and runs chunks: own segment first, then steals round-robin
/// from the others.  Returns once every segment is exhausted or a body
/// threw.
void bulk_work(BulkControl& control, size_t participant) noexcept {
  const size_t participants = control.segments.size();
  for (size_t offset = 0; offset < participants; ++offset) {
    BulkControl::Segment& segment =
        control.segments[(participant + offset) % participants];
    for (;;) {
      if (control.failed.load(std::memory_order_relaxed)) return;
      const size_t begin =
          segment.next.fetch_add(control.chunk, std::memory_order_relaxed);
      if (begin >= segment.end) break;
      const size_t end = std::min(begin + control.chunk, segment.end);
      control.chunks.fetch_add(1, std::memory_order_relaxed);
      if (offset != 0) control.steals.fetch_add(1, std::memory_order_relaxed);
      control.items.fetch_add(end - begin, std::memory_order_relaxed);
      for (size_t i = begin; i < end; ++i) {
        try {
          control.invoke(control.ctx, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(control.mutex);
          if (!control.error || i < control.error_index) {
            control.error_index = i;
            control.error = std::current_exception();
          }
          control.failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }
}

/// A helper job: joins its dispatch unless the caller already closed it.
void help(BulkControl& control, size_t participant) {
  {
    std::lock_guard<std::mutex> lock(control.mutex);
    if (control.closed) return;
    ++control.running;
  }
  bulk_work(control, participant);
  std::lock_guard<std::mutex> lock(control.mutex);
  if (--control.running == 0) control.helpers_done.notify_all();
}

/// Stops admitting helpers and waits for the admitted ones to finish.
/// Afterwards no helper can reach the dispatch's `ctx`.
void close(BulkControl& control) {
  std::unique_lock<std::mutex> lock(control.mutex);
  control.closed = true;
  control.helpers_done.wait(lock, [&control] { return control.running == 0; });
}

/// The process-wide worker set behind parallel_for.  Created on the first
/// pooled dispatch (a function-local static), joined at exit.
class Executor {
 public:
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    job_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Grows the worker set to at least `helpers` threads and queues one
  /// helper job per participant index in [1, helpers].
  void enqueue(const std::shared_ptr<BulkControl>& control, size_t helpers) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (workers_.size() < helpers) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      for (size_t p = 1; p <= helpers; ++p) jobs_.push_back({control, p});
    }
    for (size_t p = 0; p < helpers; ++p) job_ready_.notify_one();
  }

 private:
  struct Job {
    std::shared_ptr<BulkControl> control;
    size_t participant = 0;
  };

  Executor() = default;

  void worker_loop() {
    t_executor_worker = true;
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        job_ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stopping_ and drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      help(*job.control, job.participant);
    }
  }

  std::mutex mutex_;  // guards workers_, jobs_ and stopping_
  std::condition_variable job_ready_;
  std::deque<Job> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

unsigned ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

unsigned ThreadPool::workers_for(int requested, size_t max_useful) {
  if (requested < 0) {
    throw std::invalid_argument(
        "num_threads must be >= 0 (0 = one worker per hardware thread, "
        "1 = serial)");
  }
  size_t resolved = requested == 0 ? hardware_threads()
                                   : static_cast<size_t>(requested);
  resolved = std::min({resolved, max_useful, size_t{1024}});
  return resolved <= 1 ? 0u : static_cast<unsigned>(resolved);
}

void ThreadPool::worker_loop() {
  for (;;) {
    MoveOnlyTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // exceptions land in the task's promise, never escape here
  }
}

ThreadPool::BulkStats ThreadPool::global_bulk_stats() {
  GlobalBulkCounters& global = global_counters();
  BulkStats stats;
  stats.dispatches = global.dispatches.load(std::memory_order_relaxed);
  stats.tasks = global.tasks.load(std::memory_order_relaxed);
  stats.chunks = global.chunks.load(std::memory_order_relaxed);
  stats.steals = global.steals.load(std::memory_order_relaxed);
  stats.items = global.items.load(std::memory_order_relaxed);
  return stats;
}

namespace detail {

void run_bulk(size_t n, int num_threads, void (*invoke)(void*, size_t),
              void* ctx) {
  const size_t participants = ThreadPool::workers_for(num_threads, n);
  if (n == 0) return;
  GlobalBulkCounters& global = global_counters();
  global.dispatches.fetch_add(1, std::memory_order_relaxed);

  if (participants == 0 || t_executor_worker) {
    // Inline: one "chunk" on the calling thread; an exception propagates
    // directly, so indices after it never run (same contract as pooled).
    global.chunks.fetch_add(1, std::memory_order_relaxed);
    global.items.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) invoke(ctx, i);
    return;
  }

  const auto control = std::make_shared<BulkControl>();
  control->invoke = invoke;
  control->ctx = ctx;
  // ~8 chunks per participant balances steal granularity against cursor
  // traffic.
  control->chunk = n / (participants * 8) + (n % (participants * 8) != 0);
  control->segments = std::vector<BulkControl::Segment>(participants);
  for (size_t p = 0; p < participants; ++p) {
    control->segments[p].next.store(n * p / participants,
                                    std::memory_order_relaxed);
    control->segments[p].end = n * (p + 1) / participants;
  }

  const size_t helpers = participants - 1;
  try {
    Executor::instance().enqueue(control, helpers);
  } catch (...) {
    close(*control);  // no helper may reach `ctx` once this frame unwinds
    throw;
  }
  // The caller is the one participant certain to start at once, so it
  // owns the first segment.
  bulk_work(*control, 0);
  close(*control);

  global.tasks.fetch_add(helpers, std::memory_order_relaxed);
  global.chunks.fetch_add(control->chunks.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  global.steals.fetch_add(control->steals.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  global.items.fetch_add(control->items.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);

  // Take the error out of the control block, which a late helper job may
  // still hold: the exception object is then released on this thread.
  if (std::exception_ptr error = std::move(control->error)) {
    std::rethrow_exception(error);
  }
}

}  // namespace detail

}  // namespace simphony::util
