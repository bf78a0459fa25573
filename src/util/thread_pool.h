// Two executors.
//
// ThreadPool is a fixed-size FIFO queue of move-only tasks (submit) for
// coarse, independent jobs — the Engine's admission pool.  The queue
// stores move-only callables directly (small-buffer storage, no
// shared_ptr + std::function double indirection), so the per-task
// overhead is one lock plus the future's shared state.
//
// parallel_for() is the one bulk loop: the explore point loop and
// simulate_batch's model loop run on it.  The index range is split into
// one contiguous segment per participant (the calling thread plus
// helpers), each participant claims fixed-size chunks from its own
// segment through an atomic cursor, and a participant whose segment runs
// dry steals chunks from the others.  No per-item allocation, no
// per-item lock.  Determinism contract: body(i) runs exactly once for
// every i < n (no exception), and callers that write to index i's slot
// get bit-identical results for any participant count — which indices
// share a chunk affects timing only.
//
// The helpers are the workers of one process-wide executor, created on
// the first pooled dispatch.  It grows to the largest participant count
// any dispatch asked for (minus the caller), never shrinks, and joins at
// exit.  Dispatches from different threads share it: a caller drains
// every segment of its own loop itself and then waits only for helpers
// that actually started, so it never waits on helper tasks still queued
// behind another caller's work.  A helper that starts after its caller
// has finished finds the dispatch closed and does nothing.  A
// parallel_for issued from inside an executor worker runs inline.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace simphony::util {

/// Type-erased move-only nullary callable with small-buffer storage.
/// Callables up to kInlineBytes that are nothrow-move-constructible live
/// inside the task object (no heap allocation — a std::packaged_task
/// handle fits); larger ones fall back to a single heap allocation.
class MoveOnlyTask {
 public:
  MoveOnlyTask() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveOnlyTask>>>
  MoveOnlyTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      vtable_ = inline_vtable<Fn>();
    } else {
      heap_ = new Fn(std::forward<F>(f));
      vtable_ = heap_vtable<Fn>();
    }
  }

  MoveOnlyTask(MoveOnlyTask&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ == nullptr) return;
    if (vtable_->relocate != nullptr) {
      vtable_->relocate(other.inline_, inline_);
    } else {
      heap_ = other.heap_;
      other.heap_ = nullptr;
    }
    other.vtable_ = nullptr;
  }

  MoveOnlyTask& operator=(MoveOnlyTask&& other) noexcept {
    if (this == &other) return *this;
    destroy();
    ::new (static_cast<void*>(this)) MoveOnlyTask(std::move(other));
    return *this;
  }

  MoveOnlyTask(const MoveOnlyTask&) = delete;
  MoveOnlyTask& operator=(const MoveOnlyTask&) = delete;

  ~MoveOnlyTask() { destroy(); }

  void operator()() {
    vtable_->call(vtable_->relocate != nullptr ? inline_ : heap_);
  }

  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*call)(void* obj);
    void (*destroy)(void* obj);
    /// Move-construct into dst and destroy src; null for heap storage
    /// (the heap pointer is stolen instead).
    void (*relocate)(void* src, void* dst);
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable table = {
        [](void* obj) { (*static_cast<Fn*>(obj))(); },
        [](void* obj) { static_cast<Fn*>(obj)->~Fn(); },
        [](void* src, void* dst) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
    };
    return &table;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static constexpr VTable table = {
        [](void* obj) { (*static_cast<Fn*>(obj))(); },
        [](void* obj) { delete static_cast<Fn*>(obj); },
        nullptr,
    };
    return &table;
  }

  void destroy() {
    if (vtable_ == nullptr) return;
    vtable_->destroy(vtable_->relocate != nullptr ? inline_ : heap_);
    vtable_ = nullptr;
  }

  static constexpr size_t kInlineBytes = 56;
  alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
  void* heap_ = nullptr;
  const VTable* vtable_ = nullptr;
};

class ThreadPool {
 public:
  /// Cumulative parallel_for accounting over the process (for the
  /// thread-scaling bench counters — see docs/performance.md).  `tasks`
  /// counts the helper jobs enqueued (tasks / dispatches is the
  /// per-dispatch fan-out, participants - 1 for a pooled dispatch, 0
  /// inline); `chunks` the chunk claims that yielded work; `steals` the
  /// chunks a participant claimed from another participant's segment;
  /// `items` the body invocations.
  struct BulkStats {
    uint64_t dispatches = 0;
    uint64_t tasks = 0;
    uint64_t chunks = 0;
    uint64_t steals = 0;
    uint64_t items = 0;
  };

  /// Spawns `num_threads` workers.  0 means no workers: submit() runs
  /// inline on the calling thread.
  explicit ThreadPool(unsigned num_threads);

  /// Joins all workers; tasks already queued are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  [[nodiscard]] size_t size() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to return 0 when undetectable).
  [[nodiscard]] static unsigned hardware_threads();

  /// Maps an options-level thread-count request onto a thread count.
  /// Every `num_threads` knob (CommonOptions, Engine::Options) resolves
  /// through this one function, so `0` means exactly one thing at the
  /// options layer — "one thread per hardware thread" — and the pool's
  /// own `0 = inline` convention never leaks upward:
  ///
  ///   requested <  0  ->  std::invalid_argument
  ///   requested == 0  ->  hardware_threads()
  ///   requested == 1  ->  0 (serial: inline execution)
  ///   requested >= 2  ->  requested
  ///
  /// The result is clamped to `max_useful` (never more threads than work
  /// items) and to a hard cap of 1024; a clamp down to <= 1 also
  /// degenerates to inline execution.  For parallel_for a nonzero
  /// result is the participant count, the calling thread included; for
  /// a ThreadPool it is the worker count.
  [[nodiscard]] static unsigned workers_for(int requested, size_t max_useful);

  /// Enqueues a nullary callable; the returned future yields its result or
  /// rethrows its exception.  Safe to call from multiple threads.  The
  /// callable may be move-only (e.g. capture a unique_ptr).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> packaged(std::forward<F>(task));
    std::future<R> result = packaged.get_future();
    if (workers_.empty()) {
      packaged();
      return result;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace(std::move(packaged));
    }
    task_ready_.notify_one();
    return result;
  }

  /// Process-wide parallel_for counters.
  [[nodiscard]] static BulkStats global_bulk_stats();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<MoveOnlyTask> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
};

namespace detail {
void run_bulk(size_t n, int num_threads, void (*invoke)(void*, size_t),
              void* ctx);
}  // namespace detail

/// Runs body(i) exactly once for every i in [0, n) and returns when every
/// index has run.  `num_threads` follows ThreadPool::workers_for and
/// counts participants, the calling thread included (1 = a plain serial
/// loop on the caller; negative throws std::invalid_argument before any
/// index runs).  `body` must be invocable concurrently from multiple
/// threads; writes it makes to index-addressed slots are bit-identical
/// for any participant count.
///
/// Runs inline when the request resolves to one participant, or when
/// called from inside an executor worker (a nested loop gains nothing
/// over the outer one that already keeps the workers busy).
///
/// On an exception from `body`, no new chunks are claimed, in-flight
/// chunks stop at their next index boundary, and the exception of the
/// lowest failing index is rethrown here; indices after the failure may
/// never run.
template <typename F>
void parallel_for(size_t n, int num_threads, F&& body) {
  using Fn = std::remove_reference_t<F>;
  detail::run_bulk(
      n, num_threads, [](void* ctx, size_t i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace simphony::util
