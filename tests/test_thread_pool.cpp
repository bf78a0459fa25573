#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace simphony::util {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  auto future = pool.submit([caller] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 41 + 1;
  });
  // Inline mode completes before submit() returns.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> executed;  // only the worker touches it
  std::vector<std::future<void>> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(pool.submit([&executed, i] { executed.push_back(i); }));
  }
  for (auto& f : pending) f.get();
  std::vector<int> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(executed, expected);
}

TEST(ThreadPool, ManyWorkersCompleteAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr int kTasks = 500;
  std::atomic<int> ran{0};
  std::vector<std::future<int>> pending;
  pending.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pending.push_back(pool.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(pending[static_cast<size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  for (unsigned workers : {0u, 1u, 3u}) {
    // The pool is joined before get(), so the future is the task state's
    // only owner and the exception object is released on this thread.  A
    // worker dropping the last reference would be correct too, but
    // ThreadSanitizer cannot see that ordering: the refcount lives in the
    // uninstrumented runtime library.
    std::future<int> bad;
    {
      ThreadPool pool(workers);
      auto ok = pool.submit([] { return 7; });
      bad = pool.submit(
          []() -> int { throw std::runtime_error("task failed"); });
      EXPECT_EQ(ok.get(), 7);
    }
    EXPECT_THROW(
        {
          try {
            bad.get();
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task failed");
            throw;
          }
        },
        std::runtime_error);
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

// Pins the engine-wide `num_threads` convention every knob (DseOptions,
// BatchOptions, Engine::Options) resolves through: 0 = one thread per
// hardware thread, 1 = serial (inline), negative = error — never the
// ThreadPool constructor's own 0 = inline.
TEST(ThreadPool, WorkersForResolvesTheSharedConvention) {
  const size_t unbounded = std::numeric_limits<size_t>::max();
  EXPECT_THROW((void)ThreadPool::workers_for(-1, unbounded),
               std::invalid_argument);
  // 0 = auto: all hardware threads (inline only if the machine has one).
  const unsigned hw = ThreadPool::hardware_threads();
  EXPECT_EQ(ThreadPool::workers_for(0, unbounded), hw <= 1 ? 0u : hw);
  // 1 = serial: the inline pool, not a one-worker pool.
  EXPECT_EQ(ThreadPool::workers_for(1, unbounded), 0u);
  EXPECT_EQ(ThreadPool::workers_for(2, unbounded), 2u);
  EXPECT_EQ(ThreadPool::workers_for(7, unbounded), 7u);
}

TEST(ThreadPool, WorkersForClampsToUsefulWorkAndHardCap) {
  // Never more workers than work items...
  EXPECT_EQ(ThreadPool::workers_for(8, 3), 3u);
  // ...a clamp down to <= 1 degenerates to inline execution...
  EXPECT_EQ(ThreadPool::workers_for(8, 1), 0u);
  EXPECT_EQ(ThreadPool::workers_for(8, 0), 0u);
  // ...and absurd requests hit the 1024 safety cap instead of exhausting
  // process resources.
  EXPECT_EQ(ThreadPool::workers_for(1 << 20,
                                    std::numeric_limits<size_t>::max()),
            1024u);
}

// ---------------------------------------------------------------------------
// parallel_for: chunked bulk dispatch with work stealing on the
// process-wide executor.  No test in this binary asks for more than
// kMaxThreads participants, so a kMaxThreads dispatch can occupy every
// executor worker.
// ---------------------------------------------------------------------------

constexpr int kMaxThreads = 8;

/// The executor counters accumulated since `before`.
ThreadPool::BulkStats stats_since(const ThreadPool::BulkStats& before) {
  const ThreadPool::BulkStats after = ThreadPool::global_bulk_stats();
  ThreadPool::BulkStats delta;
  delta.dispatches = after.dispatches - before.dispatches;
  delta.tasks = after.tasks - before.tasks;
  delta.chunks = after.chunks - before.chunks;
  delta.steals = after.steals - before.steals;
  delta.items = after.items - before.items;
  return delta;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, kMaxThreads}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      parallel_for(n, threads, [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " with " << threads << " threads, n=" << n;
      }
    }
  }
}

TEST(ParallelFor, InlineWithOneParticipant) {
  // A serial request, and a loop too short to share, run as a plain loop
  // on the caller's thread with no helper jobs.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [n, threads] : {std::pair<size_t, int>{64, 1},
                                   std::pair<size_t, int>{1, 4}}) {
    const ThreadPool::BulkStats before = ThreadPool::global_bulk_stats();
    std::atomic<int> off_thread{0};
    parallel_for(n, threads, [&](size_t) {
      if (std::this_thread::get_id() != caller) {
        off_thread.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const ThreadPool::BulkStats delta = stats_since(before);
    EXPECT_EQ(off_thread.load(), 0);
    EXPECT_EQ(delta.dispatches, 1u);
    EXPECT_EQ(delta.tasks, 0u);
    EXPECT_EQ(delta.items, n);
  }
}

TEST(ParallelFor, NegativeThreadCountThrowsBeforeAnyIndexRuns) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(8, -1,
                            [&](size_t) {
                              ran.fetch_add(1, std::memory_order_relaxed);
                            }),
               std::invalid_argument);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  for (int threads : {1, 4}) {
    std::mutex mu;
    std::vector<size_t> threw;  // every index whose body threw
    try {
      parallel_for(512, threads, [&](size_t i) {
        if (i % 3 == 0) {
          {
            std::lock_guard<std::mutex> lock(mu);
            threw.push_back(i);
          }
          throw std::runtime_error("fail@" + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_FALSE(threw.empty());
      const size_t lowest = *std::min_element(threw.begin(), threw.end());
      EXPECT_EQ(std::string(e.what()), "fail@" + std::to_string(lowest))
          << "with " << threads << " threads";
    }
  }
}

TEST(ParallelFor, ExceptionStopsNewChunkClaims) {
  // After a failure no NEW chunks are claimed, so far fewer than n bodies
  // run; the executor stays usable afterwards.
  std::atomic<size_t> ran{0};
  constexpr size_t kN = 1u << 20;
  EXPECT_THROW(parallel_for(kN, 3,
                            [&](size_t i) {
                              ran.fetch_add(1, std::memory_order_relaxed);
                              if (i == 0) throw std::runtime_error("early");
                            }),
               std::runtime_error);
  EXPECT_LT(ran.load(), kN);
  std::atomic<size_t> after{0};
  parallel_for(100, 3, [&](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 100u);
}

TEST(ParallelFor, NestedCallFromBodyCompletes) {
  // A parallel_for issued from inside a bulk body must not deadlock:
  // on a worker thread it degrades to an inline loop; on the calling
  // thread it redispatches, and the caller's own participation guarantees
  // progress even while the workers drain outer chunks.
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 32;
  std::atomic<size_t> total{0};
  parallel_for(kOuter, 4, [&](size_t) {
    parallel_for(kInner, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, NestedCallOnAWorkerRunsInline) {
  // Both outer bodies wait until both have started, so the caller cannot
  // take the helper's index: exactly one outer body runs on an executor
  // worker, and its nested loop must stay on that worker.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> on_worker{0};
  std::atomic<int> inner_off_thread{0};
  parallel_for(2, 2, [&](size_t) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    const std::thread::id self = std::this_thread::get_id();
    if (self == caller) return;
    on_worker.fetch_add(1);
    parallel_for(64, 4, [&](size_t) {
      if (std::this_thread::get_id() != self) inner_off_thread.fetch_add(1);
    });
  });
  ASSERT_EQ(started.load(), 2);
  EXPECT_EQ(on_worker.load(), 1);
  EXPECT_EQ(inner_off_thread.load(), 0);
}

TEST(ParallelFor, DispatchDoesNotWaitOnHelpersQueuedBehindAnotherCaller) {
  // Thread A occupies the caller and every executor worker with bodies
  // blocked on a gate.  Thread B's helper jobs then queue behind A's
  // work; B must run its whole loop itself and return without waiting
  // for them.  A pool that joined every helper's future would hang here
  // until the gate opens.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> blocked{0};
  std::thread a([&] {
    parallel_for(kMaxThreads, kMaxThreads, [&](size_t) {
      blocked.fetch_add(1);
      opened.wait();
    });
  });
  while (blocked.load() < kMaxThreads) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  auto b = std::async(std::launch::async, [&] {
    parallel_for(hits.size(), 4, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  const bool returned =
      b.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  gate.set_value();  // unblock A (and a hung B) before asserting
  a.join();
  b.get();
  EXPECT_TRUE(returned) << "B waited on helpers queued behind A";
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, StealsFromAnUnbalancedSegment) {
  // Segment ownership is contiguous, so a slow first segment (every index
  // in it sleeps) forces the other participants to finish their own fast
  // segments and steal the remainder.  Asserting steals > 0 pins that the
  // stealing path exists and is counted; exact counts are timing-dependent.
  const ThreadPool::BulkStats before = ThreadPool::global_bulk_stats();
  constexpr size_t kN = 256;  // 4 participants -> segment 0 = [0, 64)
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(kN, 4, [&](size_t i) {
    if (i < kN / 4) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  const ThreadPool::BulkStats stats = stats_since(before);
  EXPECT_EQ(stats.items, kN);
  EXPECT_GT(stats.steals, 0u);
}

TEST(ParallelFor, BulkStatsCountDispatchesTasksAndItems) {
  const ThreadPool::BulkStats before = ThreadPool::global_bulk_stats();
  std::atomic<size_t> ran{0};
  parallel_for(1000, 4, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  parallel_for(500, 4, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 1500u);
  const ThreadPool::BulkStats stats = stats_since(before);
  EXPECT_EQ(stats.dispatches, 2u);
  EXPECT_EQ(stats.tasks, 2u * 3u);  // one helper job per participant - 1
  EXPECT_EQ(stats.items, 1500u);
  EXPECT_GE(stats.chunks, 2u);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables) {
  // The queue stores tasks directly (MoveOnlyTask), so a callable owning
  // a unique_ptr — and an oversized one that needs the heap fallback —
  // must both flow through.
  ThreadPool pool(2);
  auto small = pool.submit(
      [p = std::make_unique<int>(7)] { return *p * 6; });
  struct Big {
    std::unique_ptr<int> p;
    unsigned char pad[96];  // > MoveOnlyTask's inline buffer
  };
  Big big{std::make_unique<int>(21), {}};
  auto large = pool.submit([b = std::move(big)] { return *b.p * 2; });
  EXPECT_EQ(small.get(), 42);
  EXPECT_EQ(large.get(), 42);
}

}  // namespace
}  // namespace simphony::util
