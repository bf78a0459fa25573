// The shared execution knobs of every long-running engine entry point.
//
// SimulationOptions (core/simulator.h), BatchOptions (simulate_batch) and
// DseOptions (core/dse.h) grew the same three knobs independently —
// num_threads, cost_cache, and progress hooks — and the request types of
// the service facade (core/engine.h) would have inherited that drift.
// CommonOptions is the single definition all of them embed: one
// num_threads convention (util::ThreadPool::workers_for), one cost-cache
// attachment point, one progress hook.
#pragma once

#include <cstddef>
#include <functional>

namespace simphony::core {

class CostMatrixCache;
struct DsePoint;

/// Progress snapshot: how many work items (design points, batch models,
/// ...) have completed out of how many, plus the DSE point that just
/// completed.  One type serves every entry point, so generic observers
/// — the engine facade, the server's streaming progress — and the CLI's
/// --out stream share one hook.
struct Progress {
  size_t completed = 0;
  size_t total = 0;
  /// The completed design point, with its canonical index but not yet
  /// its final pareto flag.  Non-null exactly for full-fidelity DSE
  /// completions (duplicate-point memo hits included); null for
  /// low-fidelity strategy probes and for simulate_batch models.
  const DsePoint* point = nullptr;
};

/// Shared knobs embedded by SimulationOptions, BatchOptions and
/// DseOptions (and mirrored, value-only, by the serializable request
/// types in core/engine.h).
struct CommonOptions {
  /// Threads running the call's parallel loop, the calling thread
  /// included, resolved through util::ThreadPool::workers_for — the
  /// engine-wide convention: 0 = one per hardware thread, 1 = serial on
  /// the calling thread, negative throws std::invalid_argument from the
  /// entry point.
  int num_threads = 0;

  /// Optional cross-call memoization of per-(sub-arch, GEMM) cost-matrix
  /// entries (CostMatrixCache in core/mapper.h).  Not owned; must outlive
  /// the call.  Thread-safe and first-writer-wins, so results are
  /// bit-identical with and without it for any thread count.  Per-call
  /// options (BatchOptions, DseOptions) override a Simulator-level
  /// attachment when non-null.
  CostMatrixCache* cost_cache = nullptr;

  /// Progress observer (see Progress above), invoked once per completed
  /// work item.  Calls are serialized behind a mutex and `completed` is
  /// strictly increasing, ending at `total` for a non-empty run, even
  /// though items complete in a nondeterministic order across workers
  /// (an adaptive DSE strategy's `total` grows batch by batch).
  /// Whatever it throws aborts the run and reaches the caller.
  std::function<void(const Progress&)> on_progress;
};

}  // namespace simphony::core
