// google-benchmark microbenchmarks of the simulator's own hot paths:
// longest-path link budget, node floorplanning, GEMM mapping, model
// resolution and the full end-to-end layer simulation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>

#include "arch/link_budget.h"
#include "arch/prebuilt.h"
#include "core/engine.h"
#include "core/simulator.h"
#include "core/workload_set.h"
#include "layout/floorplan.h"
#include "util/thread_pool.h"
#include "workload/gemm.h"

namespace {

using namespace simphony;

/// parallel_for scheduling counters accumulated since `before` (see
/// docs/performance.md): per-iteration steal/chunk traffic plus an
/// items/sec rate the thread-scaling harness compares across -j values.
void set_scheduling_counters(benchmark::State& state,
                             const util::ThreadPool::BulkStats& before) {
  const util::ThreadPool::BulkStats after =
      util::ThreadPool::global_bulk_stats();
  const double iters = static_cast<double>(state.iterations());
  const double dispatches =
      static_cast<double>(after.dispatches - before.dispatches);
  state.counters["pf_items"] =
      static_cast<double>(after.items - before.items) / iters;
  state.counters["pf_steals"] =
      static_cast<double>(after.steals - before.steals) / iters;
  state.counters["pf_tasks_per_dispatch"] =
      dispatches > 0
          ? static_cast<double>(after.tasks - before.tasks) / dispatches
          : 0.0;
  state.counters["pf_items_per_s"] =
      benchmark::Counter(static_cast<double>(after.items - before.items),
                         benchmark::Counter::kIsRate);
}

arch::SubArchitecture make_tempo() {
  static devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams p;
  p.tiles = 2;
  p.cores_per_tile = 2;
  p.core_height = 4;
  p.core_width = 4;
  p.wavelengths = 4;
  return arch::SubArchitecture(arch::tempo_template(), p, lib);
}

void BM_LinkBudget(benchmark::State& state) {
  const arch::SubArchitecture subarch = make_tempo();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::analyze_link_budget(subarch));
  }
}
BENCHMARK(BM_LinkBudget);

void BM_NodeFloorplan(benchmark::State& state) {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const arch::PtcTemplate t = arch::tempo_template();
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::floorplan_signal_flow(t.node, lib));
  }
}
BENCHMARK(BM_NodeFloorplan);

void BM_MapGemm(benchmark::State& state) {
  const arch::SubArchitecture subarch = make_tempo();
  const workload::Model model = workload::single_gemm_model(
      static_cast<int>(state.range(0)), 28, static_cast<int>(state.range(0)));
  const workload::GemmWorkload gemm =
      workload::gemm_of_layer(model.layers.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::map_gemm(subarch, gemm));
  }
}
BENCHMARK(BM_MapGemm)->Arg(280)->Arg(1024)->Arg(4096);

void BM_EndToEndLayer(benchmark::State& state) {
  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams p;
  arch::Architecture system("tempo");
  system.add_subarch(
      arch::SubArchitecture(arch::tempo_template(), p, lib));
  core::Simulator sim(std::move(system));
  const workload::Model model = workload::single_gemm_model(280, 28, 280);
  const workload::GemmWorkload gemm =
      workload::gemm_of_layer(model.layers.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_gemm(0, gemm));
  }
}
BENCHMARK(BM_EndToEndLayer);

/// A K-model batch of small distinct workloads (the serve-many-models
/// scenario): one MLP plus K-1 GEMM variants.
core::WorkloadSet batch_workloads(size_t k) {
  core::WorkloadSet set;
  set.add(workload::mlp_mnist(), "mlp");
  for (size_t i = 1; i < k; ++i) {
    const int n = 64 << (i % 3);
    set.add(workload::single_gemm_model(n, 32, n),
            "gemm" + std::to_string(i));
  }
  return set;
}

/// Cold baseline: each of the K models pays full architecture
/// construction (template materialization, device groups) plus its own
/// simulation — what K independent simulate_model calls cost today.
void BM_BatchColdPerModel(benchmark::State& state) {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const size_t k = static_cast<size_t>(state.range(0));
  const core::WorkloadSet set = batch_workloads(k);
  const core::GreedyMapper mapper;
  for (auto _ : state) {
    for (size_t i = 0; i < set.size(); ++i) {
      arch::ArchParams p;
      arch::Architecture system("tempo");
      system.add_subarch(
          arch::SubArchitecture(arch::tempo_template(), p, lib));
      const core::Simulator sim(std::move(system));
      benchmark::DoNotOptimize(sim.simulate_model(set.at(i).model, mapper));
    }
  }
  state.counters["models"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_BatchColdPerModel)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Warm batch: the Simulator (architecture, device groups) is built once
/// outside the loop and simulate_batch amortizes it across the K models,
/// with the same serial execution and no cache — so items_per_second of
/// this vs BM_BatchColdPerModel is exactly the construction amortization
/// the batch subsystem buys.
void BM_BatchWarmSimulate(benchmark::State& state) {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const size_t k = static_cast<size_t>(state.range(0));
  const core::WorkloadSet set = batch_workloads(k);
  const core::GreedyMapper mapper;
  arch::ArchParams p;
  arch::Architecture system("tempo");
  system.add_subarch(arch::SubArchitecture(arch::tempo_template(), p, lib));
  const core::Simulator sim(std::move(system));
  core::BatchOptions batch_options;
  batch_options.num_threads = 1;  // serial, like the cold baseline
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_batch(set, mapper, batch_options));
  }
  state.counters["models"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_BatchWarmSimulate)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The warm batch with the cross-model CostMatrixCache attached.  Pays
/// canonical fingerprinting (which hashes weight-tensor contents) to buy
/// cross-model and cross-call hits — a win once per-pair simulation
/// outweighs hashing; the hit-rate counter tracks sharing either way.
void BM_BatchWarmCostCache(benchmark::State& state) {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const size_t k = static_cast<size_t>(state.range(0));
  const core::WorkloadSet set = batch_workloads(k);
  const core::GreedyMapper mapper;
  core::CostMatrixCache cache;
  arch::ArchParams p;
  arch::Architecture system("tempo");
  system.add_subarch(arch::SubArchitecture(arch::tempo_template(), p, lib));
  core::SimulationOptions options;
  options.cost_cache = &cache;
  const core::Simulator sim(std::move(system), options);
  core::BatchOptions batch_options;
  batch_options.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_batch(set, mapper, batch_options));
  }
  state.counters["models"] = static_cast<double>(k);
  state.counters["cache_hit_rate"] = cache.stats().hit_rate();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_BatchWarmCostCache)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The same warm batch with per-model parallelism.  Args are
/// {models, num_threads} with the engine-wide thread convention
/// (1 = serial baseline, 0 = all hardware threads), so the thread-scaling
/// harness (scripts/check_bench_scaling.py) can ratio the {8,0} row
/// against {8,1} on the same binary.
void BM_BatchWarmParallel(benchmark::State& state) {
  const devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  const size_t k = static_cast<size_t>(state.range(0));
  const core::WorkloadSet set = batch_workloads(k);
  const core::GreedyMapper mapper;
  arch::ArchParams p;
  arch::Architecture system("tempo");
  system.add_subarch(arch::SubArchitecture(arch::tempo_template(), p, lib));
  const core::Simulator sim(std::move(system));
  core::BatchOptions batch_options;
  batch_options.num_threads = static_cast<int>(state.range(1));
  const util::ThreadPool::BulkStats before =
      util::ThreadPool::global_bulk_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_batch(set, mapper, batch_options));
  }
  set_scheduling_counters(state, before);
  state.counters["models"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_BatchWarmParallel)
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({8, 1})  // serial baseline for the thread-scaling check
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Scheduler-only scaling probe: parallel_for over a fixed amount of
/// pure CPU work (no simulator, no allocation), so the measured speedup
/// at T threads is an upper bound for what any simulator loop can get on
/// this machine — and the steal counter shows the balancing traffic.
/// Arg is the engine-wide thread convention (1 = serial, 0 = all).
void BM_ParallelForScaling(benchmark::State& state) {
  constexpr size_t kItems = 1024;
  constexpr int kSpin = 2000;
  const int threads = static_cast<int>(state.range(0));
  std::atomic<double> sink{0.0};
  const util::ThreadPool::BulkStats before =
      util::ThreadPool::global_bulk_stats();
  for (auto _ : state) {
    std::atomic<double>* acc = &sink;
    util::parallel_for(kItems, threads, [acc](size_t i) {
      double x = static_cast<double>(i % 97) + 1.0;
      for (int r = 0; r < kSpin; ++r) x = std::sqrt(x * x + 1.0);
      acc->store(x, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink);
  }
  set_scheduling_counters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kItems));
}
BENCHMARK(BM_ParallelForScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime();

/// One request's model resolution (core::resolve_models): weight synthesis,
/// quantization, GEMM extraction and fingerprints, the stage that dominates
/// a fresh-engine simulate (docs/performance.md, "Workload synthesis").
void BM_ResolveModels(benchmark::State& state, const char* spec) {
  core::SimulateRequest request;
  request.models.push_back(core::WorkloadSpec{spec, "", 1.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::resolve_models(request));
  }
}
BENCHMARK_CAPTURE(BM_ResolveModels, vgg8, "vgg8")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResolveModels, resnet20, "resnet20")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResolveModels, mlp, "mlp")->Unit(benchmark::kMillisecond);

void BM_VGG8FullModel(benchmark::State& state) {
  devlib::DeviceLibrary lib = devlib::DeviceLibrary::standard();
  arch::ArchParams p;
  arch::Architecture system("tempo");
  system.add_subarch(
      arch::SubArchitecture(arch::tempo_template(), p, lib));
  core::Simulator sim(std::move(system));
  const workload::Model model = workload::vgg8_cifar10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate_model(model, core::MappingConfig(0)));
  }
}
BENCHMARK(BM_VGG8FullModel);

}  // namespace

BENCHMARK_MAIN();
