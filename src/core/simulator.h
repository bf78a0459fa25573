// SimPhony-Sim: the end-to-end simulation flow (paper §III-C, Fig. 1).
//
//   workload extraction -> dataflow mapping -> memory construction ->
//   link budget -> data-aware energy -> layout-aware area
//
// The Simulator owns an Architecture (one or more sub-architectures sharing
// a memory hierarchy) and simulates extracted GEMM workloads or whole
// models under a MappingConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/hierarchy.h"
#include "core/mapper.h"
#include "core/mapping.h"
#include "core/options.h"
#include "core/report.h"
#include "core/workload_set.h"
#include "devlib/power_model.h"
#include "energy/energy_model.h"
#include "layout/area.h"
#include "memory/hierarchy.h"
#include "workload/model.h"

namespace simphony::core {

/// Construction-time knobs of a Simulator.  The inherited CommonOptions
/// block (core/options.h) is the Simulator-level default: cost_cache is
/// the cross-call memoization every simulation of this Simulator
/// consults (see CostMatrixCache in core/mapper.h — not owned, must
/// outlive the Simulator, thread-safe, results bit-identical with and
/// without it); num_threads and the progress hooks are defaults for
/// entry points that take no per-call options.  Per-call options
/// (BatchOptions) override the inherited fields where documented.
struct SimulationOptions : CommonOptions {
  energy::EnergyOptions energy;
  layout::AreaOptions area;
  memory::MemoryOptions memory;
};

/// Per-call knobs for Simulator::simulate_batch — exactly the shared
/// CommonOptions block.  num_threads: models simulated concurrently on a
/// util::ThreadPool (never more workers than models; with a parallel
/// batch, prefer serial mappers — a mapper running its own pool inside
/// every batch worker oversubscribes the machine).  cost_cache: when
/// non-null, overrides the Simulator's SimulationOptions attachment for
/// this batch.  on_progress fires per completed model (monotone count
/// under one mutex, final callback at completed == size() — see
/// CommonOptions::progress_every).
struct BatchOptions : CommonOptions {};

/// Totals-only result of the simulate_gemms flow: exactly the figures the
/// DSE engine folds into a DsePoint, accumulated straight from the cost
/// matrix without materializing (or copying) per-layer reports — the
/// per-design-point hot path of a sweep.  Every accumulation runs in the
/// same order as ModelReport assembly and every derived formula mirrors
/// ModelReport's, so the figures are bit-identical to the full-report
/// path (tests/test_dse.cpp, tests/test_alloc_count.cpp).
struct ModelTotals {
  energy::EnergyBreakdown energy;
  double runtime_ns = 0.0;
  double macs = 0.0;
  double memory_area_mm2 = 0.0;
  double subarch_area_mm2 = 0.0;  // sum of per-sub-arch breakdown totals

  [[nodiscard]] double energy_pJ() const { return energy.total_pJ(); }
  [[nodiscard]] double total_area_mm2() const {
    return memory_area_mm2 + subarch_area_mm2;
  }
  [[nodiscard]] double average_power_W() const {
    if (runtime_ns <= 0) return 0.0;
    return energy.total_pJ() / runtime_ns * 1e-3;  // pJ/ns = mW; * 1e-3 = W
  }
  [[nodiscard]] double tops() const {
    if (runtime_ns <= 0) return 0.0;
    return 2.0 * macs / runtime_ns * 1e-3;  // 2 ops per MAC
  }
};

/// Result of simulating a WorkloadSet: one ModelReport + chosen Mapping
/// per model (in set order) plus aggregate batch totals.
struct BatchReport {
  struct ModelResult {
    std::string name;
    double weight = 1.0;
    ModelReport report;
    Mapping mapping;  // the assignment the Mapper chose for this model
  };

  /// Aggregate figures of the whole batch.  energy / latency / macs fold
  /// per-model values under the chosen BatchAggregate; area is the MAX
  /// over per-model areas for every mode (one chip must fit the largest
  /// per-model memory sizing — areas do not add across models).  Power
  /// and TOPS are derived from the aggregated energy / latency / macs
  /// for kSum / kWeighted; under kMax they are the per-model worst cases
  /// (max power, min TOPS) — a ratio of independently-maxed energy and
  /// latency would be a figure no model exhibits.
  struct Totals {
    double energy_pJ = 0.0;
    double latency_ns = 0.0;
    double area_mm2 = 0.0;
    double macs = 0.0;
    double power_W = 0.0;  // 0 when latency is 0 and the batch is empty
    double tops = 0.0;
  };

  std::vector<ModelResult> models;  // WorkloadSet order

  [[nodiscard]] Totals totals(BatchAggregate aggregate) const;
};

class Simulator {
 public:
  Simulator(arch::Architecture architecture, SimulationOptions options = {});

  [[nodiscard]] const arch::Architecture& architecture() const {
    return architecture_;
  }
  [[nodiscard]] const SimulationOptions& options() const { return options_; }

  /// Simulate one GEMM on a specific sub-architecture, sizing a dedicated
  /// memory hierarchy for it.  Throws std::invalid_argument when
  /// `subarch_index` is out of range.
  [[nodiscard]] LayerReport simulate_gemm(
      size_t subarch_index, const workload::GemmWorkload& gemm) const;

  /// Simulate a whole model under a mapping config: extract GEMMs, size the
  /// shared memory hierarchy, map + cost every layer, aggregate.
  /// Equivalent to the Mapper overload with RuleMapper(mapping).
  [[nodiscard]] ModelReport simulate_model(const workload::Model& model,
                                           const MappingConfig& mapping) const;

  /// Simulate a whole model under a mapping *strategy*: extract GEMMs,
  /// size the shared memory hierarchy, build the per-(sub-arch, GEMM)
  /// CostMatrix (when the strategy consults costs), let the Mapper choose
  /// the assignment, and assemble the report from the matrix so chosen
  /// pairs are never simulated twice.  `chosen` (optional) receives the
  /// selected Mapping.
  [[nodiscard]] ModelReport simulate_model(const workload::Model& model,
                                           const Mapper& mapper,
                                           Mapping* chosen = nullptr) const;

  /// Same flow for GEMMs that were already extracted (the DSE engine
  /// extracts once and re-costs the same workloads at many parameter
  /// points).  `model_name` only labels the report.  The Tensor weights the
  /// GEMMs point into must outlive the call.
  [[nodiscard]] ModelReport simulate_gemms(
      const std::vector<workload::GemmWorkload>& gemms,
      const MappingConfig& mapping, const std::string& model_name = "") const;

  /// Mapper-strategy variant of simulate_gemms (see the simulate_model
  /// overload above).
  [[nodiscard]] ModelReport simulate_gemms(
      const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
      const std::string& model_name = "", Mapping* chosen = nullptr) const;

  /// The simulate_gemms flow reduced to its totals (see ModelTotals): the
  /// same memory sizing, cost matrix, and mapping search, but energy /
  /// runtime / MACs are accumulated directly from the matrix entries
  /// instead of copying every chosen LayerReport into a ModelReport.
  /// `gemm_keys` (optional) are precomputed core::gemm_fingerprint values
  /// for `gemms` in order — e.g. WorkloadSet::Entry::gemm_fingerprints —
  /// sparing the per-call weight-content hashing when a cost cache is
  /// attached; pass nullptr to compute them on the fly.
  [[nodiscard]] ModelTotals simulate_gemms_totals(
      const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
      Mapping* chosen = nullptr, const uint64_t* gemm_keys = nullptr) const;

  /// Batched multi-model simulation: every model of the set runs against
  /// THIS architecture — constructed (sub-arches materialized, device
  /// groups resolved) once, when the Simulator was built — with per-model
  /// parallelism on a util::ThreadPool and SimulationOptions::cost_cache
  /// (when set) shared across the whole batch.
  ///
  /// Each model follows exactly the simulate_gemms flow on its
  /// pre-extracted GEMMs: the mapping search and the memory-hierarchy
  /// sizing stay per-model, so the batch is bit-identical to K
  /// independent simulate_model calls on this architecture, for every
  /// mapper, objective, and thread count (tests/test_batch.cpp).  One
  /// failing model fails the batch with that model's diagnostic.
  [[nodiscard]] BatchReport simulate_batch(
      const WorkloadSet& workloads, const Mapper& mapper,
      const BatchOptions& options = {}) const;

  /// Simulates every (GEMM, sub-arch) pair against a shared memory
  /// hierarchy sized for `gemms`.  Pairs the architecture cannot run (e.g.
  /// dynamic tensor products on a static mesh) come back infeasible with
  /// the simulator's diagnostic instead of throwing.  With
  /// SimulationOptions::cost_cache set, pairs whose canonical
  /// (sub-arch parameterization, GEMM) fingerprint was already simulated —
  /// by this Simulator or any other sharing the cache — are fetched
  /// instead of re-simulated.
  [[nodiscard]] CostMatrix build_cost_matrix(
      const std::vector<workload::GemmWorkload>& gemms) const;

  /// Area-only analysis (used by the Fig. 7a/8a/10a benches).
  [[nodiscard]] layout::AreaBreakdown analyze_area(size_t subarch_index) const;

 private:
  arch::Architecture architecture_;
  SimulationOptions options_;
  /// Per-sub-arch prefix of the hardware-side cache fingerprint: the
  /// template / groups / params / device-library / energy-option hash,
  /// which never changes after construction.  Only the memory-hierarchy
  /// suffix (per GEMM set) is hashed per call.  Computed iff a cost cache
  /// is attached — the values, and the final fingerprints they produce,
  /// are identical to hashing everything in one pass.
  std::vector<size_t> subarch_static_seeds_;

  /// Everything shared by full-report and totals-only assembly: sized
  /// memory, optional cost matrix, and the checked mapping.
  struct MappingPlan {
    memory::MemoryHierarchy memory;
    std::optional<CostMatrix> costs;
    Mapping mapping;
  };

  /// `weight_power` (optional): the cost cache's weight-power memo and
  /// the GEMM's fingerprint, passed on to energy::compute_energy.
  [[nodiscard]] LayerReport simulate_one(
      size_t subarch_index, const workload::GemmWorkload& gemm,
      const memory::MemoryHierarchy& memory,
      const energy::WeightPowerLookup& weight_power = {}) const;

  [[nodiscard]] memory::MemoryHierarchy build_shared_memory(
      const std::vector<workload::GemmWorkload>& gemms) const;

  /// `cache_override` (here and below): non-null replaces the
  /// construction-time SimulationOptions::cost_cache for this call — the
  /// BatchOptions::cost_cache per-call override.
  [[nodiscard]] CostMatrix build_cost_matrix(
      const std::vector<workload::GemmWorkload>& gemms,
      const memory::MemoryHierarchy& memory, const uint64_t* gemm_keys,
      CostMatrixCache* cache_override = nullptr) const;

  /// validate + build_shared_memory + build_cost_matrix (when the
  /// strategy consults costs) + map + assignment size/range checks.
  [[nodiscard]] MappingPlan plan_mapping(
      const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
      const uint64_t* gemm_keys,
      CostMatrixCache* cache_override = nullptr) const;

  [[nodiscard]] ModelReport simulate_gemms_report(
      const std::vector<workload::GemmWorkload>& gemms, const Mapper& mapper,
      const std::string& model_name, Mapping* chosen,
      const uint64_t* gemm_keys,
      CostMatrixCache* cache_override = nullptr) const;
};

}  // namespace simphony::core
