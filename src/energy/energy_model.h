// Data-dependent, device-response-aware energy analysis
// (paper §III-C5, Fig. 5).
//
// "SimPhony accumulates the energy over cycles based on the values of the
// real operands.  This approach enables accurate energy profiling with
// fine-grained power gating from ONN pruning."
//
// Per instance group the model selects the appropriate cost law by role:
//   * laser       — link-budget-derived wall-plug power over the runtime;
//   * DAC / ADC   — converter scaling laws at the workload bitwidths and
//                   the effective sampling rate from the dataflow;
//   * MZM         — bias power + per-symbol driving energy (gated by
//                   pruning sparsity on the weight side);
//   * weight cells (PS / MZI / MRR) — data-dependent power evaluated on
//                   the *actual weight values* at the selected fidelity
//                   (data-unaware / analytical / tabulated);
//   * PCM cells   — zero hold power, write energy per reconfiguration;
//   * PD / TIA / integrator — bias and front-end power over active time;
//   * DM          — memory traffic energy from the CACTI-backed hierarchy.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "arch/hierarchy.h"
#include "arch/link_budget.h"
#include "dataflow/dataflow.h"
#include "devlib/power_model.h"
#include "energy/report.h"
#include "memory/traffic.h"
#include "workload/gemm.h"

namespace simphony::energy {

struct EnergyOptions {
  /// Fidelity of data-dependent device power (paper Fig. 5 / Fig. 10b).
  devlib::PowerFidelity fidelity = devlib::PowerFidelity::kTabulated;

  /// When false, weight-cell power ignores operand values entirely and
  /// pruning gating is disabled (the "Data Unaware" bar of Fig. 10b).
  bool data_aware = true;

  /// Include the "DM" (data movement) category from memory traffic.
  bool include_data_movement = true;
};

/// Exact memo of the data-aware mean weight-cell power.  That mean depends
/// only on the weight values and the device curve, so it is keyed on
/// (GEMM content fingerprint, p_pi bit pattern, fidelity) and the weights
/// are scanned once per key instead of once per (design point, sub-arch,
/// weight-cell group).  Held by core::CostMatrixCache and cleared with it.
///
/// Thread-safe and first-writer-wins, like the cost cache: concurrent
/// first uses of one key may each scan, and every scan of a key yields the
/// same bits, so memoized energies equal unmemoized ones bit for bit.
class WeightPowerMemo {
 public:
  /// The mean power of a phase-shifter weight cell with curve
  /// (`p_pi_mW`, `fidelity`) over `weights`, scanned on the first call
  /// for the key.  `gemm_key` must be the content fingerprint of the GEMM
  /// owning `weights` (core::gemm_fingerprint).
  [[nodiscard]] double mean_power_mW(uint64_t gemm_key, double p_pi_mW,
                                     devlib::PowerFidelity fidelity,
                                     std::span<const float> weights);

  [[nodiscard]] size_t size() const;
  void clear();

 private:
  struct Key {
    uint64_t gemm = 0;
    uint64_t p_pi_bits = 0;
    devlib::PowerFidelity fidelity = devlib::PowerFidelity::kTabulated;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, double, KeyHash> means_mW_;
};

/// Where compute_energy may find a memoized weight-cell power: the memo
/// and the fingerprint of the GEMM being costed.  Without a memo the
/// weights are scanned once per call for each device curve.
struct WeightPowerLookup {
  WeightPowerMemo* memo = nullptr;
  uint64_t gemm_key = 0;
};

/// Computes the energy breakdown of one mapped GEMM.  `traffic` may be
/// nullptr when data movement is excluded.
[[nodiscard]] EnergyBreakdown compute_energy(
    const arch::SubArchitecture& subarch, const workload::GemmWorkload& gemm,
    const dataflow::DataflowResult& mapped,
    const arch::LinkBudgetReport& link,
    const memory::TrafficResult* traffic, const EnergyOptions& options = {},
    const WeightPowerLookup& weight_power = {});

}  // namespace simphony::energy
