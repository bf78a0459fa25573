#include "energy/energy_model.h"

#include <bit>
#include <cmath>
#include <optional>
#include <span>

#include "devlib/electronics.h"
#include "util/units.h"

namespace simphony::energy {

namespace {

using arch::Role;

/// The data-aware scan: mean power of one phase-shifter weight cell over
/// the actual weight values (pruned zeros draw zero power: fine-grained
/// gating).
double scan_weight_power_mW(double p_pi_mW, devlib::PowerFidelity fidelity,
                            std::span<const float> weights) {
  return devlib::make_phase_shifter_power(p_pi_mW, fidelity)
      ->mean_power_mW(weights);
}

/// Mean weight-cell power of one GEMM, per device.  The weight-cell groups
/// of a sub-arch (e.g. a Clements mesh's U / Sigma / V) usually share one
/// device curve, so the last curve's mean is reused within the call; the
/// lookup's memo, when set, shares it across calls.
class WeightCellPower {
 public:
  WeightCellPower(const workload::GemmWorkload& gemm,
                  const EnergyOptions& options,
                  const WeightPowerLookup& lookup)
      : gemm_(gemm), options_(options), lookup_(lookup) {}

  double mean_mW(const devlib::DeviceParams& dev) {
    const double p_pi = dev.prop_or("p_pi_mW", dev.static_power_mW);
    if (!options_.data_aware ||
        options_.fidelity == devlib::PowerFidelity::kDataUnaware ||
        gemm_.weights == nullptr || gemm_.weights->numel() == 0) {
      // Library reference power for every cell; pruning cannot gate what
      // the model does not see.
      return p_pi;
    }
    const uint64_t p_pi_bits = std::bit_cast<uint64_t>(p_pi);
    if (scanned_p_pi_bits_ != p_pi_bits) {
      const std::span<const float> weights(gemm_.weights->data());
      mean_mW_ = lookup_.memo != nullptr
                     ? lookup_.memo->mean_power_mW(lookup_.gemm_key, p_pi,
                                                   options_.fidelity, weights)
                     : scan_weight_power_mW(p_pi, options_.fidelity, weights);
      scanned_p_pi_bits_ = p_pi_bits;
    }
    return mean_mW_;
  }

 private:
  const workload::GemmWorkload& gemm_;
  const EnergyOptions& options_;
  const WeightPowerLookup& lookup_;
  std::optional<uint64_t> scanned_p_pi_bits_;
  double mean_mW_ = 0.0;
};

}  // namespace

double WeightPowerMemo::mean_power_mW(uint64_t gemm_key, double p_pi_mW,
                                      devlib::PowerFidelity fidelity,
                                      std::span<const float> weights) {
  const Key key{gemm_key, std::bit_cast<uint64_t>(p_pi_mW), fidelity};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = means_mW_.find(key);
    if (it != means_mW_.end()) return it->second;
  }
  // The scan runs outside the lock, so callers never wait on each other's
  // scans; concurrent first users of one key scan the same bits and the
  // first writer wins.
  const double mean_mW = scan_weight_power_mW(p_pi_mW, fidelity, weights);
  std::lock_guard<std::mutex> lock(mutex_);
  return means_mW_.try_emplace(key, mean_mW).first->second;
}

size_t WeightPowerMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return means_mW_.size();
}

void WeightPowerMemo::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  means_mW_.clear();
}

size_t WeightPowerMemo::KeyHash::operator()(const Key& key) const {
  const uint64_t fidelity = static_cast<uint64_t>(key.fidelity);
  return static_cast<size_t>(
      key.gemm ^ ((key.p_pi_bits ^ fidelity) * 0x9e3779b97f4a7c15ULL));
}

EnergyBreakdown compute_energy(const arch::SubArchitecture& subarch,
                               const workload::GemmWorkload& gemm,
                               const dataflow::DataflowResult& mapped,
                               const arch::LinkBudgetReport& link,
                               const memory::TrafficResult* traffic,
                               const EnergyOptions& options,
                               const WeightPowerLookup& weight_power) {
  const arch::ArchParams& p = subarch.params();
  const devlib::DeviceLibrary& lib = subarch.library();
  EnergyBreakdown out;
  WeightCellPower weight_cell_power(gemm, options, weight_power);

  const double runtime_ns = mapped.runtime_ns;
  const double active_ns =
      static_cast<double>(mapped.compute_cycles) / p.clock_GHz;
  // Pruning gates the weight-side encoders and cells.
  const double weight_activity = options.data_aware
                                     ? 1.0 - gemm.sparsity
                                     : 1.0;

  for (const auto& g : subarch.groups()) {
    if (g.count == 0) continue;
    const arch::ArchInstance& spec = *g.spec;
    // The composite node placeholder (role kNodeInternal, zero-power
    // device) falls through harmlessly; weight-cell node instances
    // (SCATTER/MZI/MRR/PCM) are costed by their role below.
    const devlib::DeviceParams& dev = lib.get(spec.device);
    const double count = static_cast<double>(g.count);

    switch (spec.role) {
      case Role::kSource: {
        // Wall-plug laser power from the link budget, on for the runtime.
        out.add(spec.category,
                util::energy_pJ(link.total_laser_power_mW, runtime_ns));
        break;
      }
      case Role::kCoupling:
        break;  // passive
      case Role::kEncoderA:
      case Role::kEncoderB: {
        const bool is_b = spec.role == Role::kEncoderB;
        const double gate = is_b ? weight_activity : 1.0;
        const int bits = is_b ? gemm.weight_bits : gemm.input_bits;
        if (dev.category == devlib::DeviceCategory::kElectronic) {
          const double power = devlib::dac_power_mW(
              dev, {.bits = bits, .sample_rate_GHz = p.clock_GHz});
          out.add(spec.category,
                  util::energy_pJ(power * count * gate, active_ns));
        } else {
          // Modulator: bias power + per-symbol driving energy.
          const double symbols = static_cast<double>(
              is_b ? mapped.encoder_b_symbols : mapped.encoder_a_symbols);
          const double bias_pJ =
              util::energy_pJ(dev.static_power_mW * count, active_ns);
          const double drive_pJ = util::fJ_to_pJ(
              devlib::mzm_symbol_energy_fJ(dev) * symbols *
              static_cast<double>(mapped.range_penalty_I) * gate);
          out.add(spec.category, bias_pJ + drive_pJ);
        }
        break;
      }
      case Role::kWeightCell: {
        if (spec.device == "pcm_cell") {
          // Non-volatile: zero hold power, energy only on writes.
          const double writes =
              static_cast<double>(mapped.reconfig_events) * count *
              weight_activity;
          out.add(spec.category,
                  util::fJ_to_pJ(dev.dynamic_energy_fJ * writes));
        } else {
          // Data-aware fidelities take the mean over the actual weight
          // values (pruned zeros draw zero power: implicit gating); the
          // data-unaware reference charges P_pi for every cell.
          const double mean_mW = weight_cell_power.mean_mW(dev);
          out.add(spec.category,
                  util::energy_pJ(mean_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kNodeInternal: {
        // Bias/trim power of the replicated node devices.
        if (dev.static_power_mW > 0) {
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kReadout: {
        if (spec.device == "adc") {
          const double power = devlib::adc_power_mW(
              dev, {.bits = gemm.output_bits,
                    .sample_rate_GHz = mapped.adc_rate_GHz});
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (spec.device == "tia") {
          const double power = devlib::tia_power_mW(dev, p.clock_GHz);
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (spec.device == "integrator") {
          const double power =
              devlib::integrator_power_mW(dev, mapped.adc_rate_GHz);
          out.add(spec.category, util::energy_pJ(power * count, active_ns));
        } else if (dev.static_power_mW > 0) {  // PD bias etc.
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
      }
      case Role::kDistribution:
      case Role::kOther:
        // Mostly passive optics; active distribution elements (SOA gain
        // stages) burn static power for the whole runtime.
        if (dev.static_power_mW > 0) {
          out.add(spec.category,
                  util::energy_pJ(dev.static_power_mW * count, runtime_ns));
        }
        break;
    }
  }

  if (options.include_data_movement && traffic != nullptr) {
    out.add("DM", traffic->total_energy_pJ());
  }
  return out;
}

}  // namespace simphony::energy
