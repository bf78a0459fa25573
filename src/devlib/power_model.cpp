#include "devlib/power_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace simphony::devlib {

std::string to_string(PowerFidelity fidelity) {
  switch (fidelity) {
    case PowerFidelity::kDataUnaware: return "data-unaware";
    case PowerFidelity::kAnalytical: return "analytical";
    case PowerFidelity::kTabulated: return "tabulated";
  }
  return "?";
}

double PowerModel::mean_power_mW(std::span<const float> values) const {
  if (values.empty()) return 0.0;
  // power_mW is evaluated once per distinct float bit pattern (quantized
  // weights take at most 2^bits levels) and replayed from a fixed-size
  // open-addressing table; once the table is half full, further new
  // patterns are evaluated directly.  Every addend and the summation
  // order are those of the plain `sum += power_mW(v)` loop, so the mean
  // is bit-identical to it.
  constexpr int kSlotBits = 10;
  constexpr size_t kSlots = size_t{1} << kSlotBits;
  constexpr size_t kMaxFilled = kSlots / 2;  // keeps an empty slot to stop
  std::array<uint64_t, kSlots> tags{};  // 0 = empty, else bits | 1 << 32
  std::array<double, kSlots> powers{};
  size_t filled = 0;
  double sum = 0.0;
  for (float v : values) {
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    const uint64_t tag = bits | (uint64_t{1} << 32);
    size_t slot = (bits * 0x9E3779B1u) >> (32 - kSlotBits);
    while (tags[slot] != 0 && tags[slot] != tag) {
      slot = (slot + 1) & (kSlots - 1);
    }
    if (tags[slot] == tag) {
      sum += powers[slot];
      continue;
    }
    const double power = power_mW(v);
    if (filled < kMaxFilled) {
      tags[slot] = tag;
      powers[slot] = power;
      ++filled;
    }
    sum += power;
  }
  return sum / static_cast<double>(values.size());
}

TabulatedPowerModel::TabulatedPowerModel(std::vector<Sample> samples)
    : samples_(std::move(samples)) {
  if (samples_.empty()) {
    throw std::invalid_argument("TabulatedPowerModel needs >= 1 sample");
  }
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.value < b.value; });
}

double TabulatedPowerModel::power_mW(double value) const {
  if (std::isnan(value)) return value;  // no segment brackets NaN
  if (value <= samples_.front().value) return samples_.front().power_mW;
  if (value >= samples_.back().value) return samples_.back().power_mW;
  // Binary search for the bracketing segment.
  auto hi = std::lower_bound(
      samples_.begin(), samples_.end(), value,
      [](const Sample& s, double v) { return s.value < v; });
  auto lo = hi - 1;
  const double span = hi->value - lo->value;
  if (span <= 0) return lo->power_mW;
  const double t = (value - lo->value) / span;
  return lo->power_mW + t * (hi->power_mW - lo->power_mW);
}

std::unique_ptr<PowerModel> make_phase_shifter_power(double p_pi_mW,
                                                     PowerFidelity fidelity,
                                                     double measured_scale) {
  switch (fidelity) {
    case PowerFidelity::kDataUnaware:
      return std::make_unique<ConstantPowerModel>(p_pi_mW);
    case PowerFidelity::kAnalytical:
      // P = P_pi * |phi| / pi with value == phi/pi in [-1, 1].
      return std::make_unique<AnalyticalPowerModel>(
          [p_pi_mW](double v) { return p_pi_mW * std::abs(v); });
    case PowerFidelity::kTabulated: {
      // "Measured" heater response: linear to first order with a slight
      // sub-linearity at mid-range (thermal crosstalk compensation makes the
      // real device marginally cheaper than the analytical line).
      std::vector<TabulatedPowerModel::Sample> pts;
      constexpr int kPoints = 33;
      for (int i = 0; i < kPoints; ++i) {
        const double v = -1.0 + 2.0 * i / (kPoints - 1);
        const double a = std::abs(v);
        // Dip of up to (1 - measured_scale) at |v| = 0.5, none at ends.
        const double dip = (1.0 - measured_scale) * 4.0 * a * (1.0 - a);
        pts.push_back({v, p_pi_mW * a * (1.0 - dip)});
      }
      return std::make_unique<TabulatedPowerModel>(std::move(pts));
    }
  }
  throw std::invalid_argument("unknown power fidelity");
}

}  // namespace simphony::devlib
