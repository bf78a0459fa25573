#include "workload/onn_convert.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simphony::workload {

std::string to_string(WeightMode mode) {
  switch (mode) {
    case WeightMode::kMatrix: return "matrix";
    case WeightMode::kTransmission: return "transmission";
    case WeightMode::kPhase: return "phase";
    case WeightMode::kVoltage: return "voltage";
  }
  return "?";
}

namespace {

/// Symmetric grid of quantize(): levels at k / q for k in [-q, q],
/// q = 2^(b-1) - 1 (q = 1 for b = 1), zero preserved exactly.
double quantization_scale(int bits) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("quantization bits must be in [1, 16]");
  }
  return std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
}

/// std::round(clamp(v) * q) / q without the libm call.  x = clamp(v) * q
/// is exact (24 + 15 significant bits) and |x| <= 32767, so x + 0.5 rounds
/// across no integer and trunc() gives round-half-away-from-zero exactly;
/// trunc keeps the sign of -0.0 and of (-0.5, 0), and passes NaN through.
float quantize_value(float v, double q) {
  const double x = std::clamp(static_cast<double>(v), -1.0, 1.0) * q;
  return static_cast<float>(std::trunc(x + std::copysign(0.5, x)) / q);
}

}  // namespace

Tensor quantize(const Tensor& t, int bits) {
  const double q = quantization_scale(bits);
  Tensor out = t;
  for (float& v : out.data()) v = quantize_value(v, q);
  return out;
}

Tensor convert_weights(const Tensor& t, WeightMode mode) {
  Tensor out = t;
  switch (mode) {
    case WeightMode::kMatrix:
      break;
    case WeightMode::kTransmission:
      for (float& v : out.data()) v = (v + 1.0f) / 2.0f;
      break;
    case WeightMode::kPhase:
      break;  // normalized phase == normalized matrix value by convention
    case WeightMode::kVoltage:
      for (float& v : out.data()) {
        v = static_cast<float>(std::copysign(
            std::sqrt(std::abs(static_cast<double>(v))), v));
      }
      break;
  }
  return out;
}

double convert_model_in_place(Model& model) {
  double max_err = 0.0;
  for (auto& layer : model.layers) {
    if (layer.weights.numel() == 0) continue;
    const double q = quantization_scale(layer.weight_bits);
    for (float& v : layer.weights.data()) {
      const float quantized = quantize_value(v, q);
      max_err = std::max(max_err, std::abs(static_cast<double>(quantized) -
                                           static_cast<double>(v)));
      v = quantized;
    }
  }
  return max_err;
}

}  // namespace simphony::workload
