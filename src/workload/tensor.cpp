#include "workload/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace simphony::workload {

namespace {
int64_t shape_numel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d <= 0) throw std::invalid_argument("tensor dims must be positive");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(shape_numel(shape_)), 0.0f);
}

int64_t Tensor::numel() const { return static_cast<int64_t>(data_.size()); }

float& Tensor::at(int64_t flat_index) {
  return data_.at(static_cast<size_t>(flat_index));
}

float Tensor::at(int64_t flat_index) const {
  return data_.at(static_cast<size_t>(flat_index));
}

Tensor Tensor::randn(std::vector<int64_t> shape, util::Rng& rng, double mean,
                     double stddev) {
  Tensor t(std::move(shape));
  rng.fill_normal(t.data_, mean, stddev);
  return t;
}

Tensor Tensor::uniform(std::vector<int64_t> shape, util::Rng& rng, double lo,
                       double hi) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.data_, lo, hi);
  return t;
}

Tensor Tensor::zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::abs_mean() const {
  if (data_.empty()) return 0.0f;
  double sum = 0.0;
  for (float v : data_) sum += std::abs(v);
  return static_cast<float>(sum / static_cast<double>(data_.size()));
}

double Tensor::sparsity() const {
  if (data_.empty()) return 0.0;
  const auto zeros = std::count(data_.begin(), data_.end(), 0.0f);
  return static_cast<double>(zeros) / static_cast<double>(data_.size());
}

void Tensor::prune_smallest(double ratio) {
  if (ratio <= 0.0 || data_.empty()) return;
  ratio = std::min(ratio, 1.0);
  std::vector<float> mags(data_.size());
  std::transform(data_.begin(), data_.end(), mags.begin(),
                 [](float v) { return std::abs(v); });
  const auto k = static_cast<size_t>(
      std::llround(ratio * static_cast<double>(mags.size())));
  if (k == 0) return;
  std::nth_element(mags.begin(), mags.begin() + static_cast<ptrdiff_t>(k - 1),
                   mags.end());
  const float threshold = mags[k - 1];
  for (float& v : data_) {
    if (std::abs(v) <= threshold) v = 0.0f;
  }
}

void Tensor::normalize_to(float target) {
  const float m = abs_max();
  if (m <= 0.0f) return;
  const float scale = target / m;
  for (float& v : data_) v *= scale;
}

}  // namespace simphony::workload
