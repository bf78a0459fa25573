#include "workload/onn_convert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace simphony::workload {
namespace {

TEST(Quantize, ZeroPreserving) {
  Tensor t({3});
  t.at(0) = 0.0f;
  t.at(1) = 0.7f;
  t.at(2) = -0.7f;
  const Tensor q = quantize(t, 4);
  EXPECT_FLOAT_EQ(q.at(0), 0.0f);  // pruning masks survive
  EXPECT_NE(q.at(1), 0.0f);
}

TEST(Quantize, GridResolution) {
  // 4-bit symmetric grid: levels k/7 for k in [-7, 7].
  Tensor t({1});
  t.at(0) = 0.5f;
  const Tensor q = quantize(t, 4);
  EXPECT_NEAR(q.at(0), std::round(0.5 * 7.0) / 7.0, 1e-6);
}

TEST(Quantize, ClampsOutOfRange) {
  Tensor t({2});
  t.at(0) = 2.0f;
  t.at(1) = -3.0f;
  const Tensor q = quantize(t, 8);
  EXPECT_FLOAT_EQ(q.at(0), 1.0f);
  EXPECT_FLOAT_EQ(q.at(1), -1.0f);
}

TEST(Quantize, ErrorShrinksWithBits) {
  util::Rng rng(5);
  const Tensor t = Tensor::uniform({1000}, rng, -1.0, 1.0);
  double err4 = 0.0;
  double err8 = 0.0;
  const Tensor q4 = quantize(t, 4);
  const Tensor q8 = quantize(t, 8);
  for (int64_t i = 0; i < t.numel(); ++i) {
    err4 += std::abs(q4.at(i) - t.at(i));
    err8 += std::abs(q8.at(i) - t.at(i));
  }
  EXPECT_LT(err8, err4 / 8.0);  // ~16x finer grid
}

TEST(Quantize, RejectsBadBitwidths) {
  Tensor t({1});
  EXPECT_THROW((void)quantize(t, 0), std::invalid_argument);
  EXPECT_THROW((void)quantize(t, 17), std::invalid_argument);
}

TEST(ConvertWeights, TransmissionMapsToUnitInterval) {
  Tensor t({3});
  t.at(0) = -1.0f;
  t.at(1) = 0.0f;
  t.at(2) = 1.0f;
  const Tensor tr = convert_weights(t, WeightMode::kTransmission);
  EXPECT_FLOAT_EQ(tr.at(0), 0.0f);
  EXPECT_FLOAT_EQ(tr.at(1), 0.5f);
  EXPECT_FLOAT_EQ(tr.at(2), 1.0f);
}

TEST(ConvertWeights, VoltageIsSignedSqrt) {
  Tensor t({2});
  t.at(0) = 0.25f;
  t.at(1) = -0.25f;
  const Tensor v = convert_weights(t, WeightMode::kVoltage);
  EXPECT_FLOAT_EQ(v.at(0), 0.5f);
  EXPECT_FLOAT_EQ(v.at(1), -0.5f);
}

TEST(ConvertWeights, MatrixAndPhaseAreIdentity) {
  util::Rng rng(5);
  const Tensor t = Tensor::uniform({16}, rng);
  const Tensor m = convert_weights(t, WeightMode::kMatrix);
  const Tensor p = convert_weights(t, WeightMode::kPhase);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(m.at(i), t.at(i));
    EXPECT_FLOAT_EQ(p.at(i), t.at(i));
  }
}

TEST(ConvertModel, QuantizesInPlaceAndReportsError) {
  Model model = vgg8_cifar10();
  const double err = convert_model_in_place(model);
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 1.0 / 7.0);  // half a 4-bit step plus slack
  // All weights now on the 4-bit grid.
  const float v = model.layers[0].weights.at(0);
  EXPECT_NEAR(v * 7.0, std::round(v * 7.0), 1e-5);
}

TEST(ConvertModel, ModeNames) {
  EXPECT_EQ(to_string(WeightMode::kMatrix), "matrix");
  EXPECT_EQ(to_string(WeightMode::kTransmission), "transmission");
  EXPECT_EQ(to_string(WeightMode::kPhase), "phase");
  EXPECT_EQ(to_string(WeightMode::kVoltage), "voltage");
}

/// The std::round formula that quantize() must match bit for bit.
float reference_quantize(float v, int bits) {
  const double q = std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
  const double clamped = std::clamp(static_cast<double>(v), -1.0, 1.0);
  return static_cast<float>(std::round(clamped * q) / q);
}

TEST(Quantize, BitIdenticalToLibmRound) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kTiny = std::numeric_limits<float>::denorm_min();
  std::vector<float> common = {
      0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -0.5f, kInf, -kInf, 1.0000001f,
      -1.0000001f, 1.5f, -2.0f, 1e30f, -1e30f, kTiny, -kTiny, 1e-40f,
      -1e-40f, std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(),
      std::numeric_limits<float>::quiet_NaN()};
  std::mt19937_64 engine(2024);
  std::uniform_real_distribution<double> uniform(-1.5, 1.5);
  for (int i = 0; i < 1000000; ++i) {
    common.push_back(static_cast<float>(uniform(engine)));
  }
  for (int bits = 1; bits <= 16; ++bits) {
    const double q = std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
    std::vector<float> values = common;
    // Half steps (k + 0.5) / q of both signs and their float neighbours.
    for (double k = 0; k < q; ++k) {
      for (const double sign : {1.0, -1.0}) {
        const auto half = static_cast<float>(sign * (k + 0.5) / q);
        values.push_back(half);
        values.push_back(std::nextafter(half, 2.0f));
        values.push_back(std::nextafter(half, -2.0f));
      }
    }
    Tensor t({static_cast<int64_t>(values.size())});
    t.data() = values;
    const Tensor got = quantize(t, bits);
    for (size_t i = 0; i < values.size(); ++i) {
      const float want = reference_quantize(values[i], bits);
      const float have = got.data()[i];
      if (std::isnan(want)) {
        ASSERT_TRUE(std::isnan(have)) << bits << " bits, input " << values[i];
        continue;
      }
      uint32_t want_bits = 0;
      uint32_t have_bits = 0;
      std::memcpy(&want_bits, &want, sizeof want);
      std::memcpy(&have_bits, &have, sizeof have);
      ASSERT_EQ(have_bits, want_bits)
          << bits << " bits, input " << values[i] << " -> " << have
          << " want " << want;
    }
  }
}

class QuantBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantBits, MaxErrorBoundedByHalfStep) {
  const int bits = GetParam();
  util::Rng rng(17);
  const Tensor t = Tensor::uniform({500}, rng, -1.0, 1.0);
  const Tensor q = quantize(t, bits);
  const double step =
      1.0 / std::max(1.0, std::pow(2.0, bits - 1) - 1.0);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(q.at(i) - t.at(i)), step / 2.0 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantBits,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

}  // namespace
}  // namespace simphony::workload
