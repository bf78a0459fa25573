#include "devlib/power_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/onn_convert.h"
#include "workload/tensor.h"

namespace simphony::devlib {
namespace {

TEST(PowerModel, ConstantIgnoresValue) {
  ConstantPowerModel m(20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(0.0), 20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(1.0), 20.0);
  EXPECT_DOUBLE_EQ(m.power_mW(-0.5), 20.0);
  EXPECT_EQ(m.fidelity(), PowerFidelity::kDataUnaware);
}

TEST(PowerModel, AnalyticalAppliesFunction) {
  AnalyticalPowerModel m([](double v) { return 10.0 * std::abs(v); });
  EXPECT_DOUBLE_EQ(m.power_mW(0.5), 5.0);
  EXPECT_DOUBLE_EQ(m.power_mW(-0.5), 5.0);
  EXPECT_EQ(m.fidelity(), PowerFidelity::kAnalytical);
}

TEST(PowerModel, TabulatedInterpolatesLinearly) {
  TabulatedPowerModel m({{0.0, 0.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(0.5), 5.0);
  EXPECT_DOUBLE_EQ(m.power_mW(0.25), 2.5);
}

TEST(PowerModel, TabulatedClampsOutOfRange) {
  TabulatedPowerModel m({{-1.0, 3.0}, {1.0, 9.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(-5.0), 3.0);
  EXPECT_DOUBLE_EQ(m.power_mW(5.0), 9.0);
}

TEST(PowerModel, TabulatedSortsSamples) {
  TabulatedPowerModel m({{1.0, 10.0}, {0.0, 0.0}, {0.5, 5.0}});
  EXPECT_DOUBLE_EQ(m.power_mW(0.75), 7.5);
}

TEST(PowerModel, TabulatedRejectsEmpty) {
  EXPECT_THROW(TabulatedPowerModel({}), std::invalid_argument);
}

TEST(PowerModel, MeanPowerOverValues) {
  ConstantPowerModel m(4.0);
  const std::vector<float> vals{0.1f, 0.9f, -0.3f};
  EXPECT_DOUBLE_EQ(m.mean_power_mW(vals), 4.0);
  EXPECT_DOUBLE_EQ(m.mean_power_mW({}), 0.0);

  AnalyticalPowerModel lin([](double v) { return std::abs(v); });
  const std::vector<float> sym{0.5f, -0.5f, 1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(lin.mean_power_mW(sym), 0.5);
}

TEST(PhaseShifterPower, UnawareReturnsPPi) {
  auto m = make_phase_shifter_power(20.0, PowerFidelity::kDataUnaware);
  EXPECT_DOUBLE_EQ(m->power_mW(0.1), 20.0);
  EXPECT_DOUBLE_EQ(m->power_mW(0.9), 20.0);
}

TEST(PhaseShifterPower, AnalyticalLinearInPhase) {
  auto m = make_phase_shifter_power(20.0, PowerFidelity::kAnalytical);
  EXPECT_DOUBLE_EQ(m->power_mW(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m->power_mW(1.0), 20.0);
  EXPECT_DOUBLE_EQ(m->power_mW(-0.5), 10.0);
}

TEST(PhaseShifterPower, TabulatedSlightlyBelowAnalytical) {
  // The measured curve dips below the linear model mid-range (paper
  // Fig. 10b: rigorous model gives 0.0209 uJ vs analytical 0.0215 uJ).
  auto lut = make_phase_shifter_power(20.0, PowerFidelity::kTabulated);
  auto lin = make_phase_shifter_power(20.0, PowerFidelity::kAnalytical);
  for (double v : {0.2, 0.4, 0.5, 0.6, 0.8}) {
    EXPECT_LT(lut->power_mW(v), lin->power_mW(v)) << "at v=" << v;
    EXPECT_GT(lut->power_mW(v), 0.9 * lin->power_mW(v)) << "at v=" << v;
  }
  // Ends agree (no dip at 0 and pi).
  EXPECT_NEAR(lut->power_mW(1.0), 20.0, 1e-6);
  EXPECT_NEAR(lut->power_mW(0.0), 0.0, 1e-6);
}

TEST(PhaseShifterPower, ZeroValueDrawsZeroInDataAwareModes) {
  // Pruned (zero) weights must gate the cell entirely.
  for (auto fidelity :
       {PowerFidelity::kAnalytical, PowerFidelity::kTabulated}) {
    auto m = make_phase_shifter_power(20.0, fidelity);
    EXPECT_NEAR(m->power_mW(0.0), 0.0, 1e-9);
  }
}

TEST(PhaseShifterPower, FidelityNames) {
  EXPECT_EQ(to_string(PowerFidelity::kDataUnaware), "data-unaware");
  EXPECT_EQ(to_string(PowerFidelity::kAnalytical), "analytical");
  EXPECT_EQ(to_string(PowerFidelity::kTabulated), "tabulated");
}

TEST(PowerModel, TabulatedMapsNanToNan) {
  auto m = make_phase_shifter_power(20.0, PowerFidelity::kTabulated);
  EXPECT_TRUE(std::isnan(m->power_mW(std::nan(""))));
}

/// The plain sequential scan mean_power_mW must reproduce bit for bit.
double sequential_mean(const PowerModel& model,
                       std::span<const float> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (float v : values) sum += model.power_mW(v);
  return sum / static_cast<double>(values.size());
}

TEST(MeanPowerScan, BitIdenticalToSequentialSumForEveryFidelity) {
  util::Rng rng(2024);
  // Unquantized randn data has far more distinct values than the scan's
  // table holds, and values outside [-1, 1].
  const workload::Tensor randn = workload::Tensor::randn({96, 64}, rng);
  const workload::Tensor uniform = workload::Tensor::uniform({96, 64}, rng);
  std::vector<std::pair<std::string, std::vector<float>>> cases;
  cases.emplace_back("randn", randn.data());
  for (int bits : {1, 4, 8, 16}) {
    cases.emplace_back("quantized " + std::to_string(bits) + "-bit",
                       workload::quantize(uniform, bits).data());
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  cases.emplace_back(
      "special", std::vector<float>{0.0f, -0.0f, 0.5f, nan, -0.0f, 1.5f,
                                    -3.0f, inf, -inf, 0.0f, nan, -0.5f});
  cases.emplace_back("signed zeros",
                     std::vector<float>{-0.0f, 0.0f, -0.0f, 0.25f});
  cases.emplace_back("empty", std::vector<float>{});

  for (auto fidelity :
       {PowerFidelity::kDataUnaware, PowerFidelity::kAnalytical,
        PowerFidelity::kTabulated}) {
    const auto model = make_phase_shifter_power(20.0, fidelity);
    for (const auto& [name, values] : cases) {
      const double scanned = model->mean_power_mW(values);
      const double expected = sequential_mean(*model, values);
      EXPECT_EQ(std::memcmp(&scanned, &expected, sizeof(double)), 0)
          << to_string(fidelity) << " / " << name << ": " << scanned
          << " vs " << expected;
    }
  }
}

TEST(MeanPowerScan, EvaluatesEachDistinctValueOnceUntilTheTableFills) {
  // A counting model: power_mW calls are the observable cost.
  class Counting final : public PowerModel {
   public:
    double power_mW(double value) const override {
      ++calls;
      return value * value;
    }
    PowerFidelity fidelity() const override {
      return PowerFidelity::kAnalytical;
    }
    mutable size_t calls = 0;
  };
  util::Rng rng(7);
  const std::vector<float> levels =
      workload::quantize(workload::Tensor::uniform({4096}, rng), 4).data();
  Counting counting;
  (void)counting.mean_power_mW(levels);
  EXPECT_LE(counting.calls, 16u);  // 4-bit grid: 15 levels plus -0

  // 1000 distinct values fill the table part way through; repeats of the
  // early (tabled) values are replayed, repeats of the late ones are
  // evaluated again — with the same result either way.
  std::vector<float> dense;
  for (int i = 0; i < 1000; ++i) dense.push_back(static_cast<float>(i) / 1e3f);
  for (int i = 0; i < 100; ++i) dense.push_back(dense[i]);
  for (int i = 900; i < 1000; ++i) dense.push_back(dense[i]);
  counting.calls = 0;
  const double scanned = counting.mean_power_mW(dense);
  EXPECT_EQ(counting.calls, 1100u);
  const double expected = sequential_mean(counting, dense);
  EXPECT_EQ(std::memcmp(&scanned, &expected, sizeof(double)), 0);
}

class PhaseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhaseSweep, ModelsAreSymmetricAndBounded) {
  const double v = GetParam();
  for (auto fidelity :
       {PowerFidelity::kDataUnaware, PowerFidelity::kAnalytical,
        PowerFidelity::kTabulated}) {
    auto m = make_phase_shifter_power(20.0, fidelity);
    EXPECT_NEAR(m->power_mW(v), m->power_mW(-v), 1e-9);
    EXPECT_GE(m->power_mW(v), 0.0);
    EXPECT_LE(m->power_mW(v), 20.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, PhaseSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace simphony::devlib
