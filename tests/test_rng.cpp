// util::Rng against the standard library it mirrors.  The engine and the
// batched normal draw are hand-written for speed, so every value is
// compared with what std::mt19937_64 and the std distributions give on
// this toolchain: a standard library whose distributions differ fails
// here instead of silently moving the synthesized weights.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace simphony::util {
namespace {

constexpr uint64_t kSeeds[] = {0, 42, 0x5eed5eedULL, ~uint64_t{0}};

uint32_t bits_of(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(Mt19937_64, StreamMatchesStd) {
  for (const uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

/// Replays fixed words, so std::generate_canonical sees chosen inputs.
struct WordEngine {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  uint64_t word = 0;
  result_type operator()() { return word; }
};

TEST(UnitDouble, MatchesGenerateCanonical) {
  std::vector<uint64_t> words = {
      0, 1, 2, 0xffffffffULL, 0x100000000ULL, 0x1fffffffffffffULL,
      0x20000000000000ULL, 0x20000000000001ULL, 0x8000000000000000ULL,
      0x8000000000000001ULL, 0x80000000000003ffULL, 0x8000000000000400ULL,
      0x8000000000000401ULL, 0x8000000000000bffULL, 0x8000000000000c00ULL,
      0xfffffffffffff7ffULL, 0xfffffffffffff800ULL, 0xfffffffffffffbffULL,
      0xfffffffffffffc00ULL, 0xfffffffffffffffeULL, 0xffffffffffffffffULL};
  // For every top bit past 2^53: exact ties (round to even, both ways) and
  // the all-ones word that rounds up to the next power of two.
  for (int top = 53; top < 64; ++top) {
    const uint64_t base = uint64_t{1} << top;
    const uint64_t half_ulp = uint64_t{1} << (top - 53);
    words.push_back(base | half_ulp);
    words.push_back(base | (half_ulp << 1) | half_ulp);
    words.push_back(base | (half_ulp - 1));
    words.push_back(base + (base - 1));
  }
  std::mt19937_64 random(3);
  for (int i = 0; i < 200000; ++i) words.push_back(random());
  WordEngine engine;
  for (const uint64_t u : words) {
    engine.word = u;
    const double want =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(
            engine);
    ASSERT_EQ(unit_double(u), want) << std::hex << u;
  }
}

/// The pre-batching fill_normal: one fresh distribution per call.
std::vector<float> std_normal(std::mt19937_64& engine, size_t n, double mean,
                              double stddev) {
  std::vector<float> v(n);
  std::normal_distribution<double> d(mean, stddev);
  for (float& x : v) x = static_cast<float>(d(engine));
  return v;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << what << " n=" << got.size() << " at " << i;
  }
}

TEST(Rng, FillNormalMatchesFreshStdDistribution) {
  const size_t sizes[] = {0, 1, 2, 3, 311, 312, 313, 1001};
  for (const uint64_t seed : kSeeds) {
    for (const size_t n : sizes) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      std::vector<float> got(n);
      rng.fill_normal(got, 0.25, 0.75);
      expect_same_bits(got, std_normal(reference, n, 0.25, 0.75), "first");
      // Back to back: an odd count must leave the engine where the std
      // loop leaves it (the spare value is dropped, not carried over).
      std::vector<float> next(n + 5);
      rng.fill_normal(next, -1.0, 0.5);
      expect_same_bits(next, std_normal(reference, n + 5, -1.0, 0.5),
                       "second");
      EXPECT_EQ(rng.uniform_int(0, 1 << 30),
                std::uniform_int_distribution<int64_t>(0, 1 << 30)(reference));
    }
  }
}

TEST(Rng, FillUniformMatchesStd) {
  Rng rng(5);
  std::mt19937_64 reference(5);
  std::vector<float> got(1000);
  rng.fill_uniform(got, -1.0, 1.0);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (const float v : got) {
    ASSERT_EQ(bits_of(v), bits_of(static_cast<float>(d(reference))));
  }
}

TEST(Rng, ScalarDrawsMatchStd) {
  for (const uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(rng.uniform(-3.0, 5.0),
                std::uniform_real_distribution<double>(-3.0, 5.0)(reference));
      ASSERT_EQ(rng.uniform_int(-7, 1000),
                std::uniform_int_distribution<int64_t>(-7, 1000)(reference));
      ASSERT_EQ(rng.coin(0.3), std::bernoulli_distribution(0.3)(reference));
      ASSERT_EQ(rng.normal(1.0, 2.0),
                std::normal_distribution<double>(1.0, 2.0)(reference));
    }
  }
}

}  // namespace
}  // namespace simphony::util
