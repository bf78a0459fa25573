// Deterministic random number helpers.  All workload synthesis (weights,
// activations, pruning masks) flows through this so experiments are
// reproducible run-to-run without a global seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace simphony::util {

/// MT19937-64 with std::mt19937_64's seeding and output stream, word for
/// word.  A refill twists the 312-word state and tempers it into an output
/// block in one pass, so a draw is a load and an index bump.  Satisfies
/// UniformRandomBitGenerator, so the std distributions accept it.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kWords) refill();
    return block_[next_++];
  }

 private:
  static constexpr size_t kWords = 312;

  void refill();

  std::array<uint64_t, kWords> state_;
  std::array<uint64_t, kWords> block_;  // tempered words of state_
  size_t next_ = kWords;
};

/// std::generate_canonical<double, 53> of one 64-bit word: double(u) / 2^64,
/// pulled down to nextafter(1, 0) when the conversion rounds up to 2^64.
/// Both 32-bit halves convert exactly and their sum rounds once, so this is
/// the same double without the sign-bit branch of an unsigned-to-double
/// conversion.
inline double unit_double(uint64_t u) {
  const auto hi = static_cast<double>(static_cast<int64_t>(u >> 32));
  const auto lo = static_cast<double>(static_cast<int64_t>(u & 0xffffffffULL));
  const double v = (hi * 0x1p32 + lo) * 0x1p-64;
  return v < 0x1.fffffffffffffp-1 ? v : 0x1.fffffffffffffp-1;
}

/// A seeded mersenne-twister wrapper with convenience distributions.  Every
/// value equals what the matching std distribution draws from
/// std::mt19937_64 with the same seed (tests/test_rng.cpp).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Normal with given mean/stddev.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Bernoulli(p).
  bool coin(double p = 0.5);

  /// Fills `out` from normal(mean, stddev): the values of one fresh
  /// std::normal_distribution drawn out.size() times (the spare of an odd
  /// count is dropped), computed in batches.
  void fill_normal(std::span<float> out, double mean, double stddev);

  /// Fills `out` from uniform[lo, hi).
  void fill_uniform(std::span<float> out, double lo, double hi);

 private:
  Mt19937_64 engine_;
};

}  // namespace simphony::util
