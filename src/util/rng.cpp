#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace simphony::util {

namespace {

// MT19937-64 parameters (std::mt19937_64).
constexpr size_t kMiddle = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;

uint64_t twist(uint64_t cur, uint64_t next, uint64_t middle) {
  const uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
  return middle ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

uint64_t temper(uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) : block_{} {
  state_[0] = seed;
  for (size_t i = 1; i < kWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  // x[i] = twist(x[i], x[i+1], x[i+m]) with indices mod n, split where
  // i + 1 and i + m wrap; each new word is tempered as it is made.
  for (size_t i = 0; i < kWords - kMiddle; ++i) {
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kMiddle]);
    block_[i] = temper(state_[i]);
  }
  for (size_t i = kWords - kMiddle; i < kWords - 1; ++i) {
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kMiddle - kWords]);
    block_[i] = temper(state_[i]);
  }
  state_[kWords - 1] =
      twist(state_[kWords - 1], state_[0], state_[kMiddle - 1]);
  block_[kWords - 1] = temper(state_[kWords - 1]);
  next_ = 0;
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::coin(double p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

void Rng::fill_normal(std::span<float> out, double mean, double stddev) {
  // libstdc++'s normal_distribution is Marsaglia's polar method: draw x, y
  // uniform in [-1, 1) until 0 < r2 = x*x + y*y <= 1, then return y * mult
  // and save x * mult for the next draw, mult = sqrt(-2 log(r2) / r2).
  // Each batch draws at most the pairs still owed, so the engine stops
  // where the std loop would; a rejected pair is simply overwritten.
  constexpr size_t kBatch = 256;
  std::array<double, kBatch> xs{};
  std::array<double, kBatch> ys{};
  std::array<double, kBatch> r2s{};
  size_t done = 0;
  while (done < out.size()) {
    const size_t owed = out.size() - done;
    const size_t draws = std::min((owed + 1) / 2, kBatch);
    size_t kept = 0;
    for (size_t i = 0; i < draws; ++i) {
      const double x = 2.0 * unit_double(engine_()) - 1.0;
      const double y = 2.0 * unit_double(engine_()) - 1.0;
      const double r2 = x * x + y * y;
      xs[kept] = x;
      ys[kept] = y;
      r2s[kept] = r2;
      kept += static_cast<size_t>((r2 <= 1.0) & (r2 != 0.0));
    }
    for (size_t i = 0; i < kept; ++i) {  // r2 -> mult, in place
      r2s[i] = std::sqrt(-2 * std::log(r2s[i]) / r2s[i]);
    }
    // An odd count ends on a pair whose spare x is dropped.
    const size_t pairs = std::min(kept, owed / 2);
    for (size_t i = 0; i < pairs; ++i) {
      out[done++] = static_cast<float>(ys[i] * r2s[i] * stddev + mean);
      out[done++] = static_cast<float>(xs[i] * r2s[i] * stddev + mean);
    }
    if (kept > pairs) {
      out[done++] = static_cast<float>(ys[pairs] * r2s[pairs] * stddev + mean);
    }
  }
}

void Rng::fill_uniform(std::span<float> out, double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  for (float& x : out) x = static_cast<float>(d(engine_));
}

}  // namespace simphony::util
