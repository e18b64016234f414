#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace anatomy {

namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
    sm += 0x9E3779B97F4A7C15ULL;
  }
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  ANATOMY_CHECK(bound > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  ANATOMY_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

size_t Rng::NextDiscrete(std::span<const double> weights) {
  double total = 0;
  for (double w : weights) {
    ANATOMY_CHECK(w >= 0);
    total += w;
  }
  ANATOMY_CHECK(total > 0);
  double r = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // Floating-point slack lands on the last bin.
}

double Rng::NextGaussian() {
  // Box-Muller; one value per call keeps the generator stateless beyond s_.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t Rng::NextZipf(uint64_t n, double theta) {
  ANATOMY_CHECK(n > 0);
  if (theta <= 0.0 || n == 1) return NextBounded(n);
  // Rejection-inversion (Hörmann & Derflinger 1996), in the form of Apache
  // Commons RNG's RejectionInversionZipfSampler, over ranks 1..n; the
  // returned value is rank-1 so it is 0-based like the rest of the library.
  // H is an antiderivative of the hat x^-q. A proposal u is uniform on
  // (H(3/2) - 1, H(n + 1/2)] and k rounds H^-1(u), so rank 1 is proposed
  // with mass 1 = 1^-q and rank k >= 2 with H(k + 1/2) - H(k - 1/2) >= k^-q;
  // keeping a proposed k with probability k^-q / that mass leaves each rank
  // exactly its Zipf weight.
  const double q = theta;
  auto h = [q](double x) {
    return (q == 1.0) ? std::log(x) : (std::pow(x, 1.0 - q) - 1.0) / (1.0 - q);
  };
  auto h_inv = [q](double x) {
    return (q == 1.0) ? std::exp(x)
                      : std::pow(1.0 + x * (1.0 - q), 1.0 / (1.0 - q));
  };
  const double h_x1 = h(1.5) - 1.0;
  const double h_n = h(static_cast<double>(n) + 0.5);
  // Squeeze: a k within s of H^-1(u) is kept without evaluating the test.
  const double s = 2.0 - h_inv(h(2.5) - std::pow(2.0, -q));
  for (;;) {
    const double u = h_n + NextDouble() * (h_x1 - h_n);
    const double x = h_inv(u);
    const uint64_t k =
        std::clamp<uint64_t>(static_cast<uint64_t>(x + 0.5), 1, n);
    const double kd = static_cast<double>(k);
    if (kd - x <= s || u >= h(kd + 0.5) - std::pow(kd, -q)) return k - 1;
  }
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  ANATOMY_CHECK(k <= n);
  std::vector<uint32_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 4ULL >= n) {
    // Partial Fisher-Yates over an explicit index array.
    std::vector<uint32_t> idx(n);
    for (uint32_t i = 0; i < n; ++i) idx[i] = i;
    for (uint32_t i = 0; i < k; ++i) {
      uint32_t j = i + static_cast<uint32_t>(NextBounded(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  // Floyd's algorithm: O(k) expected, no O(n) allocation.
  std::vector<uint32_t> chosen;
  chosen.reserve(k);
  for (uint32_t j = n - k; j < n; ++j) {
    uint32_t t = static_cast<uint32_t>(NextBounded(j + 1));
    bool seen = false;
    for (uint32_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  // Shuffle so the result order carries no bias toward late indices.
  Shuffle(chosen);
  return chosen;
}

Rng Rng::Fork() { return Rng(Next()); }

std::vector<double> GeometricWeights(size_t n, double r) {
  ANATOMY_CHECK(n > 0);
  ANATOMY_CHECK(r > 0 && r <= 1.0);
  std::vector<double> w(n);
  double cur = 1.0;
  for (size_t i = 0; i < n; ++i) {
    w[i] = cur;
    cur *= r;
  }
  return w;
}

}  // namespace anatomy
