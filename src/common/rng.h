// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (Anatomize's random tuple draws,
// the CENSUS generator, workload generation) takes an explicit Rng so that
// experiments are reproducible bit-for-bit from a seed. The engine is
// xoshiro256**, seeded via SplitMix64; it is fast, high-quality, and its
// output is identical across platforms (unlike std::mt19937 distributions).

#ifndef ANATOMY_COMMON_RNG_H_
#define ANATOMY_COMMON_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace anatomy {

/// One step of the SplitMix64 sequence starting at `x`: advances by the
/// golden-ratio increment and applies the finalizer. Stateless; used to
/// derive independent child seeds (per-worker streams, forked generators)
/// with full avalanche, so nearby inputs (seed ^ 0, seed ^ 1, ...) yield
/// uncorrelated streams.
uint64_t SplitMix64(uint64_t x);

/// xoshiro256** PRNG with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// The canonical seed derivation for parallel workers: stream `stream_id`
  /// of master seed `seed` is Rng(SplitMix64(seed ^ stream_id)). Every
  /// component that shards work across threads derives its per-worker
  /// generators this way so results are reproducible from (seed, shard)
  /// alone, independent of thread scheduling.
  static Rng ForStream(uint64_t seed, uint64_t stream_id) {
    return Rng(SplitMix64(seed ^ stream_id));
  }

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p.
  bool NextBool(double p);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  size_t NextDiscrete(std::span<const double> weights);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Zipf-distributed value in [0, n) with exponent `theta` (theta = 0 is
  /// uniform). Uses the rejection-inversion method of Hörmann & Derflinger so
  /// setup is O(1) and draws are O(1) amortized.
  uint64_t NextZipf(uint64_t n, double theta);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (Floyd's algorithm for
  /// small k, otherwise a partial Fisher-Yates). Result is in random order.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  /// Forks an independent stream; the child is seeded from this stream's
  /// output so sub-generators do not correlate.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Builds a probability vector of `n` weights following a truncated geometric
/// shape with ratio `r` in (0, 1]; r = 1 yields the uniform distribution.
/// Useful for skewed categorical marginals in the data generator.
std::vector<double> GeometricWeights(size_t n, double r);

}  // namespace anatomy

#endif  // ANATOMY_COMMON_RNG_H_
