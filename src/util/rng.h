// Deterministic pseudo-random number generation (xoshiro256**).
//
// All stochastic components (graph generation, simulator tie-breaking,
// use-case sampling) draw from this engine so experiments are exactly
// reproducible from a single seed, independent of the standard library's
// distribution implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace procon::util {

/// xoshiro256** 1.0 by Blackman & Vigna: fast, high-quality 64-bit generator.
///
/// Satisfies std::uniform_random_bit_generator so it can also be used with
/// <random> distributions if desired.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 expansion of `seed` (any value, including 0, is fine).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of a random-access range.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    for (std::size_t i = c.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derive an independent child generator (for parallel workloads).
  [[nodiscard]] Rng split() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Root of a counter-derived random stream: mixes (seed, stream, index)
/// through two splitmix64 avalanche rounds into one well-distributed 64-bit
/// value. Draw k of stream s is a pure function of (seed, s, k) — the
/// primitive for counter-indexed work (e.g. the benchmark's per-op draws):
/// work items can be evaluated in any order, on any worker, without
/// consuming a shared generator.
[[nodiscard]] std::uint64_t counter_seed(std::uint64_t seed, std::uint64_t stream,
                                         std::uint64_t index) noexcept;

/// An Rng seeded with counter_seed(seed, stream, index) — an independent
/// short generator for one counter-indexed work item.
[[nodiscard]] Rng counter_rng(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t index) noexcept;

}  // namespace procon::util
