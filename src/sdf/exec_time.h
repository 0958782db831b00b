// Execution-time distributions (the paper's Section 6 extension: "the
// approach can be easily extended to varying execution times, for example,
// in data dependent executions where execution times are not fixed but
// follow a probabilistic distribution").
//
// A distribution supplies the two moments the probabilistic analysis needs:
//   P(a)  uses the mean:            P = E[tau] * q / Per
//   mu(a) uses the residual life:   mu = E[tau^2] / (2 E[tau])
// (for a constant time tau this degenerates to the paper's tau/2), and a
// sampler for the discrete-event simulator.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sdf/types.h"
#include "util/rng.h"

namespace procon::sdf {

/// A discrete probability distribution over integer execution times.
/// Supported shapes: constant, uniform over [lo, hi], and an explicit
/// probability mass function.
class ExecTimeDistribution {
 public:
  /// Degenerate distribution at `value` (the paper's base model).
  static ExecTimeDistribution constant(Time value);

  /// Widest uniform range accepted: uniform() stores one outcome per
  /// integer, so a hostile range must fail before it sizes an allocation.
  static constexpr Time kMaxUniformOutcomes = Time{1} << 20;

  /// Uniform over the integers lo..hi inclusive. Throws
  /// std::invalid_argument when lo < 0, lo > hi, or the range holds more
  /// than kMaxUniformOutcomes integers.
  static ExecTimeDistribution uniform(Time lo, Time hi);

  /// Explicit pmf: entries (value, weight); weights are normalised.
  struct Outcome {
    Time value = 0;
    double weight = 1.0;
  };
  static ExecTimeDistribution discrete(std::vector<Outcome> outcomes);

  /// How far the weights passed to from_normalised() may sum from 1.
  static constexpr double kWeightSumTolerance = 1e-9;

  /// Reconstruction from an already-normalised outcome list (values
  /// ascending, weights summing to 1 within kWeightSumTolerance), as
  /// produced by outcomes(). Skips the normalising division, so a
  /// distribution rebuilt from its own outcomes() is *bitwise* identical
  /// (weights, mean, moments, sampling) — the contract sdf::io's text
  /// round trip relies on. Throws std::invalid_argument on empty, unsorted
  /// or non-positive input, and on weights that are not finite or do not
  /// sum to 1.
  static ExecTimeDistribution from_normalised(std::vector<Outcome> outcomes);

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double second_moment() const noexcept { return m2_; }
  [[nodiscard]] double variance() const noexcept { return m2_ - mean_ * mean_; }

  /// Expected residual service time seen by a random arrival while a firing
  /// is in progress: E[tau^2] / (2 E[tau]) (renewal theory; equals tau/2
  /// for constant tau, matching Definition 5). Zero for a zero-mean
  /// distribution.
  [[nodiscard]] double mean_residual() const noexcept {
    return mean_ > 0.0 ? m2_ / (2.0 * mean_) : 0.0;
  }

  [[nodiscard]] bool is_constant() const noexcept { return outcomes_.size() == 1; }

  /// Draws one execution time.
  [[nodiscard]] Time sample(util::Rng& rng) const;

  [[nodiscard]] const std::vector<Outcome>& outcomes() const noexcept {
    return outcomes_;
  }

 private:
  explicit ExecTimeDistribution(std::vector<Outcome> outcomes);
  struct Normalised {};  // tag: outcomes are already sorted + normalised
  ExecTimeDistribution(std::vector<Outcome> outcomes, Normalised);

  std::vector<Outcome> outcomes_;  // normalised weights, values ascending
  std::vector<double> cumulative_;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// One distribution per actor of a graph.
using ExecTimeModel = std::vector<ExecTimeDistribution>;

/// The trivial model matching the graph's fixed times.
[[nodiscard]] ExecTimeModel constant_model(const class Graph& g);

}  // namespace procon::sdf
