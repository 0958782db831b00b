#include "sdf/exec_time.h"

#include <algorithm>
#include <cmath>

#include "sdf/graph.h"

namespace procon::sdf {

ExecTimeDistribution::ExecTimeDistribution(std::vector<Outcome> outcomes)
    : outcomes_(std::move(outcomes)) {
  if (outcomes_.empty()) {
    throw std::invalid_argument("ExecTimeDistribution: empty outcome set");
  }
  double total = 0.0;
  for (const Outcome& o : outcomes_) {
    if (o.value < 0) {
      throw std::invalid_argument("ExecTimeDistribution: negative time");
    }
    if (o.weight <= 0.0) {
      throw std::invalid_argument("ExecTimeDistribution: non-positive weight");
    }
    total += o.weight;
  }
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const Outcome& a, const Outcome& b) { return a.value < b.value; });
  cumulative_.reserve(outcomes_.size());
  double acc = 0.0;
  for (Outcome& o : outcomes_) {
    o.weight /= total;
    acc += o.weight;
    cumulative_.push_back(acc);
    const auto v = static_cast<double>(o.value);
    mean_ += o.weight * v;
    m2_ += o.weight * v * v;
  }
  cumulative_.back() = 1.0;  // guard against rounding drift
}

ExecTimeDistribution::ExecTimeDistribution(std::vector<Outcome> outcomes, Normalised)
    : outcomes_(std::move(outcomes)) {
  if (outcomes_.empty()) {
    throw std::invalid_argument("ExecTimeDistribution: empty outcome set");
  }
  cumulative_.reserve(outcomes_.size());
  double acc = 0.0;
  Time prev = -1;
  for (const Outcome& o : outcomes_) {
    if (o.value < 0 || o.value <= prev) {
      throw std::invalid_argument(
          "ExecTimeDistribution: from_normalised requires ascending values");
    }
    if (o.weight <= 0.0) {
      throw std::invalid_argument("ExecTimeDistribution: non-positive weight");
    }
    prev = o.value;
    // Same accumulation order as the normalising constructor, minus the
    // division — feeding outcomes() back in reproduces every derived field
    // bitwise.
    acc += o.weight;
    cumulative_.push_back(acc);
    const auto v = static_cast<double>(o.value);
    mean_ += o.weight * v;
    m2_ += o.weight * v * v;
  }
  // Negated so a NaN or infinite weight (and so a NaN or infinite sum)
  // fails too.
  if (!(std::abs(acc - 1.0) <= kWeightSumTolerance)) {
    throw std::invalid_argument(
        "ExecTimeDistribution: from_normalised weights must sum to 1");
  }
  cumulative_.back() = 1.0;  // guard against rounding drift
}

ExecTimeDistribution ExecTimeDistribution::from_normalised(
    std::vector<Outcome> outcomes) {
  return ExecTimeDistribution(std::move(outcomes), Normalised{});
}

ExecTimeDistribution ExecTimeDistribution::constant(Time value) {
  return ExecTimeDistribution({Outcome{value, 1.0}});
}

ExecTimeDistribution ExecTimeDistribution::uniform(Time lo, Time hi) {
  if (lo < 0) throw std::invalid_argument("ExecTimeDistribution: negative time");
  if (lo > hi) throw std::invalid_argument("ExecTimeDistribution: lo > hi");
  // 0 <= lo <= hi, so the width cannot overflow; counting offsets from lo
  // keeps hi == kTimeInfinity from overflowing the loop variable.
  const Time span = hi - lo;
  if (span >= kMaxUniformOutcomes) {
    throw std::invalid_argument(
        "ExecTimeDistribution: uniform range wider than kMaxUniformOutcomes");
  }
  std::vector<Outcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(span + 1));
  for (Time i = 0; i <= span; ++i) outcomes.push_back(Outcome{lo + i, 1.0});
  return ExecTimeDistribution(std::move(outcomes));
}

ExecTimeDistribution ExecTimeDistribution::discrete(std::vector<Outcome> outcomes) {
  return ExecTimeDistribution(std::move(outcomes));
}

Time ExecTimeDistribution::sample(util::Rng& rng) const {
  if (outcomes_.size() == 1) return outcomes_[0].value;
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cumulative_.begin());
  return outcomes_[std::min(idx, outcomes_.size() - 1)].value;
}

ExecTimeModel constant_model(const Graph& g) {
  ExecTimeModel model;
  model.reserve(g.actor_count());
  for (const Actor& a : g.actors()) {
    model.push_back(ExecTimeDistribution::constant(a.exec_time));
  }
  return model;
}

}  // namespace procon::sdf
