#include "prob/waiting_time.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/symmetric_poly.h"

namespace procon::prob {
namespace {

/// Shared core: evaluates the series truncated at inner degree `max_j`
/// (max_j = n-1 gives the exact Eq. 4). Only e_0..e_limit enter the sum, so
/// both symmetric-polynomial steps are capped there: O(n * limit) per call,
/// bitwise the uncapped evaluation. Scratch buffers are thread_local —
/// this sits in the innermost estimation loop (once per actor per node per
/// pass), so warm calls must not touch the heap, and sharded estimator
/// passes run it concurrently from pool workers.
double waiting_time_series(std::span<const ActorLoad> others, std::size_t max_j) {
  const std::size_t n = others.size();
  if (n == 0) return 0.0;
  const std::size_t limit = std::min(max_j, n - 1);

  static thread_local std::vector<double> probs;
  static thread_local std::vector<double> e;
  static thread_local std::vector<double> ei;
  probs.resize(n);
  for (std::size_t i = 0; i < n; ++i) probs[i] = others[i].probability;
  util::elementary_symmetric_into(probs, e, limit);

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Elementary symmetric polynomials of the probabilities excluding i.
    util::elementary_symmetric_remove_one_into(e, probs[i], ei, limit);
    double series = 1.0;
    double sign = 1.0;
    for (std::size_t j = 1; j <= limit; ++j) {
      series += sign * ei[j] / static_cast<double>(j + 1);
      sign = -sign;
    }
    total += others[i].weighted_blocking() * series;
  }
  return total;
}

}  // namespace

double waiting_time_exact(std::span<const ActorLoad> others) {
  return others.empty() ? 0.0 : waiting_time_series(others, others.size() - 1);
}

double waiting_time_approx(std::span<const ActorLoad> others, int order) {
  if (order < 1) throw std::invalid_argument("waiting_time_approx: order must be >= 1");
  return waiting_time_series(others, static_cast<std::size_t>(order - 1));
}

}  // namespace procon::prob
