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
/// bitwise the uncapped evaluation. Scratch buffers are thread_local: its
/// callers (the estimator's step-4b link term, once per flow and hop in
/// every pass, and the ledger's reference replay of step 4) must stay
/// heap-free when warm, and estimators on different threads run it at once.
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

// ---- node kernels ------------------------------------------------------------

/// Two lanes of a node kernel (a GCC/Clang vector of two doubles). Rows of
/// lane pairs live in the caller's std::vector<double>, so the type may
/// alias it; operator new aligns any allocation of 16 bytes or more for it.
typedef double LanePair __attribute__((vector_size(16), may_alias));
static_assert(alignof(LanePair) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

constexpr LanePair kZeros = {0.0, 0.0};
constexpr LanePair kOnes = {1.0, 1.0};

/// Lane k of a row of lane pairs, read and written by value.
double lane(const LanePair* row, std::size_t k) { return row[k / 2][k % 2]; }
void set_lane(LanePair* row, std::size_t k, double v) { row[k / 2][k % 2] = v; }

/// Sizes the lane scratch to `count` pairs, grow-only, and returns it.
LanePair* lane_rows(std::vector<double>& scratch, std::size_t count) {
  if (scratch.size() < 2 * count) scratch.resize(2 * count);
  return reinterpret_cast<LanePair*>(scratch.data());
}

void check_out(std::span<const ActorLoad> loads, std::span<double> out) {
  if (out.size() != loads.size()) {
    throw std::invalid_argument("node kernel: one output slot per load");
  }
}

/// Lane k runs waiting_time_series(loads without loads[k], max_j).
void node_series(std::span<const ActorLoad> loads, std::size_t max_j,
                 std::vector<double>& scratch, std::span<double> out) {
  check_out(loads, out);
  const std::size_t n = loads.size();
  if (n <= 1) {  // a lone actor has no others: the per-actor kernel's 0
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t limit = std::min(max_j, n - 2);
  const std::size_t pairs = (n + 1) / 2;
  LanePair* e = lane_rows(scratch, (limit + 4) * pairs);  // e_j at e + j * pairs
  LanePair* ei = e + (limit + 1) * pairs;
  LanePair* series = ei + pairs;
  LanePair* total = series + pairs;

  // The symmetric-polynomial DP, every lane at the full cap; lane m keeps
  // its rows while load m goes in.
  std::fill(e, e + pairs, kOnes);
  std::fill(e + pairs, ei, kZeros);
  for (std::size_t m = 0; m < n; ++m) {
    const double x = loads[m].probability;
    for (std::size_t j = limit; j >= 1; --j) {
      LanePair* row = e + j * pairs;
      const LanePair* below = row - pairs;
      const double keep = lane(row, m);
      for (std::size_t b = 0; b < pairs; ++b) row[b] += x * below[b];
      set_lane(row, m, keep);
    }
  }

  // Per removed load i: the leave-one-out family and the series, j-outer,
  // then the total's term i, which lane i skips.
  std::fill(total, total + pairs, kZeros);
  for (std::size_t i = 0; i < n; ++i) {
    const double p = loads[i].probability;
    std::fill(ei, ei + pairs, kOnes);
    std::fill(series, series + pairs, kOnes);
    for (std::size_t j = 1; j <= limit; ++j) {
      const LanePair* row = e + j * pairs;
      const double d = static_cast<double>(j + 1);
      const bool exact_inverse = (j & (j + 1)) == 0;  // j + 1 a power of two
      const double r = 1.0 / d;
      const bool add = j % 2 == 1;
      for (std::size_t b = 0; b < pairs; ++b) {
        ei[b] = row[b] - p * ei[b];
        const LanePair term = exact_inverse ? ei[b] * r : ei[b] / d;
        series[b] = add ? series[b] + term : series[b] - term;
      }
    }
    const double w = loads[i].weighted_blocking();
    const double keep = lane(total, i);
    for (std::size_t b = 0; b < pairs; ++b) total[b] += w * series[b];
    set_lane(total, i, keep);
  }
  for (std::size_t k = 0; k < n; ++k) out[k] = lane(total, k);
}

}  // namespace

double waiting_time_exact(std::span<const ActorLoad> others) {
  return others.empty() ? 0.0 : waiting_time_series(others, others.size() - 1);
}

double waiting_time_approx(std::span<const ActorLoad> others, int order) {
  if (order < 1) throw std::invalid_argument("waiting_time_approx: order must be >= 1");
  return waiting_time_series(others, static_cast<std::size_t>(order - 1));
}

void node_waiting_times(std::span<const ActorLoad> loads, int order,
                        std::vector<double>& scratch, std::span<double> out) {
  if (order < 1) throw std::invalid_argument("node_waiting_times: order must be >= 1");
  node_series(loads, static_cast<std::size_t>(order - 1), scratch, out);
}

void node_composed_waiting_times(std::span<const ActorLoad> loads,
                                 std::vector<double>& scratch, std::span<double> out) {
  check_out(loads, out);
  const std::size_t n = loads.size();
  const std::size_t pairs = (n + 1) / 2;
  LanePair* probability = lane_rows(scratch, 2 * pairs);
  LanePair* weighted = probability + pairs;
  std::fill(probability, probability + 2 * pairs, kZeros);  // Composite::identity()
  for (std::size_t m = 0; m < n; ++m) {
    // compose(acc, to_composite(loads[m])), Eq. 6 and 7, term by term.
    const double pm = loads[m].probability;
    const double wm = loads[m].weighted_blocking();
    const double grow = 1.0 + pm / 2.0;
    const double keep_p = lane(probability, m);
    const double keep_w = lane(weighted, m);
    for (std::size_t b = 0; b < pairs; ++b) {
      const LanePair pa = probability[b];
      probability[b] = pa + pm - pa * pm;
      weighted[b] = weighted[b] * grow + wm * (1.0 + pa / 2.0);
    }
    set_lane(probability, m, keep_p);
    set_lane(weighted, m, keep_w);
  }
  for (std::size_t k = 0; k < n; ++k) out[k] = lane(weighted, k);
}

}  // namespace procon::prob
