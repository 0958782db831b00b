// Elementary symmetric polynomials.
//
// Equation 4 of the paper sums, for each actor, terms of the form
//   (-1)^{j+1}/(j+1) * e_j(P_1 .. P_{i-1}, P_{i+1} .. P_n)
// where e_j is the j-th elementary symmetric polynomial of the *other*
// actors' blocking probabilities. Evaluated naively this is O(n^n); the
// standard Newton-style DP below evaluates all e_0..e_n in O(n^2) once,
// and each leave-one-out family in O(n) by polynomial division, giving the
// mathematically exact value of Eq. 4 at polynomial cost.
//
// Both steps take a degree cap m: e_j depends only on e_0..e_j, so a capped
// call runs the same floating-point operations in the same order on every
// retained degree and skips the rest — bitwise the uncapped values for
// j <= m, in O(n*m) for the DP and O(m) per removal. The m-th order
// truncations of Eq. 4 (prob/waiting_time.h) need only degrees < m.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace procon::util {

/// Degree-cap value that keeps every degree (the default of the capped calls).
inline constexpr std::size_t kAllDegrees = std::numeric_limits<std::size_t>::max();

/// Returns e_0..e_n for the n given values: result[j] = e_j(x_1..x_n).
/// e_0 is always 1. O(n^2) time, O(n) space.
[[nodiscard]] std::vector<double> elementary_symmetric(std::span<const double> xs);

/// Reuse variant: fills `out` in place with n+1 entries (same values as
/// elementary_symmetric). With a `max_degree` cap only e_0..e_{max_degree}
/// are computed, bitwise as without the cap, in O(n*max_degree); the
/// entries above the cap are 0. Warm calls within the vector's capacity
/// perform no heap allocation — the hot estimation loop hands the same
/// scratch back per actor.
void elementary_symmetric_into(std::span<const double> xs, std::vector<double>& out,
                               std::size_t max_degree = kAllDegrees);

/// Given e = e_0..e_n of (x_1..x_n), returns e'_0..e'_{n-1} of the multiset
/// with one occurrence of `removed` deleted. This is synthetic division of
/// the generating polynomial prod(1 + x_i t) by (1 + removed * t): O(n).
/// Throws std::invalid_argument on an empty `e` (it holds at least e_0).
///
/// Forward recurrence e'_j = e_j - removed * e'_{j-1}. It amplifies
/// rounding error as the values approach 1; prob/waiting_time.h gives the
/// measured growth.
[[nodiscard]] std::vector<double> elementary_symmetric_remove_one(
    std::span<const double> e, double removed);

/// Reuse variant of elementary_symmetric_remove_one (see
/// elementary_symmetric_into). With a `max_degree` cap, `out` holds only
/// e'_0..e'_K, K = min(n-1, max_degree), bitwise as without the cap: O(K).
/// It reads e_0..e_K alone, so `e` may come from elementary_symmetric_into
/// with the same cap.
void elementary_symmetric_remove_one_into(std::span<const double> e, double removed,
                                          std::vector<double>& out,
                                          std::size_t max_degree = kAllDegrees);

/// Directly computes e_j(xs) for a single j via the full DP (helper mainly
/// for tests; prefer elementary_symmetric for all orders at once).
[[nodiscard]] double elementary_symmetric_single(std::span<const double> xs,
                                                 std::size_t j);

}  // namespace procon::util
