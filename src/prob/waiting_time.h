// Expected waiting-time evaluation (Equations 3, 4 and 5 of the paper).
//
// Given the set of *other* actors sharing a node (each summarised as an
// ActorLoad), these functions return the expected time a newly arriving
// actor waits before the node becomes free.
//
// Equation 4:
//   t_wait = sum_i mu_i P_i * ( 1 + sum_{j=1}^{n-1} (-1)^{j+1}/(j+1)
//                                   e_j(P_1..P_{i-1}, P_{i+1}..P_n) )
// where e_j is the j-th elementary symmetric polynomial. The naive
// evaluation is O(n * n^n); here all e_j families are obtained by one
// O(n^2) DP plus an O(n) leave-one-out division per actor (see
// util/symmetric_poly.h), which computes the *identical* value in O(n^2).
//
// The m-th order approximation truncates the inner sum at j <= m-1
// (Eq. 5 is the case m = 2); the paper evaluates m = 2 and m = 4. It needs
// only e_0..e_{m-1}, so both steps stop at that degree: O(n*m) per call
// (O(n) for Eq. 5), bitwise the value of the full O(n^2) evaluation. The
// exact form keeps every degree and stays O(n^2) per call.
//
// Saturation (P -> 1): the leave-one-out division e'_j = e_j - P e'_{j-1}
// amplifies rounding error when the probabilities approach 1. Against a
// long double evaluation that rebuilds each actor's e_j without division
// (tests/test_waiting_time.cpp), the worst relative error of
// waiting_time_exact over 2000 draws of n loads with P in [0.9, 1], a
// quarter of them exactly 1, was 2.4e-14 at n = 10, 6.7e-13 at n = 15,
// 1.8e-11 at n = 20, 4.8e-10 at n = 25 and 1.2e-8 at n = 30: roughly a
// doubling per added actor. The test bounds n <= 20 at 1e-9.
#pragma once

#include <span>

#include "prob/load.h"

namespace procon::prob {

/// Exact expected waiting time (Eq. 4) over the given other-actor loads.
/// Empty input yields 0.
[[nodiscard]] double waiting_time_exact(std::span<const ActorLoad> others);

/// m-th order approximation (Eq. 5 generalised). `order` >= 1; order == 1
/// keeps only the leading mu*P terms, order == 2 reproduces Eq. 5, and
/// order >= n is identical to the exact formula.
[[nodiscard]] double waiting_time_approx(std::span<const ActorLoad> others, int order);

/// Convenience wrappers for the two orders the paper evaluates.
[[nodiscard]] inline double waiting_time_second_order(std::span<const ActorLoad> o) {
  return waiting_time_approx(o, 2);
}
[[nodiscard]] inline double waiting_time_fourth_order(std::span<const ActorLoad> o) {
  return waiting_time_approx(o, 4);
}

}  // namespace procon::prob
