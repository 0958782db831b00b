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
// Two forms of each method:
//
//  * The per-actor functions (waiting_time_exact/approx/second_order/
//    fourth_order here, compose_all in prob/compose.h) take one actor's
//    *other* loads. They are the reference definition: the ledger's
//    Figure 4 replay (ledger/common.cpp) calls them per actor and compares
//    every op bit for bit with ContentionEstimator::estimate_into.
//  * The node kernels (node_waiting_times for the series, node_composed_
//    waiting_times for the Eq. 6/7 fold) take *every* load of a node and
//    write all of its waiting times in one pass. Lane k of a kernel runs
//    exactly the floating-point operations of the per-actor function on
//    the node's loads without loads[k], in node order, so out[k] equals it
//    bit for bit (WaitingTime.NodeKernelMatchesPerActorBitwise). The
//    estimator's step 4 calls them once per node.
//
// Lane layout (private to waiting_time.cpp; the caller only lends a
// grow-only std::vector<double>): a node of n loads has n lanes, padded to
// whole pairs of doubles, one SSE2 operation per arithmetic step. The loads
// are broadcast scalars; a lane holds the state of one actor's evaluation.
// Series kernel (Eq. 4/5): rows e_0..e_limit of the symmetric-polynomial
// DP, then the leave-one-out family e', the series and the running total,
// each a row of lanes; limit = min(order - 1, n - 2), the per-actor cap.
// Every lane runs the full cap from the first load on: degrees above the
// loads a lane has seen hold exact zeros, and P is finite and >= 0, so the
// extra updates change no bit. The series runs j-outer, lane-inner;
// sign * e'_j / (j+1) becomes alternating += / -= of e'_j / (j+1), exact
// under round-to-nearest, and a division becomes a multiply only where
// j + 1 is a power of two. The total adds w_i * series_i in node order.
// Composability kernel (Eq. 6/7): a P row and a mu*P row, folded over the
// node's loads in order from the identity. Wherever lane k would meet its
// own load k (a DP update, a total term, a fold step), it keeps its old
// value, a select and not a multiply by zero. Per node of n loads the
// series kernel costs O(n^2 * limit) lane operations and the fold O(n^2),
// two lanes to a vector instruction. The identity needs both forms to
// round a*b+c alike: the default x86-64 build has no FMA to contract
// into, and the bitwise tests fail on a build that contracts differently.
//
// Saturation (P -> 1): the leave-one-out division e'_j = e_j - P e'_{j-1}
// amplifies rounding error when the probabilities approach 1. Against a
// long double evaluation that rebuilds each actor's e_j without division
// (tests/test_waiting_time.cpp), the worst relative error of
// waiting_time_exact over 2000 draws of n loads with P in [0.9, 1], a
// quarter of them exactly 1, was 2.4e-14 at n = 10, 6.7e-13 at n = 15,
// 1.8e-11 at n = 20, 4.8e-10 at n = 25 and 1.2e-8 at n = 30: roughly a
// doubling per added actor. The test bounds n <= 20 at 1e-9. The node
// kernels carry the same bits and so the same error.
#pragma once

#include <span>
#include <vector>

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

/// Node kernel of the series (Eq. 4/5): out[k] is, bit for bit,
/// waiting_time_approx(loads without loads[k], order), in node order. An
/// order of at least loads.size() - 1 keeps every degree, so out[k] is then
/// waiting_time_exact of those loads. `scratch` holds the lanes: hand the
/// same vector back per node and pass, and calls within its capacity
/// perform no heap allocation. `order` >= 1 and `out` must hold
/// loads.size() entries (throws std::invalid_argument).
void node_waiting_times(std::span<const ActorLoad> loads, int order,
                        std::vector<double>& scratch, std::span<double> out);

/// Node kernel of the composability fold: out[k] is, bit for bit,
/// compose_all(loads without loads[k]).weighted_blocking (prob/compose.h).
/// `scratch` as for node_waiting_times; `out` must hold loads.size()
/// entries (throws std::invalid_argument).
void node_composed_waiting_times(std::span<const ActorLoad> loads,
                                 std::vector<double>& scratch, std::span<double> out);

}  // namespace procon::prob
