// Maximum cycle ratio (MCR) analysis of an HSDF graph.
//
// The self-timed steady-state period of a strongly connected HSDF equals
//   max over directed cycles C of ( sum of node execution times on C )
//                                / ( sum of edge tokens on C ),
// the maximum cycle ratio (Reiter '68; Dasdan '04 [4] surveys algorithms).
// Node weights are folded onto outgoing edges so the problem becomes a
// standard edge-weighted cycle-ratio maximisation.
//
// Two engines are provided:
//  * `mcr_binary_search` - Lawler's parametric search with Bellman-Ford
//    positive-cycle detection. Robust for real-valued weights; O(VE log(1/eps)).
//  * `mcr_enumerate` - exact simple-cycle enumeration (Johnson-style DFS),
//    exponential, only for small graphs; used to cross-validate in tests.
//
// A cycle whose token sum is zero means the graph deadlocks (infinite
// ratio); detected and reported.
#pragma once

#include <optional>
#include <vector>

#include "analysis/hsdf.h"

namespace procon::analysis {

/// Result of an MCR computation.
struct McrResult {
  /// True if a zero-token cycle exists (deadlock: period unbounded).
  bool deadlocked = false;
  /// The maximum cycle ratio = steady-state iteration period. Valid when
  /// !deadlocked and the graph has at least one cycle.
  double ratio = 0.0;
  /// False if the graph is acyclic (ratio meaningless; period 0 between
  /// iterations in the limit).
  bool has_cycle = false;
};

/// Options for the parametric search.
struct McrOptions {
  double relative_tolerance = 1e-10;  ///< binary search convergence
  int max_iterations = 128;           ///< hard cap on bisection steps
};

/// Lawler binary search; works on any HSDF. Never throws.
[[nodiscard]] McrResult mcr_binary_search(const Hsdf& h, const McrOptions& opts = {});

/// Exhaustive simple-cycle enumeration; throws std::invalid_argument if the
/// graph has more than `max_nodes` nodes (guard against blow-up).
[[nodiscard]] McrResult mcr_enumerate(const Hsdf& h, std::size_t max_nodes = 24);

/// Default engine: Howard's policy iteration (see howard.h) - ~5x faster
/// than the parametric search on this library's expansions and
/// cross-validated against it on thousands of random graphs in the tests.
/// mcr_binary_search remains the robust reference implementation.
[[nodiscard]] McrResult maximum_cycle_ratio(const Hsdf& h);

/// MCR plus the cycle achieving it. The critical cycle explains *why* a
/// graph has its period: the actors on it form the performance bottleneck
/// (useful for mapping exploration and design feedback). The cycle is
/// returned as HSDF node indices in traversal order; empty when the graph
/// is acyclic or deadlocked.
struct CriticalCycleResult {
  McrResult mcr;
  std::vector<std::uint32_t> cycle;
};

/// Default engine: Howard's policy iteration. The final policy's functional
/// graph contains a maximum-ratio cycle, so after the solve the critical
/// cycle is one policy walk — no parametric re-search, hence no tolerance
/// options. The ratio is exact (a cycle's weight/token quotient), not a
/// bisection midpoint.
[[nodiscard]] CriticalCycleResult mcr_with_critical_cycle(const Hsdf& h);

/// Reference path: Lawler parametric search, then Bellman-Ford predecessor
/// tracking slightly below lambda* to expose one critical cycle. Slower and
/// tolerance-bound; kept as the cross-validation oracle for the Howard
/// policy-graph extraction (see test_mcr.cpp).
[[nodiscard]] CriticalCycleResult mcr_with_critical_cycle_lawler(
    const Hsdf& h, const McrOptions& opts = {});

}  // namespace procon::analysis
