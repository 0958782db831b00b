// Exact throughput via self-timed state-space execution.
//
// Executes the SDFG under self-timed semantics (every actor fires as soon
// as its input tokens are available; dedicated resource per actor; no
// auto-concurrency) and detects the recurrent state, following Ghamarian et
// al., "Throughput Analysis of Synchronous Data Flow Graphs" (ACSD 2006) -
// reference [5] of the paper. Because execution times are integers the
// period is an exact rational: (cycle duration) / (iterations per cycle).
//
// This engine requires integral execution times; the MCR engine handles the
// real-valued response-time graphs produced by the contention estimator.
// Both must agree on integer graphs - a property exercised by the tests.
#pragma once

#include <cstdint>
#include <optional>

#include "sdf/graph.h"
#include "sdf/repetition.h"
#include "util/rational.h"

namespace procon::analysis {

struct StateSpaceOptions {
  /// Safety cap on executed firings before giving up (0 = default).
  std::uint64_t max_firings = 0;
};

struct StateSpaceResult {
  bool deadlocked = false;
  bool converged = false;          ///< recurrent state found within the cap
  std::uint64_t firing_cap = 0;    ///< the cap this run used (options or default)
  util::Rational period{0};        ///< time units per graph iteration
  sdf::Time transient_end = 0;     ///< time at which the periodic phase began
  std::uint64_t iterations_in_cycle = 0;
  sdf::Time cycle_duration = 0;
};

/// Runs self-timed execution of `g` until the state recurs. The graph must
/// be consistent; inconsistent graphs yield deadlocked=true, converged=false.
/// Throws sdf::GraphError when the execution clock would pass INT64_MAX
/// (execution times too large for sdf::Time arithmetic).
[[nodiscard]] StateSpaceResult self_timed_period(const sdf::Graph& g,
                                                 const StateSpaceOptions& opts = {});

}  // namespace procon::analysis
