// Buffer-capacity / throughput trade-off exploration.
//
// Bounded channel buffers create back-pressure and lengthen the period;
// larger buffers cost memory. Following the trade-off framing of Stuijk et
// al. ([16], cited by the paper), this explorer greedily grows capacities
// from the minimal feasible configuration, one production quantum at a
// time, always expanding the channel that improves the analytic period
// most per token, and records the Pareto frontier (total buffer size vs
// period).
//
// Each candidate capacity vector is solved by a fresh ThroughputEngine on
// the bounded copy of the graph (sdf::with_buffer_capacities). The
// self-loop closure and the repetition vector, which every bounded variant
// shares, are computed once per exploration.
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"

namespace procon::dse {

struct BufferPoint {
  std::vector<std::uint64_t> capacities;  ///< per channel
  std::uint64_t total_tokens = 0;         ///< sum of capacities
  double period = 0.0;                    ///< analytic period when so bounded
};

/// The walk stops once the period is within this relative distance of the
/// unbounded period.
inline constexpr double kBufferConvergence = 1e-9;

struct BufferExplorerOptions {
  std::size_t max_steps = 256;  ///< capacity increments to try
};

/// Explores the trade-off for one application graph. The first point is the
/// minimal feasible configuration, the last is (near-)unbounded
/// performance; points are strictly improving in period and increasing in
/// total buffer size (a Pareto staircase). Throws sdf::GraphError for
/// graphs that deadlock unbounded. (Session entry point:
/// api::Workbench::buffer_frontier, same bits plus provenance.)
[[nodiscard]] std::vector<BufferPoint> explore_buffer_tradeoff(
    const sdf::Graph& g, const BufferExplorerOptions& options = {});

}  // namespace procon::dse
