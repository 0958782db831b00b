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
// Candidates are evaluated incrementally: a capacity bump only changes the
// *reverse* ("space") channel of the bumped channel, and channels expand to
// HSDF independently, so the evaluator re-expands just that channel's edges
// and re-merges them with the cached remainder instead of re-deriving the
// whole expansion per candidate. Every period is bitwise the one a fresh
// ThroughputEngine reports on the bounded graph copy; tests/buffer_oracle.h
// keeps that engine-per-candidate walk as the test oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/transposition_table.h"
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
///
/// `table` (optional) memoises the per-capacity-vector bounded period (and
/// the unbounded reference period), keyed by the graph's Zobrist component
/// x the caps vector. The greedy walk re-evaluates neighbouring capacity
/// vectors constantly — and repeated explorations of structurally
/// identical graphs (e.g. across tenants) re-evaluate all of them — so
/// warm walks skip the Howard solves entirely. Periods are stored bitwise;
/// the frontier is identical with table == nullptr.
[[nodiscard]] std::vector<BufferPoint> explore_buffer_tradeoff(
    const sdf::Graph& g, const BufferExplorerOptions& options = {},
    analysis::TranspositionTable* table = nullptr);

}  // namespace procon::dse
