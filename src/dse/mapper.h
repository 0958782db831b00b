// Mapping design-space exploration driven by the probabilistic estimator.
//
// The paper's speed argument (minutes of analysis vs hours of simulation)
// is what makes automatic mapping exploration practical: a candidate
// mapping can be scored analytically in microseconds. This module provides
// the candidate scorer (max over applications of estimated period /
// isolation period) and a simulated-annealing mapper that minimises it by
// moving one actor to another node per step.
//
// Candidate scoring shards across a thread pool by speculation: each batch
// proposes the next W moves from the current state, scores them
// concurrently (one system + engine-set clone per worker), then commits
// them in step order up to the first acceptance — whose successors are
// discarded and re-proposed from the new state. Every step's proposal and
// acceptance draw depend only on (seed, step index) and the state after the
// previous step, so the trajectory — and therefore the result — is
// bitwise identical for any worker count and any speculation width; only
// the wasted-evaluation count varies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/engine.h"
#include "analysis/transposition_table.h"
#include "platform/system.h"
#include "prob/estimator.h"
#include "util/thread_pool.h"

namespace procon::dse {

/// \brief Worker-local mutable scoring state: a system whose mapping is
/// rebound per candidate plus one engine per application.
///
/// Sessions (api::Workbench) keep one per pool worker and hand them to
/// score_mappings / optimise_mapping so repeated queries skip the per-call
/// graph copies and engine construction.
struct AnalysisWorkspace {
  platform::System sys;                             ///< mapping rebound per candidate
  std::vector<analysis::ThroughputEngine> engines;  ///< one per application
};

/// Annealing configuration. The temperature starts at 1 and decays by a
/// factor of 0.995 per step.
struct MapperOptions {
  std::size_t iterations = 2000;   ///< annealing steps
  std::uint64_t seed = 1;
  prob::EstimatorOptions estimator;  ///< scoring method (2nd order default)
};

struct MapperResult {
  platform::Mapping mapping;
  double score = 0.0;         ///< worst estimated slowdown of `mapping`
  double initial_score = 0.0; ///< score of the starting mapping
  /// Committed evaluations (start + one per annealing step); independent of
  /// worker count.
  std::size_t evaluations = 0;
  std::size_t accepted_moves = 0;
  /// Total candidates scored including speculation discarded past an
  /// accepted move. Depends on the speculation width (= worker count), so
  /// it is diagnostic only.
  std::size_t scored_candidates = 0;
};

/// Scores one complete mapping: max over applications of the estimated
/// normalised period (>= 1; lower is better). Throws sdf::GraphError on
/// invalid systems, including an actor mapped to a node the platform does
/// not have.
[[nodiscard]] double evaluate_mapping(std::span<const sdf::Graph> apps,
                                      const platform::Platform& platform,
                                      const platform::Mapping& mapping,
                                      const prob::EstimatorOptions& estimator = {});

/// Scores candidate mappings of the workspaces' applications, in input
/// order; each value is bitwise dse::evaluate_mapping of that candidate.
/// `workspaces[w]` serves pool worker w: with one workspace per pool worker
/// the candidates shard across `pool`, otherwise (or with pool == nullptr)
/// they are scored serially on workspaces[0]. At least one workspace is
/// required; their mappings are overwritten. `table` (optional) memoises
/// the scores under the same keys as optimise_mapping. Throws
/// sdf::GraphError for a candidate that maps an actor to a node the
/// platform does not have.
[[nodiscard]] std::vector<double> score_mappings(
    std::span<const platform::Mapping> candidates,
    const prob::EstimatorOptions& estimator, util::ThreadPool* pool,
    std::span<AnalysisWorkspace> workspaces,
    analysis::TranspositionTable* table = nullptr);

/// Simulated annealing from `start` (use Mapping::by_index / random /
/// load_balanced to seed it). Deterministic for a fixed options.seed — the
/// same result for any `pool` size, including none (serial), and any
/// workspace count. `pool` may be nullptr; it is borrowed for the call,
/// not retained. api::Workbench::optimise_mapping runs it on the session's
/// pool and per-worker workspaces.
///
/// Caller-owned scoring state: `workspaces[w]` serves pool worker w. At
/// least one is required; sharding needs one per pool worker (fewer fall
/// back to serial scoring and also narrow the speculation width). The
/// workspaces' mappings are overwritten.
///
/// `table` (optional) memoises candidate scores keyed by the workspace
/// system's live Zobrist fingerprint x the estimator configuration: a
/// candidate mapping already scored — by this run, an earlier query, or
/// another session sharing the table — skips the estimator entirely.
/// Scores are stored bitwise, so the annealing trajectory (and result) is
/// unchanged by the table; only the time per step varies.
[[nodiscard]] MapperResult optimise_mapping(
    std::span<const sdf::Graph> apps, const platform::Platform& platform,
    const platform::Mapping& start, const MapperOptions& options,
    util::ThreadPool* pool, std::span<AnalysisWorkspace> workspaces,
    analysis::TranspositionTable* table = nullptr);

}  // namespace procon::dse
