// Mapping design-space exploration driven by the probabilistic estimator.
//
// The paper's speed argument (minutes of analysis vs hours of simulation)
// is what makes automatic mapping exploration practical: a candidate
// mapping can be scored analytically in microseconds. This module provides
// the candidate scorer (max over applications of estimated period /
// isolation period) and a simulated-annealing mapper that minimises it by
// moving one actor to another node per step.
//
// The annealer proposes, scores and accepts one move per step. Each step's
// move and acceptance draw depend only on (seed, step index) and the
// current mapping, so a run is a pure function of its inputs. Scoring a
// list of candidates (score_mappings) is the parallel query: candidates
// shard across a thread pool with one workspace per worker.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/engine.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "util/thread_pool.h"

namespace procon::dse {

/// \brief Worker-local mutable scoring state: a system whose mapping is
/// rebound per candidate, one engine per application, and the scratch the
/// estimator scores a candidate in.
///
/// Callers fill `sys` and `engines`; the other fields are grow-only
/// scratch that scoring fills and rebinds on every candidate, so a
/// workspace may move between calls. Once a workspace has scored one
/// candidate, scoring another allocates nothing. Sessions (api::Workbench)
/// keep one per pool worker and hand them to score_mappings (all of them)
/// and optimise_mapping (the first), so repeated queries skip the per-call
/// graph copies and engine construction.
struct AnalysisWorkspace {
  platform::System sys;                             ///< mapping rebound per candidate
  std::vector<analysis::ThroughputEngine> engines;  ///< one per application
  std::vector<analysis::ThroughputEngine*> engine_ptrs;  ///< `engines`, by address
  prob::EstimatorWorkspace est;                     ///< estimator scratch
  std::vector<prob::AppEstimate> estimates;         ///< result slots, one per application
  platform::UseCase full_use_case;                  ///< 0..N-1
  platform::SystemView view;                        ///< full view of `sys`
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
  /// Scored candidates: the start plus one per annealing step.
  std::size_t evaluations = 0;
  std::size_t accepted_moves = 0;
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
/// required; their mappings are overwritten. Throws sdf::GraphError for a
/// candidate that maps an actor to a node the platform does not have.
[[nodiscard]] std::vector<double> score_mappings(
    std::span<const platform::Mapping> candidates,
    const prob::EstimatorOptions& estimator, util::ThreadPool* pool,
    std::span<AnalysisWorkspace> workspaces);

/// Simulated annealing from `start` (use Mapping::by_index / random /
/// load_balanced to seed it): one move proposed, scored and accepted or
/// rejected per step. Deterministic for a fixed options.seed.
///
/// Every candidate is scored on `ws`, a caller-owned workspace over the
/// same applications and platform; its mapping is overwritten.
/// api::Workbench::optimise_mapping runs it on the session's first worker
/// workspace. Throws std::invalid_argument for an incomplete start mapping
/// on a platform with more than one node.
[[nodiscard]] MapperResult optimise_mapping(std::span<const sdf::Graph> apps,
                                            const platform::Platform& platform,
                                            const platform::Mapping& start,
                                            const MapperOptions& options,
                                            AnalysisWorkspace& ws);

}  // namespace procon::dse
