// High-level single-application period / throughput API (Definition 3).
//
// Per(A) is the average time one iteration of application A takes under
// self-timed execution with dedicated resources. The contention estimator
// perturbs actor execution times with fractional waiting times, so the
// default engine is HSDF expansion + maximum cycle ratio, which is exact
// for real-valued times; the state-space engine provides exact rational
// results for integer graphs (and cross-validates the MCR path in tests).
//
// Period, latency and bottleneck are one job: each one-shot below builds
// one ThroughputEngine (analysis/engine.h) and asks it once. Repeated
// callers hold the engine, or an api::Workbench session, whose throughput,
// latency and bottleneck queries return the same bits from cached
// structure.
#pragma once

#include <span>
#include <vector>

#include "analysis/state_space.h"
#include "sdf/graph.h"
#include "util/rational.h"

namespace procon::analysis {

struct PeriodResult {
  bool deadlocked = false;
  /// Time units per graph iteration; 0 for acyclic graphs (infinite
  /// pipelining under self-timed execution).
  double period = 0.0;

  [[nodiscard]] double throughput() const noexcept {
    return period > 0.0 ? 1.0 / period : 0.0;
  }
};

/// Computes Per(g) via HSDF + MCR. `exec_times`, if non-empty, overrides
/// actor execution times (one entry per actor; fractional values allowed).
/// Auto-concurrency is disabled by inserting self-loops, matching the
/// paper's operational model. Throws sdf::GraphError on inconsistent graphs
/// and on graphs too large to expand (ThroughputEngine's cap).
[[nodiscard]] PeriodResult compute_period(const sdf::Graph& g,
                                          std::span<const double> exec_times = {});

/// Exact rational period of an integer-time graph via state-space
/// execution. Throws sdf::GraphError on inconsistent graphs, when the
/// graph deadlocks, when the execution does not recur within the
/// state-space firing cap, and when the execution clock would overflow
/// int64.
[[nodiscard]] util::Rational compute_period_exact(const sdf::Graph& g);

/// Which actors limit the throughput: the (deduplicated, id-ordered) actors
/// on the critical cycle of the HSDF expansion, plus the period they
/// enforce. Speeding up any other actor cannot improve the period.
struct BottleneckReport {
  bool deadlocked = false;
  double period = 0.0;
  std::vector<sdf::ActorId> actors;
};
[[nodiscard]] BottleneckReport find_bottleneck(const sdf::Graph& g,
                                               std::span<const double> exec_times = {});

/// Single-iteration latency ([16]): the time one iteration takes
/// end-to-end under self-timed execution with all inputs available, i.e.
/// the longest execution-time-weighted path through the HSDF expansion's
/// zero-token edges. Latency and period differ exactly when the graph
/// pipelines: a graph with period 10 may still take 100 time units from an
/// iteration's first firing to its last.
struct GraphLatencyResult {
  double latency = 0.0;
  /// Actors on the critical path (deduplicated, in path order).
  std::vector<sdf::ActorId> critical_actors;
};
/// Latency of `g` (with optional execution-time overrides, no
/// auto-concurrency). Throws sdf::GraphError on inconsistent graphs, on
/// graphs too large to expand and when the zero-token subgraph is cyclic
/// (the graph deadlocks).
[[nodiscard]] GraphLatencyResult compute_latency(const sdf::Graph& g,
                                                 std::span<const double> exec_times = {});

}  // namespace procon::analysis
