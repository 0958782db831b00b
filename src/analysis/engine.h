// Reusable per-graph throughput engine.
//
// Every repeated-analysis loop in this library — the contention estimator's
// fixed-point passes, the buffer/throughput and mapping DSE, WCRT bounds
// and run-time admission control — re-analyses the *same* graph structure
// with different actor execution times. compute_period() redoes every
// structure-dependent step on each call: the self-loop-closure copy, the
// repetition vector, the HSDF expansion, the adjacency build and the
// cycle/deadlock DFS, then cold-starts Howard's policy iteration.
//
// ThroughputEngine performs the structural work once, in one pass, at
// construction: it computes the repetition vector once, on the graph
// itself (the closure's self-loops have rate 1/1, so they leave it
// unchanged), closes the graph inside the expansion by appending a 1-token
// self-loop's candidate edges for each actor that lacks one, and hands the
// sorted, deduplicated edge list straight to Howard's CSR core. No graph
// copy and no node objects are built; the engine keeps only the node ->
// actor table, the CSR topology and the structural verdicts (cycle
// existence, zero-token deadlock). Because the candidate list is sorted
// before use, the edges, their CSR order and so every solve are bitwise
// those of expanding g.with_self_loops()
// (CrossValidation.OnePassEngineMatchesClosedCopyBitwise).
//
// It is the library's one HSDF expansion: period (recompute), latency and
// bottleneck all run on its CSR, bit for bit the explicit-HSDF pipeline of
// the test oracle (CrossValidation.EngineLatencyAndBottleneckMatchHsdfOracle),
// and every one-shot, session, estimator, WCRT and admission path builds
// one. So its cap on the expansion's size, sdf::kMaxRepetitionSum, checked
// before anything is expanded, bounds them all.
//
// The construction is also the structural validation: the constructor
// throws for exactly the inconsistent graphs and structurally_deadlocked()
// holds for exactly the graphs sdf::is_deadlock_free rejects
// (CrossValidation.EngineVerdictsMatchStructuralChecks), so the admission
// controller validates a new application with its engine alone.
//
// recompute(exec_times) then only rewrites node weights in place and
// re-runs Howard warm-started from the previous policy, which converges in
// one or two improvement rounds under the small perturbations these loops
// produce. The ledger's traced runs measure the build and both starts
// (`analysis.engine_build_us`, `analysis.recompute_cold_us`,
// `analysis.recompute_warm_us`), and
// CrossValidation.EngineRecomputeMatchesFreshComputePeriod checks them
// against the fresh path.
//
// Caching contract: the *structure* (actors, channels, rates, initial
// tokens) is fixed for the engine's lifetime; only execution times may vary
// between recompute() calls. Results are identical to compute_period() on
// the same graph and times.
//
// Isolation memo: an engine that has been reset() also keeps its cold solve
// under the graph's own times — the isolation period, step 1 of the
// estimator and of every WCRT bound — together with Howard's final policy.
// Each later reset() + recompute() replays that solve from the memo, bitwise
// what a cold solve returns and leaves behind.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/howard.h"
#include "analysis/throughput.h"
#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::analysis {

/// \brief Construction shortcuts for callers that already know structural
/// facts about the graph.
struct EngineOptions {
  /// The graph already has a self-loop on every actor (auto-concurrency
  /// disabled); add no closure edges. Callers that batch-create engines
  /// over pre-closed graphs (e.g. the buffer explorer) set this.
  bool assume_closed = false;
  /// Known repetition vector of the graph (the closure does not change
  /// it); skips recomputation. Must match the graph or construction throws.
  const sdf::RepetitionVector* repetition = nullptr;
};

/// \brief Reusable per-graph period, latency and bottleneck analysis:
/// structure cached once, execution times rewritten per recompute(),
/// Howard warm-started.
///
/// Construction is one structural pass: the repetition vector once, the
/// self-loop closure inside the expansion, the deduplicated edges straight
/// into Howard's CSR core (no graph copy, no node objects). Its verdicts —
/// the constructor's GraphError and structurally_deadlocked() — are exactly
/// sdf::is_consistent and sdf::is_deadlock_free (up to the size cap),
/// which makes the engine the admission controller's validator.
///
/// Caching contract: the *structure* (actors, channels, rates, initial
/// tokens) is fixed for the engine's lifetime; only execution times may
/// vary between recompute() calls. Results are identical to
/// compute_period() on the same graph and times.
///
/// Isolation memo: once reset() has been called, the first cold recompute()
/// with empty `exec_times` (the graph's own times) stores its period and
/// Howard's final policy. Every later cold recompute() with empty times
/// returns that period and installs that policy instead of solving. Howard
/// carries nothing but its policy from one solve to the next, so the result
/// and the following warm recomputes are bitwise those of a real cold
/// solve. Explicit times, even equal to the graph's own, always solve.
/// Engines that are never reset() never store the memo.
///
/// Thread-safety: an engine is a mutable analysis object (recompute and
/// even const-free queries mutate solver state); one engine must not be
/// used from two threads at once. Sharded callers clone one engine per
/// worker and reset() it per independent work item for determinism.
class ThroughputEngine {
 public:
  /// Builds all structure-dependent state in one pass. Throws
  /// sdf::GraphError on exactly the inconsistent graphs (same contract as
  /// compute_period), and on graphs whose repetition vector sums above
  /// sdf::kMaxRepetitionSum, before expanding them.
  explicit ThroughputEngine(const sdf::Graph& g, const EngineOptions& opts = {});

  /// Period of the cached structure under `exec_times` (one entry per actor
  /// of the original graph; empty = the graph's own integral times).
  /// Repeated calls warm-start Howard from the previous solution; a cold
  /// call with empty times on a reset() engine is served by the isolation
  /// memo (see the class comment).
  [[nodiscard]] PeriodResult recompute(std::span<const double> exec_times = {});

  /// Single-iteration latency under `exec_times` (as for recompute()): the
  /// longest execution-time-weighted path over the expansion's zero-token
  /// edges, in Kahn topological order, with the critical path's actors
  /// (deduplicated, in path order); == compute_latency. Touches no solver
  /// state. Throws sdf::GraphError when the zero-token subgraph is cyclic
  /// (structurally_deadlocked()).
  [[nodiscard]] GraphLatencyResult latency(std::span<const double> exec_times = {}) const;

  /// Critical cycle under `exec_times` (as for recompute()): the period and
  /// the id-ordered actors of the cycle that enforces it;
  /// == find_bottleneck. Always a cold Howard solve, since the critical
  /// cycle is read from the ratios of the solve it follows and a memo hit
  /// computes none. The next recompute() warm-starts from that solve's
  /// policy; the isolation memo is neither read nor filled.
  [[nodiscard]] BottleneckReport bottleneck(std::span<const double> exec_times = {});

  /// Discards the Howard warm-start state; the next recompute() cold-starts.
  /// Parallel sharding (use-case sweeps, mapper candidate scoring) resets a
  /// worker's engine clone before every independent work item so its result
  /// is a pure function of the inputs — bitwise identical no matter which
  /// worker evaluates the item after which other items. Also turns on the
  /// isolation memo: the next cold recompute() with empty times fills it if
  /// it is empty, and every one after that is served from it, bitwise the
  /// cold solve.
  void reset() noexcept {
    solver_.reset();
    memoise_ = true;
  }

  /// Number of actors of the original graph.
  [[nodiscard]] std::size_t actor_count() const noexcept { return actor_count_; }
  /// Repetition vector of the graph (and of its closure), computed once at
  /// construction.
  [[nodiscard]] const sdf::RepetitionVector& repetition_vector() const noexcept {
    return q_;
  }
  /// Number of HSDF firing nodes (sum of the repetition vector).
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_actor_.size();
  }
  /// True if the structure deadlocks regardless of execution times: a
  /// zero-token cycle in the expansion, exactly !sdf::is_deadlock_free for
  /// a consistent graph.
  [[nodiscard]] bool structurally_deadlocked() const noexcept {
    return solver_.deadlocked();
  }
  /// True if the HSDF expansion has any cycle (false => period 0).
  [[nodiscard]] bool has_cycle() const noexcept { return solver_.has_cycle(); }

 private:
  /// `exec_times`, or the graph's own times when empty; throws
  /// sdf::GraphError on a size mismatch.
  [[nodiscard]] std::span<const double> times_or_default(
      std::span<const double> exec_times) const;
  /// Sets the node weights from per-actor `times` and solves.
  double solve(std::span<const double> times);

  std::size_t actor_count_ = 0;
  sdf::RepetitionVector q_;              // of the graph and its closure
  std::vector<sdf::ActorId> node_actor_; // HSDF node -> source actor
  std::vector<double> default_times_;    // the graph's own times, as doubles
  std::vector<double> node_weight_;      // scratch: per-node exec time
  HowardSolver solver_;
  // Isolation memo (see reset()): empty until the first memoised cold solve.
  bool memoise_ = false;
  double memo_period_ = 0.0;
  std::vector<std::int64_t> memo_policy_;
};

}  // namespace procon::analysis
