// Simulation metrics: per-application achieved period statistics and
// per-node utilisation.
//
// An application completes an iteration when every actor a has completed a
// multiple of q(a) firings (Definition 2/3). The achieved period is the
// steady-state average gap between successive iteration completions; the
// "simulated worst case" of Fig. 5 is the maximum such gap after warm-up.
// The simulator's warm-up share and convergence threshold are constants:
// it discards the first quarter of an application's iterations and flags
// the application converged when at least four iterations remain.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sdf/types.h"

namespace procon::sim {

/// Per-actor service statistics.
struct ActorStats {
  std::uint64_t firings = 0;
  sdf::Time total_waiting = 0;  ///< sum over firings of (service start - ready)
  sdf::Time total_service = 0;  ///< sum of execution times actually run

  [[nodiscard]] double mean_waiting() const noexcept {
    return firings ? static_cast<double>(total_waiting) / static_cast<double>(firings)
                   : 0.0;
  }
};

/// Per-application results.
struct AppSimResult {
  std::uint64_t iterations = 0;   ///< iterations completed within the horizon
  bool converged = false;         ///< enough post-warm-up iterations observed
  double average_period = 0.0;    ///< steady-state mean time per iteration
  double worst_period = 0.0;      ///< max post-warm-up iteration gap
  std::vector<ActorStats> actors;
  std::vector<sdf::Time> iteration_times;  ///< completion time of each iteration

  [[nodiscard]] double throughput() const noexcept {
    return average_period > 0.0 ? 1.0 / average_period : 0.0;
  }
};

/// One service interval of one actor firing on a node (collected when
/// SimOptions::collect_trace is set). Under TDMA the interval spans first
/// slot entry to completion (it includes foreign slots in between).
struct TraceEvent {
  sdf::Time start = 0;
  sdf::Time end = 0;
  std::uint32_t app = 0;
  std::uint32_t actor = 0;
  std::uint32_t node = 0;
};

/// Whole-run results.
struct SimResult {
  std::vector<AppSimResult> apps;
  std::vector<double> node_utilisation;  ///< busy fraction per node
  std::uint64_t events_processed = 0;
  sdf::Time horizon = 0;
  std::vector<TraceEvent> trace;  ///< empty unless SimOptions::collect_trace
};

/// Steady-state period statistics derived from iteration completion times
/// (the scalar fields of AppSimView and AppSimResult).
struct PeriodStats {
  std::uint64_t iterations = 0;  ///< iterations completed within the horizon
  bool converged = false;        ///< enough post-warm-up iterations observed
  double average_period = 0.0;   ///< steady-state mean time per iteration
  double worst_period = 0.0;     ///< max post-warm-up iteration gap
};

/// Computes average/worst periods from iteration completion times, skipping
/// the first `warmup_fraction` of iterations. Marks converged when at least
/// `min_iterations` remain after warm-up. Allocation-free. The simulator
/// passes 0.25 and 4.
[[nodiscard]] PeriodStats steady_state_metrics(
    std::span<const sdf::Time> iteration_times, double warmup_fraction,
    std::uint64_t min_iterations) noexcept;

/// Per-application results as views into engine-owned storage (the
/// allocation-free counterpart of AppSimResult). Spans are valid until the
/// owning SimEngine is reset, rerun, or destroyed.
struct AppSimView {
  std::uint64_t iterations = 0;   ///< iterations completed within the horizon
  bool converged = false;         ///< enough post-warm-up iterations observed
  double average_period = 0.0;    ///< steady-state mean time per iteration
  double worst_period = 0.0;      ///< max post-warm-up iteration gap
  std::span<const ActorStats> actors;            ///< per-actor service stats
  std::span<const sdf::Time> iteration_times;    ///< iteration completion times

  /// 1 / average_period (0 when no steady state was reached).
  [[nodiscard]] double throughput() const noexcept {
    return average_period > 0.0 ? 1.0 / average_period : 0.0;
  }
  /// Deep copy into the owning result type.
  [[nodiscard]] AppSimResult materialise() const;
};

/// Whole-run results as views into engine-owned storage. Returned by
/// SimEngine::run_view; valid until the engine is reset, rerun, or
/// destroyed. materialise() produces the owning SimResult the value API
/// returns — bit-identical fields, deep-copied storage.
struct SimResultView {
  std::span<const AppSimView> apps;              ///< per active application
  std::span<const double> node_utilisation;      ///< busy fraction per node
  std::uint64_t events_processed = 0;            ///< events the run consumed
  sdf::Time horizon = 0;                         ///< simulated horizon
  std::span<const TraceEvent> trace;  ///< empty unless SimOptions::collect_trace

  /// Deep copy into the owning result type (what SimEngine::run returns).
  [[nodiscard]] SimResult materialise() const;
};

}  // namespace procon::sim
