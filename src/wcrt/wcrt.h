// Worst-case response time (WCRT) baselines - the state of the art the
// paper compares against ("Analyzed Worst Case").
//
// Round-robin, non-preemptive (Hoes [6]): when an actor arrives at a node
// it may, in the worst case, find every other actor mapped there queued
// ahead of it, so
//     WCRT(a) = tau(a) + sum_{b != a on node(a)} tau(b).
//
// TDMA, preemptive (Bekooij et al. [3]): each actor owns a slot of length
// s(a) on a wheel of length W = sum of slots on the node. Worst case the
// actor arrives just after its slot ends and needs ceil(tau/s) slots:
//     WCRT(a) = tau(a) + ceil(tau(a)/s(a)) * (W - s(a)).
// With the default "fair" configuration s(a) = tau(a) this reduces to
// W = sum tau, equal to the round-robin bound.
//
// Both analyses plug the per-actor WCRT into the same period-recomputation
// pipeline as the probabilistic estimator, yielding a conservative period
// bound per application.
#pragma once

#include <span>
#include <vector>

#include "analysis/engine.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "sdf/types.h"

namespace procon::wcrt {

enum class Policy {
  RoundRobinNonPreemptive,  ///< Hoes [6]
  TdmaPreemptive,           ///< Bekooij et al. [3]
};

struct WcrtOptions {
  Policy policy = Policy::RoundRobinNonPreemptive;
  /// TDMA slot length; 0 means "slot = actor execution time" (fair wheel).
  sdf::Time tdma_slot = 0;
};

struct ActorBound {
  double waiting_time = 0.0;
  double response_time = 0.0;
};

struct AppBound {
  double isolation_period = 0.0;
  double worst_case_period = 0.0;
  std::vector<ActorBound> actors;

  [[nodiscard]] double normalised_period() const noexcept {
    return isolation_period > 0.0 ? worst_case_period / isolation_period : 0.0;
  }
};

/// Computes per-application worst-case period bounds for the applications
/// `view` selects, all running concurrently (results in view order). A
/// System passes as its full view. Validates the view first and throws
/// sdf::GraphError for invalid systems.
///
/// One-shot: builds fresh engines, workspace and result slots per call.
/// Repeated callers use api::Workbench::wcrt, or worst_case_bounds_into
/// with engines and a workspace they own — the same bits.
[[nodiscard]] std::vector<AppBound> worst_case_bounds(const platform::SystemView& view,
                                                      const WcrtOptions& opts = {});

/// One actor's execution time (and TDMA slot) grouped on its node —
/// exposed only as the element type of WcrtWorkspace's grouping arena.
struct NodeDemand {
  platform::GlobalActor who;
  double exec = 0.0;
  double slot = 0.0;
};

/// Reusable scratch for worst_case_bounds_into: the per-node grouping, the
/// response-time tables and the other-actor fold buffer, all with grow-only
/// capacity so warm calls of previously-seen shapes allocate nothing.
struct WcrtWorkspace {
  std::vector<std::vector<NodeDemand>> per_node;  ///< node grouping arena
  std::vector<std::vector<double>> response;      ///< per app: response times
  std::vector<double> others;                     ///< per-actor fold scratch
};

/// Allocation-free core: the same bounds as worst_case_bounds, through
/// caller-owned engines (engines[i] built from view.app(i); the isolation
/// and worst-case periods are two weight assignments over each engine's
/// cached structure), written into caller-owned slots. Does not validate
/// the view. `out` must have exactly view.app_count() elements; every
/// field of every slot (including each slot's `actors` vector, resized in
/// place) is overwritten. With a warmed workspace and out-slots this
/// performs zero heap allocations — the path of api::Workbench::wcrt.
void worst_case_bounds_into(const platform::SystemView& view,
                            const WcrtOptions& opts,
                            std::span<analysis::ThroughputEngine* const> engines,
                            WcrtWorkspace& ws, std::span<AppBound> out);

/// The raw per-actor WCRT for one actor given the execution times of the
/// other actors on its node (exposed for tests / direct use).
[[nodiscard]] double wcrt_round_robin(double own_exec,
                                      const std::vector<double>& other_execs);
[[nodiscard]] double wcrt_tdma(double own_exec, double own_slot,
                               const std::vector<double>& other_slots);

}  // namespace procon::wcrt
