// Discrete-event simulator for multiple SDF applications sharing
// processing nodes (the reference engine standing in for POOSL [18]).
//
// Operational semantics (matching the paper's model):
//  * an actor becomes "ready" when every input channel holds at least its
//    consumption rate worth of tokens, it is not already queued/executing,
//    and (no auto-concurrency) its previous firing has completed;
//  * a ready actor requests its node and waits for the arbiter;
//  * tokens are consumed when service starts and produced when it ends;
//  * nodes are non-preemptive under FCFS (the paper's arbiter, "least
//    contention on their own" - no imposed order) and round-robin;
//    TDMA is preemptive by slot construction.
//
// The simulator is fully deterministic: simultaneous events are processed
// in creation order and FCFS ties resolve by arrival order.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/system_view.h"
#include "sdf/exec_time.h"
#include "sim/metrics.h"

namespace procon::sim {

enum class Arbitration {
  Fcfs,        ///< first-come-first-served, non-preemptive (paper's setup)
  RoundRobin,  ///< work-conserving cyclic order, non-preemptive
  Tdma,        ///< time-division wheel, one slot per mapped actor, as
               ///< long as its execution time (at least 1)
};

struct SimOptions {
  sdf::Time horizon = 500'000;      ///< simulated time units (paper: 500k cycles)
  Arbitration arbitration = Arbitration::Fcfs;
  std::uint64_t max_events = 0;     ///< safety cap on events (0 = 200 000 000)

  /// Stochastic execution times (Section 6 extension): one model per
  /// (active) application, one distribution per actor. Empty = the graphs'
  /// fixed times. Stored by value — the options own their models, so there
  /// is no lifetime coupling to the caller (the former const-pointer field
  /// dangled whenever the pointed-to vector died before the run).
  std::vector<sdf::ExecTimeModel> exec_models = {};
  std::uint64_t sample_seed = 0x5EED;  ///< seed for execution-time sampling

  /// Record every service interval into SimResult::trace (costs memory
  /// proportional to the number of firings).
  bool collect_trace = false;
};

/// Runs the applications `view` selects concurrently until the horizon
/// (results in view order). A System passes as its full view. Throws
/// std::invalid_argument for a non-positive horizon and sdf::GraphError on
/// invalid systems (SystemView::validate failures).
///
/// One-shot: builds a sim::SimEngine (sim/sim_engine.h) over the view per
/// call. Repeated simulations of one system (sweeps, stochastic
/// replications) construct the engine once and reset()+run_view() it —
/// identical results, without the per-call flatten/validate.
[[nodiscard]] SimResult simulate(const platform::SystemView& view,
                                 const SimOptions& opts = {});

}  // namespace procon::sim
