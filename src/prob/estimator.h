// The contention estimator: the paper's Figure 4 algorithm.
//
// Pipeline for a use-case (set of concurrently running applications):
//   1. compute each application's isolation period Per(A) analytically;
//   2. derive per-actor loads P(a) = tau q / Per and mu(a) = tau/2;
//   3. for every actor, evaluate the expected waiting time caused by the
//      other actors mapped on the same node, using the selected method;
//   4. form response times tau'(a) = tau(a) + t_wait(a);
//   5. recompute each application's period from the response-time graph.
//
// Methods (Section 4), with the cost of the waiting times on a node of n
// actors (all n of them, each over the other n-1):
//   Exact                - Eq. 4 in full (symmetric-poly DP), O(n^3)
//   SecondOrder          - Eq. 5 (the paper's "Probabilistic Second Order"),
//                          O(n^2)
//   FourthOrder          - 4th-order truncation ("Probabilistic Fourth
//                          Order"), O(n^2)
//   MthOrder             - any truncation order m (ablation studies),
//                          O(n^2 * m)
//   Composability        - fold of Eq. 6/7 over the other actors, O(n^2)
//   CompositionInverse   - full-node composite, own contribution removed via
//                          Eq. 8/9, O(n) (the fold's O(n^2) if an actor
//                          saturates at P == 1)
// Each node costs one node-kernel call (prob/waiting_time.h): one lane per
// actor, two lanes to an SSE2 instruction, every lane bitwise the per-actor
// function on that actor's others. Only MonteCarlo runs per actor.
// A waiting time that comes out negative or not finite (an odd truncation
// order can fall below zero near saturation) is rejected: the estimate
// throws sdf::GraphError naming the method, the actor and its application.
//
// A single pass matches the paper; EstimatorOptions::iterations > 1 enables
// the natural fixed-point extension (recompute P from the estimated
// contended periods and repeat).
//
// As in the paper, contention is modelled at the processing nodes only:
// communication between nodes is free.
#pragma once

#include <span>
#include <vector>

#include "analysis/engine.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/compose.h"
#include "prob/load.h"
#include "prob/waiting_time.h"

namespace procon::prob {

enum class Method {
  Exact,
  SecondOrder,
  FourthOrder,
  MthOrder,
  Composability,
  CompositionInverse,
  MonteCarlo,  ///< sampling of the queue model (see prob/monte_carlo.h)
};

/// Human-readable method name ("Probabilistic Second Order" etc.), as a
/// static string: steady-state callers assign it into a reused std::string
/// (capacity retained), keeping warm report paths heap-free.
[[nodiscard]] const char* method_name(Method m) noexcept;

struct EstimatorOptions {
  Method method = Method::SecondOrder;
  int order = 2;       ///< truncation order when method == MthOrder
  int iterations = 1;  ///< fixed-point passes; 1 = paper's algorithm
  /// Samples per actor for MonteCarlo, drawn from a fixed seed (7) mixed
  /// with the actor's ids.
  std::size_t mc_trials = 20'000;
};

/// Per-actor estimate.
struct ActorEstimate {
  double waiting_time = 0.0;   ///< expected t_wait
  double response_time = 0.0;  ///< tau + t_wait
};

/// Per-application estimate.
struct AppEstimate {
  double isolation_period = 0.0;  ///< Per(A) with dedicated resources
  double estimated_period = 0.0;  ///< Per(A) under estimated contention
  std::vector<ActorEstimate> actors;

  [[nodiscard]] double estimated_throughput() const noexcept {
    return estimated_period > 0.0 ? 1.0 / estimated_period : 0.0;
  }
  /// Contention slowdown factor (>= 1 in practice).
  [[nodiscard]] double normalised_period() const noexcept {
    return isolation_period > 0.0 ? estimated_period / isolation_period : 0.0;
  }
};

/// Reusable scratch for the Figure 4 pipeline: every temporary the
/// algorithm builds per call/pass (step-1 mean tables, step-2 load tables,
/// the step-3 per-node grouping, the step-4 node kernels' lanes and
/// outputs, and response times) lives here with grow-only capacity, so a
/// warm estimate_into() call of previously-seen shapes performs zero heap
/// allocations. One workspace per caller at a time (it is mutated freely).
struct EstimatorWorkspace {
  std::vector<std::vector<double>> means;        ///< per app: mean exec times
  std::vector<std::vector<ActorLoad>> loads;     ///< per app: step-2 loads
  std::vector<std::vector<ActorLoad>> node_loads;  ///< step 3: per node, its loads
  std::vector<std::vector<platform::GlobalActor>> node_actors;  ///< ...and their actors
  std::vector<double> lanes;                     ///< step-4 node kernel lanes
  std::vector<double> waits;                     ///< step-4 waiting times of a node
  std::vector<std::vector<double>> response;     ///< per app: step-4 responses
  std::vector<ActorLoad> others;                 ///< per-actor fold scratch (Monte-Carlo)
};

class ContentionEstimator {
 public:
  explicit ContentionEstimator(EstimatorOptions opts = {});

  /// Runs the Figure 4 algorithm on the applications `view` selects (all
  /// assumed concurrently active; results in view order). A System passes
  /// as its full view. Validates the view first and throws sdf::GraphError
  /// for invalid systems, and for a negative or non-finite waiting time.
  ///
  /// Stochastic variant (Section 6 extension): `models` holds one
  /// execution-time model per view application, one distribution per actor.
  /// Means drive the throughput analysis, residual-life times drive mu;
  /// with all-constant models this is identical to the deterministic call.
  ///
  /// One-shot: builds fresh engines, workspace and result slots per call.
  /// Repeated callers use api::Workbench::contention / contention_view, or
  /// estimate_into with engines and a workspace they own — the same bits.
  [[nodiscard]] std::vector<AppEstimate> estimate(
      const platform::SystemView& view,
      std::span<const sdf::ExecTimeModel> models = {}) const;

  /// Allocation-free core: writes the estimates into caller-owned slots
  /// through caller-owned engines (engines[i] built from view.app(i) and
  /// dereferenced, never retained). Does not validate the view: callers
  /// hold views of systems they validated once. `out` must have exactly
  /// view.app_count() elements; every field of every slot (including each
  /// slot's `actors` vector, resized in place) is overwritten, so stale
  /// contents never leak through. All temporaries come from `ws` with
  /// grow-only capacity: once the workspace and the out-slots have seen the
  /// shapes involved, repeated calls perform zero heap allocations — the
  /// warm path of api::Workbench::contention_view. Runs serially on the
  /// calling thread.
  void estimate_into(const platform::SystemView& view,
                     std::span<const sdf::ExecTimeModel> models,
                     std::span<analysis::ThroughputEngine* const> engines,
                     EstimatorWorkspace& ws, std::span<AppEstimate> out) const;

  [[nodiscard]] const EstimatorOptions& options() const noexcept { return opts_; }

 private:
  EstimatorOptions opts_;
};

}  // namespace procon::prob
