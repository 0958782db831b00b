// Per-actor probabilistic load attributes (Definitions 4 and 5).
//
// Every actor mapped on a shared node is summarised by two numbers:
//   P(a)  = tau(a) * q(a) / Per(A)   - blocking probability: the chance the
//           node is found busy executing `a` at a random instant;
//   mu(a) = tau(a) / 2               - expected residual service time given
//           the node is found blocked by `a` (uniform arrival within the
//           firing, Eq. 1-2 of the paper).
//
// These two attributes are the *only* information an application exposes to
// the contention analysis - the source of the approach's scalability.
#pragma once

#include <vector>

#include "sdf/exec_time.h"
#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::prob {

/// Probabilistic summary of one actor on its node.
struct ActorLoad {
  double probability = 0.0;   ///< P(a), in [0, 1]
  double mean_blocking = 0.0; ///< mu(a), time units
  double exec_time = 0.0;     ///< tau(a), kept for exact queue-position terms

  /// mu * P, the single-actor expected waiting contribution.
  [[nodiscard]] double weighted_blocking() const noexcept {
    return probability * mean_blocking;
  }
};

/// Computes P(a) for one actor. Clamps to [0, 1]: utilisation above one
/// (infeasible load) saturates the probability, mirroring the paper's
/// interpretation of P as a fraction of time the resource is held.
[[nodiscard]] double blocking_probability(double exec_time, std::uint64_t repetitions,
                                          double period) noexcept;

/// mu(a) for constant execution times (Eq. 2).
[[nodiscard]] double mean_blocking_time(double exec_time) noexcept;

/// Derives loads for every actor of an application with isolation period
/// `period` and repetition vector `q`. Throws sdf::GraphError if sizes
/// mismatch or period <= 0.
[[nodiscard]] std::vector<ActorLoad> derive_loads(const sdf::Graph& g,
                                                  const sdf::RepetitionVector& q,
                                                  double period);

/// Reuse variant: clears `out` and refills it in place (same values as
/// derive_loads). Steady-state callers (the estimator workspace) hand the
/// same vector back per pass, so warm calls stay within its capacity and
/// perform no heap allocation.
void derive_loads_into(const sdf::Graph& g, const sdf::RepetitionVector& q,
                       double period, std::vector<ActorLoad>& out);

/// Stochastic variant (Section 6 extension): execution times follow the
/// given distributions. P uses the mean, mu the renewal-theoretic residual
/// E[tau^2] / (2 E[tau]) - which reduces to tau/2 for constant times.
[[nodiscard]] std::vector<ActorLoad> derive_loads_stochastic(
    const sdf::Graph& g, const sdf::RepetitionVector& q, double period,
    const sdf::ExecTimeModel& model);

/// Reuse variant of derive_loads_stochastic (see derive_loads_into).
void derive_loads_stochastic_into(const sdf::Graph& g, const sdf::RepetitionVector& q,
                                  double period, const sdf::ExecTimeModel& model,
                                  std::vector<ActorLoad>& out);

}  // namespace procon::prob
