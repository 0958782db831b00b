#include "prob/load.h"

#include <algorithm>

namespace procon::prob {

double blocking_probability(double exec_time, std::uint64_t repetitions,
                            double period) noexcept {
  if (period <= 0.0) return exec_time > 0.0 ? 1.0 : 0.0;
  const double p = exec_time * static_cast<double>(repetitions) / period;
  return std::clamp(p, 0.0, 1.0);
}

double mean_blocking_time(double exec_time) noexcept { return exec_time / 2.0; }

void derive_loads_stochastic_into(const sdf::Graph& g, const sdf::RepetitionVector& q,
                                  double period, const sdf::ExecTimeModel& model,
                                  std::vector<ActorLoad>& out) {
  if (q.size() != g.actor_count() || model.size() != g.actor_count()) {
    throw sdf::GraphError("derive_loads_stochastic: size mismatch");
  }
  if (period <= 0.0) {
    throw sdf::GraphError("derive_loads_stochastic: period must be positive");
  }
  out.clear();
  out.resize(g.actor_count());
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
    out[a].exec_time = model[a].mean();
    out[a].probability = blocking_probability(model[a].mean(), q[a], period);
    out[a].mean_blocking = model[a].mean_residual();
  }
}

std::vector<ActorLoad> derive_loads_stochastic(const sdf::Graph& g,
                                               const sdf::RepetitionVector& q,
                                               double period,
                                               const sdf::ExecTimeModel& model) {
  std::vector<ActorLoad> loads;
  derive_loads_stochastic_into(g, q, period, model, loads);
  return loads;
}

void derive_loads_into(const sdf::Graph& g, const sdf::RepetitionVector& q,
                       double period, std::vector<ActorLoad>& out) {
  if (q.size() != g.actor_count()) {
    throw sdf::GraphError("derive_loads: repetition vector size mismatch");
  }
  if (period <= 0.0) {
    throw sdf::GraphError("derive_loads: application period must be positive");
  }
  out.clear();
  out.resize(g.actor_count());
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
    const auto tau = static_cast<double>(g.actor(a).exec_time);
    out[a].exec_time = tau;
    out[a].probability = blocking_probability(tau, q[a], period);
    out[a].mean_blocking = mean_blocking_time(tau);
  }
}

std::vector<ActorLoad> derive_loads(const sdf::Graph& g, const sdf::RepetitionVector& q,
                                    double period) {
  std::vector<ActorLoad> loads;
  derive_loads_into(g, q, period, loads);
  return loads;
}

}  // namespace procon::prob
