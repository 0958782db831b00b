#include "sim/metrics.h"

#include <algorithm>

namespace procon::sim {

PeriodStats steady_state_metrics(std::span<const sdf::Time> iteration_times,
                                 double warmup_fraction,
                                 std::uint64_t min_iterations) noexcept {
  PeriodStats stats;
  stats.iterations = iteration_times.size();
  if (iteration_times.size() < 2) return stats;

  const auto n = iteration_times.size();
  auto first = static_cast<std::size_t>(warmup_fraction * static_cast<double>(n));
  if (first >= n - 1) first = n - 2;  // keep at least one gap

  const std::uint64_t kept_gaps = n - 1 - first;
  stats.average_period =
      static_cast<double>(iteration_times.back() - iteration_times[first]) /
      static_cast<double>(kept_gaps);
  sdf::Time worst = 0;
  for (std::size_t i = first + 1; i < n; ++i) {
    worst = std::max(worst, iteration_times[i] - iteration_times[i - 1]);
  }
  stats.worst_period = static_cast<double>(worst);
  stats.converged = kept_gaps + 1 >= min_iterations;
  return stats;
}

AppSimResult AppSimView::materialise() const {
  AppSimResult out;
  out.iterations = iterations;
  out.converged = converged;
  out.average_period = average_period;
  out.worst_period = worst_period;
  out.actors.assign(actors.begin(), actors.end());
  out.iteration_times.assign(iteration_times.begin(), iteration_times.end());
  return out;
}

SimResult SimResultView::materialise() const {
  SimResult out;
  out.events_processed = events_processed;
  out.horizon = horizon;
  out.apps.reserve(apps.size());
  for (const AppSimView& app : apps) out.apps.push_back(app.materialise());
  out.node_utilisation.assign(node_utilisation.begin(), node_utilisation.end());
  out.trace.assign(trace.begin(), trace.end());
  return out;
}

}  // namespace procon::sim
