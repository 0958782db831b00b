#include "analysis/throughput.h"

#include <string>

#include "analysis/engine.h"
#include "sdf/repetition.h"

namespace procon::analysis {

// One-shot uses of the reusable engine: fresh and cached analyses share a
// single code path, so the engine's (and the Workbench's) answers are
// exactly these.
PeriodResult compute_period(const sdf::Graph& g, std::span<const double> exec_times) {
  ThroughputEngine engine(g);
  return engine.recompute(exec_times);
}

BottleneckReport find_bottleneck(const sdf::Graph& g,
                                 std::span<const double> exec_times) {
  ThroughputEngine engine(g);
  return engine.bottleneck(exec_times);
}

GraphLatencyResult compute_latency(const sdf::Graph& g,
                                   std::span<const double> exec_times) {
  const ThroughputEngine engine(g);
  return engine.latency(exec_times);
}

util::Rational compute_period_exact(const sdf::Graph& g) {
  if (!sdf::is_consistent(g)) {
    throw sdf::GraphError("compute_period_exact: inconsistent graph");
  }
  const sdf::Graph closed = g.with_self_loops();
  const StateSpaceResult r = self_timed_period(closed);
  if (r.deadlocked) throw sdf::GraphError("compute_period_exact: graph deadlocks");
  if (!r.converged) {
    throw sdf::GraphError("compute_period_exact: did not converge within " +
                          std::to_string(r.firing_cap) + " firings");
  }
  return r.period;
}

}  // namespace procon::analysis
