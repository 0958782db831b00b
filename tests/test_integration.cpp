// End-to-end integration tests: the full pipeline from generated workload
// through estimation and simulation, checking the paper's qualitative
// claims on small instances (the bench harnesses check the full-size ones).
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "prob/estimator.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "wcrt/wcrt.h"

namespace procon {
namespace {

using platform::Mapping;
using platform::Platform;
using platform::System;

System make_system(std::vector<sdf::Graph> apps) {
  std::size_t max_actors = 0;
  for (const auto& g : apps) max_actors = std::max(max_actors, g.actor_count());
  Platform plat = Platform::homogeneous(max_actors);
  Mapping map = Mapping::by_index(apps, plat);
  return System(std::move(apps), std::move(plat), std::move(map));
}

class WorkloadIntegration : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<sdf::Graph> workload() {
    util::Rng rng(GetParam());
    gen::GeneratorOptions opts;
    opts.min_actors = 5;
    opts.max_actors = 7;
    opts.max_repetition = 3;
    opts.min_exec_time = 10;
    opts.max_exec_time = 80;
    return gen::generate_graphs(rng, opts, 4);
  }
};

TEST_P(WorkloadIntegration, EstimatesWithinReasonOfSimulation) {
  const System sys = make_system(workload());
  const auto sim = sim::simulate(sys, sim::SimOptions{.horizon = 300'000});
  const auto est = prob::ContentionEstimator(
                       prob::EstimatorOptions{.method = prob::Method::SecondOrder})
                       .estimate(sys);
  for (std::size_t i = 0; i < est.size(); ++i) {
    ASSERT_TRUE(sim.apps[i].converged) << "seed=" << GetParam();
    // The paper reports probabilistic estimates mostly within ~20% of
    // simulation; allow generous slack (50%) on arbitrary small seeds so
    // the suite stays robust while still catching gross regressions.
    const double err = util::percent_abs_diff(est[i].estimated_period,
                                              sim.apps[i].average_period);
    EXPECT_LT(err, 50.0) << "seed=" << GetParam() << " app=" << i
                         << " est=" << est[i].estimated_period
                         << " sim=" << sim.apps[i].average_period;
  }
}

TEST_P(WorkloadIntegration, WcrtDominatesSimulationAndEstimates) {
  const System sys = make_system(workload());
  const auto sim = sim::simulate(sys, sim::SimOptions{.horizon = 300'000});
  const auto wc = wcrt::worst_case_bounds(sys);
  const auto est = prob::ContentionEstimator().estimate(sys);
  for (std::size_t i = 0; i < wc.size(); ++i) {
    // The analysed worst case must not be beaten by the simulated average
    // (FCFS simulation can only be better than all-others-queued-first).
    EXPECT_GE(wc[i].worst_case_period * (1.0 + 1e-9),
              sim.apps[i].average_period)
        << "seed=" << GetParam() << " app=" << i;
    EXPECT_GE(wc[i].worst_case_period + 1e-9, est[i].estimated_period);
  }
}

TEST_P(WorkloadIntegration, MethodOrderingHolds) {
  // 2nd order >= 4th order >= exact, per the truncation-error analysis;
  // periods inherit the ordering monotonically.
  const System sys = make_system(workload());
  const auto second = prob::ContentionEstimator(
                          prob::EstimatorOptions{.method = prob::Method::SecondOrder})
                          .estimate(sys);
  const auto fourth = prob::ContentionEstimator(
                          prob::EstimatorOptions{.method = prob::Method::FourthOrder})
                          .estimate(sys);
  const auto exact = prob::ContentionEstimator(
                         prob::EstimatorOptions{.method = prob::Method::Exact})
                         .estimate(sys);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_GE(second[i].estimated_period + 1e-9, fourth[i].estimated_period);
    EXPECT_GE(fourth[i].estimated_period + 1e-9, exact[i].estimated_period);
    EXPECT_GE(exact[i].estimated_period + 1e-9, exact[i].isolation_period);
  }
}

TEST_P(WorkloadIntegration, CompositionInverseMatchesDirectComposability) {
  // The O(n) inverse-based evaluation must track the direct fold closely
  // ((x) is associative to second order; differences are third-order).
  const System sys = make_system(workload());
  const auto direct = prob::ContentionEstimator(
                          prob::EstimatorOptions{.method = prob::Method::Composability})
                          .estimate(sys);
  const auto inverse = prob::ContentionEstimator(
                           prob::EstimatorOptions{.method = prob::Method::CompositionInverse})
                           .estimate(sys);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(inverse[i].estimated_period, direct[i].estimated_period,
                0.10 * direct[i].estimated_period)
        << "seed=" << GetParam() << " app=" << i;
  }
}

TEST_P(WorkloadIntegration, SingleAppUseCasesExact) {
  // With one application active there is no contention: every method and
  // the simulator agree with the isolation period (the zero-inaccuracy
  // point of Fig. 6).
  const auto apps = workload();
  for (std::size_t k = 0; k < apps.size(); ++k) {
    const System sys = make_system({apps[k]});
    const auto est = prob::ContentionEstimator().estimate(sys);
    const auto sim = sim::simulate(sys, sim::SimOptions{.horizon = 200'000});
    ASSERT_TRUE(sim.apps[0].converged);
    EXPECT_NEAR(est[0].estimated_period, est[0].isolation_period, 1e-9);
    EXPECT_NEAR(sim.apps[0].average_period, est[0].isolation_period,
                1e-6 * est[0].isolation_period)
        << "seed=" << GetParam() << " app=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadIntegration,
                         ::testing::Values(11, 22, 33));

TEST(Integration, MoreAppsMeanMorePredictedContention) {
  // Adding applications to a use-case must not decrease any estimate.
  util::Rng rng(99);
  gen::GeneratorOptions opts;
  opts.min_actors = 5;
  opts.max_actors = 6;
  auto apps = gen::generate_graphs(rng, opts, 4);
  double last = 0.0;
  for (std::size_t k = 1; k <= apps.size(); ++k) {
    std::vector<sdf::Graph> subset(apps.begin(), apps.begin() + k);
    const System sys = make_system(std::move(subset));
    const auto est = prob::ContentionEstimator().estimate(sys);
    EXPECT_GE(est[0].estimated_period + 1e-9, last);
    last = est[0].estimated_period;
  }
}

TEST(Integration, UseCaseRestrictionConsistent) {
  // Estimating a restricted system equals estimating those apps directly.
  const auto sys = testing::fig2_system();
  const auto full = prob::ContentionEstimator().estimate(sys);
  const auto only_a =
      prob::ContentionEstimator().estimate(platform::SystemView(sys, {0}).materialise());
  EXPECT_NEAR(only_a[0].isolation_period, full[0].isolation_period, 1e-12);
  EXPECT_LE(only_a[0].estimated_period, full[0].estimated_period);
}

}  // namespace
}  // namespace procon
