// Tests for the stochastic execution-time extension (paper Section 6):
// load derivation with residual-life blocking times, the estimator overload
// and the sampling simulator.
#include <gtest/gtest.h>

#include "helpers.h"
#include "prob/estimator.h"
#include "prob/load.h"
#include "sdf/repetition.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace procon::prob {
namespace {

using procon::testing::fig2_system;
using sdf::ExecTimeDistribution;
using sdf::ExecTimeModel;

std::vector<ExecTimeModel> constant_models(const platform::System& sys) {
  std::vector<ExecTimeModel> models;
  for (const auto& g : sys.apps()) models.push_back(sdf::constant_model(g));
  return models;
}

TEST(StochasticLoads, ConstantModelEqualsDeterministic) {
  const sdf::Graph g = procon::testing::fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  const auto det = derive_loads(g, *q, 300.0);
  const auto sto = derive_loads_stochastic(g, *q, 300.0, sdf::constant_model(g));
  ASSERT_EQ(det.size(), sto.size());
  for (std::size_t i = 0; i < det.size(); ++i) {
    EXPECT_DOUBLE_EQ(det[i].probability, sto[i].probability);
    EXPECT_DOUBLE_EQ(det[i].mean_blocking, sto[i].mean_blocking);
  }
}

TEST(StochasticLoads, VarianceRaisesBlockingTime) {
  const sdf::Graph g = procon::testing::fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  // Same means as the fixed times, but with spread.
  ExecTimeModel model{ExecTimeDistribution::discrete({{50, 1.0}, {150, 1.0}}),
                      ExecTimeDistribution::discrete({{25, 1.0}, {75, 1.0}}),
                      ExecTimeDistribution::constant(100)};
  const auto loads = derive_loads_stochastic(g, *q, 300.0, model);
  // Means unchanged -> same blocking probabilities as Definition 4.
  for (const auto& l : loads) {
    EXPECT_NEAR(l.probability, 1.0 / 3.0, 1e-12);
  }
  // Residual life: E[tau^2]/(2 E[tau]) > tau/2 when variance > 0.
  EXPECT_GT(loads[0].mean_blocking, 50.0);
  EXPECT_GT(loads[1].mean_blocking, 25.0);
  EXPECT_DOUBLE_EQ(loads[2].mean_blocking, 50.0);
}

TEST(StochasticLoads, SizeMismatchThrows) {
  const sdf::Graph g = procon::testing::fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  ExecTimeModel small{ExecTimeDistribution::constant(1)};
  EXPECT_THROW((void)derive_loads_stochastic(g, *q, 300.0, small), sdf::GraphError);
}

TEST(StochasticEstimator, ConstantModelsMatchDeterministicExactly) {
  const auto sys = fig2_system();
  const ContentionEstimator est;
  const auto det = est.estimate(sys);
  const auto sto = est.estimate(sys, constant_models(sys));
  ASSERT_EQ(det.size(), sto.size());
  for (std::size_t i = 0; i < det.size(); ++i) {
    EXPECT_DOUBLE_EQ(det[i].isolation_period, sto[i].isolation_period);
    EXPECT_DOUBLE_EQ(det[i].estimated_period, sto[i].estimated_period);
  }
}

TEST(StochasticEstimator, VarianceIncreasesEstimate) {
  const auto sys = fig2_system();
  const ContentionEstimator est;
  const auto det = est.estimate(sys);

  // Replace every actor's time by a same-mean two-point distribution.
  std::vector<ExecTimeModel> models;
  for (const auto& g : sys.apps()) {
    ExecTimeModel m;
    for (const auto& a : g.actors()) {
      m.push_back(ExecTimeDistribution::discrete(
          {{a.exec_time / 2, 1.0}, {a.exec_time + a.exec_time / 2, 1.0}}));
    }
    models.push_back(std::move(m));
  }
  const auto sto = est.estimate(sys, models);
  for (std::size_t i = 0; i < sto.size(); ++i) {
    // Same means -> same isolation period; larger residuals -> larger
    // contended estimate.
    EXPECT_NEAR(sto[i].isolation_period, det[i].isolation_period, 1e-9);
    EXPECT_GT(sto[i].estimated_period, det[i].estimated_period);
  }
}

TEST(StochasticEstimator, ModelCountMismatchThrows) {
  const auto sys = fig2_system();
  std::vector<ExecTimeModel> one{sdf::constant_model(sys.app(0))};
  EXPECT_THROW((void)ContentionEstimator().estimate(sys, one), sdf::GraphError);
}

TEST(StochasticSim, ConstantModelsReproduceDeterministicRun) {
  const auto sys = fig2_system();
  const auto models = constant_models(sys);
  sim::SimOptions with_models{.horizon = 50'000};
  with_models.exec_models = models;
  const auto a = sim::simulate(sys, with_models);
  const auto b = sim::simulate(sys, sim::SimOptions{.horizon = 50'000});
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].iteration_times, b.apps[i].iteration_times);
  }
}

TEST(StochasticSim, SameSeedSameRun) {
  const auto sys = fig2_system();
  std::vector<ExecTimeModel> models;
  for (const auto& g : sys.apps()) {
    ExecTimeModel m;
    for (const auto& a : g.actors()) {
      m.push_back(ExecTimeDistribution::uniform(a.exec_time / 2,
                                                a.exec_time + a.exec_time / 2));
    }
    models.push_back(std::move(m));
  }
  sim::SimOptions opts{.horizon = 50'000};
  opts.exec_models = models;
  opts.sample_seed = 1234;
  const auto a = sim::simulate(sys, opts);
  const auto b = sim::simulate(sys, opts);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].iteration_times, b.apps[i].iteration_times);
  }
  // A different seed yields a different execution.
  opts.sample_seed = 99;
  const auto c = sim::simulate(sys, opts);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    any_diff = any_diff || a.apps[i].iteration_times != c.apps[i].iteration_times;
  }
  EXPECT_TRUE(any_diff);
}

TEST(StochasticSim, MeanPeriodNearMeanBasedAnalysis) {
  // Single application with variable times on dedicated nodes: the average
  // period under sampling should sit near the mean-based analytic period
  // (exact for a sequential cycle, where the period is a sum of times).
  const auto sys = procon::testing::fig2_app_a_system();
  std::vector<ExecTimeModel> models;
  {
    ExecTimeModel m;
    for (const auto& a : sys.app(0).actors()) {
      m.push_back(ExecTimeDistribution::uniform(a.exec_time - 10,
                                                a.exec_time + 10));
    }
    models.push_back(std::move(m));
  }
  sim::SimOptions opts{.horizon = 500'000};
  opts.exec_models = models;
  const auto r = sim::simulate(sys, opts);
  ASSERT_TRUE(r.apps[0].converged);
  EXPECT_NEAR(r.apps[0].average_period, 300.0, 3.0);  // ~1% tolerance
  // Jitter must show up in the worst observed period.
  EXPECT_GT(r.apps[0].worst_period, r.apps[0].average_period);
}

TEST(StochasticSim, ModelMismatchThrows) {
  const auto sys = fig2_system();
  std::vector<ExecTimeModel> bad{sdf::constant_model(sys.app(0))};  // one model
  sim::SimOptions opts{.horizon = 1000};
  opts.exec_models = bad;
  EXPECT_THROW((void)sim::simulate(sys, opts), sdf::GraphError);
}

TEST(StochasticEndToEnd, EstimateTracksStochasticSimulation) {
  // Full pipeline under contention with spread execution times: the
  // stochastic estimate stays within a loose band of the sampling
  // simulation (the paper's accuracy claim carried to the extension).
  const auto sys = fig2_system();
  std::vector<ExecTimeModel> models;
  for (const auto& g : sys.apps()) {
    ExecTimeModel m;
    for (const auto& a : g.actors()) {
      m.push_back(ExecTimeDistribution::uniform(a.exec_time - a.exec_time / 5,
                                                a.exec_time + a.exec_time / 5));
    }
    models.push_back(std::move(m));
  }
  const auto est = ContentionEstimator().estimate(sys, models);
  sim::SimOptions opts{.horizon = 500'000};
  opts.exec_models = models;
  const auto sim = sim::simulate(sys, opts);
  for (std::size_t i = 0; i < est.size(); ++i) {
    ASSERT_TRUE(sim.apps[i].converged);
    EXPECT_LT(util::percent_abs_diff(est[i].estimated_period,
                                     sim.apps[i].average_period),
              30.0)
        << "app " << i;
  }
}

}  // namespace
}  // namespace procon::prob
