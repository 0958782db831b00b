#include "sdf/exec_time.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace procon::sdf {
namespace {

TEST(ExecTime, ConstantMoments) {
  const auto d = ExecTimeDistribution::constant(100);
  EXPECT_DOUBLE_EQ(d.mean(), 100.0);
  EXPECT_DOUBLE_EQ(d.second_moment(), 10000.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  // Residual life of a constant service is tau/2 - Definition 5.
  EXPECT_DOUBLE_EQ(d.mean_residual(), 50.0);
  EXPECT_TRUE(d.is_constant());
}

TEST(ExecTime, ConstantSamplesItself) {
  const auto d = ExecTimeDistribution::constant(42);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(d.sample(rng), 42);
  }
}

TEST(ExecTime, UniformMoments) {
  // Uniform over {10, 11, ..., 20}: mean 15.
  const auto d = ExecTimeDistribution::uniform(10, 20);
  EXPECT_DOUBLE_EQ(d.mean(), 15.0);
  EXPECT_FALSE(d.is_constant());
  // Discrete uniform variance: (n^2 - 1) / 12 with n = 11.
  EXPECT_NEAR(d.variance(), (11.0 * 11.0 - 1.0) / 12.0, 1e-9);
  // Residual life exceeds mean/2 whenever variance > 0.
  EXPECT_GT(d.mean_residual(), d.mean() / 2.0);
}

TEST(ExecTime, UniformSamplesInRange) {
  const auto d = ExecTimeDistribution::uniform(5, 9);
  util::Rng rng(7);
  std::vector<int> seen(15, 0);
  for (int i = 0; i < 5000; ++i) {
    const Time v = d.sample(rng);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 9);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (Time v = 5; v <= 9; ++v) {
    EXPECT_GT(seen[static_cast<std::size_t>(v)], 0) << "value " << v << " never drawn";
  }
}

TEST(ExecTime, DiscreteWeightsNormalised) {
  const auto d = ExecTimeDistribution::discrete(
      {{10, 3.0}, {30, 1.0}});  // P(10) = 3/4, P(30) = 1/4
  EXPECT_DOUBLE_EQ(d.mean(), 0.75 * 10 + 0.25 * 30);
  EXPECT_DOUBLE_EQ(d.second_moment(), 0.75 * 100 + 0.25 * 900);
}

TEST(ExecTime, DiscreteSamplingFrequencies) {
  const auto d = ExecTimeDistribution::discrete({{1, 0.9}, {100, 0.1}});
  util::Rng rng(11);
  int big = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (d.sample(rng) == 100) ++big;
  }
  EXPECT_NEAR(static_cast<double>(big) / kDraws, 0.1, 0.01);
}

TEST(ExecTime, InvalidInputsThrow) {
  EXPECT_THROW(ExecTimeDistribution::uniform(5, 4), std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::uniform(-1, 3), std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::uniform(
                   0, ExecTimeDistribution::kMaxUniformOutcomes),
               std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::discrete({}), std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::discrete({{-1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::discrete({{1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(ExecTimeDistribution::discrete({{1, -2.0}}), std::invalid_argument);
}

TEST(ExecTime, UniformAcceptsItsWidestRangeAndTheTopOfTime) {
  constexpr Time kMax = ExecTimeDistribution::kMaxUniformOutcomes;
  EXPECT_EQ(ExecTimeDistribution::uniform(0, kMax - 1).outcomes().size(),
            static_cast<std::size_t>(kMax));
  // The loop must stop at hi, not step past the largest Time.
  const auto top = ExecTimeDistribution::uniform(kTimeInfinity - 2, kTimeInfinity);
  ASSERT_EQ(top.outcomes().size(), 3u);
  EXPECT_EQ(top.outcomes().back().value, kTimeInfinity);
}

TEST(ExecTime, ZeroMeanResidualIsZero) {
  const auto d = ExecTimeDistribution::constant(0);
  EXPECT_DOUBLE_EQ(d.mean_residual(), 0.0);
}

TEST(ExecTime, ConstantModelMatchesGraph) {
  const Graph g = procon::testing::fig2_graph_a();
  const ExecTimeModel model = constant_model(g);
  ASSERT_EQ(model.size(), g.actor_count());
  for (ActorId a = 0; a < g.actor_count(); ++a) {
    EXPECT_TRUE(model[a].is_constant());
    EXPECT_DOUBLE_EQ(model[a].mean(), static_cast<double>(g.actor(a).exec_time));
  }
}

TEST(ExecTime, ResidualLifeFormula) {
  // Two-point distribution {10 w.p. 1/2, 30 w.p. 1/2}: E=20, E^2=500,
  // residual = 500 / 40 = 12.5 > E/2 = 10.
  const auto d = ExecTimeDistribution::discrete({{10, 1.0}, {30, 1.0}});
  EXPECT_DOUBLE_EQ(d.mean_residual(), 12.5);
}

}  // namespace
}  // namespace procon::sdf
