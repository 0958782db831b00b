#include "prob/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::prob {
namespace {

using procon::testing::fig2_system;

// Section 3.1's worked example, end to end: every method must reproduce the
// paper's numbers because each node hosts exactly one other actor (all
// evaluation schemes coincide for a single blocker).
class PaperExample : public ::testing::TestWithParam<Method> {};

TEST_P(PaperExample, WaitingTimesOfFigure3) {
  const ContentionEstimator est(EstimatorOptions{.method = GetParam()});
  const auto r = est.estimate(fig2_system());
  ASSERT_EQ(r.size(), 2u);
  // twait[a0 a1 a2] = [25/3 50/3 50/3].
  EXPECT_NEAR(r[0].actors[0].waiting_time, 25.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[0].actors[1].waiting_time, 50.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[0].actors[2].waiting_time, 50.0 / 3.0, 1e-9);
  // twait[b0 b1 b2] = [50/3 25/3 50/3].
  EXPECT_NEAR(r[1].actors[0].waiting_time, 50.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[1].actors[1].waiting_time, 25.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[1].actors[2].waiting_time, 50.0 / 3.0, 1e-9);
}

TEST_P(PaperExample, ResponseTimesOfFigure3) {
  const ContentionEstimator est(EstimatorOptions{.method = GetParam()});
  const auto r = est.estimate(fig2_system());
  // Figure 3: A = {108.33, 66.67, 116.67}, B = {66.67, 108.33, 116.67}.
  EXPECT_NEAR(r[0].actors[0].response_time, 100.0 + 25.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[0].actors[1].response_time, 50.0 + 50.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[0].actors[2].response_time, 100.0 + 50.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[1].actors[0].response_time, 50.0 + 50.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[1].actors[1].response_time, 100.0 + 25.0 / 3.0, 1e-9);
  EXPECT_NEAR(r[1].actors[2].response_time, 100.0 + 50.0 / 3.0, 1e-9);
}

TEST_P(PaperExample, EstimatedPeriod359) {
  const ContentionEstimator est(EstimatorOptions{.method = GetParam()});
  const auto r = est.estimate(fig2_system());
  // "The new period of SDFG A and B is computed as 359 time units for
  // both" (358.33 exactly).
  EXPECT_NEAR(r[0].isolation_period, 300.0, 1e-6);
  EXPECT_NEAR(r[1].isolation_period, 300.0, 1e-6);
  EXPECT_NEAR(r[0].estimated_period, 1075.0 / 3.0, 1e-5);
  EXPECT_NEAR(r[1].estimated_period, 1075.0 / 3.0, 1e-5);
  EXPECT_NEAR(r[0].normalised_period(), (1075.0 / 3.0) / 300.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PaperExample,
    ::testing::Values(Method::Exact, Method::SecondOrder, Method::FourthOrder,
                      Method::Composability, Method::CompositionInverse),
    [](const ::testing::TestParamInfo<Method>& param_info) {
      switch (param_info.param) {
        case Method::Exact: return "Exact";
        case Method::SecondOrder: return "SecondOrder";
        case Method::FourthOrder: return "FourthOrder";
        case Method::MthOrder: return "MthOrder";
        case Method::Composability: return "Composability";
        case Method::CompositionInverse: return "CompositionInverse";
        case Method::MonteCarlo: return "MonteCarlo";
      }
      return "Unknown";
    });

TEST(Estimator, MethodNames) {
  EXPECT_STREQ(method_name(Method::SecondOrder), "Probabilistic Second Order");
  EXPECT_STREQ(method_name(Method::Composability), "Composability-based");
}

TEST(Estimator, InvalidOptionsThrow) {
  EXPECT_THROW(ContentionEstimator(EstimatorOptions{.order = 0}),
               std::invalid_argument);
  EXPECT_THROW(ContentionEstimator(EstimatorOptions{.iterations = 0}),
               std::invalid_argument);
}

TEST(Estimator, MthOrderMatchesSecondAndFourth) {
  const auto sys = fig2_system();
  const auto second =
      ContentionEstimator(EstimatorOptions{.method = Method::SecondOrder})
          .estimate(sys);
  const auto m2 = ContentionEstimator(
                      EstimatorOptions{.method = Method::MthOrder, .order = 2})
                      .estimate(sys);
  EXPECT_NEAR(second[0].estimated_period, m2[0].estimated_period, 1e-12);
  const auto fourth =
      ContentionEstimator(EstimatorOptions{.method = Method::FourthOrder})
          .estimate(sys);
  const auto m4 = ContentionEstimator(
                      EstimatorOptions{.method = Method::MthOrder, .order = 4})
                      .estimate(sys);
  EXPECT_NEAR(fourth[0].estimated_period, m4[0].estimated_period, 1e-12);
}

TEST(Estimator, SingleApplicationNoContention) {
  // A use-case with one application: no waiting, period = isolation period.
  const auto sys = procon::testing::fig2_app_a_system();
  const auto r = ContentionEstimator().estimate(sys);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0].estimated_period, r[0].isolation_period, 1e-9);
  for (const auto& a : r[0].actors) {
    EXPECT_DOUBLE_EQ(a.waiting_time, 0.0);
  }
}

TEST(Estimator, FixedPointIterationConverges) {
  // Iterating lowers the blocking probabilities (periods grow), so the
  // fixed-point estimate is below the single-pass one but above isolation.
  const auto sys = fig2_system();
  const auto once = ContentionEstimator(EstimatorOptions{.iterations = 1})
                        .estimate(sys);
  const auto many = ContentionEstimator(EstimatorOptions{.iterations = 20})
                        .estimate(sys);
  EXPECT_LE(many[0].estimated_period, once[0].estimated_period + 1e-9);
  EXPECT_GE(many[0].estimated_period, once[0].isolation_period - 1e-9);
  // And it should have converged: one more pass changes nothing measurable.
  const auto more = ContentionEstimator(EstimatorOptions{.iterations = 21})
                        .estimate(sys);
  EXPECT_NEAR(many[0].estimated_period, more[0].estimated_period, 1e-6);
}

TEST(Estimator, InconsistentApplicationThrows) {
  sdf::Graph bad("bad");
  const auto x = bad.add_actor("x", 1);
  const auto y = bad.add_actor("y", 1);
  bad.add_channel(x, y, 2, 1, 0);
  bad.add_channel(y, x, 2, 1, 0);
  std::vector<sdf::Graph> apps{bad};
  platform::Platform plat = platform::Platform::homogeneous(2);
  platform::Mapping m = platform::Mapping::by_index(apps, plat);
  const platform::System sys(std::move(apps), std::move(plat), std::move(m));
  EXPECT_THROW((void)ContentionEstimator().estimate(sys), sdf::GraphError);
}

TEST(Estimator, SharedNodeWithinOneApplication) {
  // Both actors of a two-actor app on one node: they contend with each
  // other in the model even though they belong to the same graph.
  std::vector<sdf::Graph> apps{procon::testing::two_actor_cycle(40, 60)};
  platform::Platform plat = platform::Platform::homogeneous(1);
  platform::Mapping m(apps);
  m.assign(0, 0, 0);
  m.assign(0, 1, 0);
  const platform::System sys(std::move(apps), std::move(plat), std::move(m));
  const auto r = ContentionEstimator().estimate(sys);
  // P(x) = 0.4, P(y) = 0.6; twait(x) = mu_y P_y = 18, twait(y) = 20 * 0.4 = 8.
  EXPECT_NEAR(r[0].actors[0].waiting_time, 30.0 * 0.6, 1e-9);
  EXPECT_NEAR(r[0].actors[1].waiting_time, 20.0 * 0.4, 1e-9);
  EXPECT_NEAR(r[0].estimated_period, 100.0 + 18.0 + 8.0, 1e-6);
}

TEST(Estimator, NegativeWaitingTimeIsRejected) {
  // Twenty generated applications plus one actor that is busy all the time
  // (P = 1), on a homogeneous platform sized to the largest application
  // with actor j of every application on node j, as procon_cli builds it.
  // Third-order truncation drives waiting times on the saturated node below
  // zero, and step 5 would report periods below isolation.
  util::Rng rng(2007);
  std::vector<sdf::Graph> apps = gen::generate_graphs(rng, gen::GeneratorOptions{}, 20);
  sdf::Graph sat("sat");
  const sdf::ActorId s = sat.add_actor("s", 100);
  sat.add_channel(s, s, 1, 1, 1);
  apps.push_back(sat);
  std::size_t max_actors = 0;
  for (const sdf::Graph& g : apps) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  const platform::System sys(std::move(apps), std::move(plat), std::move(map));

  for (const int passes : {1, 2}) {
    const EstimatorOptions opts{.method = Method::MthOrder, .order = 3, .iterations = passes};
    try {
      (void)ContentionEstimator(opts).estimate(sys);
      ADD_FAILURE() << "order 3 at " << passes << " pass(es) returned";
    } catch (const sdf::GraphError& e) {
      EXPECT_NE(std::string(e.what()).find("order 3"), std::string::npos) << e.what();
    }
  }

  for (const Method m : {Method::Exact, Method::SecondOrder, Method::FourthOrder,
                         Method::Composability, Method::CompositionInverse}) {
    SCOPED_TRACE(method_name(m));
    const auto est = ContentionEstimator(EstimatorOptions{.method = m}).estimate(sys);
    for (const AppEstimate& app : est) {
      EXPECT_GE(app.estimated_period, app.isolation_period);
      for (const ActorEstimate& a : app.actors) EXPECT_GE(a.waiting_time, 0.0);
    }
  }
}

}  // namespace
}  // namespace procon::prob
