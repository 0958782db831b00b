#include "admission/admission.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "prob/estimator.h"

namespace procon::admission {
namespace {

using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;

std::vector<platform::NodeId> index_mapping(const sdf::Graph& g) {
  std::vector<platform::NodeId> nodes(g.actor_count());
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) nodes[a] = a;
  return nodes;
}

TEST(Admission, FirstAppAlwaysFitsAlone) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto g = fig2_graph_a();
  const Decision d = ctrl.request(g, index_mapping(g), QoS{350.0});
  ASSERT_TRUE(d.admitted);
  EXPECT_NEAR(d.predicted_period, 300.0, 1e-6);  // no contention yet
  EXPECT_EQ(ctrl.admitted_count(), 1u);
}

TEST(Admission, SecondAppPredictedWithContention) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{400.0});
  ASSERT_TRUE(d.admitted);
  // Section 3.1: the contended period estimate is 358.33.
  EXPECT_NEAR(d.predicted_period, 1075.0 / 3.0, 1e-5);
  // And A's post-admission prediction is reported and identical.
  ASSERT_EQ(d.peer_periods.size(), 1u);
  EXPECT_NEAR(d.peer_periods[0], 1075.0 / 3.0, 1e-5);
}

TEST(Admission, RejectsWhenOwnQosUnmet) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{310.0});
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("exceeds its QoS bound"), std::string::npos);
  EXPECT_EQ(ctrl.admitted_count(), 1u);  // state unchanged
}

TEST(Admission, RejectsWhenPeerQosWouldBreak) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  // A has a tight bound that B's arrival would violate.
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{310.0}).admitted);
  const Decision d = ctrl.request(b, index_mapping(b), QoS{1000.0});
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("'A'"), std::string::npos);
}

TEST(Admission, RemoveRestoresCapacity) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS{310.0});
  ASSERT_TRUE(da.admitted);
  // B with a bound only satisfiable alone.
  EXPECT_FALSE(ctrl.request(b, index_mapping(b), QoS{310.0}).admitted);
  ctrl.remove(*da.handle);
  EXPECT_EQ(ctrl.admitted_count(), 0u);
  // Node composites must be (numerically) back to identity.
  for (platform::NodeId n = 0; n < 3; ++n) {
    EXPECT_NEAR(ctrl.node_load(n).probability, 0.0, 1e-12);
    EXPECT_NEAR(ctrl.node_load(n).weighted_blocking, 0.0, 1e-12);
  }
  EXPECT_TRUE(ctrl.request(b, index_mapping(b), QoS{310.0}).admitted);
}

TEST(Admission, RemoveUnknownHandleThrows) {
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  EXPECT_THROW(ctrl.remove(0), std::out_of_range);
  const auto g = procon::testing::two_actor_cycle(10, 10);
  const Decision d = ctrl.request(g, index_mapping(g), QoS::no_requirement());
  ASSERT_TRUE(d.admitted);
  ctrl.remove(*d.handle);
  EXPECT_THROW(ctrl.remove(*d.handle), std::out_of_range);  // double remove
}

TEST(Admission, PredictedPeriodTracksEstimator) {
  // The controller's incremental predictions must match the batch
  // CompositionInverse estimator on the same system.
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS::no_requirement());
  const Decision db = ctrl.request(b, index_mapping(b), QoS::no_requirement());
  ASSERT_TRUE(da.admitted);
  ASSERT_TRUE(db.admitted);

  const auto sys = procon::testing::fig2_system();
  const auto batch = prob::ContentionEstimator(
                         prob::EstimatorOptions{.method = prob::Method::CompositionInverse})
                         .estimate(sys);
  EXPECT_NEAR(ctrl.predicted_period(*da.handle), batch[0].estimated_period, 1e-6);
  EXPECT_NEAR(ctrl.predicted_period(*db.handle), batch[1].estimated_period, 1e-6);
}

TEST(Admission, ValidationErrors) {
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  const auto g = procon::testing::two_actor_cycle(10, 10);
  // Wrong mapping size.
  EXPECT_THROW((void)ctrl.request(g, {0}, QoS::no_requirement()), sdf::GraphError);
  // Nonexistent node.
  EXPECT_THROW((void)ctrl.request(g, {0, 9}, QoS::no_requirement()), sdf::GraphError);
  // Deadlocked graph.
  sdf::Graph dead("dead");
  const auto x = dead.add_actor("x", 1);
  const auto y = dead.add_actor("y", 1);
  dead.add_channel(x, y, 1, 1, 0);
  dead.add_channel(y, x, 1, 1, 0);
  EXPECT_THROW((void)ctrl.request(dead, {0, 1}, QoS::no_requirement()),
               sdf::GraphError);
  // Inconsistent graph: no repetition vector, so the candidate's engine
  // cannot be built.
  sdf::Graph inconsistent("inconsistent");
  const auto u = inconsistent.add_actor("u", 1);
  const auto v = inconsistent.add_actor("v", 1);
  inconsistent.add_channel(u, v, 2, 1, 0);
  inconsistent.add_channel(v, u, 2, 1, 4);
  // Zero-token self-loop: consistent, but the actor can never fire.
  sdf::Graph stuck = procon::testing::two_actor_cycle(10, 10);
  stuck.add_channel(0, 0, 1, 1, 0);
  for (const sdf::Graph* bad : {&inconsistent, &stuck}) {
    EXPECT_THROW((void)ctrl.request(*bad, {0, 1}, QoS::no_requirement()),
                 sdf::GraphError)
        << bad->name();
    EXPECT_THROW((void)ctrl.what_if_admit(*bad, {0, 1}, QoS::no_requirement()),
                 sdf::GraphError)
        << bad->name();
  }
  // Rejected graphs are never cached, and nothing was admitted.
  EXPECT_EQ(ctrl.candidate_cache_size(), 0u);
  EXPECT_EQ(ctrl.admitted_count(), 0u);
}

TEST(Admission, ManyAppsAccumulateLoad) {
  // Admit the same graph repeatedly (best effort): each admission must
  // raise the predicted period of the first one monotonically.
  AdmissionController ctrl(platform::Platform::homogeneous(2));
  const auto g = procon::testing::two_actor_cycle(10, 30);
  const Decision first = ctrl.request(g, {0, 1}, QoS::no_requirement());
  ASSERT_TRUE(first.admitted);
  double last = ctrl.predicted_period(*first.handle);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctrl.request(g, {0, 1}, QoS::no_requirement()).admitted);
    const double now = ctrl.predicted_period(*first.handle);
    EXPECT_GE(now + 1e-9, last);
    last = now;
  }
  EXPECT_EQ(ctrl.admitted_count(), 6u);
}

TEST(Admission, NodeLoadInvalidIdThrows) {
  AdmissionController ctrl(platform::Platform::homogeneous(1));
  EXPECT_THROW((void)ctrl.node_load(5), std::out_of_range);
}

TEST(Admission, WhatIfAdmitMatchesRequestWithoutCommitting) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{400.0}).admitted);

  // Probe the exact request that would be granted: same verdict and
  // predictions as request(), but nothing changes.
  const WhatIfReport would = ctrl.what_if_admit(b, index_mapping(b), QoS{400.0});
  EXPECT_TRUE(would.admissible);
  EXPECT_EQ(ctrl.admitted_count(), 1u);

  const Decision real = ctrl.request(b, index_mapping(b), QoS{400.0});
  ASSERT_TRUE(real.admitted);
  EXPECT_EQ(would.predicted_period, real.predicted_period);
  ASSERT_EQ(would.peer_periods.size(), real.peer_periods.size());
  for (std::size_t i = 0; i < would.peer_periods.size(); ++i) {
    EXPECT_EQ(would.peer_periods[i], real.peer_periods[i]);
  }
  // The full report covers active apps + candidate (last), and matches the
  // batch estimator over the committed system bit for bit.
  ASSERT_EQ(would.estimates.size(), 2u);
  const auto batch =
      prob::ContentionEstimator().estimate(ctrl.snapshot_system());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(would.estimates[i].isolation_period, batch[i].isolation_period);
    EXPECT_EQ(would.estimates[i].estimated_period, batch[i].estimated_period);
  }
}

TEST(Admission, WhatIfAdmitRejectionLeavesStateUntouched) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  ASSERT_TRUE(ctrl.request(a, index_mapping(a), QoS{310.0}).admitted);

  // B would break A's tight QoS: the probe reports it, nothing mutates.
  const WhatIfReport would =
      ctrl.what_if_admit(b, index_mapping(b), QoS{1000.0});
  EXPECT_FALSE(would.admissible);
  EXPECT_NE(would.reason.find("'A'"), std::string::npos);
  EXPECT_EQ(ctrl.admitted_count(), 1u);
  // The composites are untouched: the real request reproduces the verdict.
  EXPECT_FALSE(ctrl.request(b, index_mapping(b), QoS{1000.0}).admitted);
  // Probing repeatedly never leaks candidate state into the store.
  for (int i = 0; i < 3; ++i) {
    (void)ctrl.what_if_admit(b, index_mapping(b), QoS{1000.0});
  }
  EXPECT_EQ(ctrl.admitted_count(), 1u);
  EXPECT_NO_THROW((void)ctrl.snapshot_system().validate());
}

TEST(Admission, WhatIfRemovePredictsReliefWithoutRemoving) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const auto a = fig2_graph_a();
  const auto b = fig2_graph_b();
  const Decision da = ctrl.request(a, index_mapping(a), QoS::no_requirement());
  const Decision db = ctrl.request(b, index_mapping(b), QoS::no_requirement());
  ASSERT_TRUE(da.admitted);
  ASSERT_TRUE(db.admitted);

  const WhatIfReport relief = ctrl.what_if_remove(*db.handle);
  EXPECT_TRUE(relief.admissible);
  EXPECT_EQ(ctrl.admitted_count(), 2u);  // nothing removed
  ASSERT_EQ(relief.peer_periods.size(), 2u);
  EXPECT_EQ(relief.peer_periods[*db.handle], 0.0);
  // Alone again, A's predicted period returns to its isolation period.
  EXPECT_NEAR(relief.peer_periods[*da.handle], 300.0, 1e-6);
  ASSERT_EQ(relief.estimates.size(), 1u);
  EXPECT_NEAR(relief.estimates[0].estimated_period, 300.0, 1e-6);

  // The prediction matches what remove() actually produces.
  ctrl.remove(*db.handle);
  EXPECT_NEAR(ctrl.predicted_period(*da.handle), relief.peer_periods[*da.handle],
              1e-9);
  EXPECT_THROW((void)ctrl.what_if_remove(*db.handle), std::out_of_range);
}

}  // namespace
}  // namespace procon::admission
