#include "wcrt/wcrt.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "prob/estimator.h"

namespace procon::wcrt {
namespace {

TEST(WcrtFormulas, RoundRobinSumsOtherExecTimes) {
  EXPECT_DOUBLE_EQ(wcrt_round_robin(10.0, {}), 10.0);
  EXPECT_DOUBLE_EQ(wcrt_round_robin(10.0, {5.0, 7.0}), 22.0);
}

TEST(WcrtFormulas, TdmaFairWheelEqualsRoundRobin) {
  // slot = own execution time -> one slot suffices: WCRT = C + (W - s).
  EXPECT_DOUBLE_EQ(wcrt_tdma(10.0, 10.0, {5.0, 7.0}), 22.0);
}

TEST(WcrtFormulas, TdmaSmallSlotsArePunishing) {
  // C = 10, s = 2 -> 5 slots, each preceded by the rest of the wheel (12).
  EXPECT_DOUBLE_EQ(wcrt_tdma(10.0, 2.0, {5.0, 7.0}), 10.0 + 5.0 * 12.0);
}

TEST(WcrtFormulas, TdmaInvalidSlotThrows) {
  EXPECT_THROW((void)wcrt_tdma(10.0, 0.0, {}), std::invalid_argument);
}

TEST(WorstCase, PaperExampleRoundRobin) {
  // On each node, the worst case adds the full execution time of the other
  // application's actor: A responses = {150, 150, 200}, giving period
  // 100+25+... -> per the cycle: 150 + 2*150 + 200 = 650. Same for B.
  const auto sys = procon::testing::fig2_system();
  const auto bounds = worst_case_bounds(sys);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_NEAR(bounds[0].isolation_period, 300.0, 1e-6);
  EXPECT_NEAR(bounds[0].actors[0].response_time, 150.0, 1e-9);  // 100 + 50
  EXPECT_NEAR(bounds[0].actors[1].response_time, 150.0, 1e-9);  // 50 + 100
  EXPECT_NEAR(bounds[0].actors[2].response_time, 200.0, 1e-9);  // 100 + 100
  EXPECT_NEAR(bounds[0].worst_case_period, 650.0, 1e-5);
  EXPECT_NEAR(bounds[1].worst_case_period, 650.0, 1e-5);
}

TEST(WorstCase, AlwaysAboveProbabilisticEstimate) {
  // WCRT is conservative: must dominate every probabilistic estimate.
  const auto sys = procon::testing::fig2_system();
  const auto bounds = worst_case_bounds(sys);
  const auto est = prob::ContentionEstimator().estimate(sys);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_GE(bounds[i].worst_case_period + 1e-9, est[i].estimated_period);
    EXPECT_GE(bounds[i].worst_case_period + 1e-9, bounds[i].isolation_period);
  }
}

TEST(WorstCase, TdmaFairWheelMatchesRoundRobinBound) {
  const auto sys = procon::testing::fig2_system();
  const auto rr = worst_case_bounds(
      sys, WcrtOptions{.policy = Policy::RoundRobinNonPreemptive});
  const auto tdma =
      worst_case_bounds(sys, WcrtOptions{.policy = Policy::TdmaPreemptive});
  for (std::size_t i = 0; i < rr.size(); ++i) {
    EXPECT_NEAR(rr[i].worst_case_period, tdma[i].worst_case_period, 1e-6);
  }
}

TEST(WorstCase, TdmaUniformSlotAtLeastNTimesExec) {
  // With n actors on a uniform-slot wheel the bound is at least n * C:
  // C + ceil(C/s)(n-1)s >= C + (C/s)(n-1)s = nC; rounding only adds.
  for (const double c : {10.0, 37.0, 100.0}) {
    for (const double s : {1.0, 7.0, 10.0, 50.0}) {
      for (int n = 2; n <= 5; ++n) {
        const std::vector<double> others(static_cast<std::size_t>(n - 1), s);
        EXPECT_GE(wcrt_tdma(c, s, others) + 1e-9, n * c)
            << "C=" << c << " s=" << s << " n=" << n;
      }
    }
  }
}

TEST(WorstCase, TdmaExactWhenSlotDividesExec) {
  // When s divides C the uniform-wheel bound is exactly n * C.
  EXPECT_DOUBLE_EQ(wcrt_tdma(100.0, 10.0, {10.0}), 200.0);
  EXPECT_DOUBLE_EQ(wcrt_tdma(100.0, 10.0, {10.0, 10.0}), 300.0);
}

TEST(WorstCase, NoContentionNoWait) {
  const auto sys = procon::testing::fig2_app_a_system();
  const auto bounds = worst_case_bounds(sys);
  EXPECT_NEAR(bounds[0].worst_case_period, bounds[0].isolation_period, 1e-9);
  for (const auto& a : bounds[0].actors) {
    EXPECT_DOUBLE_EQ(a.waiting_time, 0.0);
  }
}

TEST(WorstCase, GrowsLinearlyWithContenders) {
  // Stack k identical apps on the same nodes: the RR bound's response times
  // grow linearly in k, so the period bound must be non-decreasing.
  double last = 0.0;
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<sdf::Graph> apps;
    for (std::size_t i = 0; i < k; ++i) {
      apps.push_back(procon::testing::fig2_graph_a());
    }
    platform::Platform plat = platform::Platform::homogeneous(3);
    platform::Mapping m = platform::Mapping::by_index(apps, plat);
    const platform::System sys(std::move(apps), std::move(plat), std::move(m));
    const auto bounds = worst_case_bounds(sys);
    EXPECT_GE(bounds[0].worst_case_period + 1e-9, last);
    last = bounds[0].worst_case_period;
  }
  // 4 apps: every actor of A waits 3 full peers. Response times
  // {400, 200+ ...}: a0: 100+3*100, a1: 50+3*50, a2: 100+3*100 -> period
  // 400 + 2*200 + 400 = 1200 = 4x isolation.
  EXPECT_NEAR(last, 1200.0, 1e-5);
}

}  // namespace
}  // namespace procon::wcrt
