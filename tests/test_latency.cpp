#include "analysis/throughput.h"

#include <gtest/gtest.h>

#include "analysis_oracle.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::expand_to_hsdf;
using procon::testing::fig2_graph_a;
using procon::testing::Hsdf;
using procon::testing::HsdfEdge;
using procon::testing::HsdfNode;
using procon::testing::iteration_latency;
using procon::testing::LatencyResult;
using sdf::Graph;

TEST(Latency, SequentialGraphLatencyEqualsPeriod) {
  // Fig. 2 graph A is fully sequential: latency == period == 300, and the
  // critical path passes through every actor.
  const auto r = compute_latency(fig2_graph_a());
  EXPECT_NEAR(r.latency, 300.0, 1e-9);
  EXPECT_EQ(r.critical_actors, (std::vector<sdf::ActorId>{0, 1, 2}));
}

TEST(Latency, PipelinedGraphLatencyExceedsPeriod) {
  // Deep pipeline: period is the bottleneck stage, latency the whole chain.
  Graph g("pipe");
  const auto s0 = g.add_actor("s0", 10);
  const auto s1 = g.add_actor("s1", 20);
  const auto s2 = g.add_actor("s2", 30);
  g.add_channel(s0, s1, 1, 1, 0);
  g.add_channel(s1, s2, 1, 1, 0);
  g.add_channel(s2, s0, 1, 1, 8);  // ample feedback tokens
  const double period = compute_period(g).period;
  const auto lat = compute_latency(g);
  EXPECT_NEAR(period, 30.0, 1e-6);   // the slowest stage
  EXPECT_NEAR(lat.latency, 60.0, 1e-9);  // 10 + 20 + 30
  EXPECT_GT(lat.latency, period);
}

TEST(Latency, SingleActor) {
  Graph g;
  g.add_actor("solo", 42);
  EXPECT_NEAR(compute_latency(g).latency, 42.0, 1e-9);
}

TEST(Latency, ExecTimeOverride) {
  const Graph g = fig2_graph_a();
  const std::vector<double> times{100.0 + 25.0 / 3.0, 50.0 + 50.0 / 3.0,
                                  100.0 + 50.0 / 3.0};
  // Responses of Fig. 3: latency = sum over the sequential chain = 358.33.
  EXPECT_NEAR(compute_latency(g, times).latency, 1075.0 / 3.0, 1e-9);
}

TEST(Latency, MultiRateCountsAllFirings) {
  // One producer, three consumer firings chained by the self-loop: the
  // critical path is p + 3 * c.
  Graph g;
  const auto p = g.add_actor("p", 10);
  const auto c = g.add_actor("c", 7);
  g.add_channel(p, c, 3, 1, 0);
  g.add_channel(c, p, 1, 3, 3);
  EXPECT_NEAR(compute_latency(g).latency, 10.0 + 3 * 7.0, 1e-9);
}

TEST(Latency, InconsistentThrows) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 2, 1, 0);
  g.add_channel(b, a, 2, 1, 0);
  EXPECT_THROW((void)compute_latency(g), sdf::GraphError);
}

TEST(Latency, DeadlockedZeroTokenCycleThrows) {
  Hsdf h;
  h.nodes = {HsdfNode{0, 0, 1.0}, HsdfNode{1, 0, 1.0}};
  h.edges = {HsdfEdge{0, 1, 0}, HsdfEdge{1, 0, 0}};
  EXPECT_THROW((void)iteration_latency(h), sdf::GraphError);
}

TEST(Latency, PathIsConsistentWithValue) {
  const Graph g = fig2_graph_a().with_self_loops();
  const auto q = sdf::compute_repetition_vector(g);
  const Hsdf h = expand_to_hsdf(g, *q, {});
  const LatencyResult r = iteration_latency(h);
  double sum = 0.0;
  for (const std::uint32_t v : r.path) sum += h.nodes[v].exec_time;
  EXPECT_NEAR(sum, r.latency, 1e-9);
}

// Property: latency is always >= the period lower bound implied by any
// single actor, and >= the period for graphs without pipelining tokens.
class LatencyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyProperty, LatencyBoundsOnRandomGraphs) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions opts;
  opts.min_actors = 4;
  opts.max_actors = 8;
  const Graph g = gen::generate_graph(rng, opts, "rnd");
  const auto lat = compute_latency(g);
  // Latency dominates every single firing.
  for (const auto& a : g.actors()) {
    EXPECT_GE(lat.latency + 1e-9, static_cast<double>(a.exec_time));
  }
  // The critical path is non-empty and its actors exist.
  ASSERT_FALSE(lat.critical_actors.empty());
  for (const auto a : lat.critical_actors) {
    EXPECT_LT(a, g.actor_count());
  }
  // Iteration workload bounds latency from above (a path fires each actor
  // at most q times).
  const auto q = sdf::compute_repetition_vector(g);
  EXPECT_LE(lat.latency,
            static_cast<double>(sdf::iteration_workload(g, *q)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace procon::analysis
