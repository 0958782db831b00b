#include "dse/buffer_explorer.h"

#include <gtest/gtest.h>

#include "analysis/throughput.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::dse {
namespace {

TEST(BufferExplorer, PipelineStaircase) {
  // Two-stage pipeline with ample feedback: unbounded period 10; the
  // minimal buffer forces alternation (20). The frontier must walk from 20
  // down to 10.
  sdf::Graph g("pipe");
  const auto x = g.add_actor("x", 10);
  const auto y = g.add_actor("y", 10);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 4);
  const auto frontier = explore_buffer_tradeoff(g);
  ASSERT_GE(frontier.size(), 2u);
  EXPECT_NEAR(frontier.front().period, 20.0, 1e-6);
  EXPECT_NEAR(frontier.back().period, 10.0, 1e-6);
}

TEST(BufferExplorer, FrontierIsMonotone) {
  sdf::Graph g("pipe3");
  const auto a = g.add_actor("a", 5);
  const auto b = g.add_actor("b", 7);
  const auto c = g.add_actor("c", 9);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 6);
  const auto frontier = explore_buffer_tradeoff(g);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i].period, frontier[i - 1].period + 1e-12);
    EXPECT_GT(frontier[i].total_tokens, frontier[i - 1].total_tokens);
  }
}

TEST(BufferExplorer, ReachesUnboundedPerformance) {
  sdf::Graph g("pipe3");
  const auto a = g.add_actor("a", 5);
  const auto b = g.add_actor("b", 7);
  const auto c = g.add_actor("c", 9);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 6);
  const double unbounded = analysis::compute_period(g).period;
  const auto frontier = explore_buffer_tradeoff(g);
  EXPECT_NEAR(frontier.back().period, unbounded, 1e-6);
}

TEST(BufferExplorer, SequentialGraphIsOnePoint) {
  // Fig. 2 graph A is fully sequential: buffers beyond minimal cannot help,
  // so the frontier collapses to the minimal configuration.
  const auto frontier =
      explore_buffer_tradeoff(procon::testing::fig2_graph_a());
  ASSERT_FALSE(frontier.empty());
  EXPECT_NEAR(frontier.front().period, 300.0, 1e-6);
  EXPECT_NEAR(frontier.back().period, 300.0, 1e-6);
  EXPECT_LE(frontier.size(), 2u);
}

TEST(BufferExplorer, StepCapRespected) {
  sdf::Graph g("pipe");
  const auto x = g.add_actor("x", 10);
  const auto y = g.add_actor("y", 10);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 8);
  BufferExplorerOptions opts;
  opts.max_steps = 1;
  const auto frontier = explore_buffer_tradeoff(g, opts);
  EXPECT_LE(frontier.size(), 2u);
}

/// The graph BufferExplorerProperty draws at `seed`: 4-6 actors, repetition
/// entries up to 2.
sdf::Graph property_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 6;
  gopts.max_repetition = 2;
  return gen::generate_graph(rng, gopts, "rnd");
}

TEST(BufferExplorer, FrontierMatchesParentBits) {
  // Printed with %a by the incremental evaluator that this engine-per-
  // candidate walk replaced: three single-channel steps, then a plateau
  // step that grows every channel at once. Any drift in a capacity or a
  // period bit fails.
  const std::vector<BufferPoint> want{
      {{2, 1, 2, 4, 2, 1, 2}, 14, 0x1.05p+9},
      {{2, 2, 2, 4, 2, 1, 2}, 15, 0x1.67p+8},
      {{2, 3, 2, 4, 2, 1, 2}, 16, 0x1.2cp+8},
      {{3, 4, 3, 6, 3, 2, 3}, 24, 0x1.6cp+7},
  };
  procon::testing::expect_same_frontier(explore_buffer_tradeoff(property_graph(11)),
                                        want);
}

// Property: on generated graphs the frontier is a valid Pareto staircase
// ending at (near) the unbounded period.
class BufferExplorerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferExplorerProperty, ValidStaircase) {
  const sdf::Graph g = property_graph(GetParam());
  const double unbounded = analysis::compute_period(g).period;
  const auto frontier = explore_buffer_tradeoff(g);
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i].period, frontier[i - 1].period + 1e-9);
    EXPECT_GE(frontier[i].total_tokens, frontier[i - 1].total_tokens);
  }
  EXPECT_GE(frontier.back().period, unbounded - 1e-6);
  EXPECT_LE(frontier.back().period, unbounded * 1.001 + 1e-6)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferExplorerProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace procon::dse
