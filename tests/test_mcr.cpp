// The maximum-cycle-ratio oracles against each other: Lawler's parametric
// search, exhaustive enumeration and Howard's critical-cycle extraction.
#include <gtest/gtest.h>

#include "analysis_oracle.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::CriticalCycleResult;
using procon::testing::expand_closed;
using procon::testing::expand_to_hsdf;
using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;
using procon::testing::Hsdf;
using procon::testing::HsdfEdge;
using procon::testing::HsdfNode;
using procon::testing::mcr_binary_search;
using procon::testing::mcr_enumerate;
using procon::testing::mcr_with_critical_cycle;
using procon::testing::mcr_with_critical_cycle_lawler;
using procon::testing::McrResult;
using sdf::Graph;

TEST(Mcr, PaperGraphAPeriod300) {
  const McrResult r = mcr_binary_search(expand_closed(fig2_graph_a()));
  EXPECT_TRUE(r.has_cycle);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NEAR(r.ratio, 300.0, 1e-6);
}

TEST(Mcr, PaperGraphBPeriod300) {
  const McrResult r = mcr_binary_search(expand_closed(fig2_graph_b()));
  EXPECT_NEAR(r.ratio, 300.0, 1e-6);
}

TEST(Mcr, ReversedBStillPeriod300InIsolation) {
  const McrResult r =
      mcr_binary_search(expand_closed(procon::testing::fig2_graph_b_reversed()));
  EXPECT_NEAR(r.ratio, 300.0, 1e-6);
}

TEST(Mcr, TwoActorSequentialCycle) {
  const McrResult r =
      mcr_binary_search(expand_closed(procon::testing::two_actor_cycle(30, 70)));
  EXPECT_NEAR(r.ratio, 100.0, 1e-6);
}

TEST(Mcr, PipelinedCycleBoundByBottleneck) {
  // Two tokens on the feedback edge: the ring constraint halves, and the
  // self-loops (no auto-concurrency) make the slower actor the bottleneck.
  Graph g;
  const auto x = g.add_actor("x", 30);
  const auto y = g.add_actor("y", 70);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 2);
  const McrResult r = mcr_binary_search(expand_closed(g));
  EXPECT_NEAR(r.ratio, 70.0, 1e-6);
}

TEST(Mcr, FractionalRatio) {
  // Ring of three with two tokens: cycle ratio 13/2 beats the self-loops.
  Graph g;
  const auto a = g.add_actor("a", 5);
  const auto b = g.add_actor("b", 4);
  const auto c = g.add_actor("c", 4);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 2);
  const McrResult r = mcr_binary_search(expand_closed(g));
  EXPECT_NEAR(r.ratio, 6.5, 1e-6);
}

TEST(Mcr, DeadlockDetected) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);  // tokenless cycle
  const auto q = sdf::compute_repetition_vector(g);
  const McrResult r = mcr_binary_search(expand_to_hsdf(g, *q, {}));
  EXPECT_TRUE(r.deadlocked);
}

TEST(Mcr, AcyclicGraphHasNoCycle) {
  Graph g;
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 0);
  const auto q = sdf::compute_repetition_vector(g);
  const McrResult r = mcr_binary_search(expand_to_hsdf(g, *q, {}));
  EXPECT_FALSE(r.has_cycle);
  EXPECT_FALSE(r.deadlocked);
}

TEST(Mcr, EmptyGraph) {
  const Hsdf empty;
  const McrResult r = mcr_binary_search(empty);
  EXPECT_FALSE(r.has_cycle);
}

TEST(Mcr, ZeroExecTimesGiveZeroRatio) {
  Graph g;
  const auto x = g.add_actor("x", 0);
  const auto y = g.add_actor("y", 0);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 1);
  const auto q = sdf::compute_repetition_vector(g);
  const McrResult r = mcr_binary_search(expand_to_hsdf(g, *q, {}));
  EXPECT_TRUE(r.has_cycle);
  EXPECT_NEAR(r.ratio, 0.0, 1e-9);
}

TEST(Mcr, RealValuedExecTimes) {
  const Graph g = procon::testing::two_actor_cycle(1, 1);
  const Graph closed = g.with_self_loops();
  const auto q = sdf::compute_repetition_vector(closed);
  const std::vector<double> times{108.0 + 1.0 / 3.0, 66.0 + 2.0 / 3.0};
  const McrResult r = mcr_binary_search(expand_to_hsdf(closed, *q, times));
  EXPECT_NEAR(r.ratio, 175.0, 1e-6);
}

TEST(McrEnumerate, MatchesBinarySearchOnPaperGraphs) {
  for (const Graph& g : {fig2_graph_a(), fig2_graph_b()}) {
    const Hsdf h = expand_closed(g);
    const McrResult bs = mcr_binary_search(h);
    const McrResult en = mcr_enumerate(h);
    EXPECT_EQ(bs.deadlocked, en.deadlocked);
    EXPECT_EQ(bs.has_cycle, en.has_cycle);
    EXPECT_NEAR(bs.ratio, en.ratio, 1e-6);
  }
}

TEST(CriticalCycle, PaperGraphACycleCoversAllActors) {
  const CriticalCycleResult r = mcr_with_critical_cycle(expand_closed(fig2_graph_a()));
  EXPECT_NEAR(r.mcr.ratio, 300.0, 1e-6);
  ASSERT_FALSE(r.cycle.empty());
  // The 300-unit cycle passes through a0, both a1 firings and a2: 4 nodes.
  EXPECT_EQ(r.cycle.size(), 4u);
}

TEST(CriticalCycle, CycleIsClosedAndAchievesRatio) {
  const Hsdf h = expand_closed(fig2_graph_b());
  const CriticalCycleResult r = mcr_with_critical_cycle(h);
  ASSERT_FALSE(r.cycle.empty());
  // Verify the reported cycle is a real cycle in the HSDF and its own
  // weight/token ratio equals the MCR.
  double weight = 0.0;
  std::uint64_t tokens = 0;
  for (std::size_t i = 0; i < r.cycle.size(); ++i) {
    const std::uint32_t from = r.cycle[i];
    const std::uint32_t to = r.cycle[(i + 1) % r.cycle.size()];
    weight += h.nodes[from].exec_time;
    // Find the minimal-token edge from -> to.
    std::uint64_t best = UINT64_MAX;
    for (const HsdfEdge& e : h.edges) {
      if (e.src == from && e.dst == to) best = std::min(best, e.tokens);
    }
    ASSERT_NE(best, UINT64_MAX) << "missing edge " << from << "->" << to;
    tokens += best;
  }
  ASSERT_GT(tokens, 0u);
  EXPECT_NEAR(weight / static_cast<double>(tokens), r.mcr.ratio,
              1e-5 * r.mcr.ratio);
}

TEST(CriticalCycle, SlowSelfLoopIsTheBottleneck) {
  // One very slow actor dominates: the critical cycle is its self-loop.
  Graph g;
  const auto x = g.add_actor("x", 1000);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 3);  // 3 tokens: ring ratio 1001/3 < 1000
  const Hsdf h = expand_closed(g);
  const CriticalCycleResult r = mcr_with_critical_cycle(h);
  EXPECT_NEAR(r.mcr.ratio, 1000.0, 1e-6);
  ASSERT_EQ(r.cycle.size(), 1u);
  EXPECT_EQ(h.nodes[r.cycle[0]].source_actor, x);
}

TEST(CriticalCycle, EmptyForAcyclicOrDeadlocked) {
  Graph g;
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 0);
  const auto q = sdf::compute_repetition_vector(g);
  const CriticalCycleResult acyclic =
      mcr_with_critical_cycle(expand_to_hsdf(g, *q, {}));
  EXPECT_TRUE(acyclic.cycle.empty());

  g.add_channel(y, x, 1, 1, 0);  // tokenless: deadlock
  const auto q2 = sdf::compute_repetition_vector(g);
  const CriticalCycleResult dead =
      mcr_with_critical_cycle(expand_to_hsdf(g, *q2, {}));
  EXPECT_TRUE(dead.mcr.deadlocked);
  EXPECT_TRUE(dead.cycle.empty());
}

// Validity oracle shared by the Howard / Lawler cross-checks: the reported
// cycle must be closed in the HSDF and its own weight/token quotient must
// equal the reported MCR.
void expect_valid_critical_cycle(const Hsdf& h, const CriticalCycleResult& r) {
  ASSERT_FALSE(r.cycle.empty());
  double weight = 0.0;
  std::uint64_t tokens = 0;
  for (std::size_t i = 0; i < r.cycle.size(); ++i) {
    const std::uint32_t from = r.cycle[i];
    const std::uint32_t to = r.cycle[(i + 1) % r.cycle.size()];
    weight += h.nodes[from].exec_time;
    std::uint64_t best = UINT64_MAX;
    for (const HsdfEdge& e : h.edges) {
      if (e.src == from && e.dst == to) best = std::min(best, e.tokens);
    }
    ASSERT_NE(best, UINT64_MAX) << "missing edge " << from << "->" << to;
    tokens += best;
  }
  ASSERT_GT(tokens, 0u);
  EXPECT_NEAR(weight / static_cast<double>(tokens), r.mcr.ratio,
              1e-6 * std::max(1.0, r.mcr.ratio));
}

TEST(CriticalCycle, HowardAndLawlerAgreeOnPaperGraphs) {
  for (const Graph& g : {fig2_graph_a(), fig2_graph_b(),
                         procon::testing::fig2_graph_b_reversed()}) {
    const Hsdf h = expand_closed(g);
    const CriticalCycleResult howard = mcr_with_critical_cycle(h);
    const CriticalCycleResult lawler = mcr_with_critical_cycle_lawler(h);
    EXPECT_NEAR(howard.mcr.ratio, lawler.mcr.ratio,
                1e-6 * std::max(1.0, lawler.mcr.ratio));
    expect_valid_critical_cycle(h, howard);
    expect_valid_critical_cycle(h, lawler);
  }
}

// Property: on random graphs the Howard policy-graph extraction and the
// Lawler reference produce cycles that both achieve the (agreed) MCR.
class CriticalCycleCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CriticalCycleCrossValidation, HowardEqualsLawler) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions opts;
  opts.min_actors = 3;
  opts.max_actors = 6;
  opts.max_repetition = 3;
  const Graph g = gen::generate_graph(rng, opts, "rnd");
  const Hsdf h = expand_closed(g);
  const CriticalCycleResult howard = mcr_with_critical_cycle(h);
  const CriticalCycleResult lawler = mcr_with_critical_cycle_lawler(h);
  ASSERT_TRUE(howard.mcr.has_cycle);
  ASSERT_FALSE(howard.mcr.deadlocked);
  EXPECT_NEAR(howard.mcr.ratio, lawler.mcr.ratio,
              1e-6 * std::max(1.0, lawler.mcr.ratio))
      << "seed=" << GetParam();
  expect_valid_critical_cycle(h, howard);
  expect_valid_critical_cycle(h, lawler);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalCycleCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(McrEnumerate, TooLargeThrows) {
  Hsdf h;
  for (int i = 0; i < 30; ++i) h.nodes.push_back(HsdfNode{0, 0, 1.0});
  EXPECT_THROW((void)mcr_enumerate(h, 24), std::invalid_argument);
}

// Property: on randomly generated (small) graphs, the parametric search and
// exhaustive enumeration agree.
class McrCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McrCrossValidation, BinarySearchEqualsEnumeration) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions opts;
  opts.min_actors = 3;
  opts.max_actors = 5;
  opts.max_repetition = 3;
  opts.min_exec_time = 1;
  opts.max_exec_time = 50;
  const Graph g = gen::generate_graph(rng, opts, "rnd");
  const Hsdf h = expand_closed(g);
  if (h.node_count() > 16) GTEST_SKIP() << "expansion too large for enumeration";
  const McrResult bs = mcr_binary_search(h);
  const McrResult en = mcr_enumerate(h);
  ASSERT_FALSE(bs.deadlocked);
  ASSERT_FALSE(en.deadlocked);
  EXPECT_NEAR(bs.ratio, en.ratio, 1e-5 * std::max(1.0, en.ratio))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, McrCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace procon::analysis
