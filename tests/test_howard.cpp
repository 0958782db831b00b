#include "analysis/howard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "analysis_oracle.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::build_solver;
using procon::testing::expand_closed;
using procon::testing::expand_to_hsdf;
using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;
using procon::testing::Hsdf;
using procon::testing::HsdfEdge;
using procon::testing::HsdfNode;
using procon::testing::mcr_binary_search;
using procon::testing::mcr_howard;
using procon::testing::McrResult;
using sdf::Graph;

TEST(Howard, PaperGraphsPeriod300) {
  EXPECT_NEAR(mcr_howard(expand_closed(fig2_graph_a())).ratio, 300.0, 1e-6);
  EXPECT_NEAR(mcr_howard(expand_closed(fig2_graph_b())).ratio, 300.0, 1e-6);
}

TEST(Howard, FractionalRatio) {
  Graph g;
  const auto a = g.add_actor("a", 5);
  const auto b = g.add_actor("b", 4);
  const auto c = g.add_actor("c", 4);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 2);
  EXPECT_NEAR(mcr_howard(expand_closed(g)).ratio, 6.5, 1e-6);
}

TEST(Howard, DeadlockDetected) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);
  const auto q = sdf::compute_repetition_vector(g);
  EXPECT_TRUE(mcr_howard(expand_to_hsdf(g, *q, {})).deadlocked);
}

TEST(Howard, AcyclicReported) {
  Graph g;
  const auto x = g.add_actor("x", 5);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 0);
  const auto q = sdf::compute_repetition_vector(g);
  const McrResult r = mcr_howard(expand_to_hsdf(g, *q, {}));
  EXPECT_FALSE(r.has_cycle);
  EXPECT_FALSE(r.deadlocked);
}

TEST(Howard, EmptyGraph) {
  EXPECT_FALSE(mcr_howard(Hsdf{}).has_cycle);
}

TEST(Howard, MultipleComponentsTakesMax) {
  // Two disjoint cycles with different ratios: MCR is the larger one.
  Hsdf h;
  h.nodes = {HsdfNode{0, 0, 10.0}, HsdfNode{1, 0, 10.0},   // cycle ratio 20
             HsdfNode{2, 0, 3.0}, HsdfNode{3, 0, 4.0}};    // cycle ratio 7
  h.edges = {HsdfEdge{0, 1, 0}, HsdfEdge{1, 0, 1},
             HsdfEdge{2, 3, 0}, HsdfEdge{3, 2, 1}};
  EXPECT_NEAR(mcr_howard(h).ratio, 20.0, 1e-9);
}

TEST(Howard, ParallelEdgesPickTighterConstraint) {
  // Two edges between the same nodes: the 0-token edge dominates the
  // 2-token one, halving nothing - ratio is (5+5)/1.
  Hsdf h;
  h.nodes = {HsdfNode{0, 0, 5.0}, HsdfNode{1, 0, 5.0}};
  h.edges = {HsdfEdge{0, 1, 0}, HsdfEdge{0, 1, 2}, HsdfEdge{1, 0, 1}};
  EXPECT_NEAR(mcr_howard(h).ratio, 10.0, 1e-9);
}

// The policy is Howard's whole warm-start state: a solver that installs
// another solver's policy() solves the next weights exactly as that one.
TEST(Howard, InstalledPolicyWarmStartsLikeItsSource) {
  util::Rng rng(61);
  gen::GeneratorOptions opts;
  const Hsdf h = expand_closed(gen::generate_graph(rng, opts, "pol"));
  std::vector<double> w(h.node_count());

  HowardSolver source;
  build_solver(source, h);
  ASSERT_TRUE(source.has_cycle());
  EXPECT_TRUE(source.policy().empty());  // cold until the first solve
  (void)source.solve();
  const std::vector<std::int64_t> policy(source.policy().begin(),
                                         source.policy().end());
  ASSERT_EQ(policy.size(), h.node_count());

  HowardSolver target;
  build_solver(target, h);
  target.install_policy(policy);
  EXPECT_TRUE(std::ranges::equal(target.policy(), policy));
  for (int round = 0; round < 5; ++round) {
    for (double& x : w) x = rng.uniform_real(1.0, 100.0);
    source.set_node_weights(w);
    target.set_node_weights(w);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(target.solve()),
              std::bit_cast<std::uint64_t>(source.solve()))
        << "round " << round;
  }
  source.reset();
  EXPECT_TRUE(source.policy().empty());
  EXPECT_THROW(target.install_policy(std::span(policy).first(1)),
               std::invalid_argument);
}

// The central property: Howard's and the Lawler reference agree on random
// expansions (the fast path can safely replace the reference).
class HowardCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HowardCrossValidation, MatchesBinarySearch) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions opts;
  opts.min_actors = 4;
  opts.max_actors = 10;
  opts.max_repetition = 4;
  const Graph g = gen::generate_graph(rng, opts, "rnd");
  const Hsdf h = expand_closed(g);
  const McrResult reference = mcr_binary_search(h);
  const McrResult howard = mcr_howard(h);
  ASSERT_EQ(reference.deadlocked, howard.deadlocked);
  ASSERT_EQ(reference.has_cycle, howard.has_cycle);
  EXPECT_NEAR(howard.ratio, reference.ratio,
              1e-6 * std::max(1.0, reference.ratio))
      << "seed=" << GetParam();
}

TEST_P(HowardCrossValidation, MatchesOnFractionalResponseTimes) {
  // The estimator feeds fractional execution times into the MCR engine;
  // both engines must agree there too.
  util::Rng rng(GetParam() + 7000);
  gen::GeneratorOptions opts;
  opts.min_actors = 4;
  opts.max_actors = 8;
  const Graph g = gen::generate_graph(rng, opts, "rnd").with_self_loops();
  const auto q = sdf::compute_repetition_vector(g);
  std::vector<double> times(g.actor_count());
  for (auto& t : times) t = rng.uniform_real(0.5, 120.0);
  const Hsdf h = expand_to_hsdf(g, *q, times);
  const McrResult reference = mcr_binary_search(h);
  const McrResult howard = mcr_howard(h);
  EXPECT_NEAR(howard.ratio, reference.ratio,
              1e-6 * std::max(1.0, reference.ratio))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HowardCrossValidation,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace procon::analysis
