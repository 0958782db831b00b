#include "analysis/state_space.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "analysis/throughput.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;
using sdf::Graph;
using util::Rational;

TEST(StateSpace, PaperGraphAExactly300) {
  const StateSpaceResult r = self_timed_period(fig2_graph_a().with_self_loops());
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.period, Rational(300));
}

TEST(StateSpace, PaperGraphBExactly300) {
  const StateSpaceResult r = self_timed_period(fig2_graph_b().with_self_loops());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.period, Rational(300));
}

TEST(StateSpace, SequentialTwoActorCycle) {
  const StateSpaceResult r =
      self_timed_period(procon::testing::two_actor_cycle(30, 70).with_self_loops());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.period, Rational(100));
}

TEST(StateSpace, FractionalPeriod) {
  // Ring of three, two tokens: steady state completes 2 iterations per 13
  // time units -> period 13/2.
  Graph g;
  const auto a = g.add_actor("a", 5);
  const auto b = g.add_actor("b", 4);
  const auto c = g.add_actor("c", 4);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, c, 1, 1, 0);
  g.add_channel(c, a, 1, 1, 2);
  const StateSpaceResult r = self_timed_period(g.with_self_loops());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.period, Rational(13, 2));
  EXPECT_GE(r.iterations_in_cycle, 2u);
}

TEST(StateSpace, DeadlockDetected) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);
  const StateSpaceResult r = self_timed_period(g);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.converged);
}

TEST(StateSpace, InconsistentGraphDeadlocked) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 2, 1, 0);
  g.add_channel(y, x, 2, 1, 0);
  const StateSpaceResult r = self_timed_period(g);
  EXPECT_TRUE(r.deadlocked);
}

TEST(StateSpace, TransientThenPeriodic) {
  // A big token head start creates a transient before steady state.
  Graph g;
  const auto x = g.add_actor("x", 2);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 4);  // x is 4 firings ahead
  g.add_channel(y, x, 1, 1, 0);
  const StateSpaceResult r = self_timed_period(g.with_self_loops());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.period, Rational(5));  // bottleneck actor y
}

TEST(StateSpace, MaxFiringsCapReturnsUnconverged) {
  const StateSpaceOptions opts{.max_firings = 2};
  const StateSpaceResult r =
      self_timed_period(fig2_graph_a().with_self_loops(), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.deadlocked);

  // A cycle of zero-time actors fires forever without time advancing: the
  // cap must stop it too, and the exact period reports non-convergence.
  const Graph zero = procon::testing::two_actor_cycle(0, 0);
  const StateSpaceResult z = self_timed_period(
      zero.with_self_loops(), StateSpaceOptions{.max_firings = 10'000});
  EXPECT_FALSE(z.converged);
  EXPECT_FALSE(z.deadlocked);
  EXPECT_THROW((void)compute_period_exact(zero), sdf::GraphError);
}

TEST(ComputePeriodExact, MatchesStateSpace) {
  EXPECT_EQ(compute_period_exact(fig2_graph_a()), Rational(300));
  EXPECT_EQ(compute_period_exact(fig2_graph_b()), Rational(300));
}

TEST(ComputePeriodExact, ThrowsOnDeadlock) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);
  EXPECT_THROW((void)compute_period_exact(g), sdf::GraphError);
}

// A zero-time cycle runs into the firing cap (1'000'000 + 10'000 per
// actor) without its state recurring; a token-free cycle never fires. The
// two failures carry their own messages.
TEST(ComputePeriodExact, SeparatesNonConvergenceFromDeadlock) {
  const auto message_of = [](const Graph& g) {
    try {
      (void)compute_period_exact(g);
    } catch (const sdf::GraphError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string zero = message_of(procon::testing::two_actor_cycle(0, 0));
  EXPECT_NE(zero.find("did not converge within 1020000 firings"), std::string::npos)
      << zero;
  EXPECT_EQ(zero.find("deadlock"), std::string::npos) << zero;

  Graph tokenless;
  const auto x = tokenless.add_actor("x", 1);
  const auto y = tokenless.add_actor("y", 1);
  tokenless.add_channel(x, y, 1, 1, 0);
  tokenless.add_channel(y, x, 1, 1, 0);
  const std::string dead = message_of(tokenless);
  EXPECT_NE(dead.find("graph deadlocks"), std::string::npos) << dead;
  EXPECT_EQ(dead.find("converge"), std::string::npos) << dead;

  Graph inconsistent;
  const auto u = inconsistent.add_actor("u", 1);
  const auto v = inconsistent.add_actor("v", 1);
  inconsistent.add_channel(u, v, 2, 1, 0);
  inconsistent.add_channel(v, u, 2, 1, 1);
  EXPECT_NE(message_of(inconsistent).find("inconsistent graph"), std::string::npos);
}

TEST(StateSpace, ClockOverflowRaisesGraphError) {
  // Two-actor cycles whose clock would pass INT64_MAX: both actors at 2^62
  // (the clock reaches 2^63), and INT64_MAX beside 1 (an execution time
  // equal to the largest Time, not a "nothing running" marker).
  const struct {
    sdf::Time t0, t1;
  } rows[] = {
      {sdf::Time{1} << 62, sdf::Time{1} << 62},
      {std::numeric_limits<sdf::Time>::max(), 1},
  };
  for (const auto& row : rows) {
    const Graph g = procon::testing::two_actor_cycle(row.t0, row.t1);
    std::string message;
    try {
      (void)self_timed_period(g.with_self_loops());
    } catch (const sdf::GraphError& e) {
      message = e.what();
    }
    EXPECT_NE(message.find("overflows int64"), std::string::npos)
        << "t0=" << row.t0 << " t1=" << row.t1 << ": '" << message << "'";
    EXPECT_THROW((void)compute_period_exact(g), sdf::GraphError);
  }
}

// The central cross-validation property: the MCR engine (used for the
// fractional response-time graphs) and the exact state-space engine agree
// on every randomly generated integer graph.
class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, McrEqualsStateSpace) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions opts;
  opts.min_actors = 4;
  opts.max_actors = 8;
  opts.max_repetition = 3;
  opts.min_exec_time = 1;
  opts.max_exec_time = 40;
  const Graph g = gen::generate_graph(rng, opts, "rnd");
  const Rational exact = compute_period_exact(g);
  const PeriodResult mcr = compute_period(g);
  ASSERT_FALSE(mcr.deadlocked);
  EXPECT_NEAR(mcr.period, exact.to_double(), 1e-6 * std::max(1.0, exact.to_double()))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Range<std::uint64_t>(100, 140));

}  // namespace
}  // namespace procon::analysis
