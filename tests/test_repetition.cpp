#include "sdf/repetition.h"

#include <gtest/gtest.h>

#include <queue>

#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rational.h"
#include "util/rng.h"

namespace procon::sdf {
namespace {

TEST(Repetition, PaperGraphA) {
  const auto q = compute_repetition_vector(procon::testing::fig2_graph_a());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 2u);
  EXPECT_EQ((*q)[2], 1u);
}

TEST(Repetition, PaperGraphB) {
  const auto q = compute_repetition_vector(procon::testing::fig2_graph_b());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 2u);
  EXPECT_EQ((*q)[1], 1u);
  EXPECT_EQ((*q)[2], 1u);
}

TEST(Repetition, Figure1Graph) {
  // The introduction's example (Figure 1): rates chosen so the balance
  // equations have the canonical solution below.
  Graph g("fig1");
  const auto a = g.add_actor("A", 5);
  const auto b = g.add_actor("B", 7);
  const auto c = g.add_actor("C", 6);
  const auto d = g.add_actor("D", 10);
  g.add_channel(a, b, 2, 1, 0);   // q[A]*2 == q[B]*1
  g.add_channel(b, c, 3, 3, 0);   // q[B] == q[C]
  g.add_channel(c, d, 1, 4, 0);   // q[C]*1 == q[D]*4
  g.add_channel(d, a, 2, 1, 2);   // q[D]*2 == q[A]*1
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 2u);  // A
  EXPECT_EQ((*q)[1], 4u);  // B
  EXPECT_EQ((*q)[2], 4u);  // C
  EXPECT_EQ((*q)[3], 1u);  // D
}

TEST(Repetition, HomogeneousGraphAllOnes) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 1);
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 1u);
}

TEST(Repetition, InconsistentGraphRejected) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 2, 1, 0);  // wants q[b] = 2 q[a]
  g.add_channel(b, a, 2, 1, 0);  // wants q[a] = 2 q[b]  -> contradiction
  EXPECT_FALSE(compute_repetition_vector(g).has_value());
  EXPECT_FALSE(is_consistent(g));
}

TEST(Repetition, SelfLoopMismatchInconsistent) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  g.add_channel(a, a, 2, 1, 1);  // q[a]*2 == q[a]*1 impossible
  EXPECT_FALSE(is_consistent(g));
}

TEST(Repetition, IsolatedActorsGetOne) {
  Graph g;
  g.add_actor("a", 1);
  g.add_actor("b", 1);
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 1u);
}

TEST(Repetition, ComponentsNormalisedIndependently) {
  Graph g;
  // Component 1: a -> b with 3:1 (q = [1, 3]).
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 3, 1, 0);
  // Component 2: c -> d with 1:2 (q = [2, 1]).
  const auto c = g.add_actor("c", 1);
  const auto d = g.add_actor("d", 1);
  g.add_channel(c, d, 1, 2, 0);
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 3u);
  EXPECT_EQ((*q)[2], 2u);
  EXPECT_EQ((*q)[3], 1u);
}

TEST(Repetition, MinimalityCoprime) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 6, 4, 0);   // q[a]*6 == q[b]*4 -> q = [2, 3]
  g.add_channel(b, a, 4, 6, 12);
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 2u);
  EXPECT_EQ((*q)[1], 3u);
}

TEST(Repetition, BalanceEquationsHold) {
  const Graph g = procon::testing::fig2_graph_a();
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  for (const Channel& c : g.channels()) {
    EXPECT_EQ((*q)[c.src] * c.prod_rate, (*q)[c.dst] * c.cons_rate);
  }
}

TEST(Repetition, RepetitionSumAndWorkload) {
  const Graph g = procon::testing::fig2_graph_a();
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(repetition_sum(*q), 4u);
  // 1*100 + 2*50 + 1*100 = 300 (equals Per(A): the graph is sequential).
  EXPECT_EQ(iteration_workload(g, *q), 300);
}

// Entries of a consistent graph can each approach 2^63 (a -> b -> c at
// rates 2^31 gives 2^62 to c, and to every actor c feeds at rate 1), so the
// sum saturates: a wrapped sum could pass ThroughputEngine's size cap.
TEST(Repetition, RepetitionSumSaturates) {
  Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  const auto c = g.add_actor("c", 1);
  g.add_channel(a, b, 1U << 31, 1, 0);
  g.add_channel(b, c, 1U << 31, 1, 0);
  for (const char* d : {"d0", "d1", "d2"}) g.add_channel(c, g.add_actor(d, 1), 1, 1, 0);
  const auto q = compute_repetition_vector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[c], std::uint64_t{1} << 62);
  EXPECT_EQ(repetition_sum(*q), UINT64_MAX);  // 1 + 2^31 + 2^64 wrapped to 2^31 + 1
}

// The util::Rational form compute_repetition_vector had before it moved to
// plain int64: the oracle for the integer version, which must return the
// same vector and throw util::RationalError on exactly the same inputs.
std::optional<RepetitionVector> rational_repetition_vector(const Graph& g) {
  using util::Rational;
  const std::size_t n = g.actor_count();
  std::vector<Rational> ratio(n, Rational(0));
  std::vector<int> component(n, -1);
  int ncomp = 0;
  for (ActorId start = 0; start < n; ++start) {
    if (component[start] != -1) continue;
    const int comp = ncomp++;
    component[start] = comp;
    ratio[start] = Rational(1);
    std::queue<ActorId> work;
    work.push(start);
    while (!work.empty()) {
      const ActorId a = work.front();
      work.pop();
      auto relax = [&](ActorId b, const Rational& expected) -> bool {
        if (component[b] == -1) {
          component[b] = comp;
          ratio[b] = expected;
          work.push(b);
          return true;
        }
        return ratio[b] == expected;
      };
      for (const ChannelId cid : g.out_channels(a)) {
        const Channel& c = g.channel(cid);
        if (!relax(c.dst, ratio[a] * Rational(c.prod_rate) / Rational(c.cons_rate))) {
          return std::nullopt;
        }
      }
      for (const ChannelId cid : g.in_channels(a)) {
        const Channel& c = g.channel(cid);
        if (!relax(c.src, ratio[a] * Rational(c.cons_rate) / Rational(c.prod_rate))) {
          return std::nullopt;
        }
      }
    }
  }
  std::vector<std::int64_t> den_lcm(static_cast<std::size_t>(ncomp), 1);
  for (ActorId a = 0; a < n; ++a) {
    auto& l = den_lcm[static_cast<std::size_t>(component[a])];
    l = util::lcm64(l, ratio[a].den());
  }
  std::vector<std::int64_t> num_gcd(static_cast<std::size_t>(ncomp), 0);
  std::vector<std::int64_t> scaled(n, 0);
  for (ActorId a = 0; a < n; ++a) {
    const auto comp = static_cast<std::size_t>(component[a]);
    scaled[a] = (ratio[a] * Rational(den_lcm[comp])).num();
    num_gcd[comp] = util::gcd64(num_gcd[comp], scaled[a]);
  }
  RepetitionVector q(n, 0);
  for (ActorId a = 0; a < n; ++a) {
    q[a] = static_cast<std::uint64_t>(
        scaled[a] / num_gcd[static_cast<std::size_t>(component[a])]);
  }
  return q;
}

TEST(Repetition, IntegerArithmeticMatchesRationalReference) {
  util::Rng rng(20070622);
  std::vector<Graph> graphs;
  // Generated (consistent) graphs and rate-bumped mutants of them.
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 12;
  gopts.max_repetition = 8;
  for (Graph& g : gen::generate_graphs(rng, gopts, 300, "rep")) {
    Graph m(g.name() + "m");
    for (ActorId a = 0; a < g.actor_count(); ++a) m.add_actor(g.actor(a).name, 1);
    for (const Channel& c : g.channels()) {
      m.add_channel(c.src, c.dst, c.prod_rate + (rng.bernoulli(0.1) ? 1 : 0), c.cons_rate,
                    c.initial_tokens);
    }
    graphs.push_back(std::move(g));
    graphs.push_back(std::move(m));
  }
  // Random sparse multigraphs with small rates: several components,
  // isolated actors, parallel channels and self-loops.
  for (int k = 0; k < 300; ++k) {
    Graph g("sparse");
    const auto n = rng.uniform_int(1, 9);
    for (std::int64_t a = 0; a < n; ++a) g.add_actor("a", 1);
    const auto m = rng.uniform_int(0, 2 * n);
    for (std::int64_t c = 0; c < m; ++c) {
      g.add_channel(static_cast<ActorId>(rng.uniform_int(0, n - 1)),
                    static_cast<ActorId>(rng.uniform_int(0, n - 1)),
                    static_cast<std::uint32_t>(rng.uniform_int(1, 6)),
                    static_cast<std::uint32_t>(rng.uniform_int(1, 6)), 0);
    }
    graphs.push_back(std::move(g));
  }
  // Long chains and rings with rates near 2^32: the products overflow int64
  // somewhere along the chain, at the lcm, or in the final scaling — or not.
  for (int k = 0; k < 600; ++k) {
    Graph g("wide");
    const auto n = rng.uniform_int(2, 8);
    for (std::int64_t a = 0; a < n; ++a) g.add_actor("a", 1);
    const auto rate = [&] {
      return rng.bernoulli(0.5)
                 ? static_cast<std::uint32_t>(rng.uniform_int(4294900000LL, 4294967295LL))
                 : static_cast<std::uint32_t>(rng.uniform_int(1, 100000));
    };
    for (std::int64_t a = 0; a + 1 < n; ++a) {
      g.add_channel(static_cast<ActorId>(a), static_cast<ActorId>(a + 1), rate(), rate(), 0);
    }
    if (k % 3 == 0) g.add_channel(static_cast<ActorId>(n - 1), 0, rate(), rate(), 1);
    if (k % 5 == 0) g.add_channel(0, static_cast<ActorId>(n - 1), 1, 1, 0);
    graphs.push_back(std::move(g));
  }

  std::size_t throws = 0, consistent = 0, inconsistent = 0;
  for (const Graph& g : graphs) {
    std::optional<RepetitionVector> want;
    bool want_throw = false;
    try {
      want = rational_repetition_vector(g);
    } catch (const util::RationalError&) {
      want_throw = true;
    }
    if (want_throw) {
      ++throws;
      EXPECT_THROW((void)compute_repetition_vector(g), util::RationalError);
      continue;
    }
    const auto got = compute_repetition_vector(g);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
      ++consistent;
      EXPECT_EQ(*got, *want);
    } else {
      ++inconsistent;
    }
  }
  // Every outcome is exercised.
  EXPECT_GT(throws, 100u);
  EXPECT_GT(consistent, 500u);
  EXPECT_GT(inconsistent, 100u);
}

}  // namespace
}  // namespace procon::sdf
