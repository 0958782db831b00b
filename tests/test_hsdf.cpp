// The explicit HSDF of the test oracle, on the library's expansion
// (append_channel_candidates + dedup_candidates): node layout, edges and
// iteration distances.
#include <gtest/gtest.h>

#include <map>

#include "analysis_oracle.h"
#include "helpers.h"
#include "sdf/repetition.h"

namespace procon::analysis {
namespace {

using procon::testing::expand_to_hsdf;
using procon::testing::fig2_graph_a;
using procon::testing::Hsdf;
using procon::testing::HsdfEdge;
using procon::testing::HsdfNode;
using sdf::Graph;

Hsdf expand(const Graph& g) {
  const auto q = sdf::compute_repetition_vector(g);
  return expand_to_hsdf(g, *q, {});
}

TEST(Hsdf, NodeCountIsRepetitionSum) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  EXPECT_EQ(h.node_count(), 4u);  // q = [1 2 1]
  // Nodes carry their source actor and firing index.
  std::map<sdf::ActorId, int> firings;
  for (const HsdfNode& n : h.nodes) ++firings[n.source_actor];
  EXPECT_EQ(firings[0], 1);
  EXPECT_EQ(firings[1], 2);
  EXPECT_EQ(firings[2], 1);
}

TEST(Hsdf, ExecTimesCarriedOver) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  for (const HsdfNode& n : h.nodes) {
    EXPECT_DOUBLE_EQ(n.exec_time, static_cast<double>(g.actor(n.source_actor).exec_time));
  }
}

TEST(Hsdf, ExecTimeOverride) {
  const Graph g = fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  const std::vector<double> times{108.5, 66.75, 116.25};
  const Hsdf h = expand_to_hsdf(g, *q, times);
  for (const HsdfNode& n : h.nodes) {
    EXPECT_DOUBLE_EQ(n.exec_time, times[n.source_actor]);
  }
}

TEST(Hsdf, OverrideSizeMismatchThrows) {
  const Graph g = fig2_graph_a();
  const auto q = sdf::compute_repetition_vector(g);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(expand_to_hsdf(g, *q, wrong), sdf::GraphError);
}

TEST(Hsdf, RepetitionVectorMismatchThrows) {
  const Graph g = fig2_graph_a();
  sdf::RepetitionVector bad{1, 2};
  EXPECT_THROW(expand_to_hsdf(g, bad, {}), sdf::GraphError);
}

// Checks the precedence structure of Fig. 2's graph A in detail.
TEST(Hsdf, PaperGraphEdges) {
  const Graph g = fig2_graph_a();
  const Hsdf h = expand(g);
  // Node order: a0.0 (index 0), a1.0 (1), a1.1 (2), a2.0 (3).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  // a0 feeds both firings of a1 in the same iteration.
  ASSERT_TRUE(edges.count({0, 1}));
  EXPECT_EQ((edges[{0, 1}]), 0u);
  ASSERT_TRUE(edges.count({0, 2}));
  EXPECT_EQ((edges[{0, 2}]), 0u);
  // Both a1 firings feed a2.
  ASSERT_TRUE(edges.count({1, 3}));
  EXPECT_EQ((edges[{1, 3}]), 0u);
  ASSERT_TRUE(edges.count({2, 3}));
  EXPECT_EQ((edges[{2, 3}]), 0u);
  // a2 -> a0 carries the iteration token.
  ASSERT_TRUE(edges.count({3, 0}));
  EXPECT_EQ((edges[{3, 0}]), 1u);
}

TEST(Hsdf, SelfLoopChainsFirings) {
  const Graph g = fig2_graph_a().with_self_loops();
  const Hsdf h = expand(g);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  // a1 has two firings (nodes 1 and 2): the self-loop must chain
  // a1.0 -> a1.1 within the iteration and a1.1 -> a1.0 across iterations.
  ASSERT_TRUE(edges.count({1, 2}));
  EXPECT_EQ((edges[{1, 2}]), 0u);
  ASSERT_TRUE(edges.count({2, 1}));
  EXPECT_EQ((edges[{2, 1}]), 1u);
}

TEST(Hsdf, HomogeneousGraphIsIsomorphic) {
  // All rates 1: the HSDF is the graph itself.
  Graph g;
  const auto x = g.add_actor("x", 3);
  const auto y = g.add_actor("y", 5);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 2);
  const Hsdf h = expand(g);
  EXPECT_EQ(h.node_count(), 2u);
  ASSERT_EQ(h.edge_count(), 2u);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  EXPECT_EQ((edges[{0, 1}]), 0u);
  EXPECT_EQ((edges[{1, 0}]), 2u);
}

TEST(Hsdf, ManyInitialTokensGiveLargerDelays) {
  Graph g;
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 3);  // three tokens -> dependency 3 iterations back
  g.add_channel(y, x, 1, 1, 0);
  const Hsdf h = expand(g);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges;
  for (const HsdfEdge& e : h.edges) edges[{e.src, e.dst}] = e.tokens;
  EXPECT_EQ((edges[{0, 1}]), 3u);
  EXPECT_EQ((edges[{1, 0}]), 0u);
}

}  // namespace
}  // namespace procon::analysis
