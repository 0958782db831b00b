// Shared test fixtures: the worked example of the paper (Figure 2) and
// small helper builders.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "dse/buffer_explorer.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "sdf/graph.h"

namespace procon::testing {

/// Figure 2, SDFG A: actors a0 (tau=100), a1 (tau=50), a2 (tau=100),
/// repetition vector [1 2 1], cycle a0 -> a1 -> a2 -> a0 with one initial
/// token on the closing edge. Per(A) = 300.
inline sdf::Graph fig2_graph_a() {
  sdf::Graph g("A");
  const auto a0 = g.add_actor("a0", 100);
  const auto a1 = g.add_actor("a1", 50);
  const auto a2 = g.add_actor("a2", 100);
  g.add_channel(a0, a1, 2, 1, 0);  // q: 1*2 == 2*1
  g.add_channel(a1, a2, 1, 2, 0);  // q: 2*1 == 1*2
  g.add_channel(a2, a0, 1, 1, 1);  // closing edge carries the initial token
  return g;
}

/// Figure 2, SDFG B: actors b0 (tau=50), b1 (tau=100), b2 (tau=100),
/// repetition vector [2 1 1], cycle b0 -> b1 -> b2 -> b0 with initial
/// tokens on the closing edge. Per(B) = 300.
inline sdf::Graph fig2_graph_b() {
  sdf::Graph g("B");
  const auto b0 = g.add_actor("b0", 50);
  const auto b1 = g.add_actor("b1", 100);
  const auto b2 = g.add_actor("b2", 100);
  g.add_channel(b0, b1, 1, 2, 0);  // q: 2*1 == 1*2
  g.add_channel(b1, b2, 1, 1, 0);
  g.add_channel(b2, b0, 2, 1, 2);  // two tokens: both b0 firings can start
  return g;
}

/// Figure 2 B with the cycle reversed (the paper's thought experiment in
/// Section 3.1: simulated period becomes 400 instead of 300).
inline sdf::Graph fig2_graph_b_reversed() {
  sdf::Graph g("Brev");
  const auto b0 = g.add_actor("b0", 50);
  const auto b1 = g.add_actor("b1", 100);
  const auto b2 = g.add_actor("b2", 100);
  g.add_channel(b1, b0, 2, 1, 0);  // q: 1*2 == 2*1
  g.add_channel(b2, b1, 1, 1, 0);
  g.add_channel(b0, b2, 1, 2, 2);
  return g;
}

/// The paper's Section 3 platform: ai and bi share Proc_i.
inline platform::System fig2_system() {
  std::vector<sdf::Graph> apps{fig2_graph_a(), fig2_graph_b()};
  platform::Platform plat = platform::Platform::homogeneous(3);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

/// Application A of the Figure 2 system alone, on its own nodes.
inline platform::System fig2_app_a_system() {
  return platform::SystemView(fig2_system(), {0}).materialise();
}

/// A trivial two-actor pipeline with a feedback token, period = t0 + t1.
inline sdf::Graph two_actor_cycle(sdf::Time t0, sdf::Time t1) {
  sdf::Graph g("pair");
  const auto x = g.add_actor("x", t0);
  const auto y = g.add_actor("y", t1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 1);
  return g;
}

/// Capacities, totals and periods equal point by point (periods compared
/// with ==, i.e. bit for bit for the finite values a frontier holds).
inline void expect_same_frontier(const std::vector<dse::BufferPoint>& got,
                                 const std::vector<dse::BufferPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].capacities, want[k].capacities) << "point " << k;
    EXPECT_EQ(got[k].total_tokens, want[k].total_tokens) << "point " << k;
    EXPECT_EQ(got[k].period, want[k].period) << "point " << k;
  }
}

}  // namespace procon::testing
