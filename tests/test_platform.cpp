#include <gtest/gtest.h>

#include "helpers.h"
#include "platform/mapping.h"
#include "platform/platform.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "util/rng.h"

namespace procon::platform {
namespace {

TEST(Platform, Homogeneous) {
  const Platform p = Platform::homogeneous(3, "P");
  EXPECT_EQ(p.node_count(), 3u);
  EXPECT_EQ(p.node(0).name, "P0");
  EXPECT_EQ(p.node(2).name, "P2");
  EXPECT_EQ(p.find_node("P1"), 1u);
  EXPECT_EQ(p.find_node("missing"), kInvalidNode);
}

TEST(Platform, InvalidNodeThrows) {
  const Platform p = Platform::homogeneous(1);
  EXPECT_THROW((void)p.node(5), std::out_of_range);
}

// The interconnect stand-in the benchmark still calls reports no
// interconnect, at compile time.
static_assert(Platform::topology().none());

TEST(Mapping, ByIndexMatchesPaperSetup) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a(),
                                     procon::testing::fig2_graph_b()};
  const Platform plat = Platform::homogeneous(3);
  const Mapping m = Mapping::by_index(apps, plat);
  EXPECT_TRUE(m.is_complete());
  for (sdf::AppId app = 0; app < 2; ++app) {
    for (sdf::ActorId a = 0; a < 3; ++a) {
      EXPECT_EQ(m.node_of(app, a), a);
    }
  }
  // Node 1 hosts a1 and b1.
  const auto on1 = m.actors_on(1);
  ASSERT_EQ(on1.size(), 2u);
  EXPECT_EQ(on1[0].app, 0u);
  EXPECT_EQ(on1[0].actor, 1u);
  EXPECT_EQ(on1[1].app, 1u);
  EXPECT_EQ(on1[1].actor, 1u);
}

TEST(Mapping, ByIndexNeedsEnoughNodes) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a()};
  const Platform tiny = Platform::homogeneous(2);
  EXPECT_THROW(Mapping::by_index(apps, tiny), std::out_of_range);
}

TEST(Mapping, RandomIsCompleteAndInRange) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a(),
                                     procon::testing::fig2_graph_b()};
  const Platform plat = Platform::homogeneous(4);
  util::Rng rng(5);
  const Mapping m = Mapping::random(apps, plat, rng);
  EXPECT_TRUE(m.is_complete());
  for (sdf::AppId app = 0; app < 2; ++app) {
    for (sdf::ActorId a = 0; a < 3; ++a) {
      EXPECT_LT(m.node_of(app, a), 4u);
    }
  }
}

TEST(Mapping, LoadBalancedSpreadsWork) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a()};
  const Platform plat = Platform::homogeneous(3);
  const Mapping m = Mapping::load_balanced(apps, plat);
  EXPECT_TRUE(m.is_complete());
  // Three actors with equal q*tau = 100 onto three nodes: one each.
  std::vector<int> count(3, 0);
  for (sdf::ActorId a = 0; a < 3; ++a) ++count[m.node_of(0, a)];
  EXPECT_EQ(count, (std::vector<int>{1, 1, 1}));
}

TEST(Mapping, IncompleteDetected) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a()};
  Mapping m(apps);
  EXPECT_FALSE(m.is_complete());
  m.assign(0, 0, 0);
  m.assign(0, 1, 0);
  EXPECT_FALSE(m.is_complete());
  m.assign(0, 2, 1);
  EXPECT_TRUE(m.is_complete());
}

TEST(Mapping, InvalidAssignThrows) {
  const std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a()};
  Mapping m(apps);
  EXPECT_THROW(m.assign(1, 0, 0), std::out_of_range);
  EXPECT_THROW(m.assign(0, 9, 0), std::out_of_range);
  EXPECT_THROW((void)m.node_of(0, 9), std::out_of_range);
}

TEST(System, ValidatesCleanSystem) {
  const System sys = procon::testing::fig2_system();
  EXPECT_NO_THROW(sys.validate());
  EXPECT_EQ(sys.app_count(), 2u);
  EXPECT_EQ(sys.app(0).name(), "A");
}

TEST(System, MaterialisedSubset) {
  const System sys = procon::testing::fig2_system();
  const System sub = SystemView(sys, {1}).materialise();
  EXPECT_EQ(sub.app_count(), 1u);
  EXPECT_EQ(sub.app(0).name(), "B");
  // Mapping entries survive re-indexing.
  for (sdf::ActorId a = 0; a < 3; ++a) {
    EXPECT_EQ(sub.mapping().node_of(0, a), a);
  }
  EXPECT_NO_THROW(sub.validate());
}

TEST(System, FullUseCase) {
  const System sys = procon::testing::fig2_system();
  EXPECT_EQ(sys.full_use_case(), (UseCase{0, 1}));
}

TEST(System, ValidateRejectsIncompleteMapping) {
  std::vector<sdf::Graph> apps{procon::testing::fig2_graph_a()};
  Platform plat = Platform::homogeneous(3);
  Mapping m(apps);  // nothing assigned
  const System sys(std::move(apps), std::move(plat), std::move(m));
  EXPECT_THROW(sys.validate(), sdf::GraphError);
}

TEST(System, ValidateRejectsDeadlockedApp) {
  sdf::Graph g("dead");
  const auto x = g.add_actor("x", 1);
  const auto y = g.add_actor("y", 1);
  g.add_channel(x, y, 1, 1, 0);
  g.add_channel(y, x, 1, 1, 0);
  std::vector<sdf::Graph> apps{g};
  Platform plat = Platform::homogeneous(2);
  Mapping m = Mapping::by_index(apps, plat);
  const System sys(std::move(apps), std::move(plat), std::move(m));
  EXPECT_THROW(sys.validate(), sdf::GraphError);
}

}  // namespace
}  // namespace procon::platform
