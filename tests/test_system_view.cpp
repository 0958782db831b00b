// Randomized equivalence suite: SystemView-based restriction must agree
// with materialised deep copies on every observable — ids, graphs, mapping
// rows, validate(), and analysis results through the estimator and WCRT
// paths — and every one-shot analysis must validate its view.
#include "platform/system_view.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <stdexcept>

#include "analysis/engine.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "prob/estimator.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "wcrt/wcrt.h"

namespace procon::platform {
namespace {

using procon::testing::fig2_system;

System random_system(std::uint64_t seed, std::size_t apps) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 7;
  auto graphs = gen::generate_graphs(rng, gopts, apps);
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  Platform plat = Platform::homogeneous(max_actors);
  Mapping map = Mapping::by_index(graphs, plat);
  return System(std::move(graphs), std::move(plat), std::move(map));
}

TEST(SystemView, FullViewIsIdentity) {
  const System sys = fig2_system();
  const SystemView view(sys);
  EXPECT_EQ(view.app_count(), sys.app_count());
  for (sdf::AppId i = 0; i < view.app_count(); ++i) {
    EXPECT_EQ(view.parent_app(i), i);
    EXPECT_EQ(&view.app(i), &sys.app(i));  // same object, no copy
  }
  EXPECT_EQ(view.actor_count(), 6u);
  EXPECT_EQ(view.channel_count(), 6u);
  EXPECT_NO_THROW(view.validate());
}

TEST(SystemView, MatchesMaterialisedCopyOnEveryObservable) {
  const System sys = random_system(42, 5);
  util::Rng rng(7);
  for (const auto& uc : gen::sample_use_cases(sys.app_count(), 4, rng)) {
    const SystemView view(sys, uc);
    const System sub = view.materialise();
    ASSERT_EQ(view.app_count(), sub.app_count());
    std::uint32_t actors = 0;
    std::uint32_t channels = 0;
    for (sdf::AppId i = 0; i < view.app_count(); ++i) {
      EXPECT_EQ(view.parent_app(i), uc[i]);
      EXPECT_EQ(view.app(i).name(), sub.app(i).name());
      EXPECT_EQ(view.app(i).actor_count(), sub.app(i).actor_count());
      EXPECT_EQ(view.app(i).channel_count(), sub.app(i).channel_count());
      EXPECT_EQ(view.actor_base(i), actors);
      EXPECT_EQ(view.channel_base(i), channels);
      for (sdf::ActorId a = 0; a < view.app(i).actor_count(); ++a) {
        EXPECT_EQ(view.node_of(i, a), sub.mapping().node_of(i, a));
        EXPECT_EQ(view.app_of_actor(actors + a), i);
      }
      actors += static_cast<std::uint32_t>(view.app(i).actor_count());
      channels += static_cast<std::uint32_t>(view.app(i).channel_count());
    }
    EXPECT_EQ(view.actor_count(), actors);
    EXPECT_EQ(view.channel_count(), channels);
    EXPECT_NO_THROW(view.validate());
    EXPECT_NO_THROW(sub.validate());
  }
}

TEST(SystemView, MaterialiseBuildsTheSelectedSystem) {
  const System sys = random_system(99, 4);
  const UseCase uc{1, 3};
  const SystemView view(sys, uc);
  const System a = view.materialise();
  // Hand-built oracle: the selected graphs with their mapping rows.
  std::vector<sdf::Graph> graphs{sys.app(1), sys.app(3)};
  Mapping rows(graphs);
  for (sdf::AppId i = 0; i < graphs.size(); ++i) {
    for (sdf::ActorId x = 0; x < graphs[i].actor_count(); ++x) {
      rows.assign(i, x, sys.mapping().node_of(uc[i], x));
    }
  }
  const System b(std::move(graphs), sys.platform(), std::move(rows));
  ASSERT_EQ(a.app_count(), b.app_count());
  for (sdf::AppId i = 0; i < a.app_count(); ++i) {
    EXPECT_EQ(a.app(i).name(), b.app(i).name());
    for (sdf::ActorId x = 0; x < a.app(i).actor_count(); ++x) {
      EXPECT_EQ(a.mapping().node_of(i, x), b.mapping().node_of(i, x));
    }
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(view.fingerprint(), a.fingerprint());
}

TEST(SystemView, EstimatorAgreesWithMaterialisedCopy) {
  const System sys = random_system(2024, 5);
  util::Rng rng(11);
  const prob::ContentionEstimator est;
  for (const auto& uc : gen::sample_use_cases(sys.app_count(), 3, rng)) {
    const auto through_view = est.estimate(SystemView(sys, uc));
    const auto through_copy = est.estimate(SystemView(sys, uc).materialise());
    ASSERT_EQ(through_view.size(), through_copy.size());
    for (std::size_t i = 0; i < through_view.size(); ++i) {
      EXPECT_EQ(through_view[i].isolation_period, through_copy[i].isolation_period);
      EXPECT_EQ(through_view[i].estimated_period, through_copy[i].estimated_period);
      ASSERT_EQ(through_view[i].actors.size(), through_copy[i].actors.size());
      for (std::size_t a = 0; a < through_view[i].actors.size(); ++a) {
        EXPECT_EQ(through_view[i].actors[a].waiting_time,
                  through_copy[i].actors[a].waiting_time);
      }
    }
  }
}

TEST(SystemView, WcrtAgreesWithMaterialisedCopy) {
  const System sys = random_system(31337, 4);
  util::Rng rng(5);
  for (const auto& uc : gen::sample_use_cases(sys.app_count(), 3, rng)) {
    const SystemView view(sys, uc);
    std::vector<analysis::ThroughputEngine> engines;
    for (sdf::AppId i = 0; i < view.app_count(); ++i) engines.emplace_back(view.app(i));
    std::vector<analysis::ThroughputEngine*> ptrs;
    for (auto& e : engines) ptrs.push_back(&e);

    wcrt::WcrtWorkspace ws;
    std::vector<wcrt::AppBound> through_view(view.app_count());
    wcrt::worst_case_bounds_into(view, {}, ptrs, ws, through_view);
    const auto through_copy = wcrt::worst_case_bounds(view.materialise());
    ASSERT_EQ(through_view.size(), through_copy.size());
    for (std::size_t i = 0; i < through_view.size(); ++i) {
      EXPECT_EQ(through_view[i].isolation_period, through_copy[i].isolation_period);
      EXPECT_EQ(through_view[i].worst_case_period, through_copy[i].worst_case_period);
    }
  }
}

TEST(SystemView, RestrictViewsBatchesOneViewPerUseCase) {
  const System sys = random_system(12, 4);
  const auto use_cases = gen::all_use_cases(sys.app_count());
  const auto views = gen::restrict_views(sys, use_cases);
  ASSERT_EQ(views.size(), use_cases.size());
  for (std::size_t u = 0; u < views.size(); ++u) {
    ASSERT_EQ(views[u].app_count(), use_cases[u].size());
    EXPECT_EQ(&views[u].parent(), &sys);
    for (sdf::AppId i = 0; i < views[u].app_count(); ++i) {
      EXPECT_EQ(views[u].parent_app(i), use_cases[u][i]);
    }
  }
}

TEST(SystemView, UnsortedUseCaseKeepsOrder) {
  const System sys = random_system(8, 4);
  const UseCase uc{2, 0};  // the given order is the view order
  const SystemView view(sys, uc);
  EXPECT_EQ(view.app(0).name(), sys.app(2).name());
  EXPECT_EQ(view.app(1).name(), sys.app(0).name());
  const System sub = view.materialise();
  EXPECT_EQ(sub.app(0).name(), view.app(0).name());
  EXPECT_EQ(sub.app(1).name(), view.app(1).name());
}

TEST(SystemView, OutOfRangeThrows) {
  const System sys = fig2_system();
  EXPECT_THROW((void)SystemView(sys, UseCase{7}), std::out_of_range);
  const SystemView view(sys, UseCase{1});
  EXPECT_THROW((void)view.app(1), std::out_of_range);
  EXPECT_THROW((void)view.app_of_actor(99), std::out_of_range);
}

TEST(SystemView, AppendAndPopKeepViewsConsistent) {
  System sys = random_system(64, 3);
  const std::size_t before = sys.app_count();
  sdf::Graph extra = procon::testing::fig2_graph_a();
  std::vector<NodeId> nodes(extra.actor_count(), 0);
  sys.append_app(extra, nodes);
  EXPECT_EQ(sys.app_count(), before + 1);
  const SystemView view(sys, UseCase{static_cast<sdf::AppId>(before)});
  EXPECT_EQ(view.app(0).name(), extra.name());
  EXPECT_EQ(view.node_of(0, 0), 0u);
  sys.pop_app();
  EXPECT_EQ(sys.app_count(), before);
  EXPECT_THROW(sys.append_app(extra, {0}), sdf::GraphError);  // size mismatch
}

TEST(SystemView, OneShotsRejectActorsOffThePlatform) {
  // Rows: two bad systems x the three one-shots. Each must raise GraphError
  // from SystemView::validate before any per-node table is indexed.
  const auto bad_system = [](bool unmapped) {
    std::vector<sdf::Graph> apps{procon::testing::two_actor_cycle(40, 60)};
    Mapping m(apps);
    m.assign(0, 0, 0);
    if (!unmapped) m.assign(0, 1, 3);  // node 3 of a 1-node platform
    return System(std::move(apps), Platform::homogeneous(1), std::move(m));
  };
  const std::function<void(const System&)> one_shots[] = {
      [](const System& s) { (void)prob::ContentionEstimator().estimate(s); },
      [](const System& s) { (void)wcrt::worst_case_bounds(s); },
      [](const System& s) { (void)sim::simulate(s, sim::SimOptions{.horizon = 1'000}); },
  };
  for (const bool unmapped : {false, true}) {
    const System sys = bad_system(unmapped);
    for (std::size_t k = 0; k < std::size(one_shots); ++k) {
      EXPECT_THROW(one_shots[k](sys), sdf::GraphError)
          << (unmapped ? "unmapped actor" : "actor on node 3") << ", one-shot " << k;
    }
  }
}

}  // namespace
}  // namespace procon::platform
