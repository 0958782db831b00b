#include "dse/mapper.h"

#include <gtest/gtest.h>

#include "gen/graph_generator.h"
#include "helpers.h"
#include "sim/simulator.h"

namespace procon::dse {
namespace {

using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;

std::vector<sdf::Graph> two_apps() { return {fig2_graph_a(), fig2_graph_b()}; }

/// Serial annealing on one freshly built workspace.
MapperResult anneal(std::span<const sdf::Graph> apps, const platform::Platform& plat,
                    const platform::Mapping& start, const MapperOptions& opts = {}) {
  AnalysisWorkspace ws;
  ws.sys = platform::System(std::vector<sdf::Graph>(apps.begin(), apps.end()), plat, start);
  for (const sdf::Graph& g : apps) ws.engines.emplace_back(g);
  return optimise_mapping(apps, plat, start, opts, ws);
}

TEST(EvaluateMapping, DisjointMappingScoresOne) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(6);
  platform::Mapping m(apps);
  for (sdf::ActorId a = 0; a < 3; ++a) {
    m.assign(0, a, a);
    m.assign(1, a, 3 + a);
  }
  EXPECT_NEAR(evaluate_mapping(apps, plat, m), 1.0, 1e-9);
}

TEST(EvaluateMapping, SharedMappingScoresAboveOne) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(3);
  const platform::Mapping m = platform::Mapping::by_index(apps, plat);
  // Section 3.1: estimated period 358.33 on isolation 300.
  EXPECT_NEAR(evaluate_mapping(apps, plat, m), (1075.0 / 3.0) / 300.0, 1e-6);
}

TEST(Mapper, FindsDisjointMappingWhenRoomExists) {
  // Six nodes for six actors: the optimum separates the two applications
  // completely (score 1); annealing must find it (or something equal).
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(6);
  const platform::Mapping start = platform::Mapping::by_index(apps, plat);
  MapperOptions opts;
  opts.iterations = 800;
  opts.seed = 3;
  const MapperResult r = anneal(apps, plat, start, opts);
  EXPECT_NEAR(r.score, 1.0, 1e-6);
  EXPECT_LE(r.score, r.initial_score + 1e-12);
  EXPECT_TRUE(r.mapping.is_complete());
}

TEST(Mapper, NeverWorseThanStart) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(3);
  const platform::Mapping start = platform::Mapping::by_index(apps, plat);
  MapperOptions opts;
  opts.iterations = 200;
  const MapperResult r = anneal(apps, plat, start, opts);
  EXPECT_LE(r.score, r.initial_score + 1e-12);
  EXPECT_GE(r.score, 1.0 - 1e-9);  // cannot beat isolation
}

TEST(Mapper, DeterministicForSeed) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(4);
  const platform::Mapping start = platform::Mapping::by_index(apps, plat);
  MapperOptions opts;
  opts.iterations = 300;
  opts.seed = 42;
  const MapperResult a = anneal(apps, plat, start, opts);
  const MapperResult b = anneal(apps, plat, start, opts);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (sdf::ActorId act = 0; act < apps[i].actor_count(); ++act) {
      EXPECT_EQ(a.mapping.node_of(i, act), b.mapping.node_of(i, act));
    }
  }
}

TEST(Mapper, SingleNodePlatformDegenerates) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(1);
  platform::Mapping m(apps);
  for (sdf::ActorId a = 0; a < 3; ++a) {
    m.assign(0, a, 0);
    m.assign(1, a, 0);
  }
  const MapperResult r = anneal(apps, plat, m);
  EXPECT_DOUBLE_EQ(r.score, r.initial_score);
  EXPECT_EQ(r.evaluations, 1u);
}

TEST(Mapper, IncompleteStartThrows) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(3);
  platform::Mapping incomplete(apps);
  EXPECT_THROW((void)anneal(apps, plat, incomplete), std::invalid_argument);
}

TEST(Mapper, CountsEvaluationsAndAcceptances) {
  const auto apps = two_apps();
  const platform::Platform plat = platform::Platform::homogeneous(4);
  const platform::Mapping start = platform::Mapping::by_index(apps, plat);
  MapperOptions opts;
  opts.iterations = 100;
  const MapperResult r = anneal(apps, plat, start, opts);
  EXPECT_EQ(r.evaluations, 101u);  // start + one per step
  EXPECT_LE(r.accepted_moves, 100u);
}

// Property: on random workloads the optimised mapping's *simulated* worst
// slowdown is no worse than the start mapping's (the analytic score is a
// usable proxy).
class MapperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperProperty, OptimisedMappingHelpsInSimulation) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 6;
  const auto apps = gen::generate_graphs(rng, gopts, 3);
  const platform::Platform plat = platform::Platform::homogeneous(6);
  const platform::Mapping start = platform::Mapping::by_index(apps, plat);
  MapperOptions opts;
  opts.iterations = 400;
  opts.seed = GetParam();
  const MapperResult r = anneal(apps, plat, start, opts);
  ASSERT_LE(r.score, r.initial_score + 1e-12);

  auto simulated_worst = [&](const platform::Mapping& m) {
    platform::System sys(std::vector<sdf::Graph>(apps.begin(), apps.end()),
                         plat, m);
    const auto sim = sim::simulate(sys, sim::SimOptions{.horizon = 150'000});
    const auto est = prob::ContentionEstimator().estimate(sys);
    double worst = 0.0;
    for (std::size_t i = 0; i < sim.apps.size(); ++i) {
      worst = std::max(worst, sim.apps[i].average_period / est[i].isolation_period);
    }
    return worst;
  };
  // Allow a little simulation noise; a genuinely better mapping should not
  // be meaningfully slower in simulation.
  EXPECT_LE(simulated_worst(r.mapping), simulated_worst(start) * 1.25)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace procon::dse
