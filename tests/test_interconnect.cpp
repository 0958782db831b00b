// Interconnect tier tests: platform::Topology routing/service-time
// contracts, the backward-compatibility guarantee (kind None is bitwise
// identical to a topology-free system in both analysis tiers), the
// SystemView == materialise equivalence on routed systems, a randomized
// differential suite (generated graphs x {bus, ring, mesh} x link widths,
// simulator vs estimator), and the Zobrist topology-feature property test
// (incremental System fingerprints vs the from-scratch constructor oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "platform/topology.h"
#include "prob/estimator.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace procon {
namespace {

using platform::Link;
using platform::LinkId;
using platform::Mapping;
using platform::Platform;
using platform::System;
using platform::SystemView;
using platform::Topology;
using platform::TopologyKind;
using platform::UseCase;

// ---------------------------------------------------------------------------
// Helpers

/// Walks `route` and checks it is a contiguous src -> dst link chain.
void expect_route_connects(const Topology& topo, platform::NodeId src,
                           platform::NodeId dst, const std::vector<LinkId>& route) {
  if (topo.kind() == TopologyKind::Bus) {
    ASSERT_EQ(route.size(), 1u);
    EXPECT_EQ(route[0], 0u);
    return;
  }
  platform::NodeId at = src;
  for (const LinkId id : route) {
    const Link& lk = topo.link(id);
    ASSERT_EQ(lk.src, at) << "route hop does not start where the last ended";
    at = lk.dst;
  }
  EXPECT_EQ(at, dst) << "route does not terminate at the destination";
}

System make_system(std::vector<sdf::Graph> apps, std::size_t nodes) {
  Platform plat = Platform::homogeneous(nodes);
  Mapping map = Mapping::by_index(apps, plat);
  return System(std::move(apps), std::move(plat), std::move(map));
}

/// A small random multi-application system over `nodes` processors
/// (by-index mapping spreads each graph's actors over distinct nodes, so
/// most channels cross the interconnect once a topology is attached).
System random_system(std::uint64_t seed, std::size_t apps, std::size_t nodes) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = static_cast<std::uint32_t>(nodes);
  gopts.max_repetition = 3;
  return make_system(gen::generate_graphs(rng, gopts, apps, "ic"), nodes);
}

/// Bitwise SimResult comparison, including the per-link utilisation the
/// interconnect tier adds.
void expect_same(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.horizon, b.horizon);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].iterations, b.apps[i].iterations);
    EXPECT_EQ(a.apps[i].converged, b.apps[i].converged);
    EXPECT_EQ(a.apps[i].average_period, b.apps[i].average_period);
    EXPECT_EQ(a.apps[i].worst_period, b.apps[i].worst_period);
    EXPECT_EQ(a.apps[i].iteration_times, b.apps[i].iteration_times);
  }
  EXPECT_EQ(a.node_utilisation, b.node_utilisation);
  EXPECT_EQ(a.link_utilisation, b.link_utilisation);
}

void expect_same_estimates(const std::vector<prob::AppEstimate>& a,
                           const std::vector<prob::AppEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
    EXPECT_EQ(a[i].estimated_period, b[i].estimated_period);
  }
}

// ---------------------------------------------------------------------------
// Routing and service-time unit tests

TEST(Topology, BusRoutesEveryPairOverTheSharedLink) {
  const Topology bus = Topology::bus(4, 2, 3);
  EXPECT_EQ(bus.kind(), TopologyKind::Bus);
  EXPECT_EQ(bus.link_count(), 1u);
  std::vector<LinkId> route;
  for (platform::NodeId s = 0; s < 4; ++s) {
    for (platform::NodeId d = 0; d < 4; ++d) {
      route.clear();
      const std::size_t hops = bus.route(s, d, route);
      if (s == d) {
        EXPECT_EQ(hops, 0u);
      } else {
        ASSERT_EQ(hops, 1u);
        EXPECT_EQ(route[0], 0u);
      }
    }
  }
  // service_time = latency + ceil(tokens / width); zero tokens are free.
  EXPECT_EQ(bus.service_time(0, 0), 0);
  EXPECT_EQ(bus.service_time(0, 1), 3 + 1);
  EXPECT_EQ(bus.service_time(0, 2), 3 + 1);
  EXPECT_EQ(bus.service_time(0, 3), 3 + 2);
}

TEST(Topology, RingTakesMinimalDirectionAndTiesClockwise) {
  const Topology ring = Topology::ring(5);
  EXPECT_EQ(ring.link_count(), 10u);  // 2 directed links per node
  std::vector<LinkId> route;

  // 0 -> 2: clockwise distance 2 beats counter-clockwise 3.
  ASSERT_EQ(ring.route(0, 2, route), 2u);
  EXPECT_EQ(route[0], 0u);  // 0 -> 1, clockwise link 2*0
  EXPECT_EQ(route[1], 2u);  // 1 -> 2, clockwise link 2*1
  expect_route_connects(ring, 0, 2, route);

  // 0 -> 3: counter-clockwise distance 2 beats clockwise 3.
  route.clear();
  ASSERT_EQ(ring.route(0, 3, route), 2u);
  EXPECT_EQ(route[0], 1u);  // 0 -> 4, counter-clockwise link 2*0+1
  EXPECT_EQ(route[1], 9u);  // 4 -> 3, counter-clockwise link 2*4+1
  expect_route_connects(ring, 0, 3, route);

  // Even ring: the equidistant antipode resolves clockwise.
  const Topology even = Topology::ring(4);
  route.clear();
  ASSERT_EQ(even.route(1, 3, route), 2u);
  EXPECT_EQ(even.link(route[0]).dst, 2u) << "tie must go clockwise";
  expect_route_connects(even, 1, 3, route);
}

TEST(Topology, MeshRoutesXYColumnFirst) {
  // 2 x 3 mesh: node r*3+c.   0 1 2
  //                           3 4 5
  const Topology mesh = Topology::mesh(2, 3);
  // Directed links: rows * (cols-1) horizontal + cols * (rows-1) vertical,
  // each doubled for direction.
  EXPECT_EQ(mesh.link_count(), 2u * (2 * 2 + 3 * 1));
  std::vector<LinkId> route;
  ASSERT_EQ(mesh.route(0, 5, route), 3u);
  // XY order corrects the column first: 0 -> 1 -> 2 -> 5.
  EXPECT_EQ(mesh.link(route[0]).dst, 1u);
  EXPECT_EQ(mesh.link(route[1]).dst, 2u);
  EXPECT_EQ(mesh.link(route[2]).dst, 5u);
  expect_route_connects(mesh, 0, 5, route);

  route.clear();
  ASSERT_EQ(mesh.route(5, 0, route), 3u);
  EXPECT_EQ(mesh.link(route[0]).dst, 4u);
  EXPECT_EQ(mesh.link(route[1]).dst, 3u);
  EXPECT_EQ(mesh.link(route[2]).dst, 0u);
  expect_route_connects(mesh, 5, 0, route);

  // Routing is deterministic: repeated calls append identical sequences.
  std::vector<LinkId> again;
  mesh.route(5, 0, again);
  std::vector<LinkId> expected(route);
  EXPECT_EQ(again, expected);
}

TEST(Topology, FactoriesRejectDegenerateShapes) {
  EXPECT_THROW((void)Topology::bus(0), std::invalid_argument);
  EXPECT_THROW((void)Topology::ring(1), std::invalid_argument);
  EXPECT_THROW((void)Topology::mesh(0, 3), std::invalid_argument);
  EXPECT_THROW((void)Topology::mesh(3, 0), std::invalid_argument);
  EXPECT_THROW((void)Topology::mesh(1, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)Topology::bus(1));
  EXPECT_NO_THROW((void)Topology::mesh(1, 2));
}

TEST(Topology, AttributeClampingAndMutation) {
  Topology t = Topology::ring(3, 0, -5);  // width clamps to 1, latency to 0
  EXPECT_EQ(t.link(0).width, 1u);
  EXPECT_EQ(t.link(0).latency, 0);
  t.set_link_width(0, 4);
  t.set_link_latency(0, 7);
  EXPECT_EQ(t.service_time(0, 8), 7 + 2);
  EXPECT_THROW(t.set_link_width(99, 1), std::out_of_range);
  EXPECT_THROW((void)t.service_time(99, 1), std::out_of_range);
}

TEST(Topology, PlatformRejectsNodeCountMismatch) {
  System sys = make_system({testing::fig2_graph_a()}, 3);
  EXPECT_THROW(sys.set_topology(Topology::bus(4)), std::invalid_argument);
  EXPECT_THROW(sys.set_topology(Topology::mesh(2, 2)), std::invalid_argument);
  EXPECT_NO_THROW(sys.set_topology(Topology::ring(3)));

  // A node added after the topology leaves it one node short: the view
  // validation that every one-shot and SimEngine run rejects the system.
  Platform grown = Platform::homogeneous(3);
  grown.set_topology(Topology::ring(3));
  grown.add_node("late");
  std::vector<sdf::Graph> apps{testing::fig2_graph_a()};
  Mapping m = Mapping::by_index(apps, grown);
  const System short_ring(std::move(apps), std::move(grown), std::move(m));
  EXPECT_THROW(short_ring.validate(), sdf::GraphError);
  EXPECT_THROW(sim::SimEngine{short_ring}, sdf::GraphError);
  EXPECT_THROW((void)prob::ContentionEstimator().estimate(short_ring), sdf::GraphError);
}

// ---------------------------------------------------------------------------
// Backward compatibility: kind None == no topology, bitwise

TEST(Interconnect, NoneTopologyIsBitwiseIdenticalToTopologyFree) {
  const System plain = testing::fig2_system();
  System with_none = testing::fig2_system();
  with_none.set_topology(Topology{});
  EXPECT_EQ(plain.fingerprint(), with_none.fingerprint());

  const sim::SimOptions sopts{.horizon = 100'000};
  expect_same(sim::simulate(plain, sopts), sim::simulate(with_none, sopts));

  const prob::ContentionEstimator est;
  const auto a = est.estimate(SystemView(plain));
  const auto b = est.estimate(SystemView(with_none));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].estimated_period, b[i].estimated_period);
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
  }
}

TEST(Interconnect, DetachingATopologyRestoresThePlainSystemBitwise) {
  const System plain = random_system(11, 2, 4);
  System roamed = random_system(11, 2, 4);
  ASSERT_EQ(plain.fingerprint(), roamed.fingerprint());

  roamed.set_topology(Topology::ring(4, 2, 1));
  EXPECT_NE(plain.fingerprint(), roamed.fingerprint())
      << "attaching an interconnect must change the fingerprint";
  roamed.set_topology(Topology{});
  EXPECT_EQ(plain.fingerprint(), roamed.fingerprint());

  const sim::SimOptions sopts{.horizon = 100'000};
  expect_same(sim::simulate(plain, sopts), sim::simulate(roamed, sopts));
}

TEST(Interconnect, TopologySweepNoneEntryAndWarmRepeatAreBitwiseStable) {
  const System sys = random_system(31, 3, 4);
  std::vector<Topology> topologies;
  topologies.emplace_back();  // kind None
  topologies.push_back(Topology::bus(4, 4, 1));
  topologies.push_back(Topology::ring(4, 2, 1));
  topologies.push_back(Topology::mesh(2, 2, 2, 1));

  api::Workbench wb(sys);
  api::TopologySweepOptions topts;
  topts.sim.horizon = 20'000;
  const auto cold = wb.sweep_topologies(topologies, topts);
  ASSERT_EQ(cold->size(), topologies.size());

  // The None entry is the topology-free pipeline.
  sim::SimEngine plain(sys);
  plain.reset();
  expect_same((*cold)[0].sim, plain.run(topts.sim));
  expect_same_estimates((*cold)[0].estimates,
                        prob::ContentionEstimator(topts.estimator).estimate(SystemView(sys)));

  // A second sweep of the same list changes no bit.
  const auto warm = wb.sweep_topologies(topologies, topts);
  ASSERT_EQ(warm->size(), topologies.size());
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same((*cold)[i].sim, (*warm)[i].sim);
    expect_same_estimates((*cold)[i].estimates, (*warm)[i].estimates);
  }
}

// ---------------------------------------------------------------------------
// SystemView == materialise on routed systems

TEST(Interconnect, ViewMatchesMaterialiseOnRoutedSystems) {
  System sys = random_system(23, 3, 6);
  sys.set_topology(Topology::mesh(2, 3, 1, 2));
  const UseCase uc{0, 2};
  const SystemView view(sys, uc);
  const System copy = view.materialise();

  EXPECT_EQ(view.fingerprint(), copy.fingerprint());
  EXPECT_TRUE(copy.platform().topology() == sys.platform().topology())
      << "restriction must carry the interconnect through";

  const sim::SimOptions sopts{.horizon = 150'000};
  expect_same(sim::simulate(view, sopts), sim::simulate(copy, sopts));

  const prob::ContentionEstimator est;
  const auto from_view = est.estimate(view);
  const auto from_copy = est.estimate(SystemView(copy));
  ASSERT_EQ(from_view.size(), from_copy.size());
  for (std::size_t i = 0; i < from_view.size(); ++i) {
    EXPECT_EQ(from_view[i].estimated_period, from_copy[i].estimated_period);
    EXPECT_EQ(from_view[i].isolation_period, from_copy[i].isolation_period);
    ASSERT_EQ(from_view[i].actors.size(), from_copy[i].actors.size());
    for (std::size_t a = 0; a < from_view[i].actors.size(); ++a) {
      EXPECT_EQ(from_view[i].actors[a].waiting_time,
                from_copy[i].actors[a].waiting_time);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential suite: generated graphs x topology x widths

struct TopoCase {
  const char* name;
  Topology topo;
};

std::vector<TopoCase> topologies_for(std::size_t nodes, std::uint32_t width) {
  std::vector<TopoCase> out;
  out.push_back({"bus", Topology::bus(nodes, width, 1)});
  out.push_back({"ring", Topology::ring(nodes, width, 1)});
  if (nodes == 6) out.push_back({"mesh2x3", Topology::mesh(2, 3, width, 1)});
  return out;
}

TEST(Interconnect, DifferentialSimVsEstimatorOnRandomSystems) {
  // For every generated system and every topology/width combination both
  // tiers must agree qualitatively (routing slows things down, nothing
  // diverges) and quantitatively: the probabilistic estimate stays within
  // 75% (percent_abs_diff) of the simulated steady-state period. That is
  // the documented sim-estimator agreement bound for routed systems — wider
  // than the 50% processor-only bound in test_integration.cpp because the
  // link term composes a second-order approximation on top of the node
  // approximation (see the "Interconnect extension" note in
  // prob/estimator.h).
  constexpr double kRoutedAgreementBoundPct = 75.0;
  const sim::SimOptions sopts{.horizon = 200'000};
  const prob::ContentionEstimator est;

  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    const System plain = random_system(seed, 2, 6);
    const sim::SimResult base = sim::simulate(plain, sopts);
    const auto base_est = est.estimate(SystemView(plain));

    for (const std::uint32_t width : {1u, 4u}) {
      for (TopoCase& tc : topologies_for(6, width)) {
        System sys = random_system(seed, 2, 6);
        sys.set_topology(tc.topo);

        const sim::SimResult sim = sim::simulate(sys, sopts);
        const auto estd = est.estimate(SystemView(sys));
        ASSERT_EQ(sim.apps.size(), estd.size());
        ASSERT_EQ(sim.link_utilisation.size(), tc.topo.link_count())
            << tc.name << " seed=" << seed;

        double util_sum = 0.0;
        for (const double u : sim.link_utilisation) {
          EXPECT_GE(u, 0.0) << tc.name;
          EXPECT_LE(u, 1.0 + 1e-12) << tc.name;
          util_sum += u;
        }
        EXPECT_GT(util_sum, 0.0)
            << tc.name << " seed=" << seed
            << ": by-index mapping must produce inter-node traffic";

        for (std::size_t i = 0; i < estd.size(); ++i) {
          ASSERT_TRUE(sim.apps[i].converged)
              << tc.name << " seed=" << seed << " app=" << i;
          EXPECT_TRUE(std::isfinite(estd[i].estimated_period));
          // Link contention only adds delay on top of the isolation period.
          EXPECT_GE(estd[i].estimated_period + 1e-9, estd[i].isolation_period);
          // And routed estimates dominate the unrouted ones: removing the
          // interconnect can never make the estimate slower.
          EXPECT_GE(estd[i].estimated_period + 1e-9,
                    base_est[i].estimated_period)
              << tc.name << " seed=" << seed << " app=" << i;
          // Routed simulation does not outrun the unrouted baseline by more
          // than one boundary iteration: message latency can only delay
          // deposits, but the reshuffled arbitration order may land one
          // extra iteration completion just inside the horizon.
          EXPECT_LE(sim.apps[i].iterations, base.apps[i].iterations + 1);

          const double err = util::percent_abs_diff(
              estd[i].estimated_period, sim.apps[i].average_period);
          EXPECT_LT(err, kRoutedAgreementBoundPct)
              << tc.name << " width=" << width << " seed=" << seed
              << " app=" << i << " est=" << estd[i].estimated_period
              << " sim=" << sim.apps[i].average_period;
        }
      }
    }
  }
}

TEST(Interconnect, WiderLinksNeverSlowTheEstimateDown) {
  const prob::ContentionEstimator est;
  for (const std::uint64_t seed : {7ull, 8ull}) {
    double previous = std::numeric_limits<double>::infinity();
    for (const std::uint32_t width : {1u, 2u, 8u}) {
      System sys = random_system(seed, 2, 6);
      sys.set_topology(Topology::bus(6, width, 1));
      const auto estd = est.estimate(SystemView(sys));
      double total = 0.0;
      for (const auto& e : estd) total += e.estimated_period;
      EXPECT_LE(total, previous + 1e-9) << "seed=" << seed << " width=" << width;
      previous = total;
    }
  }
}

TEST(Interconnect, SimEngineMatchesOneShotSimulateOnRoutedSystems) {
  System sys = random_system(31, 3, 6);
  sys.set_topology(Topology::ring(6, 2, 1));
  const sim::SimOptions sopts{.horizon = 150'000};

  sim::SimEngine engine(sys);
  engine.reset();
  expect_same(engine.run(sopts), sim::simulate(sys, sopts));

  const UseCase uc{1, 2};
  engine.reset(uc);
  expect_same(engine.run(sopts), sim::simulate(SystemView(sys, uc).materialise(), sopts));
}

// ---------------------------------------------------------------------------
// Zobrist topology features: incremental fingerprint == from-scratch oracle

/// Rebuilds the system from its parts — the constructor computes the
/// fingerprint from scratch, so this is the oracle the incremental
/// set_topology / set_link_* deltas must match.
std::uint64_t oracle_fingerprint(const System& sys) {
  std::vector<sdf::Graph> apps(sys.apps().begin(), sys.apps().end());
  return System(std::move(apps), sys.platform(), sys.mapping()).fingerprint();
}

TEST(Interconnect, FingerprintSurvives200RandomTopologyMutations) {
  constexpr int kSteps = 200;
  System sys = random_system(47, 2, 6);
  util::Rng rng(0xF00D);

  for (int step = 0; step < kSteps; ++step) {
    const double roll = rng.uniform01();
    const std::size_t links = sys.platform().topology().link_count();
    if (roll < 0.25 || links == 0) {
      // Swap the whole interconnect (including back to None).
      switch (rng.uniform_int(0, 3)) {
        case 0: sys.set_topology(Topology{}); break;
        case 1: sys.set_topology(Topology::bus(6)); break;
        case 2: sys.set_topology(Topology::ring(6)); break;
        default: sys.set_topology(Topology::mesh(2, 3)); break;
      }
    } else if (roll < 0.625) {
      const auto id = static_cast<LinkId>(
          rng.uniform_int(0, static_cast<std::int64_t>(links) - 1));
      sys.set_link_width(id, static_cast<std::uint32_t>(rng.uniform_int(1, 8)));
    } else {
      const auto id = static_cast<LinkId>(
          rng.uniform_int(0, static_cast<std::int64_t>(links) - 1));
      sys.set_link_latency(id, rng.uniform_int(0, 15));
    }
    ASSERT_EQ(sys.fingerprint(), oracle_fingerprint(sys)) << "step " << step;
  }
}

TEST(Interconnect, DistinctTopologiesNeverAliasTheFingerprint) {
  // Same applications and mapping, different interconnects: every pair of
  // structurally distinct topologies must produce distinct fingerprints.
  std::vector<Topology> topologies;
  topologies.push_back(Topology{});
  topologies.push_back(Topology::bus(6));
  topologies.push_back(Topology::bus(6, 2, 1));
  topologies.push_back(Topology::bus(6, 1, 3));
  topologies.push_back(Topology::ring(6));
  topologies.push_back(Topology::mesh(2, 3));
  topologies.push_back(Topology::mesh(3, 2));
  {
    Topology t = Topology::ring(6);
    t.set_link_width(3, 5);
    topologies.push_back(std::move(t));
  }
  {
    Topology t = Topology::mesh(2, 3);
    t.set_link_latency(1, 9);
    topologies.push_back(std::move(t));
  }

  std::vector<std::uint64_t> prints;
  for (const Topology& t : topologies) {
    System sys = random_system(5, 2, 6);
    sys.set_topology(t);
    prints.push_back(sys.fingerprint());
  }
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    for (std::size_t j = i + 1; j < topologies.size(); ++j) {
      ASSERT_FALSE(topologies[i] == topologies[j])
          << "test list must hold structurally distinct topologies";
      EXPECT_NE(prints[i], prints[j]) << "alias between topology " << i
                                      << " and " << j;
    }
  }
}

}  // namespace
}  // namespace procon
