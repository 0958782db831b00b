// Stress and cross-module consistency tests: randomised admission
// controller workouts against ground truth, serialisation round-trips on
// generated graphs, and end-to-end sanity of arbitration variants.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <string>

#include "admission/admission.h"
#include "analysis/engine.h"
#include "analysis/throughput.h"
#include "api/workbench.h"
#include "dse/buffer_explorer.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "platform/system_view.h"
#include "prob/compose.h"
#include "prob/estimator.h"
#include "sdf/algorithms.h"
#include "sdf/io.h"
#include "sdf/repetition.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "wcrt/wcrt.h"

namespace procon {
namespace {

// ---------------------------------------------------------------------------
// Admission controller under a random admit/remove sequence: after every
// operation the per-node composites must match a from-scratch rebuild over
// the currently active applications (within floating-point tolerance; the
// controller uses the exact inverse of its own fold order only when the
// removal order is LIFO, so interleaved removals accumulate only the
// second-order association error).
class AdmissionStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionStress, CompositesMatchRebuild) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 5;
  constexpr std::size_t kNodes = 4;
  admission::AdmissionController ctrl(platform::Platform::homogeneous(kNodes));

  struct Live {
    admission::AppHandle handle;
    sdf::Graph graph;
    std::vector<platform::NodeId> nodes;
    double isolation = 0.0;
  };
  std::vector<Live> live;
  // Running peak of each node's true combined waiting time: the residue
  // left by non-LIFO removals scales with the load that passed through.
  std::vector<double> peak(kNodes, 0.0);

  for (int op = 0; op < 40; ++op) {
    const bool remove = !live.empty() && rng.bernoulli(0.4);
    if (remove) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ctrl.remove(live[idx].handle);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      Live rec;
      rec.graph = gen::generate_graph(rng, gopts, "app" + std::to_string(op));
      rec.nodes.resize(rec.graph.actor_count());
      for (sdf::ActorId a = 0; a < rec.graph.actor_count(); ++a) {
        rec.nodes[a] = static_cast<platform::NodeId>(
            rng.uniform_int(0, kNodes - 1));
      }
      const auto d =
          ctrl.request(rec.graph, rec.nodes, admission::QoS::no_requirement());
      ASSERT_TRUE(d.admitted);
      rec.handle = *d.handle;
      rec.isolation = analysis::compute_period(rec.graph).period;
      live.push_back(std::move(rec));
    }

    EXPECT_EQ(ctrl.admitted_count(), live.size());

    // Ground truth: rebuild node composites from the active set.
    std::vector<prob::Composite> truth(kNodes, prob::Composite::identity());
    for (const Live& rec : live) {
      const auto q = sdf::compute_repetition_vector(rec.graph);
      const auto loads = prob::derive_loads(rec.graph, *q, rec.isolation);
      for (sdf::ActorId a = 0; a < rec.graph.actor_count(); ++a) {
        truth[rec.nodes[a]] =
            prob::compose(truth[rec.nodes[a]], prob::to_composite(loads[a]));
      }
    }
    for (platform::NodeId n = 0; n < kNodes; ++n) {
      const prob::Composite got = ctrl.node_load(n);
      // (+) has an exact inverse: probabilities must match tightly no
      // matter the removal order.
      EXPECT_NEAR(got.probability, truth[n].probability, 1e-6)
          << "op=" << op << " node=" << n << " seed=" << GetParam();
      // (x) is associative only to second order: non-LIFO removals leave
      // third-order residue (the paper's documented approximation). The
      // drift is bounded by a fraction of the current value plus a
      // fraction of the historical peak load that passed through the node.
      peak[n] = std::max(peak[n], truth[n].weighted_blocking);
      EXPECT_NEAR(got.weighted_blocking, truth[n].weighted_blocking,
                  0.15 * std::abs(truth[n].weighted_blocking) + 0.10 * peak[n] + 0.5)
          << "op=" << op << " node=" << n << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissionStress, ::testing::Values(10, 20, 30));

// ---------------------------------------------------------------------------
// Serialisation round trip on generated graphs: structure and analysis
// results must survive write -> parse exactly.
class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, GeneratedGraphsSurvive) {
  util::Rng rng(GetParam());
  const sdf::Graph g = gen::generate_graph(rng, gen::GeneratorOptions{}, "g");
  const sdf::Graph back = sdf::graph_from_text(sdf::to_text(g));
  ASSERT_EQ(back.actor_count(), g.actor_count());
  ASSERT_EQ(back.channel_count(), g.channel_count());
  for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
    EXPECT_EQ(back.channel(c).src, g.channel(c).src);
    EXPECT_EQ(back.channel(c).dst, g.channel(c).dst);
    EXPECT_EQ(back.channel(c).prod_rate, g.channel(c).prod_rate);
    EXPECT_EQ(back.channel(c).cons_rate, g.channel(c).cons_rate);
    EXPECT_EQ(back.channel(c).initial_tokens, g.channel(c).initial_tokens);
  }
  EXPECT_EQ(analysis::compute_period_exact(back),
            analysis::compute_period_exact(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip, ::testing::Range<std::uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Arbitration sanity on random workloads: every policy converges and no
// policy beats the isolation period.
class ArbitrationSanity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArbitrationSanity, AllPoliciesRespectIsolationBound) {
  util::Rng rng(GetParam());
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 6;
  auto apps = gen::generate_graphs(rng, gopts, 3);
  std::size_t max_actors = 0;
  for (const auto& g : apps) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  const platform::System sys(std::move(apps), std::move(plat), std::move(map));

  std::vector<double> iso;
  for (const auto& e : prob::ContentionEstimator().estimate(sys)) {
    iso.push_back(e.isolation_period);
  }

  for (const auto arb : {sim::Arbitration::Fcfs, sim::Arbitration::RoundRobin,
                         sim::Arbitration::Tdma}) {
    sim::SimOptions opts{.horizon = 200'000};
    opts.arbitration = arb;
    const auto r = sim::simulate(sys, opts);
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      ASSERT_TRUE(r.apps[i].converged)
          << "seed=" << GetParam() << " arb=" << static_cast<int>(arb);
      EXPECT_GE(r.apps[i].average_period, iso[i] * (1.0 - 1e-6))
          << "seed=" << GetParam() << " app=" << i;
      EXPECT_GE(r.apps[i].worst_period, r.apps[i].average_period * (1.0 - 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbitrationSanity, ::testing::Values(5, 15, 25));

// ThroughputEngine caps its expansion at kMaxRepetitionSum firings, and
// every period, latency, bottleneck, buffer, session and admission path
// builds one before expanding anything itself; the liveness walk
// (is_deadlock_free, and SystemView::validate through diagnose_deadlock)
// checks the same cap before walking. The live two-actor graph below (a
// fires once, b 2^20 times per iteration) is rejected by each before
// anything is expanded or walked, naming the sum and the cap. Expanded,
// its cold solve alone would take minutes. The simulator validates its
// view, so it rejects the graph too, although it never expands it.
TEST(ExpansionCap, EveryEntryPointRejectsAHugeRepetitionSum) {
  // a -> b at rates (2^k, 1), b -> a at (1, 2^k) with 2^k tokens: a fires
  // once on the tokens, then b 2^k times, which returns them, so the graph
  // is live for every k; the walk shows it below the cap.
  const auto family = [](unsigned k) {
    sdf::Graph g("reps");
    const auto a = g.add_actor("a", 1);
    const auto b = g.add_actor("b", 1);
    g.add_channel(a, b, 1U << k, 1, 0);
    g.add_channel(b, a, 1, 1U << k, 1U << k);
    return g;
  };
  ASSERT_TRUE(sdf::is_deadlock_free(family(11)));
  const sdf::Graph g = family(20);
  ASSERT_EQ(sdf::repetition_sum(*sdf::compute_repetition_vector(g)), (1U << 20) + 1);

  const auto expect_rejected = [](const char* entry, const auto& call) {
    const auto start = std::chrono::steady_clock::now();
    std::string message;
    try {
      call();
    } catch (const sdf::GraphError& e) {
      message = e.what();
    }
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    EXPECT_NE(message.find("1048577"), std::string::npos) << entry << ": '" << message << "'";
    EXPECT_NE(message.find("cap of " + std::to_string(sdf::kMaxRepetitionSum)),
              std::string::npos)
        << entry << ": '" << message << "'";
    EXPECT_LT(took.count(), 1.0) << entry;
  };
  expect_rejected("is_deadlock_free", [&] { (void)sdf::is_deadlock_free(g); });
  expect_rejected("ThroughputEngine", [&] { (void)analysis::ThroughputEngine(g); });
  expect_rejected("compute_period", [&] { (void)analysis::compute_period(g); });
  expect_rejected("compute_latency", [&] { (void)analysis::compute_latency(g); });
  expect_rejected("find_bottleneck", [&] { (void)analysis::find_bottleneck(g); });
  expect_rejected("explore_buffer_tradeoff", [&] { (void)dse::explore_buffer_tradeoff(g); });
  const std::vector<sdf::Graph> apps{g};
  const platform::Platform plat = platform::Platform::homogeneous(2);
  const platform::System sys(apps, plat, platform::Mapping::by_index(apps, plat));
  expect_rejected("Workbench", [&] {
    api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
  });
  expect_rejected("SimEngine", [&] { sim::SimEngine engine(sys); });
  expect_rejected("simulate", [&] { (void)sim::simulate(sys, sim::SimOptions{}); });
  expect_rejected("AdmissionController::request", [&] {
    admission::AdmissionController ctrl(platform::Platform::homogeneous(2));
    (void)ctrl.request(g, {0, 1}, admission::QoS::no_requirement());
  });
}

// The liveness walk (sdf::diagnose_deadlock) fires one whole iteration, so
// it checks the same cap before walking: the live chain below fires
// 1 + 2^31 + 2^62 times per iteration, and every entry point that
// validates a view rejects it at once instead of walking.
TEST(ExpansionCap, TheLivenessWalkIsCappedToo) {
  sdf::Graph g("chain");
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  const auto c = g.add_actor("c", 1);
  g.add_channel(a, b, 1U << 31, 1, 0);
  g.add_channel(b, c, 1U << 31, 1, 0);
  ASSERT_EQ(sdf::repetition_sum(*sdf::compute_repetition_vector(g)),
            1 + (std::uint64_t{1} << 31) + (std::uint64_t{1} << 62));

  const std::vector<sdf::Graph> apps{g};
  const platform::Platform plat = platform::Platform::homogeneous(3);
  const platform::System sys(apps, plat, platform::Mapping::by_index(apps, plat));
  const auto expect_rejected = [](const char* entry, const auto& call) {
    const auto start = std::chrono::steady_clock::now();
    std::string message;
    try {
      call();
    } catch (const sdf::GraphError& e) {
      message = e.what();
    }
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    EXPECT_NE(message.find("4611686020574871553"), std::string::npos)
        << entry << ": '" << message << "'";
    EXPECT_NE(message.find("cap of " + std::to_string(sdf::kMaxRepetitionSum)),
              std::string::npos)
        << entry << ": '" << message << "'";
    EXPECT_LT(took.count(), 1.0) << entry;
  };
  expect_rejected("SystemView::validate", [&] { platform::SystemView(sys).validate(); });
  expect_rejected("Workbench", [&] {
    api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
  });
  expect_rejected("estimate", [&] { (void)prob::ContentionEstimator().estimate(sys); });
  expect_rejected("worst_case_bounds", [&] { (void)wcrt::worst_case_bounds(sys); });
  expect_rejected("SimEngine", [&] { sim::SimEngine engine(sys); });
  expect_rejected("AdmissionController::request", [&] {
    admission::AdmissionController ctrl(platform::Platform::homogeneous(3));
    (void)ctrl.request(g, {0, 1, 2}, admission::QoS::no_requirement());
  });
}

}  // namespace
}  // namespace procon
