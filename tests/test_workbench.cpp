// The Workbench session contract: every query is bitwise identical to the
// legacy free function it replaces (the session caches structure, never
// changes results), queries are history-independent (cold start at every
// query boundary), and the sharded queries return the same bits for any
// thread count.
#include "api/workbench.h"

#include <gtest/gtest.h>

#include "analysis/throughput.h"
#include "dse/buffer_explorer.h"
#include "dse/mapper.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "prob/estimator.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "wcrt/wcrt.h"

namespace procon::api {
namespace {

using procon::testing::fig2_system;

platform::System random_system(std::uint64_t seed, std::size_t apps) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 7;
  auto graphs = gen::generate_graphs(rng, gopts, apps);
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

void expect_estimates_equal(const std::vector<prob::AppEstimate>& a,
                            const std::vector<prob::AppEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
    EXPECT_EQ(a[i].estimated_period, b[i].estimated_period);
    ASSERT_EQ(a[i].actors.size(), b[i].actors.size());
    for (std::size_t j = 0; j < a[i].actors.size(); ++j) {
      EXPECT_EQ(a[i].actors[j].waiting_time, b[i].actors[j].waiting_time);
      EXPECT_EQ(a[i].actors[j].response_time, b[i].actors[j].response_time);
    }
  }
}

TEST(Workbench, ThroughputMatchesComputePeriodBitwise) {
  Workbench wb(fig2_system(), WorkbenchOptions{.threads = 1});
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    const auto fresh = analysis::compute_period(wb.system().app(i));
    const auto report = wb.throughput(i);
    EXPECT_EQ(report->deadlocked, fresh.deadlocked);
    EXPECT_EQ(report->period, fresh.period);
    // A second query must return the same bits (no history dependence).
    EXPECT_EQ(wb.throughput(i)->period, fresh.period);
  }
}

TEST(Workbench, LatencyAndBottleneckMatchFreeFunctions) {
  Workbench wb(fig2_system(), WorkbenchOptions{.threads = 1});
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    const auto lat = analysis::compute_latency(wb.system().app(i));
    const auto wl = wb.latency(i);
    EXPECT_EQ(wl->latency, lat.latency);
    EXPECT_EQ(wl->critical_actors, lat.critical_actors);

    const auto bn = analysis::find_bottleneck(wb.system().app(i));
    const auto wbn = wb.bottleneck(i);
    EXPECT_EQ(wbn->deadlocked, bn.deadlocked);
    EXPECT_EQ(wbn->period, bn.period);
    EXPECT_EQ(wbn->actors, bn.actors);
  }
}

TEST(Workbench, ContentionMatchesEstimatorBitwise) {
  for (const auto method :
       {prob::Method::SecondOrder, prob::Method::FourthOrder, prob::Method::Exact,
        prob::Method::Composability, prob::Method::CompositionInverse}) {
    const prob::EstimatorOptions opts{.method = method};
    Workbench wb(fig2_system(), WorkbenchOptions{.threads = 1});
    const auto legacy = prob::ContentionEstimator(opts).estimate(wb.system());
    expect_estimates_equal(*wb.contention(opts), legacy);
    // Query order must not matter: repeat after other queries ran.
    (void)wb.wcrt();
    (void)wb.throughput(0);
    expect_estimates_equal(*wb.contention(opts), legacy);
  }
}

TEST(Workbench, ContentionMatchesOnRandomisedSystems) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    Workbench wb(random_system(seed, 4), WorkbenchOptions{.threads = 1});
    const auto legacy = prob::ContentionEstimator().estimate(wb.system());
    expect_estimates_equal(*wb.contention(), legacy);
  }
}

TEST(Workbench, RestrictedContentionMatchesRestrictedSystem) {
  Workbench wb(random_system(7, 4), WorkbenchOptions{.threads = 1});
  for (const auto& uc : gen::all_use_cases(wb.app_count())) {
    const auto legacy = prob::ContentionEstimator().estimate(
        platform::SystemView(wb.system(), uc).materialise());
    expect_estimates_equal(*wb.contention(uc), legacy);
  }
}

void expect_bounds_equal(const std::vector<wcrt::AppBound>& a,
                         const std::vector<wcrt::AppBound>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
    EXPECT_EQ(a[i].worst_case_period, b[i].worst_case_period);
    ASSERT_EQ(a[i].actors.size(), b[i].actors.size());
    for (std::size_t j = 0; j < a[i].actors.size(); ++j) {
      EXPECT_EQ(a[i].actors[j].waiting_time, b[i].actors[j].waiting_time);
      EXPECT_EQ(a[i].actors[j].response_time, b[i].actors[j].response_time);
    }
  }
}

TEST(Workbench, WcrtMatchesWorstCaseBoundsBitwise) {
  // Full systems, then every use-case against the one-shot on a copied
  // restricted System, under both policies.
  for (const auto policy :
       {wcrt::Policy::RoundRobinNonPreemptive, wcrt::Policy::TdmaPreemptive}) {
    const wcrt::WcrtOptions opts{.policy = policy};
    Workbench fig2(fig2_system(), WorkbenchOptions{.threads = 1});
    expect_bounds_equal(*fig2.wcrt(opts), wcrt::worst_case_bounds(fig2.system(), opts));

    Workbench wb(random_system(7, 4), WorkbenchOptions{.threads = 1});
    expect_bounds_equal(*wb.wcrt(opts), wcrt::worst_case_bounds(wb.system(), opts));
    for (const auto& uc : gen::all_use_cases(wb.app_count())) {
      expect_bounds_equal(
          *wb.wcrt(uc, opts),
          wcrt::worst_case_bounds(platform::SystemView(wb.system(), uc).materialise(),
                                  opts));
    }
  }
}

TEST(Workbench, SimulateMatchesSimulatorBitwise) {
  Workbench wb(fig2_system(), WorkbenchOptions{.threads = 1});
  const sim::SimOptions opts{.horizon = 100'000};
  const auto legacy = sim::simulate(wb.system(), opts);
  const auto report = wb.simulate(opts);
  ASSERT_EQ(report->apps.size(), legacy.apps.size());
  for (std::size_t i = 0; i < legacy.apps.size(); ++i) {
    EXPECT_EQ(report->apps[i].iterations, legacy.apps[i].iterations);
    EXPECT_EQ(report->apps[i].average_period, legacy.apps[i].average_period);
    EXPECT_EQ(report->apps[i].worst_period, legacy.apps[i].worst_period);
  }
  EXPECT_EQ(report->events_processed, legacy.events_processed);
}

TEST(Workbench, BufferFrontierMatchesExplorerBothPaths) {
  // The session query against the one-shot explorer.
  Workbench wb(random_system(5, 3), WorkbenchOptions{.threads = 1});
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    procon::testing::expect_same_frontier(
        *wb.buffer_frontier(i), dse::explore_buffer_tradeoff(wb.system().app(i)));
  }
}

TEST(Workbench, SweepIsThreadCountInvariant) {
  const auto sys = random_system(42, 5);
  const auto use_cases = gen::all_use_cases(sys.app_count());

  Workbench one(sys, WorkbenchOptions{.threads = 1});
  Workbench four(sys, WorkbenchOptions{.threads = 4});
  SweepOptions opts;
  opts.with_wcrt = true;
  const auto a = one.sweep_use_cases(use_cases, opts);
  const auto b = four.sweep_use_cases(use_cases, opts);

  ASSERT_EQ(a->size(), b->size());
  ASSERT_EQ(a->size(), use_cases.size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].use_case, use_cases[i]);  // deterministic result order
    expect_estimates_equal((*a)[i].estimates, (*b)[i].estimates);
    ASSERT_EQ((*a)[i].bounds.size(), (*b)[i].bounds.size());
    for (std::size_t j = 0; j < (*a)[i].bounds.size(); ++j) {
      EXPECT_EQ((*a)[i].bounds[j].worst_case_period,
                (*b)[i].bounds[j].worst_case_period);
    }
  }
}

TEST(Workbench, SweepMatchesPerUseCaseLegacyEstimates) {
  // Estimates alone, then with worst-case bounds under both policies; every
  // row is checked against the one-shots on a copied restricted System.
  const auto sys = random_system(9, 4);
  const auto use_cases = gen::all_use_cases(sys.app_count());
  Workbench wb(sys, WorkbenchOptions{.threads = 3});
  const auto swept = wb.sweep_use_cases(use_cases);
  ASSERT_EQ(swept->size(), use_cases.size());
  for (std::size_t i = 0; i < use_cases.size(); ++i) {
    const auto legacy = prob::ContentionEstimator().estimate(
        platform::SystemView(sys, use_cases[i]).materialise());
    expect_estimates_equal((*swept)[i].estimates, legacy);
    EXPECT_TRUE((*swept)[i].bounds.empty());
  }

  for (const auto policy :
       {wcrt::Policy::RoundRobinNonPreemptive, wcrt::Policy::TdmaPreemptive}) {
    SweepOptions opts;
    opts.with_wcrt = true;
    opts.wcrt.policy = policy;
    const auto bounded = wb.sweep_use_cases(use_cases, opts);
    ASSERT_EQ(bounded->size(), use_cases.size());
    for (std::size_t i = 0; i < use_cases.size(); ++i) {
      const platform::System restricted =
          platform::SystemView(sys, use_cases[i]).materialise();
      expect_estimates_equal((*bounded)[i].estimates,
                             prob::ContentionEstimator().estimate(restricted));
      expect_bounds_equal((*bounded)[i].bounds,
                          wcrt::worst_case_bounds(restricted, opts.wcrt));
    }
  }
}

TEST(Workbench, ScoreMappingsMatchesEvaluateMapping) {
  const auto sys = random_system(3, 3);
  util::Rng rng(17);
  std::vector<platform::Mapping> candidates;
  for (int k = 0; k < 8; ++k) {
    candidates.push_back(
        platform::Mapping::random(sys.apps(), sys.platform(), rng));
  }
  Workbench wb(sys, WorkbenchOptions{.threads = 2});
  const auto scores = wb.score_mappings(candidates);
  ASSERT_EQ(scores->size(), candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    EXPECT_EQ((*scores)[k], dse::evaluate_mapping(sys.apps(), sys.platform(),
                                                  candidates[k]));
  }
}

TEST(Workbench, CandidateOnMissingNodeRaisesGraphError) {
  // Three generated apps of 3-4 actors on four nodes: an actor moved to
  // node 4 (== node_count) or left on kInvalidNode must be rejected as a
  // GraphError by both scorers, never read past the per-node tables.
  util::Rng rng(3);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 4;
  auto graphs = gen::generate_graphs(rng, gopts, 3);
  platform::Platform plat = platform::Platform::homogeneous(4);
  platform::Mapping good = platform::Mapping::by_index(graphs, plat);
  const platform::System sys(std::move(graphs), std::move(plat), good);
  Workbench wb(sys, WorkbenchOptions{.threads = 2});

  for (const platform::NodeId node :
       {static_cast<platform::NodeId>(sys.platform().node_count()),
        platform::kInvalidNode}) {
    platform::Mapping bad = good;
    bad.assign(1, 0, node);
    const std::vector<platform::Mapping> candidates{good, bad};
    EXPECT_THROW((void)wb.score_mappings(candidates), sdf::GraphError)
        << "node " << node;
    EXPECT_THROW(
        (void)dse::evaluate_mapping(sys.apps(), sys.platform(), bad),
        sdf::GraphError)
        << "node " << node;
  }
  // The session is still usable after the rejected query.
  EXPECT_EQ((*wb.score_mappings(std::vector<platform::Mapping>{good}))[0],
            dse::evaluate_mapping(sys.apps(), sys.platform(), good));
}

TEST(Workbench, OptimiseMappingMatchesParentBits) {
  // Printed with %a by the annealer that this one-move-per-step loop
  // replaced, which scored batches of future moves in parallel (one to four
  // workers gave these same values). Any drift in the trajectory moves the
  // score, the acceptance count or the mapping. Checked on 1- and 4-thread
  // sessions and on the library entry point over a freshly built workspace.
  const auto sys = random_system(21, 3);
  dse::MapperOptions opts;
  opts.iterations = 250;
  opts.seed = 5;
  Workbench one(sys, WorkbenchOptions{.threads = 1});
  Workbench four(sys, WorkbenchOptions{.threads = 4});
  dse::AnalysisWorkspace ws;
  ws.sys = sys;
  for (const sdf::Graph& g : sys.apps()) ws.engines.emplace_back(g);
  const std::vector<platform::NodeId> want{3, 5, 5, 6, 2, 1, 0, 0, 6,
                                           0, 4, 0, 2, 1, 0, 2, 0};
  for (const dse::MapperResult& r :
       {one.optimise_mapping(opts).value, four.optimise_mapping(opts).value,
        dse::optimise_mapping(sys.apps(), sys.platform(), sys.mapping(), opts, ws)}) {
    EXPECT_EQ(r.score, 0x1.4cf3f2b71b39dp+0);
    EXPECT_EQ(r.initial_score, 0x1.7348e49f98b98p+0);
    EXPECT_EQ(r.evaluations, 251u);
    EXPECT_EQ(r.accepted_moves, 229u);
    std::vector<platform::NodeId> nodes;
    for (sdf::AppId i = 0; i < sys.app_count(); ++i) {
      for (sdf::ActorId act = 0; act < sys.app(i).actor_count(); ++act) {
        nodes.push_back(r.mapping.node_of(i, act));
      }
    }
    EXPECT_EQ(nodes, want);
  }
}

TEST(Workbench, InvalidQueriesThrow) {
  Workbench wb(fig2_system(), WorkbenchOptions{.threads = 1});
  EXPECT_THROW((void)wb.throughput(99), sdf::GraphError);
  EXPECT_THROW((void)wb.latency(99), sdf::GraphError);
  const platform::UseCase bogus{0, 99};
  EXPECT_THROW((void)wb.contention(bogus), std::exception);
}

TEST(Workbench, ProvenanceIsFilledIn) {
  Workbench wb(fig2_system(), WorkbenchOptions{.threads = 2});
  const auto est = wb.contention();
  EXPECT_FALSE(est.provenance.method.empty());
  EXPECT_GE(est.provenance.wall_ms, 0.0);
  const auto swept = wb.sweep_use_cases(gen::all_use_cases(wb.app_count()));
  EXPECT_EQ(swept.provenance.evaluations, 3u);  // 2^2 - 1 use-cases
  EXPECT_EQ(swept.provenance.threads, 2u);
}

}  // namespace
}  // namespace procon::api
