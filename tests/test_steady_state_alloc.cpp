// Steady-state serving guarantees, enforced with an instrumented global
// allocator (util/alloc_probe.h replaces ::operator new for this binary):
//
//  * the second and every later reset(uc) + run_view() of a previously-seen
//    use-case performs ZERO heap allocations, and its results stay bitwise
//    identical to a cold rebuild of the materialised restriction;
//  * a reset(uc) of a use-case the engine has never seen performs ZERO heap
//    allocations too (its rings are rebuilt in place);
//  * a verdict-only what_if_admit probe of an LRU-cached candidate into a
//    reused WhatIfReport performs ZERO heap allocations and agrees with the
//    value-returning probe;
//  * LRU eviction is correctness-neutral: an evicted candidate re-probes
//    identically;
//  * deep fixed-point contention queries are thread-count invariant;
//  * warm Workbench::contention_view queries run entirely in the session's
//    persistent estimator workspace — ZERO heap allocations;
//  * warm mapping queries (score_mappings, optimise_mapping) score every
//    candidate in the session's worker workspace: fewer allocations per
//    query than candidates.
//
// Each warm bracket is additionally armed (util/contracts.h ArmGuard), so
// the PROCON_ASSERT_NO_ALLOC scopes inside the library's annotated warm
// paths abort at the offending call site in Debug builds.
#include "util/alloc_probe.h"  // FIRST: replaces global new/delete

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "admission/admission.h"
#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "sim/sim_engine.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace procon {
namespace {

// Hand the probe's counter to the library's PROCON_ASSERT_NO_ALLOC scopes:
// inside the ArmGuard brackets below, an allocating warm path aborts at its
// own call site (scope name + file:line) instead of only failing the
// bracket-level EXPECT afterwards. Cold passes stay unarmed and exempt.
const bool kContractScopesWired = [] {
  util::contracts::set_alloc_counter(&util::alloc_probe::allocations);
  return true;
}();

using admission::AdmissionController;
using admission::QoS;
using admission::WhatIfOptions;
using admission::WhatIfReport;
using procon::testing::fig2_graph_a;
using procon::testing::fig2_graph_b;
using procon::testing::two_actor_cycle;
using util::alloc_probe::allocations;

platform::System random_system(std::uint64_t seed, std::size_t apps) {
  util::Rng rng(seed);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 6;
  auto graphs = gen::generate_graphs(rng, gopts, apps);
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

void expect_same(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.node_utilisation, b.node_utilisation);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const sim::AppSimResult& x = a.apps[i];
    const sim::AppSimResult& y = b.apps[i];
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.converged, y.converged);
    EXPECT_EQ(x.average_period, y.average_period);  // bitwise, not NEAR
    EXPECT_EQ(x.worst_period, y.worst_period);
    EXPECT_EQ(x.iteration_times, y.iteration_times);
    ASSERT_EQ(x.actors.size(), y.actors.size());
    for (std::size_t k = 0; k < x.actors.size(); ++k) {
      EXPECT_EQ(x.actors[k].firings, y.actors[k].firings);
      EXPECT_EQ(x.actors[k].total_waiting, y.actors[k].total_waiting);
      EXPECT_EQ(x.actors[k].total_service, y.actors[k].total_service);
    }
  }
}

TEST(SteadyStateAlloc, WarmSimQueriesAreAllocationFree) {
  const platform::System sys = random_system(321, 5);
  sim::SimEngine engine(sys);
  util::Rng rng(7);
  const auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);
  ASSERT_FALSE(use_cases.empty());
  sim::SimOptions opts;
  opts.horizon = 20'000;

  // First pass: grows the iteration-time arenas.
  for (const auto& uc : use_cases) {
    engine.reset(uc);
    (void)engine.run_view(opts);
  }

  // Second pass over the same list: every query must be allocation-free.
  // The contract covers runs that take a steady-state fast-forward, so at
  // least one bracket must jump.
  std::size_t jumped = 0;
  for (const auto& uc : use_cases) {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    engine.reset(uc);
    const sim::SimResultView view = engine.run_view(opts);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "warm reset+run_view of a seen use-case allocated";
    EXPECT_EQ(view.apps.size(), uc.size());
    jumped += engine.fast_forwarded_events() > 0 ? 1 : 0;
  }
  EXPECT_GT(jumped, 0u);
}

TEST(SteadyStateAlloc, ResetOfAnUnseenUseCaseIsAllocationFree) {
  // reset(uc) rebuilds the use-case's arbitration rings in place, in
  // buffers sized at construction, so resetting to a use-case the engine
  // has never seen touches the allocator zero times.
  const platform::System sys = random_system(321, 5);
  sim::SimEngine engine(sys);
  const auto use_cases = gen::all_use_cases(sys.app_count());
  {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    for (const auto& uc : use_cases) engine.reset(uc);
    EXPECT_EQ(allocations() - before, 0u) << "reset of an unseen use-case allocated";
  }

  // The rebuilt rings give a fresh simulation's bits under every
  // arbitration (round-robin and TDMA walk the rings in order).
  for (const sim::Arbitration arb :
       {sim::Arbitration::Fcfs, sim::Arbitration::RoundRobin,
        sim::Arbitration::Tdma}) {
    sim::SimOptions opts;
    opts.horizon = 10'000;
    opts.arbitration = arb;
    for (const auto& uc : use_cases) {
      engine.reset(uc);
      expect_same(engine.run_view(opts).materialise(),
                  sim::simulate(platform::SystemView(sys, uc), opts));
    }
  }
}

TEST(SteadyStateAlloc, WarmRoutedSimQueriesAreAllocationFree) {
  // Interconnect tier: link queues, the message pool and the per-link
  // utilisation arena must all come from preallocated storage, so a warm
  // routed query is as allocation-free as an unrouted one.
  platform::System sys = random_system(555, 4);
  const std::size_t n = sys.platform().node_count();
  sys.set_topology(n == 6 ? platform::Topology::mesh(2, 3, 2, 1)
                          : platform::Topology::ring(n, 2, 1));
  sim::SimEngine engine(sys);
  util::Rng rng(17);
  const auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);
  ASSERT_FALSE(use_cases.empty());
  sim::SimOptions opts;
  opts.horizon = 20'000;

  for (const auto& uc : use_cases) {
    engine.reset(uc);
    (void)engine.run_view(opts);
  }
  for (const auto& uc : use_cases) {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    engine.reset(uc);
    const sim::SimResultView view = engine.run_view(opts);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "warm routed reset+run_view of a seen use-case allocated";
    EXPECT_EQ(view.apps.size(), uc.size());
    EXPECT_EQ(view.link_utilisation.size(),
              sys.platform().topology().link_count());
  }
}

TEST(SteadyStateAlloc, WarmLinkAwareContentionViewIsAllocationFree) {
  // The estimator's flow arenas (flows, routes, per-link grouping) are
  // workspace-owned with grow-only capacity: once a routed shape has been
  // seen, the link-aware Step-4b pass allocates nothing.
  platform::System sys = random_system(556, 4);
  sys.set_topology(platform::Topology::ring(sys.platform().node_count(), 1, 2));
  api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
  util::Rng rng(19);
  const auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);

  (void)wb.contention_view();
  for (const auto& uc : use_cases) (void)wb.contention_view(uc);

  const auto oracle = wb.contention();
  for (int rep = 0; rep < 3; ++rep) {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    const auto& report = wb.contention_view();
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "warm link-aware contention_view allocated (rep " << rep << ")";
    ASSERT_EQ(report->size(), oracle->size());
    for (std::size_t i = 0; i < oracle->size(); ++i) {
      EXPECT_EQ((*report)[i].estimated_period, (*oracle)[i].estimated_period);
    }
  }
  for (const auto& uc : use_cases) {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    const auto& report = wb.contention_view(uc);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "warm restricted link-aware contention_view allocated";
    EXPECT_EQ(report->size(), uc.size());
  }
}

TEST(SteadyStateAlloc, WarmViewsMatchColdRebuildsBitwise) {
  const platform::System sys = random_system(99, 4);
  sim::SimEngine warm(sys);
  util::Rng rng(11);
  const auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);
  for (const sim::Arbitration arb :
       {sim::Arbitration::Fcfs, sim::Arbitration::RoundRobin,
        sim::Arbitration::Tdma}) {
    sim::SimOptions opts;
    opts.horizon = 15'000;
    opts.arbitration = arb;
    for (const auto& uc : use_cases) {
      // Twice per use-case: the second pass rebuilds the rings over the
      // first's.
      for (int rep = 0; rep < 2; ++rep) {
        warm.reset(uc);
        const sim::SimResult via_view = warm.run_view(opts).materialise();
        sim::SimEngine cold(platform::SystemView(sys, uc).materialise());
        expect_same(via_view, cold.run(opts));
      }
    }
  }
}

TEST(SteadyStateAlloc, CachedWhatIfVerdictIsAllocationFree) {
  AdmissionController ctrl(platform::Platform::homogeneous(3));
  const sdf::Graph a = fig2_graph_a();
  const sdf::Graph b = fig2_graph_b();
  const std::vector<platform::NodeId> nodes_a{0, 1, 2};
  const std::vector<platform::NodeId> nodes_b{0, 1, 2};
  ASSERT_TRUE(ctrl.request(a, nodes_a, QoS{400.0}).admitted);

  WhatIfOptions verdict_only;
  verdict_only.with_estimates = false;
  WhatIfReport out;
  // First probe: builds the candidate's engine + loads and sizes every
  // scratch buffer and the report's storage.
  ctrl.what_if_admit(b, nodes_b, QoS{400.0}, out, verdict_only);
  ASSERT_TRUE(out.admissible);
  EXPECT_EQ(ctrl.candidate_cache_size(), 2u);  // admitted app + candidate

  for (int rep = 0; rep < 3; ++rep) {
    const util::contracts::ArmGuard armed;
    const std::uint64_t before = allocations();
    ctrl.what_if_admit(b, nodes_b, QoS{400.0}, out, verdict_only);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "cached verdict-only what_if_admit allocated (rep " << rep << ")";
  }
  EXPECT_TRUE(out.admissible);
  EXPECT_EQ(ctrl.candidate_cache_size(), 2u);

  // The allocation-free verdict agrees with the value-returning probe.
  const WhatIfReport full = ctrl.what_if_admit(b, nodes_b, QoS{400.0});
  EXPECT_EQ(out.admissible, full.admissible);
  EXPECT_EQ(out.predicted_period, full.predicted_period);
  EXPECT_EQ(out.peer_periods, full.peer_periods);
  EXPECT_TRUE(out.estimates.empty());   // verdict-only: no report
  EXPECT_FALSE(full.estimates.empty());

  // Nothing leaked into the controller state.
  EXPECT_EQ(ctrl.admitted_count(), 1u);
  // And the probe's request() twin commits with the same prediction.
  const admission::Decision real = ctrl.request(b, nodes_b, QoS{400.0});
  ASSERT_TRUE(real.admitted);
  EXPECT_EQ(real.predicted_period, full.predicted_period);
}

TEST(SteadyStateAlloc, LruEvictionReprobesIdentically) {
  const auto probe = [](AdmissionController& ctrl, const sdf::Graph& g) {
    return ctrl.what_if_admit(g, {0, 1}, QoS::no_requirement());
  };
  AdmissionController ctrl(platform::Platform::homogeneous(2),
                           /*candidate_cache_capacity=*/2);
  const sdf::Graph base = two_actor_cycle(8, 12);
  const sdf::Graph c1 = two_actor_cycle(10, 30);
  const sdf::Graph c2 = two_actor_cycle(14, 22);
  const sdf::Graph c3 = two_actor_cycle(18, 26);
  ASSERT_TRUE(ctrl.request(base, {0, 1}, QoS::no_requirement()).admitted);
  EXPECT_EQ(ctrl.candidate_cache_size(), 1u);

  const WhatIfReport first = probe(ctrl, c1);   // cache: {base, c1}
  EXPECT_EQ(ctrl.candidate_cache_size(), 2u);
  (void)probe(ctrl, c2);                        // evicts base
  (void)probe(ctrl, c3);                        // evicts c1
  EXPECT_EQ(ctrl.candidate_cache_size(), 2u);   // capacity respected

  // c1 was evicted: the re-probe rebuilds its state and must reproduce the
  // original report exactly.
  const WhatIfReport again = probe(ctrl, c1);
  EXPECT_EQ(again.admissible, first.admissible);
  EXPECT_EQ(again.predicted_period, first.predicted_period);
  EXPECT_EQ(again.peer_periods, first.peer_periods);
  ASSERT_EQ(again.estimates.size(), first.estimates.size());
  for (std::size_t i = 0; i < first.estimates.size(); ++i) {
    EXPECT_EQ(again.estimates[i].isolation_period,
              first.estimates[i].isolation_period);
    EXPECT_EQ(again.estimates[i].estimated_period,
              first.estimates[i].estimated_period);
  }
}

/// Every method that runs a step-4 node kernel, at one and eight passes;
/// MthOrder at order 6, whose lane rows outgrow fourth order's (order 5
/// drives a waiting time negative on 16 applications, which step 4 rejects).
std::vector<prob::EstimatorOptions> contention_methods() {
  std::vector<prob::EstimatorOptions> out;
  for (const prob::Method m :
       {prob::Method::SecondOrder, prob::Method::Exact, prob::Method::FourthOrder,
        prob::Method::MthOrder, prob::Method::Composability,
        prob::Method::CompositionInverse}) {
    for (const int passes : {1, 8}) {
      prob::EstimatorOptions o;
      o.method = m;
      o.order = 6;
      o.iterations = passes;
      out.push_back(o);
    }
  }
  return out;
}

TEST(SteadyStateAlloc, WarmContentionViewIsAllocationFree) {
  // 5 applications (5 actors a node), then 16 (16 on each of the first
  // three nodes: the node kernels' lane rows grow with the node).
  for (const std::size_t apps : {5u, 16u}) {
    const platform::System sys = random_system(77, apps);
    api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
    util::Rng rng(13);
    const auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);
    const auto methods = contention_methods();

    // Warm-up: one query per shape and method sizes the workspace, slots
    // and report.
    for (const prob::EstimatorOptions& opts : methods) {
      (void)wb.contention_view(opts);
      for (const auto& uc : use_cases) (void)wb.contention_view(uc, opts);
    }

    for (const prob::EstimatorOptions& opts : methods) {
      const std::string what = std::string(prob::method_name(opts.method)) + ", " +
                               std::to_string(opts.iterations) + " passes, " +
                               std::to_string(apps) + " apps";
      const auto oracle = wb.contention(opts);  // owning copy, same numbers
      for (int rep = 0; rep < 3; ++rep) {
        const util::contracts::ArmGuard armed;
        const std::uint64_t before = allocations();
        const auto& report = wb.contention_view(opts);
        const std::uint64_t after = allocations();
        EXPECT_EQ(after - before, 0u) << "warm contention_view allocated (rep " << rep
                                      << "; " << what << ")";
        ASSERT_EQ(report->size(), oracle->size());
        for (std::size_t i = 0; i < oracle->size(); ++i) {
          EXPECT_EQ((*report)[i].isolation_period, (*oracle)[i].isolation_period);
          EXPECT_EQ((*report)[i].estimated_period, (*oracle)[i].estimated_period);
        }
      }
      for (const auto& uc : use_cases) {
        const auto owning = wb.contention(uc, opts);
        const util::contracts::ArmGuard armed;
        const std::uint64_t before = allocations();
        const auto& report = wb.contention_view(uc, opts);
        const std::uint64_t after = allocations();
        EXPECT_EQ(after - before, 0u) << "warm restricted contention_view allocated ("
                                      << what << ")";
        ASSERT_EQ(report->size(), owning->size());
        for (std::size_t i = 0; i < owning->size(); ++i) {
          EXPECT_EQ((*report)[i].estimated_period, (*owning)[i].estimated_period);
          ASSERT_EQ((*report)[i].actors.size(), (*owning)[i].actors.size());
          for (std::size_t k = 0; k < (*owning)[i].actors.size(); ++k) {
            EXPECT_EQ((*report)[i].actors[k].waiting_time,
                      (*owning)[i].actors[k].waiting_time);
          }
        }
      }
    }
  }
}

TEST(SteadyStateAlloc, DeepFixedPointContentionIsThreadCountInvariant) {
  const platform::System sys = random_system(2024, 5);
  prob::EstimatorOptions deep;
  deep.iterations = 4;  // fixed-point passes

  api::Workbench serial(sys, api::WorkbenchOptions{.threads = 1});
  api::Workbench sharded(sys, api::WorkbenchOptions{.threads = 4});
  const auto a = serial.contention(deep);
  const auto b = sharded.contention(deep);
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].isolation_period, (*b)[i].isolation_period);
    EXPECT_EQ((*a)[i].estimated_period, (*b)[i].estimated_period);
    ASSERT_EQ((*a)[i].actors.size(), (*b)[i].actors.size());
    for (std::size_t k = 0; k < (*a)[i].actors.size(); ++k) {
      EXPECT_EQ((*a)[i].actors[k].waiting_time, (*b)[i].actors[k].waiting_time);
      EXPECT_EQ((*a)[i].actors[k].response_time, (*b)[i].actors[k].response_time);
    }
  }

  // And the restricted deep query agrees with the one-shot estimator on the
  // materialised restriction.
  const platform::UseCase uc{0, 2, 4};
  const auto restricted = sharded.contention(uc, deep);
  const auto oracle = prob::ContentionEstimator(deep).estimate(
      platform::SystemView(sys, uc));
  ASSERT_EQ(restricted->size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ((*restricted)[i].estimated_period, oracle[i].estimated_period);
  }

  // Duplicate use-case entries alias one engine across view slots; the deep
  // query must still match the one-shot estimator.
  const platform::UseCase dup{1, 1};
  const auto dup_deep = sharded.contention(dup, deep);
  const auto dup_oracle = prob::ContentionEstimator(deep).estimate(
      platform::SystemView(sys, dup));
  ASSERT_EQ(dup_deep->size(), dup_oracle.size());
  for (std::size_t i = 0; i < dup_oracle.size(); ++i) {
    EXPECT_EQ((*dup_deep)[i].estimated_period, dup_oracle[i].estimated_period);
  }
}

// A warm Workbench::sweep_use_cases runs in per-worker scratch (view,
// estimator and WCRT workspaces, engine list) kept beside the worker's
// engine clones, so it allocates only what it returns: the result vector,
// each item's use-case copy, estimate and bound vectors and their per-app
// actor vectors, the provenance string and the pool's job wrapper.
TEST(SteadyStateAlloc, WarmSweepAllocatesOnlyItsResults) {
  const platform::System sys = random_system(31, 5);
  const auto use_cases = gen::all_use_cases(sys.app_count());
  for (const bool with_wcrt : {false, true}) {
    std::uint64_t bound = 1 + 2 + 1;  // result vector, provenance, job wrapper
    for (const auto& uc : use_cases) {
      bound += 2 + uc.size();  // use-case copy, estimates, actor vectors
      if (with_wcrt) bound += 1 + uc.size();  // bounds, actor vectors
    }
    api::SweepOptions opts;
    opts.with_wcrt = with_wcrt;
    std::vector<api::UseCaseResult> serial;
    for (const std::size_t threads : {1u, 2u}) {
      api::Workbench wb(sys, api::WorkbenchOptions{.threads = threads});
      (void)wb.sweep_use_cases(use_cases, opts);  // sizes the worker scratch
      // With one worker the second sweep repeats the first item for item.
      // With two, the pool hands items out dynamically, so a worker can
      // meet an item shape (or its first item at all) only in a later sweep,
      // and its grow-only scratch grows once more then: it must settle
      // within a few sweeps, never allocate per item.
      std::uint64_t used = 0;
      api::Report<std::vector<api::UseCaseResult>> report;
      for (int sweep = 0; sweep < (threads == 1 ? 1 : 10); ++sweep) {
        const std::uint64_t before = allocations();
        report = wb.sweep_use_cases(use_cases, opts);
        used = allocations() - before;
        if (used <= bound) break;
      }
      EXPECT_LE(used, bound) << "threads " << threads << " with_wcrt " << with_wcrt;
      // Reused scratch keeps the bits: a settled two-worker sweep equals
      // the serial one.
      if (serial.empty()) {
        serial = report.value;
        continue;
      }
      ASSERT_EQ(report->size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ((*report)[i].estimates.size(), serial[i].estimates.size());
        for (std::size_t k = 0; k < serial[i].estimates.size(); ++k) {
          EXPECT_EQ((*report)[i].estimates[k].estimated_period,
                    serial[i].estimates[k].estimated_period);
        }
        ASSERT_EQ((*report)[i].bounds.size(), serial[i].bounds.size());
        for (std::size_t k = 0; k < serial[i].bounds.size(); ++k) {
          EXPECT_EQ((*report)[i].bounds[k].worst_case_period,
                    serial[i].bounds[k].worst_case_period);
        }
      }
    }
  }
}

// A mapping candidate is scored in its workspace's engine list, estimator
// scratch, result slots and view, so a warm query allocates only its result
// and fixed per-query state, never per scored candidate.
TEST(SteadyStateAlloc, WarmMappingQueriesAllocateLessThanOncePerCandidate) {
  util::Rng rng(2007);
  auto graphs = gen::generate_graphs(rng, {}, 5);
  platform::Platform plat = platform::Platform::homogeneous(10);
  platform::Mapping start = platform::Mapping::load_balanced(graphs, plat);
  api::Workbench wb(platform::System(std::move(graphs), std::move(plat), std::move(start)),
                    api::WorkbenchOptions{.threads = 1});

  dse::MapperOptions anneal;
  anneal.iterations = 200;
  (void)wb.optimise_mapping(anneal);  // sizes the workspace
  const std::uint64_t before_anneal = allocations();
  (void)wb.optimise_mapping(anneal);
  EXPECT_LT(allocations() - before_anneal, anneal.iterations + 1);

  util::Rng pick(17);
  std::vector<platform::Mapping> candidates;
  for (int k = 0; k < 50; ++k) {
    candidates.push_back(
        platform::Mapping::random(wb.system().apps(), wb.system().platform(), pick));
  }
  (void)wb.score_mappings(candidates);
  const std::uint64_t before_score = allocations();
  (void)wb.score_mappings(candidates);
  EXPECT_LT(allocations() - before_score, candidates.size());
}

}  // namespace
}  // namespace procon
