// api::AnalysisService — the async, multi-tenant front door:
//
//  * multi-client stress: N threads hammering one service with mixed
//    queries over two tenant systems must produce results bitwise
//    identical to a serial Workbench oracle, for any worker count;
//  * coalescing: identical in-flight queries share one execution and one
//    completion state;
//  * session LRU: eviction under a capacity bound is correctness-neutral
//    (rebuilt sessions answer identically), and bitwise-identical
//    registrations share one live session;
//  * result cache: a repeated query is served without re-execution, also
//    after its session was evicted, and a query that differs from a cached
//    one in any option executes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/service.h"
#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon {
namespace {

using api::AnalysisService;
using api::QueryDesc;
using api::QueryKind;
using api::QueryTicket;
using api::QueryValue;
using api::ServiceOptions;
using api::SystemId;
using api::TicketStatus;

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

void expect_same_estimates(const std::vector<prob::AppEstimate>& a,
                           const std::vector<prob::AppEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
    EXPECT_EQ(a[i].estimated_period, b[i].estimated_period);
    ASSERT_EQ(a[i].actors.size(), b[i].actors.size());
    for (std::size_t k = 0; k < a[i].actors.size(); ++k) {
      EXPECT_EQ(a[i].actors[k].waiting_time, b[i].actors[k].waiting_time);
      EXPECT_EQ(a[i].actors[k].response_time, b[i].actors[k].response_time);
    }
  }
}

void expect_same_sim(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.node_utilisation, b.node_utilisation);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].iterations, b.apps[i].iterations);
    EXPECT_EQ(a.apps[i].average_period, b.apps[i].average_period);
    EXPECT_EQ(a.apps[i].worst_period, b.apps[i].worst_period);
    EXPECT_EQ(a.apps[i].iteration_times, b.apps[i].iteration_times);
  }
}

/// The mixed query a stress client submits for slot k of system `sys_apps`.
QueryDesc mixed_query(std::size_t k, std::size_t sys_apps) {
  QueryDesc d;
  switch (k % 5) {
    case 0:
      d.kind = QueryKind::Throughput;
      d.app = static_cast<sdf::AppId>(k % sys_apps);
      break;
    case 1:
      d.kind = QueryKind::Contention;
      break;
    case 2:
      d.kind = QueryKind::Wcrt;
      break;
    case 3:
      d.kind = QueryKind::BufferFrontier;
      d.app = static_cast<sdf::AppId>(k % sys_apps);
      break;
    default:
      d.kind = QueryKind::Simulate;
      d.sim.horizon = 20'000;
      break;
  }
  return d;
}

TEST(AnalysisService, MultiClientStressMatchesSerialWorkbenchOracle) {
  const platform::System sys_a = random_system(11, 4);
  const platform::System sys_b = random_system(22, 5);

  // Serial oracles, evaluated once up front on plain Workbenches.
  api::Workbench oracle_a(sys_a, api::WorkbenchOptions{.threads = 1});
  api::Workbench oracle_b(sys_b, api::WorkbenchOptions{.threads = 1});
  const auto period_a0 = oracle_a.throughput(0);
  const auto period_b0 = oracle_b.throughput(0);
  const auto est_a = oracle_a.contention();
  const auto est_b = oracle_b.contention();
  const auto wc_a = oracle_a.wcrt();
  const auto wc_b = oracle_b.wcrt();
  const auto sim_a = oracle_a.simulate(sim::SimOptions{.horizon = 20'000});
  const auto sim_b = oracle_b.simulate(sim::SimOptions{.horizon = 20'000});
  std::vector<std::vector<dse::BufferPoint>> frontiers_a, frontiers_b;
  for (sdf::AppId i = 0; i < sys_a.app_count(); ++i) {
    frontiers_a.push_back(*oracle_a.buffer_frontier(i));
  }
  for (sdf::AppId i = 0; i < sys_b.app_count(); ++i) {
    frontiers_b.push_back(*oracle_b.buffer_frontier(i));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    AnalysisService service(
        ServiceOptions{.threads = workers, .session_capacity = 4});
    const SystemId a = service.register_system(sys_a);
    const SystemId b = service.register_system(sys_b);

    constexpr std::size_t kClients = 6;
    constexpr std::size_t kQueries = 24;
    std::vector<std::vector<QueryTicket>> tickets(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t k = 0; k < kQueries; ++k) {
          const bool on_a = (c + k) % 2 == 0;
          tickets[c].push_back(service.submit(
              on_a ? a : b,
              mixed_query(k, on_a ? sys_a.app_count() : sys_b.app_count())));
        }
      });
    }
    for (auto& t : clients) t.join();

    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t k = 0; k < kQueries; ++k) {
        const bool on_a = (c + k) % 2 == 0;
        const QueryValue& v = tickets[c][k].get();
        const std::size_t apps = on_a ? sys_a.app_count() : sys_b.app_count();
        switch (k % 5) {
          case 0: {
            const auto& r = std::get<api::Report<analysis::PeriodResult>>(v);
            if (k % apps == 0) {
              EXPECT_EQ(r->period, (on_a ? period_a0 : period_b0)->period);
            }
            break;
          }
          case 1: {
            const auto& r =
                std::get<api::Report<std::vector<prob::AppEstimate>>>(v);
            expect_same_estimates(*r, on_a ? *est_a : *est_b);
            break;
          }
          case 2: {
            const auto& r = std::get<api::Report<std::vector<wcrt::AppBound>>>(v);
            const auto& oracle = on_a ? *wc_a : *wc_b;
            ASSERT_EQ(r->size(), oracle.size());
            for (std::size_t i = 0; i < oracle.size(); ++i) {
              EXPECT_EQ((*r)[i].isolation_period, oracle[i].isolation_period);
              EXPECT_EQ((*r)[i].worst_case_period, oracle[i].worst_case_period);
            }
            break;
          }
          case 3: {
            const auto& r =
                std::get<api::Report<std::vector<dse::BufferPoint>>>(v);
            procon::testing::expect_same_frontier(
                *r, (on_a ? frontiers_a : frontiers_b)[k % apps]);
            break;
          }
          default: {
            const auto& r = std::get<api::Report<sim::SimResult>>(v);
            expect_same_sim(*r, on_a ? *sim_a : *sim_b);
            break;
          }
        }
      }
    }

    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, kClients * kQueries);
    // Every accepted submit is accounted exactly once: attached to an
    // in-flight twin, served from the completed-result arena, or executed.
    EXPECT_EQ(stats.submitted,
              stats.coalesced + stats.result_hits + stats.executed);
    EXPECT_LE(service.session_count(), 4u);
  }
}

TEST(AnalysisService, CoalescingSharesOneExecution) {
  AnalysisService service(ServiceOptions{.threads = 2});
  const SystemId id = service.register_system(random_system(7, 3));

  // Occupy the single background worker with a long simulation so the
  // coalescable twins stay pending long enough to attach. TDMA runs never
  // fast-forward, so this one steps every event up to the horizon.
  QueryDesc slow;
  slow.kind = QueryKind::Simulate;
  slow.sim.horizon = 3'000'000;
  slow.sim.arbitration = sim::Arbitration::Tdma;
  auto blocker = service.submit(id, slow);

  QueryDesc q;
  q.kind = QueryKind::Contention;
  auto first = service.submit(id, q);
  auto second = service.submit(id, q);
  auto third = service.submit(id, q);

  const auto& va = std::get<api::Report<std::vector<prob::AppEstimate>>>(first.get());
  const auto& vb =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(second.get());
  // Shared completion state: the coalesced tickets see the same object.
  EXPECT_EQ(&va, &vb);
  EXPECT_EQ(&std::get<api::Report<std::vector<prob::AppEstimate>>>(third.get()), &va);
  expect_same_estimates(*va, *vb);
  blocker.wait();

  service.drain();
  const auto stats = service.stats();
  EXPECT_GE(stats.coalesced, 1u);
  // blocker + exactly one contention execution (the twins attached).
  EXPECT_EQ(stats.executed, stats.submitted - stats.coalesced);
}

TEST(AnalysisService, SessionLruEvictionIsCorrectnessNeutral) {
  const platform::System sys_a = random_system(31, 3);
  const platform::System sys_b = random_system(32, 4);
  api::Workbench oracle_a(sys_a, api::WorkbenchOptions{.threads = 1});
  api::Workbench oracle_b(sys_b, api::WorkbenchOptions{.threads = 1});

  // Capacity 1: every alternation evicts and rebuilds the other session.
  // Each round asks a different query, so no round is a result-cache hit.
  AnalysisService service(
      ServiceOptions{.threads = 1, .session_capacity = 1});
  const SystemId a = service.register_system(sys_a);
  const SystemId b = service.register_system(sys_b);

  QueryDesc q;
  q.kind = QueryKind::Contention;
  for (int round = 0; round < 3; ++round) {
    q.estimator.iterations = round + 1;
    const auto va = service.submit(a, q).get();  // rvalue get(): safe copy
    expect_same_estimates(
        *std::get<api::Report<std::vector<prob::AppEstimate>>>(va),
        *oracle_a.contention(q.estimator));
    const auto vb = service.submit(b, q).get();
    expect_same_estimates(
        *std::get<api::Report<std::vector<prob::AppEstimate>>>(vb),
        *oracle_b.contention(q.estimator));
  }
  const auto stats = service.stats();
  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_EQ(stats.sessions_built, 6u);    // rebuilt on every alternation
  EXPECT_EQ(stats.sessions_evicted, 5u);  // all but the live one
}

TEST(AnalysisService, IdenticalRegistrationsShareOneSession) {
  const platform::System sys = random_system(44, 3);
  AnalysisService service(ServiceOptions{.threads = 1, .session_capacity = 4});
  const SystemId a = service.register_system(sys);
  const SystemId b = service.register_system(sys);  // bitwise identical

  QueryDesc q;
  q.kind = QueryKind::Throughput;
  q.app = 0;
  const auto va = service.submit(a, q).get();  // rvalue get(): safe copy
  const auto vb = service.submit(b, q).get();
  EXPECT_EQ(std::get<api::Report<analysis::PeriodResult>>(va)->period,
            std::get<api::Report<analysis::PeriodResult>>(vb)->period);
  EXPECT_EQ(service.session_count(), 1u);  // one shared session
  EXPECT_EQ(service.stats().sessions_built, 1u);
}

TEST(AnalysisService, FailedQueriesSurfaceThroughTheTicket) {
  AnalysisService service(ServiceOptions{.threads = 1});
  const SystemId id = service.register_system(random_system(9, 3));
  QueryDesc q;
  q.kind = QueryKind::Throughput;
  q.app = 99;  // out of range: the Workbench throws inside the worker
  auto t = service.submit(id, q);
  t.wait();
  EXPECT_EQ(t.status(), TicketStatus::Failed);
  EXPECT_THROW((void)t.get(), sdf::GraphError);
  EXPECT_THROW((void)service.submit(77, q), std::out_of_range);
}

TEST(AnalysisService, DestructionWithInFlightCoalescedTicketsIsSafe) {
  std::optional<QueryTicket> leader;
  std::optional<QueryTicket> twin;
  {
    AnalysisService service(ServiceOptions{.threads = 2});
    const SystemId id = service.register_system(random_system(63, 3));
    QueryDesc slow;  // a stepped TDMA run, as above
    slow.kind = QueryKind::Simulate;
    slow.sim.horizon = 1'000'000;
    slow.sim.arbitration = sim::Arbitration::Tdma;
    auto blocker = service.submit(id, slow);

    QueryDesc q;
    q.kind = QueryKind::Contention;
    leader.emplace(service.submit(id, q));
    twin.emplace(service.submit(id, q));
    // The service dies here with the coalesced pair still in flight: the
    // destructor drains, so both tickets complete.
  }
  // Tickets own their shared state — readable after the service is gone.
  EXPECT_EQ(leader->status(), TicketStatus::Done);
  const auto& va =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(leader->get());
  const auto& vb =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(twin->get());
  EXPECT_EQ(&va, &vb);  // one shared execution, one shared value
}

TEST(AnalysisService, ResultCacheServesRepeatsWithoutReExecution) {
  AnalysisService service(ServiceOptions{.threads = 1});
  const SystemId id = service.register_system(random_system(64, 3));
  QueryDesc q;
  q.kind = QueryKind::Contention;

  const auto first = service.submit(id, q);
  first.wait();
  // A repeat after completion (nothing in flight to coalesce with) must be
  // served from the shared-result arena, aliasing the same value.
  const auto repeat = service.submit(id, q);
  const auto& va =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(first.get());
  const auto& vb =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(repeat.get());
  EXPECT_EQ(&va, &vb);

  const auto stats = service.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.result_hits, 1u);

  // share(): the arena slot outlives every ticket AND the service.
  std::shared_ptr<const QueryValue> kept = repeat.share();
  EXPECT_EQ(&std::get<api::Report<std::vector<prob::AppEstimate>>>(*kept),
            &va);
}

TEST(AnalysisService, ResultCacheOutlivesSessionEviction) {
  // A Workbench is a pure function of its System, so a cached result stays
  // valid after the session that computed it is evicted.
  AnalysisService service(ServiceOptions{.threads = 1, .session_capacity = 1});
  const SystemId a = service.register_system(random_system(81, 3));
  const SystemId b = service.register_system(random_system(82, 3));
  QueryDesc q;
  q.kind = QueryKind::Contention;

  const auto first = service.submit(a, q);
  (void)service.submit(b, q).get();  // evicts a's session
  const auto repeat = service.submit(a, q);
  EXPECT_EQ(&repeat.get(), &first.get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.sessions_built, 2u);
  EXPECT_EQ(stats.sessions_evicted, 1u);
}

/// The direct Workbench call a query stands for.
QueryValue direct_call(api::Workbench& wb, const QueryDesc& d) {
  switch (d.kind) {
    case QueryKind::Throughput: return wb.throughput(d.app);
    case QueryKind::Latency: return wb.latency(d.app);
    case QueryKind::Bottleneck: return wb.bottleneck(d.app);
    case QueryKind::BufferFrontier: return wb.buffer_frontier(d.app, d.buffers);
    case QueryKind::Contention:
      return d.use_case.empty() ? wb.contention(d.estimator)
                                : wb.contention(d.use_case, d.estimator);
    case QueryKind::Wcrt:
      return d.use_case.empty() ? wb.wcrt(d.wcrt) : wb.wcrt(d.use_case, d.wcrt);
    case QueryKind::Simulate:
      return d.use_case.empty() ? wb.simulate(d.sim) : wb.simulate(d.use_case, d.sim);
    case QueryKind::TopologySweep:
      return wb.sweep_topologies(d.topologies,
                                 api::TopologySweepOptions{d.estimator, d.sim, d.use_case});
  }
  throw std::logic_error("direct_call: unhandled query kind");
}

template <typename T>
void expect_same(const T&, const T&) {
  ADD_FAILURE() << "no comparison for this result type";
}
void expect_same(const analysis::PeriodResult& a, const analysis::PeriodResult& b) {
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.period, b.period);
}
void expect_same(const std::vector<dse::BufferPoint>& a,
                 const std::vector<dse::BufferPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capacities, b[i].capacities);
    EXPECT_EQ(a[i].period, b[i].period);
  }
}
void expect_same(const std::vector<prob::AppEstimate>& a,
                 const std::vector<prob::AppEstimate>& b) {
  expect_same_estimates(a, b);
}
void expect_same(const std::vector<wcrt::AppBound>& a, const std::vector<wcrt::AppBound>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].isolation_period, b[i].isolation_period);
    EXPECT_EQ(a[i].worst_case_period, b[i].worst_case_period);
    ASSERT_EQ(a[i].actors.size(), b[i].actors.size());
    for (std::size_t k = 0; k < a[i].actors.size(); ++k) {
      EXPECT_EQ(a[i].actors[k].waiting_time, b[i].actors[k].waiting_time);
      EXPECT_EQ(a[i].actors[k].response_time, b[i].actors[k].response_time);
    }
  }
}
void expect_same(const sim::SimResult& a, const sim::SimResult& b) {
  expect_same_sim(a, b);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].app, b.trace[i].app);
    EXPECT_EQ(a.trace[i].actor, b.trace[i].actor);
    EXPECT_EQ(a.trace[i].node, b.trace[i].node);
  }
}
void expect_same(const std::vector<api::TopologyResult>& a,
                 const std::vector<api::TopologyResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_estimates(a[i].estimates, b[i].estimates);
    expect_same(a[i].sim, b[i].sim);
  }
}

void expect_same_value(const QueryValue& got, const QueryValue& want) {
  ASSERT_EQ(got.index(), want.index());
  std::visit(
      [&](const auto& report) {
        expect_same(*report, *std::get<std::decay_t<decltype(report)>>(want));
      },
      got);
}

/// One execution-time model per application: each actor's time is uniform
/// over [exec - spread, exec] (at least 1).
std::vector<sdf::ExecTimeModel> jittered_models(const platform::System& sys,
                                                sdf::Time spread) {
  std::vector<sdf::ExecTimeModel> models;
  for (const sdf::Graph& g : sys.apps()) {
    sdf::ExecTimeModel m;
    for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
      const sdf::Time t = g.actor(a).exec_time;
      m.push_back(sdf::ExecTimeDistribution::uniform(std::max<sdf::Time>(1, t - spread), t));
    }
    models.push_back(std::move(m));
  }
  return models;
}

TEST(AnalysisService, DistinctOptionsNeverShareAResult) {
  // For each option the coalescing key reads, a query that differs from a
  // cached one in that option alone must execute and return the direct
  // Workbench value, and the cached query must still be served as a hit.
  const platform::System sys = random_system(71, 3);
  const std::size_t nodes = sys.platform().node_count();
  api::Workbench oracle(sys, api::WorkbenchOptions{.threads = 1});

  struct Case {
    std::string field;
    QueryDesc base;
    QueryDesc variant;
  };
  std::vector<Case> cases;
  const auto add = [&](std::string field, const QueryDesc& base, auto change) {
    QueryDesc variant = base;
    change(variant);
    cases.push_back({std::move(field), base, std::move(variant)});
  };

  QueryDesc thr;
  thr.kind = QueryKind::Throughput;
  add("app", thr, [](QueryDesc& d) { d.app = 1; });

  QueryDesc est;
  est.kind = QueryKind::Contention;
  add("use_case", est, [](QueryDesc& d) { d.use_case = {0, 2}; });
  add("estimator.method", est,
      [](QueryDesc& d) { d.estimator.method = prob::Method::FourthOrder; });
  add("estimator.iterations", est, [](QueryDesc& d) { d.estimator.iterations = 3; });
  QueryDesc mth = est;
  mth.estimator.method = prob::Method::MthOrder;
  add("estimator.order", mth, [](QueryDesc& d) { d.estimator.order = 4; });
  QueryDesc mc = est;
  mc.estimator.method = prob::Method::MonteCarlo;
  mc.estimator.mc_trials = 500;
  add("estimator.mc_trials", mc, [](QueryDesc& d) { d.estimator.mc_trials = 600; });

  QueryDesc wc;
  wc.kind = QueryKind::Wcrt;
  add("wcrt.policy", wc, [](QueryDesc& d) { d.wcrt.policy = wcrt::Policy::TdmaPreemptive; });
  QueryDesc tdma = wc;
  tdma.wcrt.policy = wcrt::Policy::TdmaPreemptive;
  add("wcrt.tdma_slot", tdma, [](QueryDesc& d) { d.wcrt.tdma_slot = 5; });

  QueryDesc simq;
  simq.kind = QueryKind::Simulate;
  simq.sim.horizon = 20'000;
  add("sim.horizon", simq, [](QueryDesc& d) { d.sim.horizon = 30'000; });
  add("sim.arbitration", simq,
      [](QueryDesc& d) { d.sim.arbitration = sim::Arbitration::RoundRobin; });
  add("sim.max_events", simq, [](QueryDesc& d) { d.sim.max_events = 500; });
  add("sim.collect_trace", simq, [](QueryDesc& d) { d.sim.collect_trace = true; });
  QueryDesc stochastic = simq;
  stochastic.sim.exec_models = jittered_models(sys, 5);
  add("sim.sample_seed", stochastic, [](QueryDesc& d) { d.sim.sample_seed = 99; });
  add("sim.exec_models", stochastic,
      [&](QueryDesc& d) { d.sim.exec_models = jittered_models(sys, 6); });

  QueryDesc buf;
  buf.kind = QueryKind::BufferFrontier;
  add("buffers.max_steps", buf, [](QueryDesc& d) { d.buffers.max_steps = 1; });

  QueryDesc topo;
  topo.kind = QueryKind::TopologySweep;
  topo.sim.horizon = 20'000;
  topo.topologies = {platform::Topology{}, platform::Topology::bus(nodes, 4, 1)};
  add("topologies", topo, [&](QueryDesc& d) {
    d.topologies = {platform::Topology{}, platform::Topology::ring(nodes, 2, 1)};
  });
  QueryDesc topo_stochastic = topo;
  topo_stochastic.sim.exec_models = jittered_models(sys, 5);
  add("topology sweep sim.exec_models", topo_stochastic,
      [&](QueryDesc& d) { d.sim.exec_models = jittered_models(sys, 6); });

  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    AnalysisService service(ServiceOptions{.threads = 1});
    const SystemId id = service.register_system(sys);
    (void)service.submit(id, c.base).get();
    const api::ServiceStats before = service.stats();
    const QueryValue got = service.submit(id, c.variant).get();
    const api::ServiceStats after = service.stats();
    EXPECT_EQ(after.executed, before.executed + 1);
    EXPECT_EQ(after.result_hits, before.result_hits);
    expect_same_value(got, direct_call(oracle, c.variant));
    (void)service.submit(id, c.base).get();
    EXPECT_EQ(service.stats().result_hits, after.result_hits + 1);
  }
}

}  // namespace
}  // namespace procon
