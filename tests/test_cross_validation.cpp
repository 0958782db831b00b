// Cross-validation of the four period-analysis engines on random graphs,
// of ThroughputEngine::recompute against the fresh compute_period path, and
// of its latency and bottleneck against the explicit-HSDF test oracle.
//
// The engines make very different trade-offs (policy iteration, parametric
// search, exhaustive cycle enumeration, state-space execution) but must
// agree on every consistent graph; this is the safety net under the
// warm-start optimisation: a warm-started Howard run that converged to a
// non-maximal cycle would show up here immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/howard.h"
#include "analysis/state_space.h"
#include "analysis/throughput.h"
#include "analysis_oracle.h"
#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "sdf/algorithms.h"
#include "sdf/exec_time.h"
#include "sdf/repetition.h"
#include "util/rng.h"

namespace procon::analysis {
namespace {

using procon::testing::build_solver;
using procon::testing::estimate_per_actor;
using procon::testing::expand_to_hsdf;
using procon::testing::Hsdf;
using procon::testing::HsdfEdge;
using procon::testing::HsdfNode;
using procon::testing::mcr_binary_search;
using procon::testing::mcr_enumerate;
using procon::testing::mcr_howard;
using procon::testing::McrResult;

double rel_tol(double reference) { return 1e-6 * std::max(1.0, reference); }

TEST(CrossValidation, AllEnginesAgreeOnRandomGraphs) {
  util::Rng rng(20070604);
  gen::GeneratorOptions gopts;  // paper defaults: 8-10 actors, q <= 4
  const auto graphs = gen::generate_graphs(rng, gopts, 20, "xv");

  for (const sdf::Graph& g : graphs) {
    const sdf::Graph closed = g.with_self_loops();
    const auto q = sdf::compute_repetition_vector(closed);
    ASSERT_TRUE(q.has_value()) << g.name();
    const Hsdf h = expand_to_hsdf(closed, *q);

    const McrResult howard = mcr_howard(h);
    const McrResult binary = mcr_binary_search(h);
    ASSERT_FALSE(howard.deadlocked) << g.name();
    ASSERT_FALSE(binary.deadlocked) << g.name();
    ASSERT_TRUE(howard.has_cycle) << g.name();
    EXPECT_NEAR(howard.ratio, binary.ratio, rel_tol(binary.ratio)) << g.name();

    const StateSpaceResult ss = self_timed_period(closed);
    ASSERT_TRUE(ss.converged) << g.name();
    ASSERT_FALSE(ss.deadlocked) << g.name();
    EXPECT_NEAR(howard.ratio, ss.period.to_double(), rel_tol(ss.period.to_double()))
        << g.name();
  }
}

TEST(CrossValidation, EnumerationAgreesOnSmallGraphs) {
  util::Rng rng(42);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 4;
  gopts.max_actors = 6;
  gopts.max_repetition = 2;  // keeps HSDF expansions enumerable
  const auto graphs = gen::generate_graphs(rng, gopts, 20, "small");

  std::size_t enumerated = 0;
  for (const sdf::Graph& g : graphs) {
    const sdf::Graph closed = g.with_self_loops();
    const auto q = sdf::compute_repetition_vector(closed);
    ASSERT_TRUE(q.has_value()) << g.name();
    const Hsdf h = expand_to_hsdf(closed, *q);
    if (h.node_count() > 24) continue;
    ++enumerated;

    const McrResult howard = mcr_howard(h);
    const McrResult exact = mcr_enumerate(h);
    ASSERT_EQ(howard.deadlocked, exact.deadlocked) << g.name();
    ASSERT_EQ(howard.has_cycle, exact.has_cycle) << g.name();
    EXPECT_NEAR(howard.ratio, exact.ratio, rel_tol(exact.ratio)) << g.name();
  }
  EXPECT_GE(enumerated, 10u);  // the guard must not skip the whole sample
}

TEST(CrossValidation, EngineRecomputeMatchesFreshComputePeriod) {
  util::Rng rng(20070613);
  gen::GeneratorOptions gopts;
  const auto graphs = gen::generate_graphs(rng, gopts, 20, "eng");

  for (const sdf::Graph& g : graphs) {
    ThroughputEngine engine(g);
    ASSERT_EQ(engine.actor_count(), g.actor_count());

    // Default times first: engine vs fresh path.
    const PeriodResult fresh0 = compute_period(g);
    const PeriodResult cached0 = engine.recompute();
    ASSERT_EQ(fresh0.deadlocked, cached0.deadlocked) << g.name();
    EXPECT_NEAR(cached0.period, fresh0.period, 1e-9 * std::max(1.0, fresh0.period))
        << g.name();

    // Randomised execution-time sequences: the engine warm-starts from one
    // assignment to the next and must stay identical to a fresh analysis.
    std::vector<double> times(g.actor_count());
    for (int round = 0; round < 10; ++round) {
      for (double& t : times) t = rng.uniform_real(1.0, 100.0);
      const PeriodResult fresh = compute_period(g, times);
      const PeriodResult cached = engine.recompute(times);
      ASSERT_EQ(fresh.deadlocked, cached.deadlocked) << g.name();
      EXPECT_NEAR(cached.period, fresh.period, 1e-9 * std::max(1.0, fresh.period))
          << g.name() << " round " << round;
    }
  }
}

// The isolation memo of a reset() engine must be invisible: a reused engine
// running reset() -> recompute(...) cycles returns, call for call, the bits
// of a fresh engine (whose first recompute is a real cold solve) running
// the same cycle. That includes the warm recomputes right after a memo hit,
// which start from the installed policy, and cold recomputes with explicit
// times, which must solve rather than return the memo.
TEST(CrossValidation, EngineIsolationMemoReplaysColdSolveBitwise) {
  util::Rng rng(20070617);
  gen::GeneratorOptions gopts;
  auto graphs = gen::generate_graphs(rng, gopts, 12, "memo");
  graphs.push_back(procon::testing::fig2_graph_a());
  graphs.push_back(procon::testing::fig2_graph_b());

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const sdf::Graph& g : graphs) {
    const std::size_t n = g.actor_count();
    std::vector<double> own(n), means(n);
    for (sdf::ActorId a = 0; a < n; ++a) {
      const sdf::Time t = g.actor(a).exec_time;
      own[a] = static_cast<double>(t);
      means[a] = sdf::ExecTimeDistribution::uniform(t / 2, t + t / 2 + 1).mean();
    }
    // Each cycle: the times of its cold call (empty = the graph's own, the
    // memoised case), then warm calls. Warm empty calls are not cold, so
    // they solve too.
    struct Cycle {
      std::vector<double> cold;
      std::vector<std::vector<double>> warm;
    };
    std::vector<Cycle> cycles;
    for (int c = 0; c < 8; ++c) {
      Cycle cycle;
      if (c == 3) cycle.cold = means;  // stochastic means: bypass the memo
      if (c == 5) cycle.cold = own;    // explicit own times: bypass too
      for (int k = 0; k < 3; ++k) {
        std::vector<double> times(n);
        for (double& t : times) t = rng.uniform_real(1.0, 100.0);
        cycle.warm.push_back(k == 1 ? std::vector<double>{} : times);
      }
      if (c % 2 == 1) cycle.warm.push_back(means);
      cycles.push_back(std::move(cycle));
    }

    ThroughputEngine reused(g);
    for (std::size_t c = 0; c < cycles.size(); ++c) {
      reused.reset();
      ThroughputEngine fresh(g);
      const PeriodResult cold = reused.recompute(cycles[c].cold);
      const PeriodResult cold_ref = fresh.recompute(cycles[c].cold);
      ASSERT_EQ(cold.deadlocked, cold_ref.deadlocked) << g.name();
      EXPECT_EQ(bits(cold.period), bits(cold_ref.period))
          << g.name() << " cycle " << c << " cold";
      for (std::size_t k = 0; k < cycles[c].warm.size(); ++k) {
        const PeriodResult warm = reused.recompute(cycles[c].warm[k]);
        const PeriodResult warm_ref = fresh.recompute(cycles[c].warm[k]);
        EXPECT_EQ(bits(warm.period), bits(warm_ref.period))
            << g.name() << " cycle " << c << " warm " << k;
      }
    }
  }
}

TEST(CrossValidation, EngineHandlesPaperGraphsAndPerturbations) {
  const sdf::Graph g = procon::testing::fig2_graph_a();
  ThroughputEngine engine(g);
  EXPECT_NEAR(engine.recompute().period, 300.0, 1e-9);
  // The paper's Section 3.1 response times, via the warm-started path.
  const std::vector<double> response{100.0 + 25.0 / 3.0, 50.0 + 50.0 / 3.0,
                                     100.0 + 50.0 / 3.0};
  EXPECT_NEAR(engine.recompute(response).period, 1075.0 / 3.0, 1e-9);
  // And back: warm-start must not be sticky.
  EXPECT_NEAR(engine.recompute().period, 300.0, 1e-9);
}

TEST(CrossValidation, EngineReportsStructuralDeadlock) {
  sdf::Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 1, 1, 0);
  g.add_channel(b, a, 1, 1, 0);
  ThroughputEngine engine(g);
  EXPECT_TRUE(engine.structurally_deadlocked());
  EXPECT_TRUE(engine.recompute().deadlocked);
}

TEST(CrossValidation, EngineRejectsInconsistentGraphs) {
  sdf::Graph g;
  const auto a = g.add_actor("a", 1);
  const auto b = g.add_actor("b", 1);
  g.add_channel(a, b, 2, 1, 0);
  g.add_channel(b, a, 2, 1, 0);
  EXPECT_THROW((void)ThroughputEngine(g), sdf::GraphError);
}

TEST(CrossValidation, HowardFindsCycleBehindSinkDrain) {
  // Regression: with the initial policy pointing 0 -> 2 (a sink), the walk
  // drains without finding a cycle and the improvement step used to skip
  // the -inf tail, never discovering the 0 <-> 1 cycle (ratio 2/2 = 1).
  // Unreachable through ThroughputEngine (self-loop closure leaves no
  // sinks) but HowardSolver must handle open expansions.
  Hsdf h;
  h.nodes = {HsdfNode{0, 0, 1.0}, HsdfNode{1, 0, 1.0}, HsdfNode{2, 0, 1.0}};
  h.edges = {HsdfEdge{0, 2, 1}, HsdfEdge{0, 1, 1}, HsdfEdge{1, 0, 1}};
  const McrResult howard = mcr_howard(h);
  const McrResult binary = mcr_binary_search(h);
  ASSERT_TRUE(howard.has_cycle);
  ASSERT_FALSE(howard.deadlocked);
  EXPECT_NEAR(howard.ratio, 1.0, 1e-12);
  EXPECT_NEAR(howard.ratio, binary.ratio, 1e-9);
}

TEST(CrossValidation, EngineRejectsWrongRepetitionVector) {
  const sdf::Graph g = procon::testing::fig2_graph_a();
  const sdf::Graph closed = g.with_self_loops();
  sdf::RepetitionVector wrong(closed.actor_count(), 1);  // true q is [1 2 1]
  const EngineOptions opts{.assume_closed = true, .repetition = &wrong};
  EXPECT_THROW((void)ThroughputEngine(closed, opts), sdf::GraphError);
}

TEST(CrossValidation, EngineRejectsWrongTimesSize) {
  ThroughputEngine engine(procon::testing::fig2_graph_a());
  const std::vector<double> wrong(2, 1.0);
  EXPECT_THROW((void)engine.recompute(wrong), sdf::GraphError);
}

// The engine closes the graph inside its expansion (self-loop candidate
// edges appended to the channel candidates) instead of expanding a
// with_self_loops() copy. dedup_candidates sorts the list, so the edge set,
// the CSR order and every Howard round must be those of the copy: the
// reference below is exactly that construction, a HowardSolver built on
// expand_to_hsdf(g.with_self_loops(), q), driven through the same cold,
// warm and memo sequence.
TEST(CrossValidation, OnePassEngineMatchesClosedCopyBitwise) {
  util::Rng rng(20070620);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 10;
  auto graphs = gen::generate_graphs(rng, gopts, 2000, "one");
  // Existing self-loops: has_self_loop counts equal rates with >= 1 token,
  // so these actors get no closure loop; the others still do. A rate-2
  // loop holding one token deadlocks its actor.
  const std::size_t base = graphs.size();
  for (std::size_t i = 0; i < base; i += 8) {
    for (const auto& [rate, tokens] : {std::pair<std::uint32_t, std::uint64_t>{1, 1},
                                       {1, 3},
                                       {2, 2},
                                       {2, 1}}) {
      sdf::Graph g = graphs[i];
      const auto a = static_cast<sdf::ActorId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.actor_count()) - 1));
      g.add_channel(a, a, rate, rate, tokens);
      graphs.push_back(std::move(g));
    }
  }

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t compared = 0;
  for (const sdf::Graph& g : graphs) {
    const sdf::Graph closed = g.with_self_loops();
    const auto q = sdf::compute_repetition_vector(closed);
    ASSERT_TRUE(q.has_value()) << g.name();
    const Hsdf h = expand_to_hsdf(closed, *q);
    const std::size_t n = g.actor_count();
    std::vector<std::vector<double>> warm(6, std::vector<double>(n));
    for (auto& times : warm) {
      for (double& t : times) t = rng.uniform_real(1.0, 100.0);
    }
    std::vector<double> own(n);
    for (sdf::ActorId a = 0; a < n; ++a) own[a] = static_cast<double>(g.actor(a).exec_time);

    const EngineOptions variants[] = {{},
                                      {.repetition = &*q},
                                      {.assume_closed = true},
                                      {.assume_closed = true, .repetition = &*q}};
    for (std::size_t v = 0; v < std::size(variants); ++v) {
      ThroughputEngine engine(variants[v].assume_closed ? closed : g, variants[v]);
      HowardSolver ref;
      build_solver(ref, h);
      ASSERT_EQ(engine.node_count(), h.node_count()) << g.name() << " variant " << v;
      ASSERT_EQ(engine.structurally_deadlocked(), ref.deadlocked()) << g.name();
      ASSERT_EQ(engine.has_cycle(), ref.has_cycle()) << g.name();
      ++compared;
      if (ref.deadlocked()) {
        EXPECT_TRUE(engine.recompute().deadlocked) << g.name();
        continue;
      }

      std::vector<double> weights(h.node_count());
      const auto ref_solve = [&](std::span<const double> times) {
        for (std::size_t k = 0; k < weights.size(); ++k) {
          weights[k] = times[h.nodes[k].source_actor];
        }
        ref.set_node_weights(weights);
        return ref.solve();
      };
      engine.reset();
      ASSERT_EQ(bits(engine.recompute().period), bits(ref_solve(own)))
          << g.name() << " variant " << v << " isolation";
      for (std::size_t k = 0; k < warm.size(); ++k) {
        ASSERT_EQ(bits(engine.recompute(warm[k]).period), bits(ref_solve(warm[k])))
            << g.name() << " variant " << v << " warm " << k;
      }
      // Memo replay: the engine installs its stored isolation policy; the
      // reference cold-solves again, and the next warm solve starts from it.
      engine.reset();
      ref.reset();
      ASSERT_EQ(bits(engine.recompute().period), bits(ref_solve(own)))
          << g.name() << " variant " << v << " memo";
      ASSERT_EQ(bits(engine.recompute(warm[0]).period), bits(ref_solve(warm[0])))
          << g.name() << " variant " << v << " warm after memo";
    }
  }
  EXPECT_EQ(compared, 4 * graphs.size());
}

// ThroughputEngine::latency() and bottleneck() run on the engine's CSR;
// the oracle rebuilds compute_latency and find_bottleneck on the explicit
// HSDF of g.with_self_loops(). Both edge lists are sorted, so each node's
// out-edges come in ascending destination order in either, and the Kahn
// order, the Howard rounds and every result bit must agree: for the
// one-shots (half of the graphs under fractional time overrides), for a
// Workbench session's engines in any query order, and for deadlocked
// graphs, which the latency rejects and the bottleneck flags.
TEST(CrossValidation, EngineLatencyAndBottleneckMatchHsdfOracle) {
  util::Rng rng(2007);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 10;
  std::vector<sdf::Graph> graphs{procon::testing::fig2_graph_a(),
                                 procon::testing::fig2_graph_b(),
                                 procon::testing::fig2_graph_b_reversed(),
                                 procon::testing::two_actor_cycle(30, 70)};
  for (sdf::Graph& g : gen::generate_graphs(rng, gopts, 1200, "lat")) {
    graphs.push_back(std::move(g));
  }

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_same_latency = [&](const GraphLatencyResult& got,
                                       const GraphLatencyResult& want,
                                       const std::string& what) {
    EXPECT_EQ(bits(got.latency), bits(want.latency)) << what;
    EXPECT_EQ(got.critical_actors, want.critical_actors) << what;
  };
  const auto expect_same_bottleneck = [&](const BottleneckReport& got,
                                          const BottleneckReport& want,
                                          const std::string& what) {
    EXPECT_EQ(got.deadlocked, want.deadlocked) << what;
    EXPECT_EQ(bits(got.period), bits(want.period)) << what;
    EXPECT_EQ(got.actors, want.actors) << what;
  };

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const sdf::Graph& g = graphs[i];
    std::vector<double> times;  // empty: the graph's own times
    if (i % 2 == 1) {
      for (const sdf::Actor& a : g.actors()) {
        times.push_back(static_cast<double>(a.exec_time) * (1.0 + rng.uniform01()));
      }
    }
    expect_same_latency(compute_latency(g, times), testing::hsdf_latency(g, times),
                        g.name() + " latency");
    expect_same_bottleneck(find_bottleneck(g, times), testing::hsdf_bottleneck(g, times),
                           g.name() + " bottleneck");
  }

  // Sessions of up to ten applications, queried in two orders: a bottleneck
  // leaves the engine warm, a throughput query installs the isolation memo.
  for (std::size_t first = 0; first < graphs.size(); first += 10) {
    const std::vector<sdf::Graph> apps(
        graphs.begin() + static_cast<std::ptrdiff_t>(first),
        graphs.begin() + static_cast<std::ptrdiff_t>(std::min(first + 10, graphs.size())));
    std::size_t nodes = 0;
    for (const sdf::Graph& g : apps) nodes = std::max(nodes, g.actor_count());
    const platform::Platform plat = platform::Platform::homogeneous(nodes);
    api::Workbench wb(platform::System(apps, plat, platform::Mapping::by_index(apps, plat)),
                      api::WorkbenchOptions{.threads = 1});
    for (sdf::AppId app = 0; app < apps.size(); ++app) {
      const sdf::Graph& g = apps[app];
      const GraphLatencyResult want_latency = testing::hsdf_latency(g);
      const BottleneckReport want_bottleneck = testing::hsdf_bottleneck(g);
      expect_same_bottleneck(wb.bottleneck(app).value, want_bottleneck,
                             g.name() + " session bottleneck");
      expect_same_latency(wb.latency(app).value, want_latency, g.name() + " session latency");
      (void)wb.throughput(app);
      expect_same_bottleneck(wb.bottleneck(app).value, want_bottleneck,
                             g.name() + " session bottleneck after throughput");
      expect_same_latency(wb.latency(app).value, want_latency,
                          g.name() + " session latency after bottleneck");
    }
  }

  // Deadlocks: every token removed from every fifth graph's channels.
  std::size_t deadlocked = 0;
  for (std::size_t i = 0; i < graphs.size(); i += 5) {
    sdf::Graph g(graphs[i].name() + "/dry");
    for (const sdf::Actor& a : graphs[i].actors()) g.add_actor(a.name, a.exec_time);
    for (const sdf::Channel& ch : graphs[i].channels()) {
      g.add_channel(ch.src, ch.dst, ch.prod_rate, ch.cons_rate, 0);
    }
    const BottleneckReport want = testing::hsdf_bottleneck(g);
    expect_same_bottleneck(find_bottleneck(g), want, g.name());
    if (!want.deadlocked) continue;
    ++deadlocked;
    EXPECT_THROW((void)testing::hsdf_latency(g), sdf::GraphError) << g.name();
    EXPECT_THROW((void)compute_latency(g), sdf::GraphError) << g.name();
  }
  EXPECT_GT(deadlocked, 200u);
}

// The admission controller validates a new application with its engine
// alone: the constructor throws for exactly the inconsistent graphs and
// structurally_deadlocked() holds for exactly the consistent graphs that
// is_deadlock_free rejects.
TEST(CrossValidation, EngineVerdictsMatchStructuralChecks) {
  util::Rng rng(20070621);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 8;
  const auto graphs = gen::generate_graphs(rng, gopts, 500, "verdict");

  std::size_t mutants = 0, inconsistent = 0, deadlocked = 0;
  for (const sdf::Graph& g : graphs) {
    for (int m = 0; m < 40; ++m) {
      sdf::Graph mutant(g.name());
      for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
        mutant.add_actor(g.actor(a).name, g.actor(a).exec_time);
      }
      for (const sdf::Channel& ch : g.channels()) {
        sdf::Channel c = ch;
        switch (rng.uniform_int(0, 7)) {  // most channels stay as they are
          case 0: c.prod_rate += 1; break;
          case 1: c.initial_tokens /= 2; break;
          case 2: c.initial_tokens = 0; break;
          default: break;
        }
        mutant.add_channel(c.src, c.dst, c.prod_rate, c.cons_rate, c.initial_tokens);
      }
      const auto pick = [&] {
        return static_cast<sdf::ActorId>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.actor_count()) - 1));
      };
      if (rng.bernoulli(0.15)) {
        const sdf::ActorId a = pick();
        mutant.add_channel(a, a, 1, 1, 0);  // zero-token self-loop
      }
      if (rng.bernoulli(0.1)) {
        const sdf::ActorId a = pick();
        mutant.add_channel(a, a, 2, 3, 1);  // rate-mismatched self-loop
      }
      ++mutants;
      if (!sdf::is_consistent(mutant)) {
        ++inconsistent;
        EXPECT_THROW((void)ThroughputEngine(mutant), sdf::GraphError) << m;
        continue;
      }
      const ThroughputEngine engine(mutant);
      const bool live = sdf::is_deadlock_free(mutant);
      deadlocked += live ? 0 : 1;
      ASSERT_EQ(engine.structurally_deadlocked(), !live) << g.name() << " mutant " << m;
    }
  }
  EXPECT_EQ(mutants, 20000u);
  // Both verdicts must be exercised in numbers, not by a handful of cases.
  EXPECT_GT(inconsistent, 2000u);
  EXPECT_GT(deadlocked, 2000u);
  EXPECT_GT(mutants - inconsistent - deadlocked, 2000u);
}

// ---- Figure 4 step 4: node kernels against the per-actor reference -----------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field of every estimate, bit for bit; returns the first mismatch.
std::string first_mismatch(const std::vector<prob::AppEstimate>& got,
                           const std::vector<prob::AppEstimate>& want) {
  if (got.size() != want.size()) return "app count";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!same_bits(got[i].isolation_period, want[i].isolation_period)) {
      return "app " + std::to_string(i) + " isolation_period";
    }
    if (!same_bits(got[i].estimated_period, want[i].estimated_period)) {
      return "app " + std::to_string(i) + " estimated_period";
    }
    if (got[i].actors.size() != want[i].actors.size()) return "app " + std::to_string(i);
    for (std::size_t k = 0; k < want[i].actors.size(); ++k) {
      if (!same_bits(got[i].actors[k].waiting_time, want[i].actors[k].waiting_time) ||
          !same_bits(got[i].actors[k].response_time, want[i].actors[k].response_time)) {
        return "app " + std::to_string(i) + " actor " + std::to_string(k);
      }
    }
  }
  return {};
}

/// The estimate_dense system of the benchmark: 20 generated graphs, then
/// `extra`, with actor j of every application on node j.
platform::System dense_system(std::uint64_t app_seed, std::vector<sdf::Graph> extra = {}) {
  util::Rng rng(app_seed);
  std::vector<sdf::Graph> graphs = gen::generate_graphs(rng, gen::GeneratorOptions{}, 20);
  for (sdf::Graph& g : extra) graphs.push_back(std::move(g));
  std::size_t max_actors = 0;
  for (const sdf::Graph& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

/// Every method that runs a step-4 node kernel, with `passes` fixed-point
/// passes; MthOrder at `order`.
std::vector<prob::EstimatorOptions> node_methods(int passes, int order) {
  std::vector<prob::EstimatorOptions> out;
  for (const prob::Method m :
       {prob::Method::Exact, prob::Method::SecondOrder, prob::Method::FourthOrder,
        prob::Method::MthOrder, prob::Method::Composability,
        prob::Method::CompositionInverse}) {
    prob::EstimatorOptions o;
    o.method = m;
    o.order = order;
    o.iterations = passes;
    out.push_back(o);
  }
  return out;
}

/// Runs estimate_into and the per-actor reference on `uc` with the same
/// engines, each from a reset() engine state, and compares every bit. An
/// estimate may throw (an odd truncation order can drive a waiting time
/// below zero near saturation, which step 4 rejects); then both must throw
/// the same error.
void expect_step4_matches(const platform::System& sys, const platform::UseCase& uc,
                          std::vector<ThroughputEngine>& engines,
                          const prob::EstimatorOptions& opts, prob::EstimatorWorkspace& ws,
                          const std::string& what) {
  const platform::SystemView view(sys, uc);
  std::vector<ThroughputEngine*> ptrs;
  for (const sdf::AppId a : uc) ptrs.push_back(&engines[a]);
  std::vector<prob::AppEstimate> got(uc.size());
  std::vector<prob::AppEstimate> want;
  std::string got_error;
  std::string want_error;
  for (ThroughputEngine* e : ptrs) e->reset();
  try {
    prob::ContentionEstimator(opts).estimate_into(view, {}, ptrs, ws, got);
  } catch (const std::exception& ex) {
    got_error = ex.what();
  }
  for (ThroughputEngine* e : ptrs) e->reset();
  try {
    estimate_per_actor(view, ptrs, opts, want);
  } catch (const std::exception& ex) {
    want_error = ex.what();
  }
  const std::string bad = !got_error.empty() || !want_error.empty()
                              ? (got_error == want_error ? "" : got_error + " vs " + want_error)
                              : first_mismatch(got, want);
  EXPECT_TRUE(bad.empty()) << what << " method " << prob::method_name(opts.method)
                           << " order " << opts.order << " passes " << opts.iterations
                           << ": " << bad;
}

TEST(CrossValidation, EstimatorStep4MatchesPerActorReference) {
  // Every use-case runs every method at one pass (MthOrder at orders 1..7 in
  // turn) and one method, in turn, at eight passes.
  std::size_t use_cases = 0;
  for (const std::uint64_t app_seed : {2007u, 4099u}) {
    const platform::System sys = dense_system(app_seed);
    std::vector<ThroughputEngine> engines;
    for (const sdf::Graph& g : sys.apps()) engines.emplace_back(g);
    prob::EstimatorWorkspace ws;  // reused, as a session holds it
    util::Rng rng(app_seed + 1);
    const std::vector<platform::UseCase> ucs = gen::sample_use_cases(20, 28, rng);
    for (std::size_t u = 0; u < ucs.size(); ++u) {
      const int order = 1 + static_cast<int>(u % 7);
      std::vector<prob::EstimatorOptions> configs = node_methods(1, order);
      configs.push_back(node_methods(8, order)[u % configs.size()]);
      for (const prob::EstimatorOptions& opts : configs) {
        expect_step4_matches(sys, ucs[u], engines, opts, ws,
                             "app seed " + std::to_string(app_seed) + " use-case " +
                                 std::to_string(u));
      }
      ++use_cases;
    }
  }
  EXPECT_GE(use_cases, 1000u);

  // An actor at P == 1 exactly (one actor on a one-token self-loop is busy
  // all the time): its own wait takes CompositionInverse's direct fold.
  sdf::Graph busy("busy");
  const sdf::ActorId x = busy.add_actor("x", 7);
  busy.add_channel(x, x, 1, 1, 1);
  std::vector<sdf::Graph> extra;
  extra.push_back(busy);
  const platform::System sys = dense_system(2007, std::move(extra));
  std::vector<ThroughputEngine> engines;
  for (const sdf::Graph& g : sys.apps()) engines.emplace_back(g);
  ASSERT_EQ(engines.back().recompute().period, 7.0);
  prob::EstimatorWorkspace ws;
  for (const platform::UseCase& uc :
       {platform::UseCase{20}, platform::UseCase{0, 20}, platform::UseCase{3, 20, 11},
        platform::UseCase{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                          18, 19, 20}}) {
    for (const int passes : {1, 8}) {
      for (const prob::EstimatorOptions& opts : node_methods(passes, 3)) {
        expect_step4_matches(sys, uc, engines, opts, ws, "saturated node");
      }
    }
  }
}

}  // namespace
}  // namespace procon::analysis
