// Randomized equivalence suite for the resettable simulation engine:
// SimEngine reset()+run() must be bitwise identical to a fresh simulate()
// of the (materialised) restriction, across arbitration modes, sample
// seeds, and stochastic execution-time models. Golden digests pin every
// result field, and runs that take the steady-state fast-forward must equal
// the same runs stepped event by event.
#include "sim/sim_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::sim {
namespace {

using procon::testing::fig2_system;

platform::System random_system(
    std::uint64_t seed, std::size_t apps,
    const gen::GeneratorOptions& gopts = {.min_actors = 3, .max_actors = 6}) {
  util::Rng rng(seed);
  auto graphs = gen::generate_graphs(rng, gopts, apps);
  std::size_t max_actors = 0;
  for (const auto& g : graphs) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(graphs, plat);
  return platform::System(std::move(graphs), std::move(plat), std::move(map));
}

// Every field but the trace, bitwise.
void expect_same_stats(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.node_utilisation, b.node_utilisation);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const AppSimResult& x = a.apps[i];
    const AppSimResult& y = b.apps[i];
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

void expect_same(const SimResult& a, const SimResult& b) {
  expect_same_stats(a, b);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].app, b.trace[i].app);
    EXPECT_EQ(a.trace[i].actor, b.trace[i].actor);
    EXPECT_EQ(a.trace[i].node, b.trace[i].node);
  }
}

std::vector<sdf::ExecTimeModel> jittered_models(const platform::System& sys,
                                                const platform::UseCase& uc) {
  std::vector<sdf::ExecTimeModel> models;
  for (const sdf::AppId id : uc) {
    sdf::ExecTimeModel m;
    for (const auto& a : sys.app(id).actors()) {
      const sdf::Time d = a.exec_time / 5;
      m.push_back(d == 0 ? sdf::ExecTimeDistribution::constant(a.exec_time)
                         : sdf::ExecTimeDistribution::uniform(a.exec_time - d,
                                                              a.exec_time + d));
    }
    models.push_back(std::move(m));
  }
  return models;
}

TEST(SimEngine, FullRunMatchesFreeFunction) {
  const platform::System sys = fig2_system();
  for (const Arbitration arb :
       {Arbitration::Fcfs, Arbitration::RoundRobin, Arbitration::Tdma}) {
    SimOptions opts;
    opts.horizon = 50'000;
    opts.arbitration = arb;
    opts.collect_trace = true;
    SimEngine engine(sys);
    const SimResult warm = engine.run(opts);
    const SimResult fresh = simulate(sys, opts);
    expect_same(warm, fresh);
  }
}

TEST(SimEngine, RerunAfterResetIsIdentical) {
  const platform::System sys = random_system(17, 4);
  SimEngine engine(sys);
  SimOptions opts;
  opts.horizon = 30'000;
  const SimResult first = engine.run(opts);
  engine.reset();
  const SimResult second = engine.run(opts);
  expect_same(first, second);
}

TEST(SimEngine, RunWithoutResetThrows) {
  SimEngine engine(fig2_system());
  (void)engine.run(SimOptions{.horizon = 1'000});
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = 1'000}), sdf::GraphError);
  engine.reset();
  EXPECT_NO_THROW((void)engine.run(SimOptions{.horizon = 1'000}));
}

TEST(SimEngine, RestrictedRunsMatchMaterialisedCopies) {
  // The central equivalence: reset(uc)+run over the shared engine ==
  // fresh simulate of the materialised copy, for every sampled use-case,
  // every arbitration mode, with traces on.
  for (const std::uint64_t seed : {3u, 1234u}) {
    const platform::System sys = random_system(seed, 5);
    SimEngine engine(sys);
    util::Rng rng(seed ^ 0xABC);
    for (const auto& uc : gen::sample_use_cases(sys.app_count(), 2, rng)) {
      for (const Arbitration arb :
           {Arbitration::Fcfs, Arbitration::RoundRobin, Arbitration::Tdma}) {
        SimOptions opts;
        opts.horizon = 20'000;
        opts.arbitration = arb;
        opts.collect_trace = true;
        engine.reset(uc);
        const SimResult warm = engine.run(opts);
        const SimResult fresh =
            simulate(platform::SystemView(sys, uc).materialise(), opts);
        expect_same(warm, fresh);
        // And the zero-copy one-shot path agrees too.
        const SimResult via_uc = simulate(platform::SystemView(sys, uc), opts);
        expect_same(warm, via_uc);
      }
    }
  }
}

TEST(SimEngine, StochasticModelsAndSeedsMatch) {
  const platform::System sys = random_system(77, 4);
  SimEngine engine(sys);
  util::Rng rng(99);
  for (const auto& uc : gen::sample_use_cases(sys.app_count(), 1, rng)) {
    SimOptions opts;
    opts.horizon = 15'000;
    opts.exec_models = jittered_models(sys, uc);
    for (const std::uint64_t sample_seed : {1u, 42u, 0xDEADu}) {
      opts.sample_seed = sample_seed;
      engine.reset(uc);
      const SimResult warm = engine.run(opts);
      const SimResult fresh =
          simulate(platform::SystemView(sys, uc).materialise(), opts);
      expect_same(warm, fresh);
    }
  }
}

TEST(SimEngine, ModelCountValidatedAgainstActiveApps) {
  const platform::System sys = random_system(5, 3);
  SimEngine engine(sys);
  SimOptions opts;
  opts.horizon = 1'000;
  opts.exec_models = jittered_models(sys, {0, 1});  // 2 models, 3 active apps
  EXPECT_THROW((void)engine.run(opts), sdf::GraphError);
  engine.reset({0, 1});
  EXPECT_NO_THROW((void)engine.run(opts));
}

TEST(SimEngine, RejectsBadUseCases) {
  SimEngine engine(fig2_system());
  EXPECT_THROW(engine.reset({0, 0}), sdf::GraphError);    // duplicate
  EXPECT_THROW(engine.reset({0, 7}), sdf::GraphError);    // out of range
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = -1}),
               std::invalid_argument);
}

TEST(SimEngine, RejectedResetDisarms) {
  // A rejected use-case must leave an engine that refuses to run, not one
  // armed with a half-written active index.
  const platform::System sys = random_system(31, 4);
  SimEngine engine(sys);  // armed for the full system
  EXPECT_THROW(engine.reset({2, 2}), sdf::GraphError);
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = 10'000}), sdf::GraphError);
  EXPECT_THROW(engine.reset({1, 3, 9}), sdf::GraphError);
  EXPECT_THROW((void)engine.run(SimOptions{.horizon = 10'000}), sdf::GraphError);

  engine.reset({3, 1});
  SimEngine fresh(sys);
  fresh.reset({3, 1});
  expect_same(engine.run(SimOptions{.horizon = 10'000}),
              fresh.run(SimOptions{.horizon = 10'000}));
}

TEST(SimEngine, WorkbenchSimulateAndSweepUseTheEngine) {
  const platform::System sys = random_system(2025, 4);
  api::Workbench wb(sys, api::WorkbenchOptions{.threads = 2});
  SimOptions opts;
  opts.horizon = 10'000;

  // Session simulate == one-shot, full and restricted, repeatedly.
  for (int rep = 0; rep < 2; ++rep) {
    expect_same(*wb.simulate(opts), simulate(sys, opts));
    expect_same(*wb.simulate({0, 2}, opts),
                simulate(platform::SystemView(sys, {0, 2}), opts));
  }
}

TEST(SimEngine, RestrictedSimulateIgnoresInvalidAppsOutsideUseCase) {
  // Restriction semantics: only the selected applications are validated, so
  // a deadlocked app elsewhere in the system must not block the run (it did
  // not before the SimEngine refactor either).
  std::vector<sdf::Graph> apps;
  apps.push_back(procon::testing::fig2_graph_a());
  sdf::Graph dead("dead");
  const auto x = dead.add_actor("x", 1);
  const auto y = dead.add_actor("y", 1);
  dead.add_channel(x, y, 1, 1, 0);
  dead.add_channel(y, x, 1, 1, 0);  // no initial tokens: deadlock
  apps.push_back(dead);
  platform::Platform plat = platform::Platform::homogeneous(3);
  platform::Mapping map(apps);
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (sdf::ActorId a = 0; a < apps[i].actor_count(); ++a) map.assign(i, a, a);
  }
  const platform::System sys(std::move(apps), std::move(plat), std::move(map));

  const SimResult r =
      simulate(platform::SystemView(sys, {0}), SimOptions{.horizon = 10'000});
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_TRUE(r.apps[0].converged);
  // The full system (and a full engine) still refuses to build.
  EXPECT_THROW((void)simulate(sys, SimOptions{.horizon = 10'000}), sdf::GraphError);
  EXPECT_THROW(SimEngine{sys}, sdf::GraphError);
  // Duplicate entries simulate two independent copies, like materialise().
  const SimResult dup =
      simulate(platform::SystemView(sys, {0, 0}), SimOptions{.horizon = 10'000});
  ASSERT_EQ(dup.apps.size(), 2u);
}

// ---------------------------------------------------------------------------
// Golden digests: every field of every SimResult below, folded into one
// 64-bit value per case and pinned to the output of the plain stepping
// engine. Any change to the event loop that moves a single bit of a single
// statistic changes a digest.

class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0xFF51AFD7ED558CCDull;
    h_ ^= h_ >> 33;
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const SimResult& r) {
    add(r.events_processed);
    add(static_cast<std::uint64_t>(r.horizon));
    add(r.apps.size());
    for (const AppSimResult& app : r.apps) {
      add(app.iterations);
      add(app.converged ? 1u : 0u);
      add_double(app.average_period);
      add_double(app.worst_period);
      add(app.iteration_times.size());
      for (const sdf::Time t : app.iteration_times) add(static_cast<std::uint64_t>(t));
      add(app.actors.size());
      for (const ActorStats& s : app.actors) {
        add(s.firings);
        add(static_cast<std::uint64_t>(s.total_waiting));
        add(static_cast<std::uint64_t>(s.total_service));
      }
    }
    add(r.node_utilisation.size());
    for (const double u : r.node_utilisation) add_double(u);
    // The count of the per-link busy fractions that results used to carry:
    // 0 on every pinned run, so the pinned digests keep their values.
    add(std::uint64_t{0});
  }
  void add_trace(const SimResult& r) {
    add(r.trace.size());
    for (const TraceEvent& e : r.trace) {
      add(static_cast<std::uint64_t>(e.start));
      add(static_cast<std::uint64_t>(e.end));
      add(e.app);
      add(e.actor);
      add(e.node);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9E3779B97F4A7C15ull;
};

// The Table 1 system: ten generated applications from app seed 2007 on one
// node per actor index.
platform::System paper_system() { return random_system(2007, 10, gen::GeneratorOptions{}); }

std::vector<platform::UseCase> every_eighth_use_case(std::size_t apps) {
  const auto all = gen::all_use_cases(apps);
  std::vector<platform::UseCase> out;
  for (std::size_t i = 0; i < all.size(); i += 8) out.push_back(all[i]);
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

// Every case the event loop treats specially, on three nodes: a one-token
// self-loop actor (s) that is ready again the instant it completes; a
// multi-rate pair (p produces 2, c consumes 3) whose consumer needs two
// deposits before it can fire; and a zero-time actor (z) in a cycle with
// non-zero ones, which completes at the instant it starts.
platform::System edge_case_system() {
  sdf::Graph self("self");
  const auto s = self.add_actor("s", 7);
  self.add_channel(s, s, 1, 1, 1);

  sdf::Graph rates("rates");
  const auto p = rates.add_actor("p", 3);
  const auto c = rates.add_actor("c", 5);
  rates.add_channel(p, c, 2, 3, 0);
  rates.add_channel(c, p, 3, 2, 4);

  sdf::Graph zero("zero");
  const auto x = zero.add_actor("x", 4);
  const auto z = zero.add_actor("z", 0);
  const auto y = zero.add_actor("y", 6);
  zero.add_channel(x, z, 1, 1, 0);
  zero.add_channel(z, y, 1, 1, 0);
  zero.add_channel(y, x, 1, 1, 1);

  std::vector<sdf::Graph> apps{self, rates, zero};
  platform::Platform plat = platform::Platform::homogeneous(3);
  platform::Mapping map(apps);
  map.assign(0, s, 0);
  map.assign(1, p, 0);
  map.assign(1, c, 1);
  map.assign(2, x, 1);
  map.assign(2, z, 0);
  map.assign(2, y, 2);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

TEST(SimEngine, GoldenDigests) {
  const platform::System sys = paper_system();
  SimEngine engine(sys);
  const auto use_cases = every_eighth_use_case(sys.app_count());

  struct SweepCase {
    Arbitration arbitration;
    sdf::Time horizon;
    std::uint64_t digest;
  };
  const auto expect_sweep = [&use_cases](const char* name, SimEngine& e, const SweepCase& c) {
    Digest d;
    for (const auto& uc : use_cases) {
      e.reset(uc);
      d.add(e.run(SimOptions{.horizon = c.horizon, .arbitration = c.arbitration}));
    }
    EXPECT_EQ(hex(d.value()), hex(c.digest))
        << name << " sweep arbitration " << static_cast<int>(c.arbitration) << " horizon "
        << c.horizon;
  };
  for (const SweepCase& c : {
           SweepCase{Arbitration::Fcfs, 100'000, 0xd7732ab83850d303},
           SweepCase{Arbitration::Fcfs, 137'913, 0x7dbf2456b8e2e164},
           SweepCase{Arbitration::RoundRobin, 100'000, 0xf87f9fc8a7039f92},
           SweepCase{Arbitration::RoundRobin, 137'913, 0x2b5a741275216f1f},
       }) {
    expect_sweep("paper", engine, c);
  }
  {
    // The held-out applications of app seed 4099, at the paper's horizon.
    SimEngine held_out(random_system(4099, 10, gen::GeneratorOptions{}));
    for (const SweepCase& c : {
             SweepCase{Arbitration::Fcfs, 500'000, 0xd1b44048ffe08837},
             SweepCase{Arbitration::RoundRobin, 500'000, 0x6c03c00bfe32f2ed},
         }) {
      expect_sweep("app seed 4099", held_out, c);
    }
  }
  // Every execution time 10: simultaneous completions are common, so the
  // creation-order tie-break decides most dispatches.
  const platform::System equal_times =
      random_system(2007, 10, gen::GeneratorOptions{.min_exec_time = 10, .max_exec_time = 10});
  {
    SimEngine equal(equal_times);
    for (const SweepCase& c : {
             SweepCase{Arbitration::Fcfs, 100'000, 0x8845c0e26c72cbc5},
             SweepCase{Arbitration::RoundRobin, 100'000, 0xb5b6d76112e58a84},
         }) {
      expect_sweep("equal times", equal, c);
    }
  }

  struct FullCase {
    const char* name;
    SimOptions opts;
    std::uint64_t digest;
  };
  for (const FullCase& c : {
           FullCase{"fcfs", SimOptions{.arbitration = Arbitration::Fcfs}, 0x3bd2ac9cc125e8c6},
           FullCase{"rr", SimOptions{.arbitration = Arbitration::RoundRobin}, 0x0b987ef22fd904b9},
           FullCase{"tdma", SimOptions{.arbitration = Arbitration::Tdma}, 0x539e499f24e172e9},
           FullCase{"max_events", SimOptions{.max_events = 7'777}, 0x29a6d95feb56eb96},
       }) {
    engine.reset();
    Digest d;
    d.add(engine.run(c.opts));
    EXPECT_EQ(hex(d.value()), hex(c.digest)) << "full system " << c.name;
  }

  {
    SimOptions opts{.horizon = 100'000};
    opts.exec_models = jittered_models(sys, engine.active_use_case());
    engine.reset();
    Digest d;
    d.add(engine.run(opts));
    EXPECT_EQ(hex(d.value()), hex(0x6b51ec66cc8c835b)) << "stochastic";
  }

  // Whole runs of other systems. The digest also folds every field of every
  // trace record (an untraced run has none).
  struct SystemCase {
    const char* name;
    const platform::System* sys;
    SimOptions opts;
    std::uint64_t digest;
  };
  const platform::System edges = edge_case_system();
  for (const SystemCase& c : {
           SystemCase{"paper fcfs traced", &sys,
                      SimOptions{.horizon = 100'000, .collect_trace = true}, 0xf0494f2cc4789467},
           SystemCase{"paper rr traced", &sys,
                      SimOptions{.horizon = 100'000,
                                 .arbitration = Arbitration::RoundRobin,
                                 .collect_trace = true},
                      0xc9aae94dffb00842},
           SystemCase{"paper tdma traced", &sys,
                      SimOptions{.horizon = 100'000,
                                 .arbitration = Arbitration::Tdma,
                                 .collect_trace = true},
                      0x8bedc41f45d4a0da},
           SystemCase{"equal times tdma", &equal_times,
                      SimOptions{.horizon = 100'000, .arbitration = Arbitration::Tdma},
                      0x5e62a449967768bc},
           SystemCase{"edges fcfs", &edges, SimOptions{.horizon = 50'000}, 0x4ce445fdec93524f},
           SystemCase{"edges rr", &edges,
                      SimOptions{.horizon = 50'000, .arbitration = Arbitration::RoundRobin},
                      0xaeb768c7edcc133e},
           SystemCase{"edges tdma", &edges,
                      SimOptions{.horizon = 50'000, .arbitration = Arbitration::Tdma},
                      0x3114052880b7a373},
           SystemCase{"edges fcfs traced", &edges,
                      SimOptions{.horizon = 50'000, .collect_trace = true}, 0x338bbfeea13db7f8},
           SystemCase{"edges rr traced", &edges,
                      SimOptions{.horizon = 50'000,
                                 .arbitration = Arbitration::RoundRobin,
                                 .collect_trace = true},
                      0x13e4451af39bf196},
           SystemCase{"edges tdma traced", &edges,
                      SimOptions{.horizon = 50'000,
                                 .arbitration = Arbitration::Tdma,
                                 .collect_trace = true},
                      0xad9e1cf3d544c207},
       }) {
    SimEngine e(*c.sys);
    const SimResult r = e.run(c.opts);
    Digest d;
    d.add(r);
    d.add_trace(r);
    EXPECT_EQ(hex(d.value()), hex(c.digest)) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Steady-state fast-forward: a run that jumps must equal the same run
// stepped event by event. A traced run never jumps, so it is the stepped
// reference.

SimResult stepped(SimEngine& engine, const platform::UseCase& uc, SimOptions opts) {
  opts.collect_trace = true;
  engine.reset(uc);
  SimResult r = engine.run(opts);
  EXPECT_EQ(engine.fast_forwarded_events(), 0u);
  return r;
}

TEST(SimEngine, FastForwardMatchesTracedStepping) {
  const platform::System sys = paper_system();
  SimEngine engine(sys);
  std::size_t jumped = 0;
  std::size_t runs = 0;
  for (const Arbitration arb : {Arbitration::Fcfs, Arbitration::RoundRobin}) {
    for (const auto& uc : every_eighth_use_case(sys.app_count())) {
      const SimOptions opts{.horizon = 100'000, .arbitration = arb};
      engine.reset(uc);
      const SimResult fast = engine.run(opts);
      const std::uint64_t skipped = engine.fast_forwarded_events();
      EXPECT_LT(skipped, fast.events_processed);
      jumped += skipped > 0 ? 1 : 0;
      ++runs;
      expect_same_stats(fast, stepped(engine, uc, opts));
    }
  }
  EXPECT_GT(jumped, runs / 4);
}

TEST(SimEngine, FastForwardFiresOnSmallUseCases) {
  const platform::System sys = paper_system();
  SimEngine engine(sys);
  for (std::size_t size : {1u, 2u}) {
    for (const auto& uc : gen::use_cases_of_size(sys.app_count(), size)) {
      engine.reset(uc);
      (void)engine.run_view(SimOptions{.horizon = 100'000});
      EXPECT_GT(engine.fast_forwarded_events(), 0u) << "use-case of size " << size;
    }
  }
}

TEST(SimEngine, FastForwardHorizonBoundIsExact) {
  // x (100) and y (10) alternate on one token: every iteration ends with
  // y's completion, which dispatches x, the longest actor, at that very
  // instant. A jump whose last period ended less than x's time before the
  // horizon would skip a dispatch that stepping clips at the horizon.
  // Every horizon in a window of three periods: at some horizon the jump
  // takes one more period (the bound is met with equality), and one unit
  // earlier it does not. Both must match stepping.
  std::vector<sdf::Graph> apps{procon::testing::two_actor_cycle(100, 10)};
  platform::Platform plat = platform::Platform::homogeneous(2);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  const platform::System sys(std::move(apps), std::move(plat), std::move(map));
  SimEngine engine(sys);
  const platform::UseCase uc{0};
  std::uint64_t previous = 0;
  std::size_t steps_up = 0;
  for (sdf::Time h = 2'000; h < 2'330; ++h) {
    const SimOptions opts{.horizon = h};
    engine.reset(uc);
    const SimResult fast = engine.run(opts);
    const std::uint64_t skipped = engine.fast_forwarded_events();
    ASSERT_GT(skipped, 0u) << "horizon " << h;
    if (previous != 0 && skipped > previous) ++steps_up;
    previous = skipped;
    expect_same_stats(fast, stepped(engine, uc, opts));
  }
  EXPECT_EQ(steps_up, 3u);
}

TEST(SimEngine, FastForwardEventCapIsExact) {
  // max_events inside the range a jump would skip: the jump shrinks to the
  // whole periods that fit under the cap and stepping stops at the cap.
  const platform::System sys = paper_system();
  SimEngine engine(sys);
  const platform::UseCase uc{0, 3};
  const SimOptions open{.horizon = 100'000};
  engine.reset(uc);
  const SimResult full = engine.run(open);
  const std::uint64_t full_skip = engine.fast_forwarded_events();
  ASSERT_GT(full_skip, 0u);
  std::size_t partial = 0;
  for (std::uint64_t cap = 1; cap < full.events_processed; cap += 37) {
    SimOptions opts = open;
    opts.max_events = cap;
    engine.reset(uc);
    const SimResult fast = engine.run(opts);
    const std::uint64_t skipped = engine.fast_forwarded_events();
    EXPECT_EQ(fast.events_processed, cap);
    if (skipped > 0 && skipped < full_skip) ++partial;
    expect_same_stats(fast, stepped(engine, uc, opts));
  }
  EXPECT_GT(partial, 0u);
}

TEST(SimEngine, FastForwardSnapshotRejectsFalseRepeats) {
  // States that agree on everything but a queued actor's wait so far, or
  // on everything but the creation order of simultaneous pending events,
  // are not repeats: the first gives a different waiting time per period,
  // the second a different service order. These runs reach such pairs, so
  // a snapshot without either field jumps to wrong statistics.
  struct Case {
    platform::System sys;
    platform::UseCase uc;
    Arbitration arbitration;
  };
  const gen::GeneratorOptions equal_times{
      .min_actors = 3, .max_actors = 6, .min_exec_time = 10, .max_exec_time = 10};
  const Case cases[] = {
      {random_system(35, 4), {1, 2}, Arbitration::Fcfs},           // queued wait
      {random_system(35, 4), {1, 2}, Arbitration::RoundRobin},     // queued wait
      {random_system(54, 4, equal_times), {0, 2, 3}, Arbitration::Fcfs},  // tie order
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "use-case of " << c.uc.size() << " apps, "
                                      << "arbitration " << static_cast<int>(c.arbitration));
    SimEngine engine(c.sys);
    const SimOptions opts{.horizon = 20'000, .arbitration = c.arbitration};
    engine.reset(c.uc);
    const SimResult fast = engine.run(opts);
    EXPECT_GT(engine.fast_forwarded_events(), 0u);
    expect_same_stats(fast, stepped(engine, c.uc, opts));
  }
}

TEST(SimEngine, FastForwardOnlyOnEligibleRuns) {
  const platform::System sys = paper_system();
  SimEngine engine(sys);
  const platform::UseCase uc{0, 1};
  const auto skipped = [&](SimEngine& e, const SimOptions& opts) {
    e.reset(uc);
    (void)e.run_view(opts);
    return e.fast_forwarded_events();
  };
  const SimOptions fcfs{.horizon = 100'000};
  EXPECT_GT(skipped(engine, fcfs), 0u);
  EXPECT_GT(skipped(engine, SimOptions{.horizon = 100'000,
                                       .arbitration = Arbitration::RoundRobin}),
            0u);

  EXPECT_EQ(skipped(engine, SimOptions{.horizon = 100'000,
                                       .arbitration = Arbitration::Tdma}),
            0u);
  SimOptions traced = fcfs;
  traced.collect_trace = true;
  EXPECT_EQ(skipped(engine, traced), 0u);
  SimOptions stochastic = fcfs;
  stochastic.exec_models = jittered_models(sys, uc);
  EXPECT_EQ(skipped(engine, stochastic), 0u);
}

TEST(SimEngine, SimulateViewOverloadMatches) {
  const platform::System sys = random_system(404, 4);
  const platform::UseCase uc{1, 3};
  SimOptions opts;
  opts.horizon = 12'000;
  const SimResult via_view = simulate(platform::SystemView(sys, uc), opts);
  const SimResult via_copy = simulate(platform::SystemView(sys, uc).materialise(), opts);
  expect_same(via_view, via_copy);
}

}  // namespace
}  // namespace procon::sim
