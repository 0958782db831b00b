// Zobrist fingerprints + the shared transposition table:
//
//  * incremental fingerprint maintenance: random append_app / pop_app /
//    set_mapping / Mapping mutation sequences keep System::fingerprint()
//    bitwise equal to a from-scratch reconstruction at every step;
//  * SystemView::fingerprint() equals materialise().fingerprint() and
//    tracks parent set_mapping rebinds (views are live by contract);
//  * fingerprints are name-free (renamed structures hash equal, changed
//    structure does not) — the cross-tenant sharing hook;
//  * TranspositionTable unit behaviour: round-trips, verify-tag rejection
//    of primary-hash collisions, bucketed replace-oldest eviction at tiny
//    capacity, counter bookkeeping, concurrent hammering (TSan target);
//  * bitwise identity: admission decisions (verdicts, periods, reason
//    strings), Workbench queries and AnalysisService results are identical
//    with the table on, off, warm, shared, or evicting;
//  * warm table hits are allocation-free (util/alloc_probe.h replaces
//    ::operator new for this binary), including the admission verdict-only
//    probe path with a table attached.
#include "util/alloc_probe.h"  // FIRST: replaces global new/delete

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "admission/admission.h"
#include "analysis/transposition_table.h"
#include "api/service.h"
#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "platform/system_view.h"
#include "sdf/zobrist.h"
#include "util/rng.h"

namespace procon {
namespace {

using admission::AdmissionController;
using admission::QoS;
using admission::WhatIfOptions;
using admission::WhatIfReport;
using analysis::TranspositionTable;
using analysis::TTKey;
using analysis::TTKeyBuilder;
using analysis::TTQuery;
using analysis::TTValue;
using sdf::ZobristHash;
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

/// Structurally identical copy of `g` under fresh names: the name-free
/// fingerprint must not distinguish them.
sdf::Graph renamed(const sdf::Graph& g, const std::string& suffix) {
  sdf::Graph r(g.name() + suffix);
  for (const sdf::Actor& a : g.actors()) r.add_actor(a.name + suffix, a.exec_time);
  for (const sdf::Channel& c : g.channels()) {
    r.add_channel(c.src, c.dst, c.prod_rate, c.cons_rate, c.initial_tokens);
  }
  return r;
}

platform::System renamed_clone(const platform::System& sys, const std::string& suffix) {
  std::vector<sdf::Graph> apps;
  apps.reserve(sys.app_count());
  for (const sdf::Graph& g : sys.apps()) apps.push_back(renamed(g, suffix));
  return platform::System(std::move(apps), sys.platform(), sys.mapping());
}

/// The from-scratch oracle: the System constructor rehashes everything.
std::uint64_t fresh_fingerprint(const platform::System& sys) {
  return platform::System(
             std::vector<sdf::Graph>(sys.apps().begin(), sys.apps().end()),
             sys.platform(), sys.mapping())
      .fingerprint();
}

TEST(Zobrist, IncrementalSystemFingerprintMatchesFromScratchOracle) {
  util::Rng rng(2007);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 2;
  gopts.max_actors = 5;
  const auto pool = gen::generate_graphs(rng, gopts, 12);
  const platform::Platform plat = platform::Platform::homogeneous(5);

  std::vector<sdf::Graph> start(pool.begin(), pool.begin() + 2);
  platform::System sys(start, plat, platform::Mapping::by_index(start, plat));
  ASSERT_EQ(sys.fingerprint(), fresh_fingerprint(sys));

  for (int step = 0; step < 200; ++step) {
    const auto op = rng.uniform_int(0, 3);
    if (op == 0) {
      // Grow: append a pool graph with an index mapping.
      const auto& g = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      std::vector<platform::NodeId> nodes(g.actor_count());
      for (std::size_t a = 0; a < nodes.size(); ++a) {
        nodes[a] = static_cast<platform::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(plat.node_count()) - 1));
      }
      sys.append_app(g, nodes);
    } else if (op == 1 && sys.app_count() > 1) {
      sys.pop_app();
    } else if (op == 2) {
      // Rebind the whole mapping.
      util::Rng map_rng(rng.uniform_int(0, 1'000'000));
      sys.set_mapping(platform::Mapping::random(sys.apps(), plat, map_rng));
    } else {
      // Move one actor (Mapping::assign's XOR-delta path).
      platform::Mapping m = sys.mapping();
      const auto app = static_cast<sdf::AppId>(
          rng.uniform_int(0, static_cast<std::int64_t>(sys.app_count()) - 1));
      const auto actor = static_cast<sdf::ActorId>(rng.uniform_int(
          0, static_cast<std::int64_t>(sys.app(app).actor_count()) - 1));
      m.assign(app, actor,
               static_cast<platform::NodeId>(rng.uniform_int(
                   0, static_cast<std::int64_t>(plat.node_count()) - 1)));
      sys.set_mapping(std::move(m));
    }
    ASSERT_EQ(sys.fingerprint(), fresh_fingerprint(sys)) << "step " << step;
  }
}

TEST(Zobrist, MappingMutationsMatchRecomputedComposition) {
  util::Rng rng(11);
  platform::Mapping m;
  std::vector<std::vector<platform::NodeId>> rows;

  const auto oracle = [&rows] {
    std::uint64_t fp = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      fp ^= ZobristHash::place(ZobristHash::kMappingTag, i,
                               ZobristHash::mapping_row_component(rows[i]));
    }
    return fp;
  };

  EXPECT_EQ(m.fingerprint(), oracle());
  for (int step = 0; step < 120; ++step) {
    const auto op = rng.uniform_int(0, 2);
    if (op == 0 || rows.empty()) {
      std::vector<platform::NodeId> row(
          static_cast<std::size_t>(rng.uniform_int(1, 5)));
      for (auto& n : row) {
        n = static_cast<platform::NodeId>(rng.uniform_int(0, 7));
      }
      m.push_app(row);
      rows.push_back(std::move(row));
    } else if (op == 1) {
      m.pop_app();
      rows.pop_back();
    } else {
      const auto app = static_cast<sdf::AppId>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      const auto actor = static_cast<sdf::ActorId>(rng.uniform_int(
          0, static_cast<std::int64_t>(rows[app].size()) - 1));
      const auto node = static_cast<platform::NodeId>(rng.uniform_int(0, 7));
      m.assign(app, actor, node);
      rows[app][actor] = node;
    }
    ASSERT_EQ(m.fingerprint(), oracle()) << "step " << step;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(m.row_component(static_cast<sdf::AppId>(i)),
                ZobristHash::mapping_row_component(rows[i]));
    }
  }
}

TEST(Zobrist, ViewFingerprintMatchesMaterialiseAndTracksRebinds) {
  platform::System sys = random_system(42, 5);
  util::Rng rng(3);
  auto use_cases = gen::sample_use_cases(sys.app_count(), 2, rng);
  use_cases.push_back(sys.full_use_case());

  for (const auto& uc : use_cases) {
    const platform::SystemView view(sys, uc);
    EXPECT_EQ(view.fingerprint(), view.materialise().fingerprint());
  }

  // The full view equals the system itself.
  EXPECT_EQ(platform::SystemView(sys).fingerprint(), sys.fingerprint());

  // Parent set_mapping is visible through live views: the view fingerprint
  // must follow without rebinding.
  const platform::SystemView live(sys, use_cases.front());
  const std::uint64_t before = live.fingerprint();
  util::Rng map_rng(9);
  sys.set_mapping(platform::Mapping::random(sys.apps(), sys.platform(), map_rng));
  EXPECT_NE(live.fingerprint(), before);
  EXPECT_EQ(live.fingerprint(), live.materialise().fingerprint());
}

TEST(Zobrist, FingerprintsAreNameFreeButStructureSensitive) {
  const platform::System sys = random_system(7, 3);
  const sdf::Graph& g = sys.app(0);

  // Renaming everything changes nothing.
  EXPECT_EQ(ZobristHash::graph_component(renamed(g, "-x")),
            ZobristHash::graph_component(g));
  EXPECT_EQ(renamed_clone(sys, "-y").fingerprint(), sys.fingerprint());

  // Any structural delta changes the component.
  sdf::Graph slower = renamed(g, "");
  slower.actor(0).exec_time += 1;
  EXPECT_NE(ZobristHash::graph_component(slower), ZobristHash::graph_component(g));

  sdf::Graph extra = renamed(g, "");
  extra.add_channel(0, 0, 1, 1, 1);
  EXPECT_NE(ZobristHash::graph_component(extra), ZobristHash::graph_component(g));

  // Position matters in the composition: swapping two (distinct) apps
  // changes the system fingerprint even though the XOR-ed components match.
  if (ZobristHash::graph_component(sys.app(0)) !=
      ZobristHash::graph_component(sys.app(1))) {
    std::vector<sdf::Graph> swapped(sys.apps().begin(), sys.apps().end());
    std::swap(swapped[0], swapped[1]);
    const bool same_shape =
        sys.app(0).actor_count() == sys.app(1).actor_count();
    if (same_shape) {
      platform::System other(std::move(swapped), sys.platform(), sys.mapping());
      EXPECT_NE(other.fingerprint(), sys.fingerprint());
    }
  }
}

TEST(TranspositionTable, StoreLookupRoundTripsBitwise) {
  TranspositionTable table(256, 4);
  EXPECT_GE(table.capacity(), 256u);
  EXPECT_EQ(table.shard_count(), 4u);

  TTKeyBuilder b(0xDEADBEEFULL, TTQuery::WcrtAppBound);
  b.absorb(3);
  b.absorb_double(1.5);
  const TTKey key = b.key();

  TTValue miss;
  EXPECT_FALSE(table.lookup(key, miss));

  TTValue in;
  in.primary = 123.456;
  in.secondary = -0.0;  // bitwise: -0.0 must round-trip as -0.0
  in.ids[0] = 7;
  in.ids[1] = 9;
  in.id_count = 2;
  in.flags = TTValue::kDeadlocked;
  table.store(key, in);

  TTValue out;
  ASSERT_TRUE(table.lookup(key, out));
  EXPECT_EQ(out.primary, in.primary);
  EXPECT_EQ(std::signbit(out.secondary), std::signbit(in.secondary));
  EXPECT_EQ(out.id_count, 2);
  EXPECT_EQ(out.ids[0], 7u);
  EXPECT_EQ(out.ids[1], 9u);
  EXPECT_EQ(out.flags, TTValue::kDeadlocked);

  // The same fingerprint under a different kind or parameter is a miss.
  TTKeyBuilder other(0xDEADBEEFULL, TTQuery::WcrtActorBound);
  other.absorb(3);
  other.absorb_double(1.5);
  EXPECT_FALSE(table.lookup(other.key(), out));
  TTKeyBuilder param(0xDEADBEEFULL, TTQuery::WcrtAppBound);
  param.absorb(4);
  param.absorb_double(1.5);
  EXPECT_FALSE(table.lookup(param.key(), out));

  const auto stats = table.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.shards.size(), table.shard_count());
}

TEST(TranspositionTable, VerifyTagRejectsPrimaryHashCollisions) {
  TranspositionTable table(64, 1);
  const TTKey genuine{0x1234'5678'9ABC'DEF0ULL, 0x1111ULL};
  const TTKey imposter{0x1234'5678'9ABC'DEF0ULL, 0x2222ULL};  // same bucket

  TTValue v;
  v.primary = 42.0;
  table.store(genuine, v);

  TTValue out;
  EXPECT_FALSE(table.lookup(imposter, out));  // tag mismatch: treated as miss
  ASSERT_TRUE(table.lookup(genuine, out));
  EXPECT_EQ(out.primary, 42.0);

  const auto stats = table.stats();
  EXPECT_GE(stats.verify_failures, 1u);
}

TEST(TranspositionTable, BucketedEvictionReplacesTheOldestEntry) {
  // capacity 4, 1 shard -> a single 4-way bucket: every key collides.
  TranspositionTable table(4, 1);
  EXPECT_EQ(table.capacity(), 4u);
  EXPECT_EQ(table.shard_count(), 1u);

  const auto key_of = [](std::uint64_t i) {
    return TTKeyBuilder(i, TTQuery::IsolationPeriod).key();
  };
  for (std::uint64_t i = 0; i < 4; ++i) {
    TTValue v;
    v.primary = static_cast<double>(i);
    table.store(key_of(i), v);
  }
  TTValue out;
  ASSERT_TRUE(table.lookup(key_of(0), out));  // refresh 0: 1 is now oldest

  TTValue v4;
  v4.primary = 4.0;
  table.store(key_of(4), v4);  // bucket full: evicts the oldest live entry

  EXPECT_FALSE(table.lookup(key_of(1), out)) << "oldest entry should be gone";
  for (const std::uint64_t still : {0ULL, 2ULL, 3ULL, 4ULL}) {
    ASSERT_TRUE(table.lookup(key_of(still), out)) << "key " << still;
    EXPECT_EQ(out.primary, static_cast<double>(still));
  }
  const auto stats = table.stats();
  EXPECT_EQ(stats.evictions, 1u);

  // Re-storing an existing key overwrites in place: no eviction.
  table.store(key_of(0), v4);
  EXPECT_EQ(table.stats().evictions, 1u);
  ASSERT_TRUE(table.lookup(key_of(0), out));
  EXPECT_EQ(out.primary, 4.0);
}

TEST(TranspositionTable, ConcurrentHammerKeepsValuesConsistent) {
  TranspositionTable table(1024, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 20'000;
  constexpr std::uint64_t kKeySpace = 97;  // shared across threads: real races

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> wrong(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &wrong, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t fp = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kKeySpace) - 1));
        TTKeyBuilder b(fp, TTQuery::Latency);
        b.absorb(fp * 3);
        const TTKey key = b.key();
        TTValue v;
        if (table.lookup(key, v)) {
          // Every writer stores the same pure function of the key, so a hit
          // can only ever observe that value.
          if (v.primary != static_cast<double>(fp) * 1.25) ++wrong[t];
        } else {
          v.primary = static_cast<double>(fp) * 1.25;
          table.store(key, v);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0u);

  const auto stats = table.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(stats.stores, stats.misses);  // every miss stored exactly once
}

// ---- bitwise identity: admission --------------------------------------------

struct AdmissionStep {
  bool ok = false;
  double predicted = 0.0;
  std::string reason;
  std::vector<double> peers;
};

bool operator==(const AdmissionStep& a, const AdmissionStep& b) {
  return a.ok == b.ok && a.predicted == b.predicted && a.reason == b.reason &&
         a.peers == b.peers;
}

std::vector<platform::NodeId> index_nodes(const sdf::Graph& g) {
  std::vector<platform::NodeId> nodes(g.actor_count());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    nodes[a] = static_cast<platform::NodeId>(a);
  }
  return nodes;
}

/// A fixed admission workload: probes, admits, a rejection (reason string),
/// predictions, a removal, re-probes. Returns the full decision transcript.
std::vector<AdmissionStep> run_admission_script(AdmissionController& ctrl,
                                                std::span<const sdf::Graph> pool) {
  std::vector<AdmissionStep> log;
  const auto probe = [&](const sdf::Graph& g) {
    const WhatIfReport r = ctrl.what_if_admit(g, index_nodes(g), QoS::no_requirement());
    log.push_back({r.admissible, r.predicted_period, r.reason, r.peer_periods});
  };

  for (const sdf::Graph& g : pool) probe(g);
  const admission::Decision d0 =
      ctrl.request(pool[0], index_nodes(pool[0]), QoS::no_requirement());
  log.push_back({d0.admitted, d0.predicted_period, d0.reason, d0.peer_periods});
  const admission::Decision d1 =
      ctrl.request(pool[1], index_nodes(pool[1]), QoS::no_requirement());
  log.push_back({d1.admitted, d1.predicted_period, d1.reason, d1.peer_periods});
  // Impossible QoS: rejected, with a reason string built from the predicted
  // period — the identity contract covers the text too.
  const admission::Decision rej =
      ctrl.request(pool[2], index_nodes(pool[2]), QoS{1e-9});
  log.push_back({rej.admitted, rej.predicted_period, rej.reason, rej.peer_periods});

  for (const sdf::Graph& g : pool) probe(g);  // warm re-probes
  log.push_back({true, ctrl.predicted_period(*d0.handle), "", {}});
  const WhatIfReport wr = ctrl.what_if_remove(*d0.handle);
  log.push_back({wr.admissible, wr.predicted_period, wr.reason, wr.peer_periods});
  ctrl.remove(*d0.handle);
  for (const sdf::Graph& g : pool) probe(g);
  return log;
}

TEST(TranspositionIdentity, AdmissionTranscriptIsIdenticalTableOnOffWarmTiny) {
  util::Rng rng(606);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 5;
  auto pool = gen::generate_graphs(rng, gopts, 5);
  pool.push_back(renamed(pool[0], "-twin"));  // name-free sharing candidate
  const platform::Platform plat = platform::Platform::homogeneous(5);

  AdmissionController off(plat);
  const auto transcript = run_admission_script(off, pool);

  const auto table = std::make_shared<TranspositionTable>(1 << 12, 4);
  AdmissionController on(plat, 8, table);
  EXPECT_EQ(run_admission_script(on, pool), transcript);
  EXPECT_GT(table->stats().hits, 0u);

  // A second controller on the SAME table starts fully warm — and must
  // still reproduce the transcript bit for bit.
  AdmissionController warm(plat, 8, table);
  const auto hits_before = table->stats().hits;
  EXPECT_EQ(run_admission_script(warm, pool), transcript);
  EXPECT_GT(table->stats().hits, hits_before);

  // A pathologically tiny table evicts constantly; only speed may differ.
  const auto tiny = std::make_shared<TranspositionTable>(8, 1);
  AdmissionController evicting(plat, 8, tiny);
  EXPECT_EQ(run_admission_script(evicting, pool), transcript);
}

// ---- bitwise identity: Workbench --------------------------------------------

/// Flattens every table-backed Workbench query into one comparable record.
struct WorkbenchRecord {
  std::vector<double> doubles;
  std::vector<std::uint64_t> ints;
  std::vector<std::string> strings;

  friend bool operator==(const WorkbenchRecord&, const WorkbenchRecord&) = default;
};

WorkbenchRecord run_workbench_script(api::Workbench& wb) {
  WorkbenchRecord rec;
  const auto note = [&rec](const api::Provenance& p) {
    rec.strings.push_back(p.method);
  };
  for (sdf::AppId a = 0; a < wb.app_count(); ++a) {
    const auto thr = wb.throughput(a);
    rec.doubles.push_back(thr->period);
    rec.ints.push_back(thr->deadlocked ? 1 : 0);
    note(thr.provenance);
    const auto lat = wb.latency(a);
    rec.doubles.push_back(lat->latency);
    for (const auto id : lat->critical_actors) rec.ints.push_back(id);
    note(lat.provenance);
    const auto bot = wb.bottleneck(a);
    rec.doubles.push_back(bot->period);
    for (const auto id : bot->actors) rec.ints.push_back(id);
    note(bot.provenance);
  }
  const auto frontier =
      wb.buffer_frontier(0, dse::BufferExplorerOptions{.max_steps = 12});
  for (const auto& pt : *frontier) {
    rec.doubles.push_back(pt.period);
    rec.ints.push_back(pt.total_tokens);
    for (const auto c : pt.capacities) rec.ints.push_back(c);
  }
  note(frontier.provenance);

  const auto bounds = wb.wcrt();
  for (const auto& b : *bounds) {
    rec.doubles.push_back(b.isolation_period);
    rec.doubles.push_back(b.worst_case_period);
    for (const auto& act : b.actors) {
      rec.doubles.push_back(act.waiting_time);
      rec.doubles.push_back(act.response_time);
    }
  }
  note(bounds.provenance);
  const platform::UseCase uc{0, 2};
  const auto tdma = wb.wcrt(
      uc, wcrt::WcrtOptions{.policy = wcrt::Policy::TdmaPreemptive, .tdma_slot = 5});
  for (const auto& b : *tdma) {
    rec.doubles.push_back(b.worst_case_period);
    for (const auto& act : b.actors) rec.doubles.push_back(act.response_time);
  }

  std::vector<platform::Mapping> candidates;
  candidates.push_back(wb.system().mapping());
  candidates.push_back(
      platform::Mapping::load_balanced(wb.system().apps(), wb.system().platform()));
  util::Rng rng(5);
  candidates.push_back(
      platform::Mapping::random(wb.system().apps(), wb.system().platform(), rng));
  const auto scores = wb.score_mappings(candidates);
  for (const double s : *scores) rec.doubles.push_back(s);

  dse::MapperOptions mopts;
  mopts.iterations = 50;
  mopts.seed = 13;
  const auto mapped = wb.optimise_mapping(mopts);
  rec.doubles.push_back(mapped->score);
  rec.doubles.push_back(mapped->initial_score);
  rec.ints.push_back(mapped->evaluations);
  rec.ints.push_back(mapped->accepted_moves);
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    for (sdf::ActorId a = 0; a < wb.system().app(i).actor_count(); ++a) {
      rec.ints.push_back(mapped->mapping.node_of(i, a));
    }
  }
  return rec;
}

TEST(TranspositionIdentity, WorkbenchQueriesAreIdenticalTableOnOffWarmTiny) {
  const platform::System sys = random_system(2026, 4);

  api::Workbench off(sys, api::WorkbenchOptions{.threads = 1});
  const WorkbenchRecord record = run_workbench_script(off);

  const auto table = std::make_shared<TranspositionTable>(1 << 14, 4);
  api::Workbench on(sys, api::WorkbenchOptions{.threads = 1, .table = table});
  EXPECT_EQ(run_workbench_script(on), record);
  EXPECT_GT(on.transposition_stats().stores, 0u);
  EXPECT_EQ(on.transposition_table().get(), table.get());

  // A fresh session over a RENAMED but structurally identical system shares
  // the warm entries (name-free fingerprints) and answers identically.
  const platform::System twin = renamed_clone(sys, "-tenant2");
  api::Workbench warm(twin, api::WorkbenchOptions{.threads = 1, .table = table});
  const auto hits_before = table->stats().hits;
  EXPECT_EQ(run_workbench_script(warm), record);
  EXPECT_GT(table->stats().hits, hits_before);

  // Sharded session + shared table: thread-count invariance holds with
  // memoisation in the loop (score_mappings shards across pool workers).
  api::Workbench sharded(sys, api::WorkbenchOptions{.threads = 4, .table = table});
  EXPECT_EQ(run_workbench_script(sharded), record);

  // Tiny evicting table: correctness-neutral.
  const auto tiny = std::make_shared<TranspositionTable>(16, 1);
  api::Workbench evicting(sys, api::WorkbenchOptions{.threads = 1, .table = tiny});
  EXPECT_EQ(run_workbench_script(evicting), record);
  EXPECT_GT(tiny->stats().evictions, 0u);

  // Table-less sessions report empty stats and no table.
  EXPECT_EQ(off.transposition_stats().hits + off.transposition_stats().misses, 0u);
  EXPECT_EQ(off.transposition_table(), nullptr);
}

// ---- bitwise identity: AnalysisService --------------------------------------

TEST(TranspositionIdentity, ServiceSharesEntriesAcrossRenamedTenants) {
  const platform::System sys_a = random_system(404, 4);
  const platform::System sys_b = renamed_clone(sys_a, "-b");

  api::Workbench oracle(sys_a, api::WorkbenchOptions{.threads = 1});
  const auto thr_oracle = oracle.throughput(0);
  const auto wcrt_oracle = oracle.wcrt();

  for (const std::size_t tt_capacity : {std::size_t{0}, std::size_t{1} << 14}) {
    api::AnalysisService service(api::ServiceOptions{
        .threads = 2, .transposition_capacity = tt_capacity});
    const api::SystemId a = service.register_system(sys_a);
    const api::SystemId b = service.register_system(sys_b);

    // Renamed tenants do NOT share a session (exact identity includes
    // names) — they share transposition entries instead.
    api::QueryDesc thr;
    thr.kind = api::QueryKind::Throughput;
    thr.app = 0;
    api::QueryDesc wc;
    wc.kind = api::QueryKind::Wcrt;

    const auto va = service.submit(a, thr).get();
    const auto vb = service.submit(b, thr).get();
    const auto wa = service.submit(a, wc).get();
    const auto wb_ = service.submit(b, wc).get();
    service.drain();
    EXPECT_EQ(service.session_count(), 2u);

    for (const auto& v : {va, vb}) {
      EXPECT_EQ(std::get<api::Report<analysis::PeriodResult>>(v)->period,
                thr_oracle->period);
    }
    for (const auto& w : {wa, wb_}) {
      const auto& r = std::get<api::Report<std::vector<wcrt::AppBound>>>(w);
      ASSERT_EQ(r->size(), wcrt_oracle->size());
      for (std::size_t i = 0; i < r->size(); ++i) {
        EXPECT_EQ((*r)[i].isolation_period, (*wcrt_oracle)[i].isolation_period);
        EXPECT_EQ((*r)[i].worst_case_period, (*wcrt_oracle)[i].worst_case_period);
      }
    }

    const auto tt = service.transposition_stats();
    if (tt_capacity == 0) {
      EXPECT_EQ(tt.hits + tt.misses + tt.stores, 0u);
    } else {
      // Tenant b's queries ran against tenant a's warm entries.
      EXPECT_GT(tt.hits, 0u);
    }
  }
}

TEST(TranspositionIdentity, ServiceStressWithSharedTableMatchesOracle) {
  const platform::System sys = random_system(777, 4);
  const platform::System twin = renamed_clone(sys, "-t");
  api::Workbench oracle(sys, api::WorkbenchOptions{.threads = 1});
  const auto est = oracle.contention();
  const auto wc = oracle.wcrt();
  const auto thr0 = oracle.throughput(0);

  api::AnalysisService service(api::ServiceOptions{.threads = 4});
  const api::SystemId a = service.register_system(sys);
  const api::SystemId b = service.register_system(twin);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kQueries = 18;
  std::vector<std::vector<api::QueryTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t k = 0; k < kQueries; ++k) {
        api::QueryDesc d;
        switch (k % 3) {
          case 0: d.kind = api::QueryKind::Throughput; d.app = 0; break;
          case 1: d.kind = api::QueryKind::Wcrt; break;
          default: d.kind = api::QueryKind::Contention; break;
        }
        tickets[c].push_back(service.submit((c + k) % 2 == 0 ? a : b, d));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < kQueries; ++k) {
      const api::QueryValue& v = tickets[c][k].get();
      switch (k % 3) {
        case 0:
          EXPECT_EQ(std::get<api::Report<analysis::PeriodResult>>(v)->period,
                    thr0->period);
          break;
        case 1: {
          const auto& r = std::get<api::Report<std::vector<wcrt::AppBound>>>(v);
          ASSERT_EQ(r->size(), wc->size());
          for (std::size_t i = 0; i < r->size(); ++i) {
            EXPECT_EQ((*r)[i].worst_case_period, (*wc)[i].worst_case_period);
          }
          break;
        }
        default: {
          const auto& r =
              std::get<api::Report<std::vector<prob::AppEstimate>>>(v);
          ASSERT_EQ(r->size(), est->size());
          for (std::size_t i = 0; i < r->size(); ++i) {
            EXPECT_EQ((*r)[i].estimated_period, (*est)[i].estimated_period);
          }
          break;
        }
      }
    }
  }

  // Whether the stress itself hits the table depends on thread timing:
  // coalescing and the result cache can absorb every repeat first. So check
  // the sharing deterministically, with a table-backed kind the stress never
  // issued: answered on `a` first, it must hit on the renamed twin `b`.
  api::QueryDesc latency;
  latency.kind = api::QueryKind::Latency;
  latency.app = 1;
  (void)service.submit(a, latency).get();
  const std::uint64_t hits_before = service.transposition_stats().hits;
  (void)service.submit(b, latency).get();
  EXPECT_GT(service.transposition_stats().hits, hits_before);
}

// ---- allocation-freeness ----------------------------------------------------

TEST(TranspositionAlloc, WarmLookupAndStoreAreAllocationFree) {
  TranspositionTable table(512, 2);
  // Warm: populate a handful of keys.
  for (std::uint64_t i = 0; i < 16; ++i) {
    TTKeyBuilder b(i * 0x9E37ULL, TTQuery::AdmissionPeriod);
    b.absorb(i);
    b.absorb_double(static_cast<double>(i) * 0.5);
    TTValue v;
    v.primary = static_cast<double>(i);
    table.store(b.key(), v);
  }

  const std::uint64_t before = allocations();
  std::uint64_t hits = 0;
  for (int rep = 0; rep < 100; ++rep) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      TTKeyBuilder b(i * 0x9E37ULL, TTQuery::AdmissionPeriod);
      b.absorb(i);
      b.absorb_double(static_cast<double>(i) * 0.5);
      TTValue v;
      if (table.lookup(b.key(), v)) ++hits;
      table.store(b.key(), v);
    }
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "warm lookup/store allocated on the hot path";
  EXPECT_EQ(hits, 1600u);
}

TEST(TranspositionAlloc, WarmAdmissionVerdictProbeStaysAllocationFree) {
  // The existing steady-state guarantee (verdict-only probe of a cached
  // candidate: zero allocations) must survive a table in the loop — probe
  // keys are built on the stack and hits copy into caller storage.
  util::Rng rng(31);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 4;
  const auto pool = gen::generate_graphs(rng, gopts, 2);

  const auto table = std::make_shared<TranspositionTable>(1 << 10, 2);
  AdmissionController ctrl(platform::Platform::homogeneous(4), 8, table);
  const std::vector<platform::NodeId> nodes0 = index_nodes(pool[0]);
  const std::vector<platform::NodeId> nodes1 = index_nodes(pool[1]);
  ASSERT_TRUE(ctrl.request(pool[0], nodes0, QoS::no_requirement()).admitted);

  WhatIfOptions verdict_only;
  verdict_only.with_estimates = false;
  WhatIfReport out;
  // Warm-up: sizes scratch, fills the table.
  ctrl.what_if_admit(pool[1], nodes1, QoS::no_requirement(), out, verdict_only);
  ASSERT_TRUE(out.admissible);

  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t before = allocations();
    ctrl.what_if_admit(pool[1], nodes1, QoS::no_requirement(), out, verdict_only);
    EXPECT_EQ(allocations() - before, 0u)
        << "warm table-backed verdict probe allocated (rep " << rep << ")";
  }
  EXPECT_TRUE(out.admissible);
  EXPECT_GT(table->stats().hits, 0u);
}

}  // namespace
}  // namespace procon
