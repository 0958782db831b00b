// The sharded transposition table under cross-tenant load — the
// PR-over-PR tracker for Zobrist-keyed result memoisation.
//
// Three measurements on the paper workload:
//
//  1. cross-tenant repeated-query speedup: T structurally identical
//     tenants (renamed clones of the workload system) each open R fresh
//     sessions and run the same analysis mix (per-app throughput /
//     latency / bottleneck, buffer frontiers, whole-system WCRT). The
//     table-off arm recomputes everything per session; the table-on arm
//     shares one TranspositionTable across all sessions, so only the
//     first session pays — fingerprints are name-free, later tenants hit
//     the first tenant's entries. Results are checked bitwise identical
//     between the arms (the table is a pure memo, never an approximation).
//
//  2. service-level hit rate: an AnalysisService with its default shared
//     table serves the same query kinds across the renamed tenants; the
//     tt-stats counters it exposes are reported.
//
//  3. warm-hit allocation count: a warm table-backed admission verdict
//     probe (what_if_admit with estimates off) is bracketed with the
//     alloc probe; the count per probe must be ZERO.
//
// Emits BENCH_transposition.json; CI smoke-runs it and the Release gate
// checks the identity flag on the committed copy.
#include "util/alloc_probe.h"  // FIRST: replaces global new/delete

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "admission/admission.h"
#include "analysis/transposition_table.h"
#include "api/service.h"
#include "api/workbench.h"
#include "harness.h"

namespace {

using namespace procon;

/// Structurally identical copy of `sys` under fresh names: the name-free
/// Zobrist fingerprints hash it equal, so tenants share table entries.
platform::System renamed_clone(const platform::System& sys,
                               const std::string& suffix) {
  std::vector<sdf::Graph> apps;
  apps.reserve(sys.app_count());
  for (const sdf::Graph& g : sys.apps()) {
    sdf::Graph r(g.name() + suffix);
    for (const sdf::Actor& a : g.actors()) r.add_actor(a.name + suffix, a.exec_time);
    for (const sdf::Channel& c : g.channels()) {
      r.add_channel(c.src, c.dst, c.prod_rate, c.cons_rate, c.initial_tokens);
    }
    apps.push_back(std::move(r));
  }
  return platform::System(std::move(apps), sys.platform(), sys.mapping());
}

/// The repeated analysis mix of one session; every produced double is
/// appended to `out` in call order so the two arms can be compared
/// bitwise.
void run_session_mix(api::Workbench& wb, std::vector<double>& out) {
  dse::BufferExplorerOptions bopts;
  bopts.max_steps = 32;
  const std::size_t frontier_apps = std::min<std::size_t>(wb.app_count(), 4);
  for (sdf::AppId app = 0; app < static_cast<sdf::AppId>(wb.app_count()); ++app) {
    const auto thr = wb.throughput(app);
    out.push_back(thr->period);
    const auto lat = wb.latency(app);
    out.push_back(lat->latency);
    const auto bot = wb.bottleneck(app);
    out.push_back(bot->period);
    out.push_back(static_cast<double>(bot->actors.size()));
  }
  for (sdf::AppId app = 0; app < static_cast<sdf::AppId>(frontier_apps); ++app) {
    const auto frontier = wb.buffer_frontier(app, bopts);
    for (const dse::BufferPoint& p : *frontier) {
      out.push_back(p.period);
      out.push_back(static_cast<double>(p.total_tokens));
    }
  }
  const auto bounds = wb.wcrt();
  for (const wcrt::AppBound& b : *bounds) {
    out.push_back(b.isolation_period);
    out.push_back(b.worst_case_period);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  const platform::System base = bench::make_workload(opts);
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kRounds = 2;

  std::vector<platform::System> tenants;
  tenants.reserve(kTenants);
  tenants.push_back(base);
  for (std::size_t t = 1; t < kTenants; ++t) {
    tenants.push_back(renamed_clone(base, "_t" + std::to_string(t)));
  }

  // ---- 1. cross-tenant repeated-query speedup -----------------------------
  // Fresh session per (round, tenant) in both arms — the service's
  // session-eviction scenario. Only the query mix is timed; session
  // construction (engine building) is identical in both arms.
  const auto run_arm = [&](const std::shared_ptr<analysis::TranspositionTable>&
                               table,
                           std::vector<double>& values) {
    double seconds = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const platform::System& sys : tenants) {
        api::Workbench wb(sys,
                          api::WorkbenchOptions{.threads = 1, .table = table});
        bench::Stopwatch clock;
        run_session_mix(wb, values);
        seconds += clock.seconds();
      }
    }
    return seconds;
  };

  std::vector<double> off_values;
  const double off_seconds = run_arm(nullptr, off_values);

  const auto table =
      std::make_shared<analysis::TranspositionTable>(std::size_t{1} << 16, 16);
  std::vector<double> on_values;
  const double on_seconds = run_arm(table, on_values);

  bool identical = off_values.size() == on_values.size();
  for (std::size_t i = 0; identical && i < off_values.size(); ++i) {
    identical = off_values[i] == on_values[i];
  }
  const double speedup = on_seconds > 0.0 ? off_seconds / on_seconds : 0.0;
  const analysis::TranspositionTable::Stats wb_stats = table->stats();

  // ---- 2. service-level hit rate ------------------------------------------
  double service_hit_rate = 0.0;
  {
    api::AnalysisService service(api::ServiceOptions{
        .threads = 1, .session_capacity = kTenants});
    std::vector<api::SystemId> ids;
    ids.reserve(kTenants);
    for (const platform::System& sys : tenants) {
      ids.push_back(service.register_system(sys));
    }
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const api::SystemId id : ids) {
        for (std::size_t k = 0; k < base.app_count(); ++k) {
          api::QueryDesc d;
          d.kind = k % 2 == 0 ? api::QueryKind::Throughput
                              : api::QueryKind::Bottleneck;
          d.app = static_cast<sdf::AppId>(k % base.app_count());
          service.submit(id, d).wait();
        }
        api::QueryDesc w;
        w.kind = api::QueryKind::Wcrt;
        service.submit(id, w).wait();
      }
    }
    const analysis::TranspositionTable::Stats s = service.transposition_stats();
    service_hit_rate = s.hit_rate();
    identical = identical && s.hits > 0;
  }

  // ---- 3. warm-hit allocation count ---------------------------------------
  std::uint64_t warm_probe_allocs = 0;
  {
    admission::AdmissionController ctrl(base.platform(), 8, table);
    std::vector<platform::NodeId> nodes0(base.app(0).actor_count());
    for (std::size_t a = 0; a < nodes0.size(); ++a) {
      nodes0[a] = static_cast<platform::NodeId>(a);
    }
    std::vector<platform::NodeId> nodes1(base.app(1).actor_count());
    for (std::size_t a = 0; a < nodes1.size(); ++a) {
      nodes1[a] = static_cast<platform::NodeId>(a);
    }
    (void)ctrl.request(base.app(0), nodes0, admission::QoS::no_requirement());
    admission::WhatIfOptions verdict_only;
    verdict_only.with_estimates = false;
    admission::WhatIfReport report;
    ctrl.what_if_admit(base.app(1), nodes1, admission::QoS::no_requirement(),
                       report, verdict_only);  // warm-up: fills the table
    constexpr std::uint64_t kProbes = 16;
    const std::uint64_t before = util::alloc_probe::allocations();
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      ctrl.what_if_admit(base.app(1), nodes1, admission::QoS::no_requirement(),
                         report, verdict_only);
    }
    warm_probe_allocs = (util::alloc_probe::allocations() - before) / kProbes;
    identical = identical && warm_probe_allocs == 0;
  }

  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"transposition\",\"seed\":%llu,\"tenants\":%zu,"
      "\"rounds\":%zu,\"table_off_ms\":%.2f,\"table_on_ms\":%.2f,"
      "\"speedup\":%.2f,\"tt_hits\":%llu,\"tt_misses\":%llu,"
      "\"tt_hit_rate\":%.3f,\"tt_evictions\":%llu,"
      "\"service_tt_hit_rate\":%.3f,\"warm_probe_allocs\":%llu,"
      "\"identical\":%s}",
      static_cast<unsigned long long>(opts.seed), kTenants, kRounds,
      1e3 * off_seconds, 1e3 * on_seconds, speedup,
      static_cast<unsigned long long>(wb_stats.hits),
      static_cast<unsigned long long>(wb_stats.misses), wb_stats.hit_rate(),
      static_cast<unsigned long long>(wb_stats.evictions), service_hit_rate,
      static_cast<unsigned long long>(warm_probe_allocs),
      identical ? "true" : "false");

  std::cout << json << "\n";
  std::ofstream out("BENCH_transposition.json");
  out << json << "\n";

  if (!identical) {
    std::cerr << "FAIL: table-on results diverged from the table-off "
                 "baseline, the service table never hit, or a warm probe "
                 "allocated\n";
    return 1;
  }
  return 0;
}
