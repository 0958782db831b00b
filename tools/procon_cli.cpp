// procon - command-line front end to the library.
//
// All system-level analysis goes through one procon::api::Workbench session
// per invocation: the per-application engines are built once and shared by
// every query the subcommand issues.
//
// Subcommands:
//   generate [--seed S] [--count N] [--min-actors A] [--max-actors B]
//       Emit random consistent strongly-connected SDFGs (text format) on
//       stdout.
//   period <file>
//       Per graph: consistency, repetition sum, deadlock-freedom, exact and
//       MCR periods, latency, bottleneck actors.
//   estimate <file> [--method exact|second|fourth|compose|inverse]
//            [--order M] [--iterations K]
//       Treat each graph in the file as one application, map actor j of
//       every application onto node j, and print contention estimates plus
//       the round-robin worst-case bound.
//   simulate <file> [--horizon N] [--arbitration fcfs|rr|tdma]
//       Reference discrete-event simulation of the same system.
//   sweep <file> [--full | --per-size N] [--threads T] [--method ...]
//       Estimate every (or a sampled set of) use-case(s), fanned out over T
//       workers (0 = one per hardware thread).
//   serve <file> [--clients N] [--queries Q] [--threads T] [--capacity S]
//       Drive an api::AnalysisService end to end: register the file's
//       graphs as two tenant systems, hammer them from N client threads
//       with mixed ticketed queries and verify every result against a
//       serial Workbench oracle (exit 1 on any mismatch). Repeats coalesce
//       in flight or hit the result cache, which outlives session
//       eviction, so at --capacity 1 --threads 1 only each distinct query's
//       first submit executes. Drains the service, then prints its
//       counters (coalesced, result-cache hits, executions, sessions
//       built/evicted/live) and a tt-stats line for the shared
//       transposition table; exits 1 when more sessions than the capacity
//       are still live.
//   buffers <file>
//       Buffer-capacity / period Pareto frontier per graph (a fresh engine
//       per candidate capacity vector).
//   dot <file>
//       Graphviz DOT for every graph on stdout.
//   selftest
//       End-to-end smoke test (used by CTest); exits non-zero on failure.
//
// Every numeric flag must be one whole decimal integer in range: a value
// such as 5e5, 2x or (for a count) -1 is an error, exit 1.
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/throughput.h"
#include "analysis/transposition_table.h"
#include "api/service.h"
#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "platform/system.h"
#include "prob/estimator.h"
#include "sdf/algorithms.h"
#include "sdf/io.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "wcrt/wcrt.h"

namespace {

using namespace procon;

int usage(int code) {
  std::cout <<
      "procon - probabilistic contention analysis for SDF applications\n"
      "usage:\n"
      "  procon generate [--seed S] [--count N] [--min-actors A] [--max-actors B]\n"
      "  procon period   <file>\n"
      "  procon estimate <file> [--method exact|second|fourth|compose|inverse]\n"
      "                  [--order M] [--iterations K]\n"
      "  procon simulate <file> [--horizon N] [--arbitration fcfs|rr|tdma]\n"
      "  procon sweep    <file> [--full | --per-size N] [--threads T] [--method M]\n"
      "  procon serve    <file> [--clients N] [--queries Q] [--threads T]\n"
      "                  [--capacity S]\n"
      "  procon buffers  <file>\n"
      "  procon dot      <file>\n"
      "  procon selftest\n";
  return code;
}

std::vector<sdf::Graph> load_graphs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  auto graphs = sdf::read_graphs(in);
  if (graphs.empty()) throw std::runtime_error("no graphs in " + path);
  return graphs;
}

platform::System make_system(std::vector<sdf::Graph> apps) {
  std::size_t max_actors = 0;
  for (const auto& g : apps) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

/// Simple flag scanner over argv[2..]: returns the value after `flag`.
std::string flag_value(int argc, char** argv, const std::string& flag,
                       const std::string& fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 2; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// The value after `flag` as one whole integer token of type T, or
/// `fallback` when the flag is absent. std::from_chars must consume all of
/// it without overflow, so "5e5", "2x" and a missing value fail instead of
/// reading as their leading digits, and an unsigned T rejects a minus sign.
template <typename T>
T flag_integer(int argc, char** argv, const std::string& flag, T fallback) {
  if (!has_flag(argc, argv, flag)) return fallback;
  const std::string token = flag_value(argc, argv, flag, "");
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::runtime_error(flag + ": malformed or out-of-range integer '" + token + "'");
  }
  return value;
}

void print_provenance(const api::Provenance& p) {
  std::cout << "[" << p.method << ": " << p.evaluations << " evaluation(s), "
            << p.threads << " thread(s), " << util::format_double(p.wall_ms, 2)
            << " ms]\n";
}

int cmd_generate(int argc, char** argv) {
  util::Rng rng(flag_integer<std::uint64_t>(argc, argv, "--seed", 2007));
  gen::GeneratorOptions opts;
  opts.min_actors = flag_integer<std::uint32_t>(argc, argv, "--min-actors", 8);
  opts.max_actors = flag_integer<std::uint32_t>(argc, argv, "--max-actors", 10);
  const auto count = flag_integer<std::size_t>(argc, argv, "--count", 1);
  for (const auto& g : gen::generate_graphs(rng, opts, count)) {
    sdf::write_graph(std::cout, g);
  }
  return 0;
}

int cmd_period(int argc, char** argv) {
  if (argc < 3) return usage(2);
  util::Table table("Throughput analysis");
  table.set_header({"graph", "actors", "rep.sum", "consistent", "deadlock-free",
                    "period (exact)", "period (MCR)", "latency", "bottleneck"});
  for (const auto& g : load_graphs(argv[2])) {
    // The liveness walk is capped like every expansion: a graph above
    // sdf::kMaxRepetitionSum firings is an error, not a long wait.
    const sdf::DeadlockDiagnosis diag = sdf::diagnose_deadlock(g);
    const bool consistent = diag.consistent;
    const bool live = diag.deadlock_free;
    std::string exact = "-", mcr = "-", latency = "-", bottleneck = "-";
    std::string repsum = "-";
    if (consistent) {
      const auto q = sdf::compute_repetition_vector(g);
      repsum = std::to_string(sdf::repetition_sum(*q));
    }
    if (live) {
      // A single-application session: every per-graph query shares the
      // cached engine and expansion.
      const platform::Platform solo_plat =
          platform::Platform::homogeneous(g.actor_count());
      const std::vector<sdf::Graph> solo_apps{g};
      platform::System solo(solo_apps, solo_plat,
                            platform::Mapping::by_index(solo_apps, solo_plat));
      api::Workbench wb(std::move(solo), api::WorkbenchOptions{.threads = 1});
      exact = analysis::compute_period_exact(g).to_string();
      mcr = util::format_double(wb.throughput(0)->period, 3);
      latency = util::format_double(wb.latency(0)->latency, 3);
      const auto b = wb.bottleneck(0);
      bottleneck.clear();
      for (const auto a : b->actors) {
        if (!bottleneck.empty()) bottleneck += ",";
        bottleneck += g.actor(a).name;
      }
    }
    table.add_row({g.name(), std::to_string(g.actor_count()), repsum,
                   consistent ? "yes" : "no", live ? "yes" : "no", exact, mcr,
                   latency, bottleneck});
  }
  std::cout << table.render();
  return 0;
}

prob::EstimatorOptions parse_estimator(int argc, char** argv) {
  prob::EstimatorOptions opts;
  const std::string m = flag_value(argc, argv, "--method", "second");
  if (m == "exact") opts.method = prob::Method::Exact;
  else if (m == "second") opts.method = prob::Method::SecondOrder;
  else if (m == "fourth") opts.method = prob::Method::FourthOrder;
  else if (m == "compose") opts.method = prob::Method::Composability;
  else if (m == "inverse") opts.method = prob::Method::CompositionInverse;
  else if (m == "mth") opts.method = prob::Method::MthOrder;
  else throw std::runtime_error("unknown method " + m);
  opts.order = flag_integer<int>(argc, argv, "--order", 2);
  opts.iterations = flag_integer<int>(argc, argv, "--iterations", 1);
  return opts;
}

int cmd_estimate(int argc, char** argv) {
  if (argc < 3) return usage(2);
  api::Workbench wb(make_system(load_graphs(argv[2])),
                    api::WorkbenchOptions{.threads = 1});
  const prob::EstimatorOptions eopts = parse_estimator(argc, argv);
  const auto est = wb.contention(eopts);
  const auto wc = wb.wcrt();
  util::Table table("Contention estimates (" + std::string(prob::method_name(eopts.method)) +
                    "), actor j -> node j");
  table.set_header({"app", "isolation", "estimated", "normalised", "throughput",
                    "worst-case bound"});
  for (std::size_t i = 0; i < est->size(); ++i) {
    table.add_row({wb.system().app(static_cast<sdf::AppId>(i)).name(),
                   util::format_double((*est)[i].isolation_period, 2),
                   util::format_double((*est)[i].estimated_period, 2),
                   util::format_double((*est)[i].normalised_period(), 2),
                   util::format_double((*est)[i].estimated_throughput(), 6),
                   util::format_double((*wc)[i].worst_case_period, 2)});
  }
  std::cout << table.render();
  print_provenance(est.provenance);
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) return usage(2);
  api::Workbench wb(make_system(load_graphs(argv[2])),
                    api::WorkbenchOptions{.threads = 1});
  sim::SimOptions sopts;
  sopts.horizon = flag_integer<sdf::Time>(argc, argv, "--horizon", 500'000);
  const std::string arb = flag_value(argc, argv, "--arbitration", "fcfs");
  if (arb == "fcfs") sopts.arbitration = sim::Arbitration::Fcfs;
  else if (arb == "rr") sopts.arbitration = sim::Arbitration::RoundRobin;
  else if (arb == "tdma") sopts.arbitration = sim::Arbitration::Tdma;
  else throw std::runtime_error("unknown arbitration " + arb);
  const auto r = wb.simulate(sopts);
  util::Table table("Simulation (" + arb + ", horizon " +
                    std::to_string(sopts.horizon) + ")");
  table.set_header({"app", "iterations", "avg period", "worst period",
                    "converged"});
  for (std::size_t i = 0; i < r->apps.size(); ++i) {
    table.add_row({wb.system().app(static_cast<sdf::AppId>(i)).name(),
                   std::to_string(r->apps[i].iterations),
                   util::format_double(r->apps[i].average_period, 2),
                   util::format_double(r->apps[i].worst_period, 2),
                   r->apps[i].converged ? "yes" : "no"});
  }
  std::cout << table.render();
  std::cout << "node utilisation:";
  for (const double u : r->node_utilisation) {
    std::cout << ' ' << util::format_double(u, 3);
  }
  std::cout << '\n';
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return usage(2);
  const auto threads = flag_integer<std::size_t>(argc, argv, "--threads", 0);
  api::Workbench wb(make_system(load_graphs(argv[2])),
                    api::WorkbenchOptions{.threads = threads});

  std::vector<platform::UseCase> use_cases;
  if (has_flag(argc, argv, "--full")) {
    use_cases = gen::all_use_cases(wb.app_count());
  } else {
    util::Rng rng(flag_integer<std::uint64_t>(argc, argv, "--seed", 2007));
    const auto per_size = flag_integer<std::size_t>(argc, argv, "--per-size", 8);
    use_cases = gen::sample_use_cases(wb.app_count(), per_size, rng);
  }

  api::SweepOptions sopts;
  sopts.estimator = parse_estimator(argc, argv);
  const auto swept = wb.sweep_use_cases(use_cases, sopts);

  util::Table table("Use-case sweep (" +
                    std::string(prob::method_name(sopts.estimator.method)) + ")");
  table.set_header({"use-case", "app", "isolation", "estimated", "normalised"});
  for (const api::UseCaseResult& r : *swept) {
    std::string label;
    for (const auto id : r.use_case) {
      if (!label.empty()) label += "+";
      label += wb.system().app(id).name();
    }
    for (std::size_t i = 0; i < r.estimates.size(); ++i) {
      table.add_row({label, wb.system().app(r.use_case[i]).name(),
                     util::format_double(r.estimates[i].isolation_period, 2),
                     util::format_double(r.estimates[i].estimated_period, 2),
                     util::format_double(r.estimates[i].normalised_period(), 2)});
    }
  }
  std::cout << table.render();
  print_provenance(swept.provenance);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) return usage(2);
  const auto clients = flag_integer<std::size_t>(argc, argv, "--clients", 4);
  const auto queries = flag_integer<std::size_t>(argc, argv, "--queries", 32);
  const auto threads = flag_integer<std::size_t>(argc, argv, "--threads", 0);
  const auto capacity = flag_integer<std::size_t>(argc, argv, "--capacity", 4);

  auto graphs = load_graphs(argv[2]);
  // Two tenants from one file: the full set, and the set without its last
  // application (distinct structure, so the service keeps two sessions).
  platform::System sys_a = make_system(graphs);
  if (graphs.size() > 1) graphs.pop_back();
  platform::System sys_b = make_system(std::move(graphs));

  // Serial oracles: every ticketed result must match these bitwise.
  api::Workbench oracle_a(sys_a, api::WorkbenchOptions{.threads = 1});
  api::Workbench oracle_b(sys_b, api::WorkbenchOptions{.threads = 1});
  const auto est_a = oracle_a.contention();
  const auto est_b = oracle_b.contention();
  const auto wc_a = oracle_a.wcrt();
  const auto wc_b = oracle_b.wcrt();

  api::AnalysisService service(api::ServiceOptions{
      .threads = threads, .session_capacity = capacity});
  const api::SystemId a = service.register_system(sys_a);
  const api::SystemId b = service.register_system(sys_b);

  std::vector<std::vector<api::QueryTicket>> tickets(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t k = 0; k < queries; ++k) {
        api::QueryDesc d;
        d.kind = (k % 2 == 0) ? api::QueryKind::Contention : api::QueryKind::Wcrt;
        tickets[c].push_back(service.submit((c + k) % 2 == 0 ? a : b, d));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::size_t verified = 0;
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t k = 0; k < queries; ++k) {
      const bool on_a = (c + k) % 2 == 0;
      const api::QueryValue& v = tickets[c][k].get();
      bool same = true;
      if (k % 2 == 0) {
        const auto& r = std::get<api::Report<std::vector<prob::AppEstimate>>>(v);
        const auto& oracle = on_a ? *est_a : *est_b;
        same = r->size() == oracle.size();
        for (std::size_t i = 0; same && i < oracle.size(); ++i) {
          same = (*r)[i].estimated_period == oracle[i].estimated_period;
        }
      } else {
        const auto& r = std::get<api::Report<std::vector<wcrt::AppBound>>>(v);
        const auto& oracle = on_a ? *wc_a : *wc_b;
        same = r->size() == oracle.size();
        for (std::size_t i = 0; same && i < oracle.size(); ++i) {
          same = (*r)[i].worst_case_period == oracle[i].worst_case_period;
        }
      }
      ++verified;
      if (!same) ++mismatches;
    }
  }

  // Every drainer idle: the store is trimmed back to its capacity.
  service.drain();
  const api::ServiceStats stats = service.stats();
  const std::size_t live = service.session_count();
  util::Table table("AnalysisService: " + std::to_string(clients) +
                    " client(s) x " + std::to_string(queries) + " queries");
  table.set_header({"counter", "value"});
  table.add_row({"tickets verified", std::to_string(verified)});
  table.add_row({"oracle mismatches", std::to_string(mismatches)});
  table.add_row({"submitted", std::to_string(stats.submitted)});
  table.add_row({"coalesced (shared in-flight)", std::to_string(stats.coalesced)});
  table.add_row({"result-cache hits", std::to_string(stats.result_hits)});
  table.add_row({"executed", std::to_string(stats.executed)});
  table.add_row({"sessions built", std::to_string(stats.sessions_built)});
  table.add_row({"sessions evicted", std::to_string(stats.sessions_evicted)});
  table.add_row({"live sessions", std::to_string(live)});
  std::cout << table.render();

  // Shared transposition table: one line so an operator can see at a glance
  // whether cross-tenant memoisation is doing any work.
  const analysis::TranspositionTable::Stats tt = service.transposition_stats();
  std::cout << "[tt-stats: " << tt.hits << " hit(s), " << tt.misses
            << " miss(es), hit-rate "
            << util::format_double(100.0 * tt.hit_rate(), 1) << "%, "
            << tt.evictions << " eviction(s), " << tt.verify_failures
            << " verify failure(s)]\n";

  if (mismatches != 0) {
    std::cerr << "error: service results diverged from the serial oracle\n";
    return 1;
  }
  if (live > std::max<std::size_t>(capacity, 1)) {
    std::cerr << "error: " << live << " sessions live after drain, above the capacity of "
              << capacity << "\n";
    return 1;
  }
  return 0;
}

int cmd_buffers(int argc, char** argv) {
  if (argc < 3) return usage(2);
  api::Workbench wb(make_system(load_graphs(argv[2])),
                    api::WorkbenchOptions{.threads = 1});
  util::Table table("Buffer-capacity / period Pareto frontier");
  table.set_header({"app", "point", "total tokens", "period"});
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    const auto frontier = wb.buffer_frontier(i);
    for (std::size_t k = 0; k < frontier->size(); ++k) {
      table.add_row({wb.system().app(i).name(), std::to_string(k),
                     std::to_string((*frontier)[k].total_tokens),
                     util::format_double((*frontier)[k].period, 3)});
    }
  }
  std::cout << table.render();
  return 0;
}

int cmd_dot(int argc, char** argv) {
  if (argc < 3) return usage(2);
  for (const auto& g : load_graphs(argv[2])) {
    std::cout << sdf::to_dot(g);
  }
  return 0;
}

#define CLI_CHECK(cond)                                           \
  do {                                                            \
    if (!(cond)) {                                                \
      std::cerr << "selftest FAILED at " << __LINE__ << ": "      \
                << #cond << "\n";                                 \
      return 1;                                                   \
    }                                                             \
  } while (0)

int cmd_selftest() {
  // generate -> serialise -> parse -> analyse -> estimate -> simulate,
  // everything cross-checked between the Workbench session and the legacy
  // free functions.
  util::Rng rng(99);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 5;
  gopts.max_actors = 7;
  const auto graphs = gen::generate_graphs(rng, gopts, 3);
  std::stringstream stream;
  for (const auto& g : graphs) sdf::write_graph(stream, g);
  const auto parsed = sdf::read_graphs(stream);
  CLI_CHECK(parsed.size() == graphs.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    CLI_CHECK(sdf::is_consistent(parsed[i]));
    CLI_CHECK(sdf::is_strongly_connected(parsed[i]));
    CLI_CHECK(sdf::is_deadlock_free(parsed[i]));
    const double original = analysis::compute_period(graphs[i]).period;
    const double roundtrip = analysis::compute_period(parsed[i]).period;
    CLI_CHECK(std::abs(original - roundtrip) < 1e-9);
  }
  api::Workbench wb(make_system(parsed), api::WorkbenchOptions{.threads = 2});

  // Workbench queries must equal the one-shot functions bit for bit.
  for (sdf::AppId i = 0; i < wb.app_count(); ++i) {
    CLI_CHECK(wb.throughput(i)->period ==
              analysis::compute_period(wb.system().app(i)).period);
    CLI_CHECK(wb.latency(i)->latency ==
              analysis::compute_latency(wb.system().app(i)).latency);
  }
  const auto est = wb.contention();
  // Independent path: one-shot engines over the full system.
  const auto fresh = prob::ContentionEstimator().estimate(wb.system());
  CLI_CHECK(est->size() == fresh.size());
  for (std::size_t i = 0; i < est->size(); ++i) {
    CLI_CHECK((*est)[i].estimated_period == fresh[i].estimated_period);
  }

  // A fanned-out sweep must not depend on the worker count.
  const auto use_cases = gen::all_use_cases(wb.app_count());
  api::Workbench serial(make_system(parsed), api::WorkbenchOptions{.threads = 1});
  const auto a = serial.sweep_use_cases(use_cases);
  const auto b = wb.sweep_use_cases(use_cases);
  CLI_CHECK(a->size() == b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    for (std::size_t j = 0; j < (*a)[i].estimates.size(); ++j) {
      CLI_CHECK((*a)[i].estimates[j].estimated_period ==
                (*b)[i].estimates[j].estimated_period);
    }
  }

  const auto simres = wb.simulate(sim::SimOptions{.horizon = 200'000});
  CLI_CHECK(est->size() == simres->apps.size());
  for (std::size_t i = 0; i < est->size(); ++i) {
    CLI_CHECK((*est)[i].estimated_period >= (*est)[i].isolation_period - 1e-9);
    CLI_CHECK(simres->apps[i].converged);
  }

  // The service front door answers exactly like the session underneath.
  api::AnalysisService service(api::ServiceOptions{.threads = 2});
  const api::SystemId sid = service.register_system(wb.system());
  api::QueryDesc q;
  q.kind = api::QueryKind::Contention;
  auto t1 = service.submit(sid, q);
  auto t2 = service.submit(sid, q);  // identical: may coalesce with t1
  const auto& served =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(t1.get());
  const auto& served2 =
      std::get<api::Report<std::vector<prob::AppEstimate>>>(t2.get());
  CLI_CHECK(served->size() == est->size());
  for (std::size_t i = 0; i < est->size(); ++i) {
    CLI_CHECK((*served)[i].estimated_period == (*est)[i].estimated_period);
    CLI_CHECK((*served2)[i].estimated_period == (*est)[i].estimated_period);
  }
  const auto sstats = service.stats();
  // The second submit is served without a fresh execution: either it
  // coalesced onto the in-flight twin or it hit the result cache.
  CLI_CHECK(sstats.submitted ==
            sstats.executed + sstats.coalesced + sstats.result_hits);
  std::cout << "selftest OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(0);
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "period") return cmd_period(argc, argv);
    if (cmd == "estimate") return cmd_estimate(argc, argv);
    if (cmd == "simulate") return cmd_simulate(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "buffers") return cmd_buffers(argc, argv);
    if (cmd == "dot") return cmd_dot(argc, argv);
    if (cmd == "selftest") return cmd_selftest();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command: " << cmd << '\n';
  return usage(2);
}
