// Workbench sharding speedup and determinism.
//
// On the paper workload, with bitwise identity checks (the parallel paths
// must return the same bits as the serial ones):
//
//  1. use-case sweep: Workbench::sweep_use_cases with 1 thread vs one
//     worker per hardware thread, over the --per-size sampled (or --full
//     enumerated) use-case list;
//  2. a mapper determinism probe (1 thread == N threads).
//
// Emits BENCH_workbench.json so the perf trajectory is tracked per PR.
//
// Flags: the common harness set (--seed, --apps, --per-size, --full, ...).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "api/workbench.h"
#include "harness.h"

namespace {

using namespace procon;

bool same_estimates(const std::vector<api::UseCaseResult>& a,
                    const std::vector<api::UseCaseResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].estimates.size() != b[i].estimates.size()) return false;
    for (std::size_t j = 0; j < a[i].estimates.size(); ++j) {
      if (a[i].estimates[j].estimated_period != b[i].estimates[j].estimated_period ||
          a[i].estimates[j].isolation_period != b[i].estimates[j].isolation_period) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parse_options(argc, argv);
  const platform::System sys = bench::make_workload(opts);
  const auto use_cases = bench::make_use_cases(opts, sys.app_count());

  // --- 1. use-case sweep: 1 thread vs hardware threads ----------------------
  // At least 4 workers even on small machines, so the determinism checks
  // always exercise genuinely concurrent scheduling.
  const std::size_t kThreads = std::max<std::size_t>(
      4, std::thread::hardware_concurrency());
  api::Workbench serial(sys, api::WorkbenchOptions{.threads = 1});
  api::Workbench parallel(sys, api::WorkbenchOptions{.threads = kThreads});

  // Warm both sessions (engine clones, pool) outside the timed region.
  (void)serial.sweep_use_cases(std::span(use_cases.data(), 1));
  (void)parallel.sweep_use_cases(std::span(use_cases.data(), 1));

  const auto swept_serial = serial.sweep_use_cases(use_cases);
  const auto swept_parallel = parallel.sweep_use_cases(use_cases);
  const bool sweep_identical = same_estimates(*swept_serial, *swept_parallel);
  const double sweep_speedup =
      swept_parallel.provenance.wall_ms > 0.0
          ? swept_serial.provenance.wall_ms / swept_parallel.provenance.wall_ms
          : 0.0;

  // --- 2. mapper determinism probe ------------------------------------------
  dse::MapperOptions mopts;
  mopts.iterations = 300;
  mopts.seed = opts.seed;
  const auto mapped_serial = serial.optimise_mapping(mopts);
  const auto mapped_parallel = parallel.optimise_mapping(mopts);
  bool mapper_deterministic =
      mapped_serial->score == mapped_parallel->score &&
      mapped_serial->accepted_moves == mapped_parallel->accepted_moves &&
      mapped_serial->evaluations == mapped_parallel->evaluations;
  if (mapper_deterministic) {
    for (sdf::AppId i = 0; i < sys.app_count() && mapper_deterministic; ++i) {
      for (sdf::ActorId a = 0; a < sys.app(i).actor_count(); ++a) {
        if (mapped_serial->mapping.node_of(i, a) !=
            mapped_parallel->mapping.node_of(i, a)) {
          mapper_deterministic = false;
          break;
        }
      }
    }
  }

  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"workbench\",\"seed\":%llu,\"apps\":%zu,"
      "\"use_cases\":%zu,\"threads\":%zu,"
      "\"sweep_serial_ms\":%.3f,\"sweep_parallel_ms\":%.3f,"
      "\"sweep_speedup\":%.2f,\"sweep_identical\":%s,"
      "\"mapper_deterministic\":%s}",
      static_cast<unsigned long long>(opts.seed), sys.app_count(),
      use_cases.size(), parallel.thread_count(),
      swept_serial.provenance.wall_ms, swept_parallel.provenance.wall_ms,
      sweep_speedup, sweep_identical ? "true" : "false",
      mapper_deterministic ? "true" : "false");

  std::cout << json << "\n";
  std::ofstream out("BENCH_workbench.json");
  out << json << "\n";

  if (!sweep_identical || !mapper_deterministic) {
    std::cerr << "FAIL: parallel paths disagree with the serial references\n";
    return 1;
  }
  return 0;
}
