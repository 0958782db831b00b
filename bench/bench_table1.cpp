// E2: reproduces Table 1 - "Measured inaccuracy for throughput and period
// as compared with simulation results", averaged over the use-cases, plus
// the complexity column.
//
// Default run samples --per-size use-cases per cardinality; pass --full to
// enumerate all 2^N - 1 use-cases exactly as the paper does (minutes of
// runtime, dominated by the 500k-cycle reference simulations).
//
// Expected shape (paper, Table 1):
//   Worst Case    : throughput ~49%, period ~112%  (conservative, O(n))
//   Composability : ~4%, ~14%                      (O(n))
//   Fourth Order  : ~0.7%, ~13%                    (O(n^4))
//   Second Order  : ~2.8%, ~11%                    (O(n^2))
#include <iostream>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace procon;
  const bench::Options opts = bench::parse_options(argc, argv);
  const platform::System sys = bench::make_workload(opts);
  const auto use_cases = bench::make_use_cases(opts, sys.app_count());

  std::cout << "=== E2 / Table 1: mean absolute inaccuracy vs simulation over "
            << use_cases.size() << " use-cases"
            << (opts.full ? " (full enumeration)" : " (sampled; --full for all)")
            << " ===\n\n";

  const auto& techniques = bench::paper_techniques();
  std::vector<util::RunningStats> throughput_err(techniques.size());
  std::vector<util::RunningStats> period_err(techniques.size());
  std::size_t skipped = 0;

  // One session: engine structure is paid once, not per (use-case, technique).
  api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
  // One simulation engine, reset per use-case (no per-use-case copies).
  sim::SimEngine sim_engine(sys);

  bench::Stopwatch total;
  for (const auto& uc : use_cases) {
    const bench::SimReference sim =
        bench::simulate_reference(sim_engine, uc, opts.horizon);
    bool ok = true;
    for (const bool c : sim.converged) ok = ok && c;
    if (!ok) {
      ++skipped;
      continue;
    }
    for (std::size_t t = 0; t < techniques.size(); ++t) {
      const auto est = bench::estimate_periods(wb, uc, techniques[t]);
      for (std::size_t i = 0; i < est.size(); ++i) {
        period_err[t].add(util::percent_abs_diff(est[i], sim.average[i]));
        throughput_err[t].add(
            util::percent_abs_diff(1.0 / est[i], 1.0 / sim.average[i]));
      }
    }
  }

  util::Table table("Table 1: inaccuracy in percent (mean absolute difference)");
  table.set_header({"Method", "Throughput", "Period", "Complexity"});
  const std::vector<std::string> complexity{"O(n)", "O(n)", "O(n^4)", "O(n^2)"};
  for (std::size_t t = 0; t < techniques.size(); ++t) {
    table.add_row({techniques[t].label,
                   util::format_double(throughput_err[t].mean(), 1),
                   util::format_double(period_err[t].mean(), 1), complexity[t]});
  }
  bench::emit(table, opts, "table1_inaccuracy");

  if (skipped > 0) {
    std::cout << "note: " << skipped
              << " use-cases skipped (simulation unconverged within horizon)\n";
  }
  std::cout << "total wall-clock: " << util::format_double(total.seconds(), 1)
            << " s over " << use_cases.size() << " use-cases\n";
  return 0;
}
