// E3: reproduces Figure 6 - "Inaccuracy in application periods obtained
// through simulation and different analysis techniques" as a function of
// the number of concurrently executing applications (1..N).
//
// Expected shape (paper): zero inaccuracy at one application (no
// contention); the worst-case curve grows steeply (up to ~160%), the three
// probabilistic curves stay within ~20%, second order ~ composability, and
// fourth order lowest (max ~14%) - the "ten-fold improvement".
#include <iostream>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace procon;
  const bench::Options opts = bench::parse_options(argc, argv);
  const platform::System sys = bench::make_workload(opts);
  const auto use_cases = bench::make_use_cases(opts, sys.app_count());
  // One session for every use-case and technique: the per-application
  // engines are built once instead of once per (use-case, technique).
  api::Workbench wb(sys, api::WorkbenchOptions{.threads = 1});
  // One simulation engine for every reference run: reset per use-case, the
  // flattened structure and per-use-case copies are paid zero times per sweep.
  sim::SimEngine sim_engine(sys);

  std::cout << "=== E3 / Figure 6: period inaccuracy vs number of concurrent "
               "applications ===\n\n";

  const auto& techniques = bench::paper_techniques();
  // err[technique][cardinality] accumulates the per-app period inaccuracy.
  std::vector<std::vector<util::RunningStats>> err(
      techniques.size(), std::vector<util::RunningStats>(sys.app_count() + 1));

  for (const auto& uc : use_cases) {
    const bench::SimReference sim =
        bench::simulate_reference(sim_engine, uc, opts.horizon);
    bool ok = true;
    for (const bool c : sim.converged) ok = ok && c;
    if (!ok) continue;
    for (std::size_t t = 0; t < techniques.size(); ++t) {
      const auto est = bench::estimate_periods(wb, uc, techniques[t]);
      for (std::size_t i = 0; i < est.size(); ++i) {
        err[t][uc.size()].add(util::percent_abs_diff(est[i], sim.average[i]));
      }
    }
  }

  util::Table table(
      "Figure 6: mean abs period inaccuracy (percent) by concurrency level");
  std::vector<std::string> header{"Concurrent apps"};
  for (const auto& t : techniques) header.push_back(t.label);
  table.set_header(header);
  for (std::size_t k = 1; k <= sys.app_count(); ++k) {
    std::vector<std::string> row{std::to_string(k)};
    for (std::size_t t = 0; t < techniques.size(); ++t) {
      row.push_back(err[t][k].count() ? util::format_double(err[t][k].mean(), 1)
                                      : "-");
    }
    table.add_row(row);
  }
  bench::emit(table, opts, "fig6_inaccuracy_vs_apps");

  // Shape summary: maximum inaccuracy per technique across cardinalities.
  std::cout << "shape: max inaccuracy -";
  for (std::size_t t = 0; t < techniques.size(); ++t) {
    double m = 0.0;
    for (std::size_t k = 1; k <= sys.app_count(); ++k) {
      if (err[t][k].count()) m = std::max(m, err[t][k].mean());
    }
    std::cout << " " << techniques[t].label << ": " << util::format_double(m, 1)
              << "%" << (t + 1 < techniques.size() ? "," : "\n");
  }
  return 0;
}
