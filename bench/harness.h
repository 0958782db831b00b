// Shared infrastructure for the experiment-reproduction harnesses.
//
// Every bench binary reproduces one table or figure of the paper on the
// same workload: ten random strongly-connected SDFGs with 8-10 actors
// (generated by procon::gen as the SDF3 substitute), actor j of every
// application mapped on node j, non-preemptive FCFS nodes, 500k-cycle
// simulations as the reference.
//
// Common flags (all optional):
//   --seed N            workload seed (default 2007)
//   --apps N            number of applications (default 10)
//   --horizon N         simulation horizon in time units (default 500000)
//   --per-size N        sampled use-cases per cardinality (default 16)
//   --full              enumerate all 2^N - 1 use-cases instead of sampling
//   --out DIR           directory for CSV dumps (default "results", created)
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "gen/use_cases.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "wcrt/wcrt.h"

namespace procon::bench {

struct Options {
  std::uint64_t seed = 2007;
  std::size_t apps = 10;
  sdf::Time horizon = 500'000;
  std::size_t per_size = 16;
  bool full = false;
  std::string out_dir = "results";
};

/// Parses the common flags; exits with a usage message on unknown flags.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Builds the paper workload system: `opts.apps` generated applications,
/// actor j -> node j mapping.
[[nodiscard]] platform::System make_workload(const Options& opts);

/// The use-case list according to --full / --per-size.
[[nodiscard]] std::vector<platform::UseCase> make_use_cases(const Options& opts,
                                                            std::size_t app_count);

/// The four estimation techniques of Section 5, in the paper's order.
struct Technique {
  std::string label;       ///< as printed in Fig. 5 / Table 1
  bool is_wcrt = false;    ///< worst-case baseline instead of probabilistic
  prob::EstimatorOptions estimator;  ///< used when !is_wcrt
};
[[nodiscard]] const std::vector<Technique>& paper_techniques();

/// Per-application periods estimated by one technique on use-case `uc`,
/// through a Workbench whose cached per-application engines amortise
/// structure across the use-cases and techniques a bench iterates over.
[[nodiscard]] std::vector<double> estimate_periods(api::Workbench& wb,
                                                   const platform::UseCase& uc,
                                                   const Technique& technique);

/// Simulation reference periods (average and worst observed) per app.
struct SimReference {
  std::vector<double> average;
  std::vector<double> worst;
  std::vector<bool> converged;
};
[[nodiscard]] SimReference simulate_reference(const platform::System& sys,
                                              sdf::Time horizon);

/// Warm-engine variant for per-use-case reference sweeps: restricts the
/// shared engine to `uc` (zero-copy) and reruns it — no per-use-case copy
/// or simulator rebuild. Results are identical to
/// simulate_reference(SystemView(sys, uc).materialise(), horizon).
[[nodiscard]] SimReference simulate_reference(sim::SimEngine& engine,
                                              const platform::UseCase& uc,
                                              sdf::Time horizon);

/// Wall-clock helper.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Writes `table` to stdout and to <out_dir>/<name>.csv.
void emit(const util::Table& table, const Options& opts, const std::string& name);

}  // namespace procon::bench
