#include "harness.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>

namespace procon::bench {

Options parse_options(int argc, char** argv) {
  Options opts;
  auto need_value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      opts.seed = std::strtoull(need_value(i, arg).c_str(), nullptr, 10);
    } else if (arg == "--apps") {
      opts.apps = std::strtoull(need_value(i, arg).c_str(), nullptr, 10);
    } else if (arg == "--horizon") {
      opts.horizon = static_cast<sdf::Time>(
          std::strtoll(need_value(i, arg).c_str(), nullptr, 10));
    } else if (arg == "--per-size") {
      opts.per_size = std::strtoull(need_value(i, arg).c_str(), nullptr, 10);
    } else if (arg == "--full") {
      opts.full = true;
    } else if (arg == "--out") {
      opts.out_dir = need_value(i, arg);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --seed N --apps N --horizon N --per-size N --full "
                   "--out DIR\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << " (see --help)\n";
      std::exit(2);
    }
  }
  if (opts.apps < 1 || opts.apps > 20 || opts.horizon < 1) {
    std::cerr << "invalid option values\n";
    std::exit(2);
  }
  return opts;
}

platform::System make_workload(const Options& opts) {
  util::Rng rng(opts.seed);
  gen::GeneratorOptions gopts;  // paper defaults: 8-10 actors etc.
  auto apps = gen::generate_graphs(rng, gopts, opts.apps);
  std::size_t max_actors = 0;
  for (const auto& g : apps) max_actors = std::max(max_actors, g.actor_count());
  platform::Platform plat = platform::Platform::homogeneous(max_actors);
  platform::Mapping map = platform::Mapping::by_index(apps, plat);
  return platform::System(std::move(apps), std::move(plat), std::move(map));
}

std::vector<platform::UseCase> make_use_cases(const Options& opts,
                                              std::size_t app_count) {
  if (opts.full) return gen::all_use_cases(app_count);
  util::Rng rng(opts.seed ^ 0xBEEFCAFEULL);
  return gen::sample_use_cases(app_count, opts.per_size, rng);
}

const std::vector<Technique>& paper_techniques() {
  static const std::vector<Technique> kTechniques = {
      {"Analyzed Worst Case", true, {}},
      {"Composability-based", false,
       prob::EstimatorOptions{.method = prob::Method::Composability}},
      {"Probabilistic Fourth Order", false,
       prob::EstimatorOptions{.method = prob::Method::FourthOrder}},
      {"Probabilistic Second Order", false,
       prob::EstimatorOptions{.method = prob::Method::SecondOrder}},
  };
  return kTechniques;
}

std::vector<double> estimate_periods(api::Workbench& wb, const platform::UseCase& uc,
                                     const Technique& technique) {
  std::vector<double> periods;
  if (technique.is_wcrt) {
    const auto report = wb.wcrt(uc);
    for (const auto& b : *report) periods.push_back(b.worst_case_period);
  } else {
    const auto report = wb.contention(uc, technique.estimator);
    for (const auto& e : *report) periods.push_back(e.estimated_period);
  }
  return periods;
}

namespace {

SimReference to_reference(const sim::SimResult& r) {
  SimReference ref;
  for (const auto& app : r.apps) {
    ref.average.push_back(app.average_period);
    ref.worst.push_back(app.worst_period);
    ref.converged.push_back(app.converged);
  }
  return ref;
}

}  // namespace

SimReference simulate_reference(const platform::System& sys, sdf::Time horizon) {
  return to_reference(sim::simulate(sys, sim::SimOptions{.horizon = horizon}));
}

SimReference simulate_reference(sim::SimEngine& engine, const platform::UseCase& uc,
                                sdf::Time horizon) {
  engine.reset(uc);
  return to_reference(engine.run(sim::SimOptions{.horizon = horizon}));
}

void emit(const util::Table& table, const Options& opts, const std::string& name) {
  std::cout << table.render() << '\n';
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (out) {
    out << table.to_csv();
    std::cout << "[csv written to " << path << "]\n\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
}

}  // namespace procon::bench
