// Design-space exploration: because the probabilistic estimate is orders
// of magnitude cheaper than simulation, a designer can score many candidate
// mappings analytically and only simulate the winner (the workflow the
// paper's speed numbers enable).
//
// This example opens one Workbench session, scores the paper's index
// mapping, a load-balanced mapping and 200 random mappings in a single
// score_mappings query (fanned out over the session's workers), ranks
// them by the estimated worst normalised period, then validates the best
// and worst candidates against simulation.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "api/workbench.h"
#include "gen/graph_generator.h"
#include "util/stats.h"
#include "util/table.h"

using namespace procon;

int main() {
  util::Rng rng(77);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 6;
  gopts.max_actors = 8;
  const auto apps = gen::generate_graphs(rng, gopts, 5);
  const std::size_t kNodes = 8;
  const platform::Platform plat = platform::Platform::homogeneous(kNodes);

  struct Candidate {
    std::string label;
    platform::Mapping mapping;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"index", platform::Mapping::by_index(apps, plat)});
  candidates.push_back(
      {"load-balanced", platform::Mapping::load_balanced(apps, plat)});
  for (int k = 0; k < 200; ++k) {
    candidates.push_back({"random#" + std::to_string(k),
                          platform::Mapping::random(apps, plat, rng)});
  }

  // One session scores every candidate; the engines are built once and the
  // candidates fan out over the session's workers (results independent of
  // thread count).
  api::Workbench bench(platform::System(std::vector<sdf::Graph>(apps), plat,
                                        candidates.front().mapping));
  std::vector<platform::Mapping> mappings;
  mappings.reserve(candidates.size());
  for (const Candidate& c : candidates) mappings.push_back(c.mapping);
  const auto scores = bench.score_mappings(mappings);
  std::cout << "scored " << scores.provenance.evaluations << " mappings on "
            << scores.provenance.threads << " thread(s) in "
            << util::format_double(scores.provenance.wall_ms, 1) << " ms\n\n";

  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return (*scores)[a] < (*scores)[b];
  });

  util::Table top("Top 5 and bottom 2 mappings by estimated worst slowdown");
  top.set_header({"rank", "mapping", "estimated worst slowdown"});
  for (std::size_t i = 0; i < 5 && i < order.size(); ++i) {
    top.add_row({std::to_string(i + 1), candidates[order[i]].label,
                 util::format_double((*scores)[order[i]], 2)});
  }
  for (std::size_t i = order.size() - 2; i < order.size(); ++i) {
    top.add_row({std::to_string(i + 1), candidates[order[i]].label,
                 util::format_double((*scores)[order[i]], 2)});
  }
  std::cout << top.render() << '\n';

  // Validate the analytic ranking by simulating the extremes in a
  // throwaway session per candidate mapping.
  auto simulate_worst = [&](const Candidate& c) {
    api::Workbench candidate_bench(
        platform::System(std::vector<sdf::Graph>(apps), plat, c.mapping),
        api::WorkbenchOptions{.threads = 1});
    const auto sim = candidate_bench.simulate(sim::SimOptions{.horizon = 500'000});
    const auto est = candidate_bench.contention();
    double worst = 0.0;
    for (std::size_t i = 0; i < sim->apps.size(); ++i) {
      worst = std::max(worst,
                       sim->apps[i].average_period / (*est)[i].isolation_period);
    }
    return worst;
  };
  const double best_sim = simulate_worst(candidates[order.front()]);
  const double worst_sim = simulate_worst(candidates[order.back()]);
  std::cout << "simulated worst slowdown - best candidate ("
            << candidates[order.front()].label
            << "): " << util::format_double(best_sim, 2) << ", worst candidate ("
            << candidates[order.back()].label
            << "): " << util::format_double(worst_sim, 2) << "\n";
  std::cout << (best_sim <= worst_sim
                    ? "the estimator's ranking is confirmed by simulation.\n"
                    : "ranking inversion - investigate this seed.\n");
  return 0;
}
