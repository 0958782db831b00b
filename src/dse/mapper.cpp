#include "dse/mapper.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "analysis/engine.h"
#include "util/rng.h"

namespace procon::dse {
namespace {

// The annealing schedule: the temperature decays geometrically per step.
constexpr double kInitialTemperature = 1.0;
constexpr double kCooling = 0.995;

/// Per-step randomness: an independent short stream derived from (seed,
/// step), from which each step draws its move and its acceptance draw.
util::Rng step_rng(std::uint64_t seed, std::size_t step) {
  return util::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(step) + 1)));
}

}  // namespace

double score_mapping(const platform::Mapping& candidate,
                     const prob::ContentionEstimator& estimator, AnalysisWorkspace& ws) {
  ws.sys.set_mapping(candidate);
  // Cold engines make the score a pure function of the candidate, whichever
  // candidates the same engines scored before. The engine list and the view
  // are rebound on every call because the workspace may have moved since.
  ws.engine_ptrs.clear();
  for (analysis::ThroughputEngine& e : ws.engines) {
    e.reset();
    ws.engine_ptrs.push_back(&e);
  }
  ws.full_use_case.resize(ws.engines.size());
  std::iota(ws.full_use_case.begin(), ws.full_use_case.end(), sdf::AppId{0});
  ws.view.rebind(ws.sys, ws.full_use_case);
  ws.estimates.resize(ws.engines.size());
  estimator.estimate_into(ws.view, {}, ws.engine_ptrs, ws.est, ws.estimates);
  double worst = 0.0;
  for (const auto& e : ws.estimates) worst = std::max(worst, e.normalised_period());
  return worst;
}

double evaluate_mapping(std::span<const sdf::Graph> apps,
                        const platform::Platform& platform,
                        const platform::Mapping& mapping,
                        const prob::EstimatorOptions& estimator) {
  AnalysisWorkspace ws;
  ws.sys = platform::System(std::vector<sdf::Graph>(apps.begin(), apps.end()),
                            platform, mapping);
  ws.sys.validate();
  std::vector<analysis::ThroughputEngine> engines;
  engines.reserve(apps.size());
  for (const sdf::Graph& g : apps) engines.emplace_back(g);
  ws.engines = engines;
  return score_mapping(mapping, prob::ContentionEstimator(estimator), ws);
}

MapperResult optimise_mapping(std::span<const sdf::Graph> apps,
                              const platform::Platform& platform,
                              const platform::Mapping& start,
                              const MapperOptions& options, AnalysisWorkspace& ws) {
  if (platform.node_count() >= 2 && !start.is_complete()) {
    throw std::invalid_argument("optimise_mapping: start mapping incomplete");
  }
  const prob::ContentionEstimator est(options.estimator);
  MapperResult result;
  result.mapping = start;
  result.score = score_mapping(start, est, ws);
  result.initial_score = result.score;
  result.evaluations = 1;

  // Pre-compute the actor universe for uniform move selection. On a
  // single-node platform nothing can move: the start is the only candidate.
  struct Slot {
    sdf::AppId app;
    sdf::ActorId actor;
  };
  std::vector<Slot> slots;
  for (sdf::AppId i = 0; i < apps.size(); ++i) {
    for (sdf::ActorId a = 0; a < apps[i].actor_count(); ++a) {
      slots.push_back({i, a});
    }
  }
  if (slots.empty() || platform.node_count() < 2) return result;

  platform::Mapping current = start;
  platform::Mapping candidate = start;
  double current_score = result.score;
  for (std::size_t step = 0; step < options.iterations; ++step) {
    // Propose: move one uniformly drawn actor to another node.
    util::Rng rng = step_rng(options.seed, step);
    const Slot slot = slots[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1))];
    const platform::NodeId old_node = current.node_of(slot.app, slot.actor);
    auto new_node = static_cast<platform::NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(platform.node_count()) - 2));
    if (new_node >= old_node) ++new_node;
    const double accept_draw = rng.uniform01();

    candidate = current;
    candidate.assign(slot.app, slot.actor, new_node);
    const double score = score_mapping(candidate, est, ws);
    ++result.evaluations;

    // Metropolis acceptance at a geometrically cooling temperature.
    const double temperature =
        kInitialTemperature * std::pow(kCooling, static_cast<double>(step));
    const double delta = score - current_score;
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && accept_draw < std::exp(-delta / temperature));
    if (accept) {
      current.assign(slot.app, slot.actor, new_node);
      current_score = score;
      ++result.accepted_moves;
      if (score < result.score) {
        result.score = score;
        result.mapping = current;
      }
    }
  }
  return result;
}

}  // namespace procon::dse
