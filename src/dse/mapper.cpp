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

/// Scores the workspace's current mapping as a pure function of it: engines
/// are reset to a cold start first, so the result does not depend on which
/// candidates the same engines evaluated before — the property that makes
/// sharded scoring bitwise deterministic across worker counts. The engine
/// pointers and the view are rebound on every call because the workspace
/// may have moved since the last one.
double score_system(AnalysisWorkspace& ws, const prob::ContentionEstimator& est) {
  ws.engine_ptrs.clear();
  for (analysis::ThroughputEngine& e : ws.engines) {
    e.reset();
    ws.engine_ptrs.push_back(&e);
  }
  ws.full_use_case.resize(ws.engines.size());
  std::iota(ws.full_use_case.begin(), ws.full_use_case.end(), sdf::AppId{0});
  ws.view.rebind(ws.sys, ws.full_use_case);
  ws.estimates.resize(ws.engines.size());
  est.estimate_into(ws.view, {}, ws.engine_ptrs, ws.est, ws.estimates);
  double worst = 0.0;
  for (const auto& e : ws.estimates) worst = std::max(worst, e.normalised_period());
  return worst;
}

/// Per-step randomness: an independent short stream derived from (seed,
/// step), from which each step draws its move and its acceptance draw.
util::Rng step_rng(std::uint64_t seed, std::size_t step) {
  return util::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(step) + 1)));
}

}  // namespace

double evaluate_mapping(std::span<const sdf::Graph> apps,
                        const platform::Platform& platform,
                        const platform::Mapping& mapping,
                        const prob::EstimatorOptions& estimator) {
  AnalysisWorkspace ws;
  ws.sys = platform::System(std::vector<sdf::Graph>(apps.begin(), apps.end()),
                            platform, mapping);
  ws.sys.validate();
  ws.engines.reserve(apps.size());
  for (const sdf::Graph& g : apps) ws.engines.emplace_back(g);
  return score_system(ws, prob::ContentionEstimator(estimator));
}

std::vector<double> score_mappings(std::span<const platform::Mapping> candidates,
                                   const prob::EstimatorOptions& estimator,
                                   util::ThreadPool* pool,
                                   std::span<AnalysisWorkspace> workspaces) {
  if (workspaces.empty()) {
    throw std::invalid_argument("score_mappings: need at least one workspace");
  }
  const prob::ContentionEstimator est(estimator);
  std::vector<double> scores(candidates.size(), 0.0);
  const auto score_one = [&](std::size_t i, std::size_t w) {
    AnalysisWorkspace& ws = workspaces[w];
    ws.sys.set_mapping(candidates[i]);
    scores[i] = score_system(ws, est);
  };
  // The pool hands out worker ids up to its own size, so sharding needs a
  // workspace per pool worker; with fewer workspaces score serially.
  if (pool != nullptr && workspaces.size() >= pool->size()) {
    pool->for_each_index(candidates.size(), score_one);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) score_one(i, 0);
  }
  return scores;
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
  ws.sys.set_mapping(start);
  result.score = score_system(ws, est);
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
    ws.sys.set_mapping(candidate);
    const double score = score_system(ws, est);
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
