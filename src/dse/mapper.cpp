#include "dse/mapper.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/engine.h"
#include "util/rng.h"

namespace procon::dse {
namespace {

// The annealing schedule: the temperature decays geometrically per step.
constexpr double kInitialTemperature = 1.0;
constexpr double kCooling = 0.995;

/// Mixes every EstimatorOptions field into a transposition key, so the same
/// (system fingerprint, estimator configuration) always builds the same
/// MappingScore key — for score_mappings and the annealer alike.
void absorb_estimator_options(analysis::TTKeyBuilder& builder,
                              const prob::EstimatorOptions& options) noexcept {
  builder.absorb(static_cast<std::uint64_t>(options.method));
  builder.absorb(static_cast<std::uint64_t>(options.order));
  builder.absorb(static_cast<std::uint64_t>(options.iterations));
  builder.absorb(options.mc_trials);
}

/// Builds one ThroughputEngine per application; candidate scoring re-uses
/// the cached structure and only rewrites execution times.
std::vector<analysis::ThroughputEngine> make_engines(
    std::span<const sdf::Graph> apps) {
  std::vector<analysis::ThroughputEngine> engines;
  engines.reserve(apps.size());
  for (const sdf::Graph& g : apps) engines.emplace_back(g);
  return engines;
}

/// Scores a candidate as a pure function of the mapping: engines are reset
/// to a cold start first, so the result does not depend on which candidates
/// the same engine clone evaluated before — the property that makes
/// speculative scoring bitwise deterministic across worker counts.
double score_system(const platform::System& sys, const prob::ContentionEstimator& est,
                    std::span<analysis::ThroughputEngine> engines) {
  std::vector<analysis::ThroughputEngine*> ptrs;
  ptrs.reserve(engines.size());
  for (analysis::ThroughputEngine& e : engines) {
    e.reset();
    ptrs.push_back(&e);
  }
  prob::EstimatorWorkspace ws;
  std::vector<prob::AppEstimate> estimates(sys.app_count());
  est.estimate_into(sys, {}, ptrs, ws, estimates);
  double worst = 0.0;
  for (const auto& e : estimates) worst = std::max(worst, e.normalised_period());
  return worst;
}

/// Per-step randomness: an independent short stream derived from (seed,
/// step). Random access per step index is what lets a batch of future steps
/// be proposed before knowing earlier steps' outcomes.
util::Rng step_rng(std::uint64_t seed, std::size_t step) {
  return util::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(step) + 1)));
}

/// Probes `table` for the score of `sys`'s current mapping; computes and
/// stores it on a miss. With no table this is exactly score_system. The
/// key roots at the system's live Zobrist fingerprint (maintained through
/// set_mapping in O(1)), so structurally identical candidates — across
/// steps, queries or sessions — resolve to the same entry.
double scored_system(const platform::System& sys, const prob::ContentionEstimator& est,
                     std::span<analysis::ThroughputEngine> engines,
                     const prob::EstimatorOptions& opts,
                     analysis::TranspositionTable* table) {
  if (table == nullptr) return score_system(sys, est, engines);
  analysis::TTKeyBuilder b(sys.fingerprint(), analysis::TTQuery::MappingScore);
  absorb_estimator_options(b, opts);
  const analysis::TTKey key = b.key();
  analysis::TTValue v;
  if (table->lookup(key, v)) return v.primary;
  const double score = score_system(sys, est, engines);
  v.primary = score;
  table->store(key, v);
  return score;
}

}  // namespace

double evaluate_mapping(std::span<const sdf::Graph> apps,
                        const platform::Platform& platform,
                        const platform::Mapping& mapping,
                        const prob::EstimatorOptions& estimator) {
  platform::System sys(std::vector<sdf::Graph>(apps.begin(), apps.end()),
                       platform, mapping);
  sys.validate();
  const prob::ContentionEstimator est(estimator);
  auto engines = make_engines(apps);
  return score_system(sys, est, engines);
}

std::vector<double> score_mappings(std::span<const platform::Mapping> candidates,
                                   const prob::EstimatorOptions& estimator,
                                   util::ThreadPool* pool,
                                   std::span<AnalysisWorkspace> workspaces,
                                   analysis::TranspositionTable* table) {
  if (workspaces.empty()) {
    throw std::invalid_argument("score_mappings: need at least one workspace");
  }
  const prob::ContentionEstimator est(estimator);
  std::vector<double> scores(candidates.size(), 0.0);
  const auto score_one = [&](std::size_t i, std::size_t w) {
    AnalysisWorkspace& ws = workspaces[w];
    ws.sys.set_mapping(candidates[i]);
    scores[i] = scored_system(ws.sys, est, ws.engines, estimator, table);
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
                              const MapperOptions& options,
                              util::ThreadPool* pool,
                              std::span<AnalysisWorkspace> workspaces,
                              analysis::TranspositionTable* table) {
  if (platform.node_count() < 2) {
    // Nothing to move; the start mapping is the only candidate.
    MapperResult r;
    r.mapping = start;
    r.score = evaluate_mapping(apps, platform, start, options.estimator);
    r.initial_score = r.score;
    r.evaluations = 1;
    r.scored_candidates = 1;
    return r;
  }
  if (!start.is_complete()) {
    throw std::invalid_argument("optimise_mapping: start mapping incomplete");
  }
  if (workspaces.empty()) {
    throw std::invalid_argument("optimise_mapping: need at least one workspace");
  }

  const prob::ContentionEstimator est(options.estimator);
  const std::size_t workers =
      std::min(workspaces.size(), pool != nullptr ? pool->size() : std::size_t{1});
  std::span<AnalysisWorkspace> state = workspaces;

  MapperResult result;
  result.mapping = start;
  state[0].sys.set_mapping(start);
  result.score = scored_system(state[0].sys, est, state[0].engines,
                               options.estimator, table);
  result.initial_score = result.score;
  result.evaluations = 1;
  result.scored_candidates = 1;

  platform::Mapping current = start;
  double current_score = result.score;

  // Pre-compute the actor universe for uniform move selection.
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
  if (slots.empty()) return result;

  struct Proposal {
    Slot slot;
    platform::NodeId old_node = 0;
    platform::NodeId new_node = 0;
    double accept_draw = 0.0;
    double score = 0.0;
  };
  std::vector<Proposal> batch;
  std::size_t step = 0;

  while (step < options.iterations) {
    // Speculate the next W steps from the current state. Proposals and
    // acceptance draws are functions of (seed, step index) and the current
    // mapping only, so the committed trajectory below is identical for any
    // speculation width.
    const std::size_t width =
        std::min<std::size_t>(std::max<std::size_t>(workers, 1),
                              options.iterations - step);
    batch.assign(width, Proposal{});
    for (std::size_t b = 0; b < width; ++b) {
      util::Rng rng = step_rng(options.seed, step + b);
      Proposal& p = batch[b];
      p.slot = slots[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1))];
      p.old_node = current.node_of(p.slot.app, p.slot.actor);
      auto node = static_cast<platform::NodeId>(rng.uniform_int(
          0, static_cast<std::int64_t>(platform.node_count()) - 2));
      if (node >= p.old_node) ++node;
      p.new_node = node;
      p.accept_draw = rng.uniform01();
    }

    auto score_one = [&](std::size_t b, std::size_t w) {
      AnalysisWorkspace& ws = state[w];
      platform::Mapping candidate = current;
      candidate.assign(batch[b].slot.app, batch[b].slot.actor, batch[b].new_node);
      ws.sys.set_mapping(candidate);
      batch[b].score =
          scored_system(ws.sys, est, ws.engines, options.estimator, table);
    };
    // The pool hands out worker ids up to its own size, so sharding needs a
    // workspace per pool worker; with fewer workspaces score serially.
    if (pool != nullptr && width > 1 && state.size() >= pool->size()) {
      pool->for_each_index(width, score_one);
    } else {
      for (std::size_t b = 0; b < width; ++b) score_one(b, 0);
    }
    result.scored_candidates += width;

    // Commit in step order; the first acceptance invalidates the rest of
    // the batch (they were proposed from the pre-acceptance state).
    for (std::size_t b = 0; b < width; ++b) {
      const Proposal& p = batch[b];
      const double temperature =
          kInitialTemperature * std::pow(kCooling, static_cast<double>(step));
      ++result.evaluations;
      ++step;
      const double delta = p.score - current_score;
      const bool accept =
          delta <= 0.0 ||
          (temperature > 0.0 && p.accept_draw < std::exp(-delta / temperature));
      if (accept) {
        current.assign(p.slot.app, p.slot.actor, p.new_node);
        current_score = p.score;
        ++result.accepted_moves;
        if (p.score < result.score) {
          result.score = p.score;
          result.mapping = current;
        }
        break;
      }
    }
  }
  return result;
}

}  // namespace procon::dse
