// dse::Racer — best-arm-identification candidate racing for DSE.
//
// The paper's probabilistic estimator exists to make design-space
// exploration cheap, yet the exhaustive DSE paths spend their budget
// uniformly: every candidate mapping / buffer vector is evaluated to full
// precision, even ones that are obviously dominated after a few cheap
// looks. The racer treats candidates as arms of a best-arm-identification
// problem and pulls them through a graded fidelity ladder:
//
//   (a) allocation-free probabilistic-estimator passes on cached
//       ThroughputEngines (second order, fixed-point depths doubling up
//       to the full-precision depth),
//   (b) short-horizon SimEngine runs on arm-cached engines,
//   (c) full-precision evaluation only for the surviving arms.
//
// Per-arm confidence intervals (empirical mean +/- confidence * stderr +
// a relative guard band) shrink as pulls accumulate; an arm is eliminated
// as soon as its lower bound clears the incumbent best's upper bound.
// Structurally identical candidates (equal Zobrist fingerprints) share one
// arm — and therefore one transposition-table entry — and the pruned
// duplicates receive the representative's outcome bitwise.
//
// Determinism contract (the repo's standing one): every pull is a pure
// function of (arm content, rung index) — arm RNG is counter-derived via
// util::counter_seed(seed, arm fingerprint, rung) — pulls land in per-arm
// slots, and all aggregation / elimination decisions run serially in arm
// order. The winner, every outcome, and every statistic are therefore
// bitwise identical for any thread count, pool size, and transposition-
// table state. `enabled = false` is the oracle mode: every arm goes
// straight to full precision (exactly the exhaustive path).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/engine.h"
#include "analysis/transposition_table.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "sdf/types.h"
#include "sim/sim_engine.h"
#include "util/thread_pool.h"

namespace procon::dse {

/// \brief Mixes every EstimatorOptions field into a transposition key.
///
/// One shared definition for all mapping-score consumers (the mapper,
/// racer pulls, Workbench score/optimise queries), so their MappingScore
/// entries interoperate: the same (system fingerprint, estimator
/// configuration) always builds the same key.
void absorb_estimator_options(analysis::TTKeyBuilder& builder,
                              const prob::EstimatorOptions& options) noexcept;

/// \brief Racing configuration, threaded through MapperOptions,
/// BufferExplorerOptions and the api::Workbench / api::AnalysisService
/// query descriptors.
struct RacerOptions {
  /// false = oracle mode: skip the fidelity ladder and evaluate every arm
  /// to full precision (bitwise the exhaustive path). Embedding consumers
  /// (MapperOptions, BufferExplorerOptions) default this to false so racing
  /// is strictly opt-in per query.
  bool enabled = true;
  /// Tier-(a) rungs per arm: allocation-free estimator passes on cached
  /// engines. The top rung runs a second-order estimate at the
  /// full-precision fixed-point depth, each rung below it at half the
  /// depth of the one above (floored at one pass) — the fixed point
  /// converges as a damped oscillation, so rungs hug the target depth
  /// instead of climbing linearly from one pass.
  std::size_t estimator_pulls = 2;
  /// Tier-(b) rungs per arm: short-horizon SimEngine runs on arm-cached
  /// engines (0 = skip the simulation tier). Rung j simulates
  /// (j+1) * sim_horizon time units.
  std::size_t sim_pulls = 0;
  /// Base horizon of one tier-(b) pull, in simulated time units.
  sdf::Time sim_horizon = 20'000;
  /// Confidence-interval width multiplier on the empirical standard error
  /// (larger = more conservative elimination).
  double confidence = 2.0;
  /// Relative guard band added to every interval: arms within this
  /// fraction of the best mean are never eliminated on cheap evidence
  /// alone. Protects against a fidelity ladder whose rungs agree exactly
  /// (zero variance) but misrank near-ties.
  double rel_slack = 0.02;
  /// Arms still active after the ladder get full-precision evaluations;
  /// the cap keeps that set small (the best-mean survivors are kept).
  std::size_t max_survivors = 2;
  /// Total cheap-pull budget per race (0 = bounded by the ladder alone).
  std::size_t budget = 0;
  /// Mapper only: annealing proposals raced per round (the speculation
  /// width in racing mode — fixed, not worker-count dependent).
  std::size_t batch = 8;
  /// Buffer explorer only: steps between full re-sync sweeps (a race in
  /// which every arm is evaluated to full precision, refreshing the
  /// priors). 0 disables periodic re-syncs.
  std::size_t resync_every = 12;
  /// Buffer explorer only: per-step growth of a stale prior's interval
  /// radius, as a fraction of the prior value.
  double staleness_slack = 0.01;
  /// Root of the counter-derived per-(arm, rung) random streams (tier-(b)
  /// sampling seeds).
  std::uint64_t seed = 0x5ACE;
};

/// \brief Racing introspection: pulls per fidelity tier, eliminations per
/// round, and the work saved versus the exhaustive path.
///
/// Plain counters (fixed-size, trivially copyable, allocation-free); surfaced
/// through MapperResult / FrontierResult / MappingRace, api::Workbench,
/// api::AnalysisService and the CLI's `[racer: ...]` line. All counts are
/// part of the determinism contract: identical for any thread count.
struct RacerStats {
  /// Elimination rounds tracked individually; later rounds fold into the
  /// last bucket.
  static constexpr std::size_t kMaxRounds = 8;
  std::uint64_t races = 0;            ///< race() calls aggregated here
  std::uint64_t arms = 0;             ///< total arms entered (incl. pruned)
  std::uint64_t pruned_similar = 0;   ///< arms merged by equal fingerprint
  std::uint64_t estimator_pulls = 0;  ///< tier-(a) pulls performed
  std::uint64_t sim_pulls = 0;        ///< tier-(b) pulls performed
  std::uint64_t full_evals = 0;       ///< tier-(c) full-precision evaluations
  std::uint64_t eliminated = 0;       ///< arms dropped before full precision
  /// Full-precision evaluations the equivalent exhaustive path would have
  /// performed for the same decisions (accounted by the racing caller).
  std::uint64_t exhaustive_evals = 0;
  std::uint64_t rounds = 0;           ///< elimination rounds run
  /// Arms eliminated in round r (r >= kMaxRounds folds into the last
  /// bucket). Survivor-cap cuts count in the round they happen after.
  std::uint64_t eliminated_per_round[kMaxRounds] = {};

  /// Accumulates `other` into this (counter-wise addition; per-round
  /// buckets add element-wise).
  void merge(const RacerStats& other) noexcept;
  /// Full-precision evaluations saved versus the exhaustive path, as a
  /// ratio (exhaustive / actual; 1.0 when nothing was saved or nothing ran).
  [[nodiscard]] double eval_ratio() const noexcept {
    return full_evals > 0 && exhaustive_evals > 0
               ? static_cast<double>(exhaustive_evals) /
                     static_cast<double>(full_evals)
               : 1.0;
  }
};

/// \brief Per-arm result of one race.
struct ArmOutcome {
  /// Full-precision score for survivors (and their pruned duplicates);
  /// the last confidence-interval mean for eliminated arms.
  double score = 0.0;
  /// true iff `score` is a full-precision (tier-c) evaluation.
  bool full = false;
  /// Cheap pulls this arm received (0 for pruned duplicates).
  std::uint32_t pulls = 0;
  /// Round in which the arm was eliminated (-1 = survived to full
  /// precision; pruned duplicates copy their representative's value).
  std::int32_t eliminated_round = -1;
};

/// \brief Adapter between the racer core and one candidate family
/// (mappings, buffer vectors, ...). Implementations own all evaluation
/// state; the racer owns scheduling, intervals and elimination.
class ArmSource {
 public:
  virtual ~ArmSource() = default;
  /// Similarity key of `arm`: equal non-zero fingerprints mean
  /// structurally identical candidates (merged into one arm; the
  /// duplicates inherit the representative's outcome bitwise). Return 0 to
  /// opt out of merging for this arm.
  [[nodiscard]] virtual std::uint64_t arm_fingerprint(std::size_t arm) const = 0;
  /// Cheap pull of `arm` at ladder rung `rung` (tier (a) then (b), in
  /// RacerOptions order). Must be a pure function of (arm content, rung):
  /// `worker` only selects scratch state. Tier-(a) rungs may run
  /// concurrently across arms; tier-(b) rungs are called serially.
  [[nodiscard]] virtual double pull(std::size_t arm, std::size_t rung,
                                    std::size_t worker) = 0;
  /// Full-precision score of `arm` (tier (c)); pure function of the arm
  /// content. May run concurrently across arms unless the race is serial.
  [[nodiscard]] virtual double full_eval(std::size_t arm, std::size_t worker) = 0;
  /// Extra confidence-interval radius for `arm` (e.g. staleness of a
  /// cached prior). Defaults to 0.
  [[nodiscard]] virtual double radius_hint(std::size_t arm) const;
  /// True when `rung` belongs to the estimator tier under `o` (used for
  /// the per-tier pull statistics).
  [[nodiscard]] static bool is_estimator_rung(const RacerOptions& o,
                                              std::size_t rung) noexcept {
    return rung < o.estimator_pulls;
  }
};

/// \brief The racing core: similarity pruning, the pull/eliminate loop and
/// the survivor full-precision stage, with reusable grow-only arenas.
///
/// A Racer is a mutable session object (its arenas and statistics carry
/// across races); concurrent race() calls on one instance are not allowed.
/// All decisions are serial and in arm order, pulls land in per-arm slots,
/// so a race is bitwise deterministic for any `pool` size (see the header
/// comment for the full contract).
class Racer {
 public:
  Racer() = default;

  /// Races `arm_count` arms of `source` and returns the winner's index
  /// (lowest full-precision score; ties break to the lowest arm index).
  /// `outcomes` must have exactly `arm_count` elements, all overwritten.
  /// `pool` (optional) shards tier-(a) pulls and full evaluations across
  /// workers — the caller must guarantee one ArmSource scratch state per
  /// pool worker; pass nullptr for a fully serial race (required when the
  /// source's evaluations share mutable state, e.g. the buffer explorer's
  /// incremental evaluator). Results are identical either way.
  std::size_t race(const RacerOptions& opts, std::size_t arm_count,
                   ArmSource& source, std::span<ArmOutcome> outcomes,
                   util::ThreadPool* pool = nullptr);

  /// Statistics aggregated over every race() since construction /
  /// reset_stats(). Note: RacerStats::exhaustive_evals is the caller's to
  /// fill (the racer cannot know the oracle's cost model).
  [[nodiscard]] const RacerStats& stats() const noexcept { return stats_; }
  /// Mutable statistics access for callers accounting exhaustive_evals.
  [[nodiscard]] RacerStats& stats() noexcept { return stats_; }
  /// Zeroes the aggregated statistics.
  void reset_stats() noexcept { stats_ = RacerStats{}; }

 private:
  /// Per-arm running interval state (Welford mean / M2).
  struct ArmState {
    double mean = 0.0;
    double m2 = 0.0;
    std::uint32_t pulls = 0;
    bool survivor = false;
  };

  RacerStats stats_;
  // Grow-only arenas: warm races of a previously-seen arm count perform
  // zero heap allocations (asserted by tests/test_steady_state_alloc.cpp).
  std::vector<ArmState> arms_;
  std::vector<std::uint32_t> rep_;                       // similarity groups
  std::vector<std::pair<std::uint64_t, std::uint32_t>> fp_sort_;
  std::vector<std::uint32_t> active_;
  std::vector<double> pull_slots_;
};

/// \brief Worker-local mutable scoring state: a system whose mapping is
/// rebound per candidate plus one engine per application, and the racer's
/// allocation-free estimator scratch.
///
/// Sessions (api::Workbench) keep one per pool worker and hand them to
/// optimise_mapping / race_mapping_scores so repeated queries skip the
/// per-call graph copies and engine construction.
struct AnalysisWorkspace {
  platform::System sys;                             ///< mapping rebound per candidate
  std::vector<analysis::ThroughputEngine> engines;  ///< one per application

  // Racer pull scratch (grow-only; populated lazily by MappingArms — warm
  // tier-(a) pulls perform zero heap allocations):
  prob::EstimatorWorkspace est_ws;                  ///< estimator arenas
  std::vector<prob::AppEstimate> est_slots;         ///< estimate out-slots
  std::vector<analysis::ThroughputEngine*> ptrs;    ///< engine pointer scratch
  platform::UseCase full_uc;                        ///< 0..N-1, built once
  platform::SystemView view;                        ///< rebound per pull
};

/// \brief ArmSource racing candidate mappings (score = worst estimated
/// slowdown, as dse::evaluate_mapping).
///
/// Tier (a) runs second-order estimates in the workspace's persistent
/// arenas, at fixed-point depths doubling up to the full-precision depth
/// (the waiting-time fixed point oscillates as it converges, so rungs hug
/// the target depth instead of climbing linearly from one pass); tier (b)
/// runs short-horizon simulations on per-arm
/// SimEngines cached across races by mapping fingerprint; tier (c) is the
/// configured full-precision estimate. Every tier probes/stores the
/// transposition table under MappingScore keys absorbing that tier's
/// estimator configuration, so table state never changes any value — and
/// structurally identical candidates share entries across queries and
/// sessions.
class MappingArms : public ArmSource {
 public:
  /// Binds the evaluation state. `workspaces[w]` serves racer worker `w`
  /// (pass a pool to Racer::race only with one workspace per pool worker).
  /// `table` may be nullptr. Both are borrowed, not owned.
  MappingArms(std::span<AnalysisWorkspace> workspaces,
              const prob::EstimatorOptions& full_precision,
              const RacerOptions& racer, analysis::TranspositionTable* table);

  /// Points the source at a candidate list for the next race (fingerprints
  /// are captured here; the span must stay valid through the race). Arm
  /// SimEngines from a previous bind are kept when the fingerprint at that
  /// index is unchanged.
  void bind(std::span<const platform::Mapping> candidates);

  /// Live Zobrist fingerprint of candidate `arm` (captured at bind()).
  [[nodiscard]] std::uint64_t arm_fingerprint(std::size_t arm) const override;
  /// Tier-(a)/(b) pull of candidate `arm` (see class comment).
  [[nodiscard]] double pull(std::size_t arm, std::size_t rung,
                            std::size_t worker) override;
  /// Full-precision score of candidate `arm` (transposition-backed).
  [[nodiscard]] double full_eval(std::size_t arm, std::size_t worker) override;

 private:
  /// Transposition-backed estimator score of workspaces_[worker] with the
  /// candidate mapping already set (allocation-free when warm).
  double estimator_score(std::size_t worker, const prob::EstimatorOptions& opts);
  /// Computes per-app isolation periods once (analytic, mapping-free).
  void ensure_isolation();

  std::span<AnalysisWorkspace> workspaces_;
  prob::EstimatorOptions full_;
  RacerOptions racer_;
  analysis::TranspositionTable* table_;
  std::span<const platform::Mapping> candidates_;
  std::vector<std::uint64_t> fps_;             // per arm, captured at bind
  std::vector<double> isolation_;              // per app, computed once
  bool isolation_ready_ = false;
  // Per-arm short-horizon engines, kept across binds while the arm's
  // fingerprint is unchanged (session-cached: racing the same candidates
  // again reuses them, reset + run_view per pull).
  std::vector<std::unique_ptr<sim::SimEngine>> sim_slots_;
  std::vector<std::uint64_t> sim_slot_fp_;
};

/// \brief Result of racing a candidate-mapping list.
struct MappingRace {
  /// Per-candidate scores, in input order: full precision for survivors
  /// and their pruned duplicates, the last interval mean for eliminated
  /// arms (oracle mode: full precision for every candidate — bitwise
  /// dse::evaluate_mapping / Workbench::score_mappings values).
  std::vector<double> scores;
  /// Per-candidate racing outcomes, in input order.
  std::vector<ArmOutcome> outcomes;
  /// Winner index (lowest full-precision score; ties to the lowest index).
  std::size_t best = 0;
  /// Racing statistics of this race.
  RacerStats stats;
};

/// \brief Races candidate mappings and returns per-candidate scores, the
/// winner and the racing statistics.
///
/// `workspaces[w]` serves pool worker w (as optimise_mapping); pass at
/// least one. With racer.enabled == false this is the exhaustive path:
/// every candidate is scored to full precision, bitwise identical to
/// dse::evaluate_mapping per candidate (Workbench::score_mappings is a shim
/// over this mode). Deterministic for any `pool` size either way.
[[nodiscard]] MappingRace race_mapping_scores(
    std::span<const platform::Mapping> candidates,
    const prob::EstimatorOptions& estimator, const RacerOptions& racer,
    util::ThreadPool* pool, std::span<AnalysisWorkspace> workspaces,
    analysis::TranspositionTable* table = nullptr);

}  // namespace procon::dse
