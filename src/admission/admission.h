// Run-time admission control (Section 6: "it is feasible to employ this
// technique for run-time admission control").
//
// The controller keeps one Composite (combined blocking probability and
// weighted blocking time, Eq. 6/7) per processing node, covering every
// actor of every admitted application. Admitting or removing an
// application updates each touched node in O(1) per actor via the
// composability operators and their inverses (Eq. 8/9) - no re-analysis of
// the other applications' internals is needed.
//
// An admission request is granted iff
//   * the new application's predicted period meets its own requirement, and
//   * every already-admitted application's predicted period still meets its
//     registered requirement.
//
// Steady-state serving contract: candidate analysis state (throughput
// engine, isolation period, per-actor loads) is held in a small LRU keyed
// by graph structure, so repeated probes — and the request() that usually
// follows a successful probe — of the same application are O(weights):
// no validation re-run, no engine rebuild, no load re-derivation. A
// verdict-only probe (WhatIfOptions::with_estimates = false) of a cached
// candidate into a reused WhatIfReport performs zero heap allocations when
// the verdict is an admission (asserted by
// tests/test_steady_state_alloc.cpp); rejections additionally build the
// human-readable reason string. A full-report probe runs in controller
// scratch (view, estimator workspace, active set, engine list) and resizes
// the report's estimates in place.
//
// What a miss costs: one structural pass over the new graph — the
// ThroughputEngine build, which computes the repetition vector once, closes
// the graph inside its HSDF expansion and is also the validation (its
// constructor rejects inconsistent graphs and graphs above its expansion
// cap, structurally_deadlocked() deadlocking ones; no separate
// is_consistent / is_deadlock_free pass) —
// then one cold Howard solve for the isolation period, the load derivation
// and one graph copy into the LRU slot, made only once the checks pass.
// Everything after that is the hit path.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/transposition_table.h"
#include "platform/platform.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/compose.h"
#include "prob/estimator.h"
#include "prob/load.h"
#include "sdf/graph.h"

namespace procon::admission {

/// \brief Opaque handle identifying an admitted application.
using AppHandle = std::uint32_t;

/// \brief Quality-of-service requirement: the maximum tolerable period
/// (inverse of the minimum required throughput).
struct QoS {
  double max_period = 0.0;  ///< largest acceptable period, in time units

  /// \brief Best-effort marker: no period bound at all.
  /// \return a QoS whose bound is +infinity
  static QoS no_requirement() noexcept {
    return QoS{std::numeric_limits<double>::infinity()};
  }
};

/// \brief Outcome of an admission request().
struct Decision {
  bool admitted = false;         ///< true when the request was granted
  std::string reason;            ///< human-readable explanation when rejected
  double predicted_period = 0.0; ///< the requesting application's estimate
  /// Predicted period per already-admitted application (post-admission).
  std::vector<double> peer_periods;
  std::optional<AppHandle> handle;  ///< set when admitted
};

/// \brief Result of a hypothetical admit/remove.
///
/// The same O(1)-composability verdict a real request() computes, plus
/// (optionally) the full contention report the analysis stack
/// (api::Workbench::contention) would produce over the would-be admitted
/// set — evaluated through a zero-copy SystemView over the controller's
/// resident application store, never a snapshot copy.
struct WhatIfReport {
  /// Admit: would the request be granted. Remove: always true.
  bool admissible = false;
  std::string reason;             ///< why not, when !admissible
  double predicted_period = 0.0;  ///< candidate's own period (admit only)
  /// Composability-predicted period per handle slot after the hypothetical
  /// change (0 for inactive handles; for what_if_remove, 0 for the removed
  /// application itself).
  std::vector<double> peer_periods;
  /// Full Figure-4 estimator report over the would-be active set, in
  /// active-handle order (what_if_admit: candidate last). Empty when the
  /// would-be set is empty or WhatIfOptions::with_estimates is false.
  std::vector<prob::AppEstimate> estimates;
};

/// \brief Options of a what-if probe.
struct WhatIfOptions {
  /// Also produce the full Figure-4 estimator report
  /// (WhatIfReport::estimates). Verdict-only probes (false) of a cached
  /// candidate into a reused report are allocation-free; report-producing
  /// probes pay the estimator's result storage.
  bool with_estimates = true;
  /// Estimator configuration for the full report (ignored when
  /// with_estimates is false).
  prob::EstimatorOptions estimator;
};

/// \brief Run-time admission controller over a resident application store.
///
/// Thread-safety: a controller is a mutable session object — every query,
/// including const predictions, updates cached analysis engines and reuses
/// internal scratch buffers, so concurrent use is not allowed.
///
/// Determinism: decisions and predictions are pure functions of the
/// admitted set and the probe inputs; the candidate LRU only caches
/// structure-derived state (engines, isolation periods, loads), never
/// verdicts, so cache hits and misses produce identical numbers. The
/// optional transposition table memoises predicted periods bitwise
/// (keyed by graph Zobrist component x node assignment x node composites),
/// so table-backed and table-free controllers also produce identical
/// numbers — including the reason strings built from them.
class AdmissionController {
 public:
  /// \brief Constructs a controller over `platform` with an empty admitted
  /// set.
  /// \param platform the processing nodes applications contend for
  /// \param candidate_cache_capacity number of distinct candidate
  ///        applications whose analysis state is retained (LRU evicted
  ///        beyond that); values below 1 are clamped to 1
  /// \param table optional shared transposition table memoising contention
  ///        period predictions across probes — and across controllers /
  ///        Workbench sessions sharing the same table. nullptr disables
  ///        memoisation (results are bitwise identical either way).
  explicit AdmissionController(
      platform::Platform platform, std::size_t candidate_cache_capacity = 8,
      std::shared_ptr<analysis::TranspositionTable> table = nullptr);

  /// \brief Requests admission of `app` with actor a mapped on `nodes[a]`.
  ///
  /// Consistent, deadlock-free graphs within the engine's expansion cap
  /// (sdf::kMaxRepetitionSum) only; throws sdf::GraphError otherwise,
  /// the cap before anything is expanded. A granted request commits the
  /// application to the resident store and updates every touched node
  /// composite in O(1) per actor.
  /// \param app the application graph asking to run
  /// \param nodes actor-to-node assignment (one entry per actor)
  /// \param qos the application's own period requirement
  /// \return the verdict, predictions, and (when admitted) the new handle
  Decision request(const sdf::Graph& app, const std::vector<platform::NodeId>& nodes,
                   const QoS& qos);

  /// \brief Removes an admitted application, releasing its load.
  /// \param handle the handle request() returned. Throws std::out_of_range
  ///        for unknown/stale handles.
  void remove(AppHandle handle);

  /// \brief What would happen if `app` were admitted — without mutating the
  /// admitted set.
  ///
  /// The same checks and predictions as request(), plus the full estimator
  /// report. The candidate is appended to the resident store only for the
  /// duration of the report query (no graph copies of the admitted
  /// applications, no snapshot System).
  /// \param app the hypothetical application
  /// \param nodes actor-to-node assignment (one entry per actor)
  /// \param qos the hypothetical period requirement
  /// \param estimator selects the method for the full report
  /// \return verdict + predictions + full estimator report
  [[nodiscard]] WhatIfReport what_if_admit(
      const sdf::Graph& app, const std::vector<platform::NodeId>& nodes,
      const QoS& qos, const prob::EstimatorOptions& estimator = {});

  /// \brief Steady-state variant of what_if_admit: writes into a reused
  /// report.
  ///
  /// `out`'s storage (peer_periods, reason) is cleared and refilled, and a
  /// full report resizes `estimates` in place (slots keep their actor
  /// vectors), so its capacity amortises across probes; a verdict-only
  /// probe empties `estimates`. With WhatIfOptions::with_estimates = false
  /// and the candidate already in the LRU, an admitting probe performs zero
  /// heap allocations (a rejection additionally builds the reason string).
  /// \param app the hypothetical application
  /// \param nodes actor-to-node assignment (one entry per actor)
  /// \param qos the hypothetical period requirement
  /// \param out report to clear and fill (capacity reused)
  /// \param opts verdict-only vs full-report probe, estimator selection
  void what_if_admit(const sdf::Graph& app, std::span<const platform::NodeId> nodes,
                     const QoS& qos, WhatIfReport& out,
                     const WhatIfOptions& opts = {});

  /// \brief What the remaining applications' periods would become if
  /// `handle` were removed, without removing it.
  /// \param handle admitted application to hypothetically remove. Throws
  ///        std::out_of_range for unknown/stale handles.
  /// \param estimator selects the method for the full report
  /// \return predictions for the survivors + full estimator report
  [[nodiscard]] WhatIfReport what_if_remove(
      AppHandle handle, const prob::EstimatorOptions& estimator = {});

  /// \brief Number of currently admitted applications.
  /// \return active handle count
  [[nodiscard]] std::size_t admitted_count() const noexcept;

  /// \brief Number of candidate applications whose analysis state is cached.
  /// \return LRU occupancy (bounded by the construction-time capacity)
  [[nodiscard]] std::size_t candidate_cache_size() const noexcept {
    return candidates_.size();
  }

  /// \brief Current predicted period of an admitted application (under the
  /// composability-inverse estimate).
  ///
  /// NOTE: although const, this (like request()) updates the queried
  /// application's cached analysis engine — the controller is not safe for
  /// concurrent use, even for const queries.
  /// \param handle admitted application. Throws std::out_of_range for
  ///        unknown/stale handles.
  /// \return the predicted period under the current node composites
  [[nodiscard]] double predicted_period(AppHandle handle) const;

  /// \brief Combined blocking probability currently registered on a node.
  /// \param node node id. Throws std::out_of_range when invalid.
  /// \return the node's committed Composite
  [[nodiscard]] prob::Composite node_load(platform::NodeId node) const;

  /// \brief The currently active applications as a use-case over the
  /// resident store (ascending handle order) — the restriction what-if
  /// queries view.
  /// \return active handles, ascending
  [[nodiscard]] platform::UseCase active_use_case() const;

  /// \brief Materialises the currently admitted applications as a
  /// standalone System (graphs in admission order with their registered
  /// node assignments) — a deep copy.
  ///
  /// Lets a caller open an api::Workbench session on the live set. What-if
  /// queries do NOT need this: they run over a zero-copy SystemView of the
  /// resident store. Throws std::logic_error when nothing is admitted.
  /// \return a deep-copied System of the active set
  [[nodiscard]] platform::System snapshot_system() const;

 private:
  struct AdmittedApp {
    bool active = false;
    std::vector<platform::NodeId> nodes;
    std::vector<prob::ActorLoad> loads;
    double isolation_period = 0.0;
    QoS qos;
    /// Cached per-graph analysis state: an admitted application's structure
    /// never changes, so every what-if period prediction (its own and each
    /// peer's, on every later request) is a warm-started weight rewrite.
    /// Mutated through const predictions and shared by controller copies —
    /// see the thread-safety note on predicted_period().
    std::shared_ptr<analysis::ThroughputEngine> engine;
  };

  /// One LRU slot: everything derivable from a candidate graph alone
  /// (independent of its mapping), so a repeated probe skips validation,
  /// engine construction and load derivation. Keyed by the name-free
  /// Zobrist graph component (sdf::ZobristHash::graph_component — the same
  /// value System maintains per resident app), so candidate entries and
  /// transposition keys agree; the graph copy disambiguates collisions
  /// exactly (graphs_equal, which does compare names).
  struct CandidateEntry {
    std::uint64_t fingerprint = 0;
    std::uint64_t last_used = 0;
    sdf::Graph graph;
    std::shared_ptr<analysis::ThroughputEngine> engine;
    double isolation_period = 0.0;
    std::vector<prob::ActorLoad> loads;
  };

  /// Cached (or freshly built and cached) analysis state of `app`.
  /// Validates the graph on first sight; throws the same sdf::GraphErrors
  /// request()/what_if_admit() documented. The reference is valid until the
  /// next candidate_for call (LRU eviction may reuse the slot).
  CandidateEntry& candidate_for(const sdf::Graph& app);

  /// Predicted period of the app `graph` describes with loads `loads` and
  /// actor a on nodes[a], when node composites are `node_totals` (which
  /// must already include the app's own actors). Reuses response_scratch_.
  /// `graph_comp` is the graph's Zobrist component (the transposition key
  /// root); with a table attached, a repeat of the same (graph, nodes,
  /// relevant composites) is a lookup instead of an engine recompute — the
  /// stored period is the bitwise result of that recompute.
  [[nodiscard]] double predict_period(
      std::uint64_t graph_comp, const sdf::Graph& graph,
      std::span<const platform::NodeId> nodes,
      std::span<const prob::ActorLoad> loads, analysis::ThroughputEngine& engine,
      std::span<const prob::Composite> node_totals) const;

  /// Fills `totals` with the committed composites plus (optionally) a
  /// candidate's loads on `nodes`. Reuses the target's capacity.
  void totals_with(std::span<const platform::NodeId> nodes,
                   std::span<const prob::ActorLoad> loads,
                   std::vector<prob::Composite>& totals) const;

  /// Shared evaluation path of request()/what_if_admit(): composability
  /// checks for candidate `cand` mapped on `nodes`. Fills out's verdict
  /// fields (admissible, reason, predicted_period, peer_periods).
  void evaluate_candidate(const sdf::Graph& graph,
                          std::span<const platform::NodeId> nodes,
                          const CandidateEntry& cand, const QoS& qos,
                          WhatIfReport& out) const;

  /// Fills report_uc_ / report_engines_ with the active handles other than
  /// `skip`, ascending, and their cached engines.
  void collect_active(AppHandle skip = std::numeric_limits<AppHandle>::max());

  /// Full estimator report over report_uc_ (store indices) through
  /// report_engines_, written into `out` resized in place.
  void full_report(const prob::EstimatorOptions& estimator,
                   std::vector<prob::AppEstimate>& out);

  platform::Platform platform_;
  /// Graphs of every application ever admitted, in handle order, with their
  /// node assignments as the mapping — the single resident copy every view,
  /// what-if and prediction reads. Grows via append_app (no re-copy of the
  /// already-admitted graphs); a what_if_admit report appends the candidate
  /// and pops it before returning.
  platform::System store_;
  std::vector<AdmittedApp> apps_;       // indexed by handle; inactive = removed
  std::vector<prob::Composite> nodes_;  // committed composite per node

  // Candidate LRU (see class comment). candidate_clock_ stamps uses.
  std::vector<CandidateEntry> candidates_;
  std::size_t candidate_capacity_ = 8;
  std::uint64_t candidate_clock_ = 0;

  // Optional shared transposition table (see constructor). nullptr = off.
  std::shared_ptr<analysis::TranspositionTable> table_;

  // Scratch reused across queries (the allocation-free probe path); mutable
  // because const predictions share it — see the thread-safety note.
  mutable std::vector<prob::Composite> totals_scratch_;
  mutable std::vector<double> response_scratch_;
  // Full-report scratch (what_if_admit with estimates, what_if_remove): the
  // would-be active set, its engines, the view over the store and the
  // estimator workspace, all rebound per report.
  platform::UseCase report_uc_;
  std::vector<analysis::ThroughputEngine*> report_engines_;
  platform::SystemView report_view_;
  prob::EstimatorWorkspace report_ws_;
};

}  // namespace procon::admission
