// procon::api::Workbench — one stateful analysis session over a System.
//
// The paper's core claim is that analytic contention estimation is fast
// enough to drive design-space exploration and run-time decisions across
// many concurrent use-cases. Each one-shot analysis (compute_period,
// ContentionEstimator::estimate, worst_case_bounds, simulate) takes one
// platform::SystemView and re-pays every structure-dependent analysis step
// per call. A Workbench is constructed once from a platform::System and
// owns instead:
//
//   * one ThroughputEngine per application (self-loop closure, repetition
//     vector, HSDF topology and structural verdicts cached once), which
//     serves the period, latency and bottleneck queries alike,
//   * one sim::SimEngine over the whole system (flat event-driven
//     structure built once; every simulation query — full or per
//     use-case — is a reset + run),
//   * one workspace per worker of the fanned-out queries (use-case sweeps,
//     candidate-mapping scoring). Worker 0 is the session itself, on its
//     own engines and serving scratch; a query that fans out starts
//     threads for workers 1.. and joins them before it returns, each on an
//     engine-set clone kept for the next query. A session holds no idle
//     thread.
//
// Every query returns Report<T>: the value plus provenance (method,
// evaluation count, workers, wall time). Results are bitwise identical to
// the corresponding one-shot (the session calls the same allocation-free
// cores, estimate_into and worst_case_bounds_into, through its cached
// engines): engines are reset to a cold start at each query boundary, so a
// query is a pure function of the session's system and the query options,
// never of query history or scheduling. In particular sweep_use_cases and
// score_mappings return the same bits for any thread count.
//
// Thread-safety: a Workbench is a mutable session — queries update cached
// engines, so concurrent queries on one Workbench are not allowed. The
// parallelism lives *inside* a query, not across queries.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analysis/engine.h"
#include "analysis/throughput.h"
#include "analysis/transposition_table.h"
#include "api/report.h"
#include "dse/buffer_explorer.h"
#include "dse/mapper.h"
#include "platform/system.h"
#include "platform/system_view.h"
#include "prob/estimator.h"
#include "sim/sim_engine.h"
#include "sim/simulator.h"
#include "wcrt/wcrt.h"

namespace procon::api {

/// \brief Session construction options.
struct WorkbenchOptions {
  /// Worker count of the fanned-out queries (sweep_use_cases,
  /// score_mappings): each runs on min(threads, items) workers, the calling
  /// thread plus threads the query starts and joins. 0 = one per hardware
  /// thread. 1 = fully serial (no thread is ever started).
  std::size_t threads = 0;
  /// Optional shared transposition table memoising compact analysis results
  /// (periods, latencies, bottleneck and WCRT summaries) under this
  /// session's queries, keyed by the session system's Zobrist
  /// fingerprints. Sessions over structurally identical systems sharing one
  /// table share each other's results (fingerprints are name-free); every
  /// query returns bitwise-identical values with or without a table.
  /// nullptr disables memoisation.
  std::shared_ptr<analysis::TranspositionTable> table = nullptr;
};

/// \brief Per-use-case results of a sweep.
struct UseCaseResult {
  /// The evaluated use-case (parent application ids, in input order).
  platform::UseCase use_case;
  /// One estimate per selected application, in use-case order.
  std::vector<prob::AppEstimate> estimates;
  /// Worst-case bounds (only when SweepOptions::with_wcrt).
  std::vector<wcrt::AppBound> bounds;
};

/// \brief What a use-case sweep evaluates per item.
struct SweepOptions {
  /// Estimator configuration (method, fixed-point passes).
  prob::EstimatorOptions estimator;
  /// Also compute the worst-case (Analyzed Worst Case) bound per use-case.
  bool with_wcrt = false;
  /// Worst-case bound configuration (when with_wcrt).
  wcrt::WcrtOptions wcrt;
};

/// \brief One stateful analysis session over a platform::System — every
/// analysis and DSE entry point as a uniform, Report-returning query.
///
/// Owns one analysis::ThroughputEngine and one cached HSDF expansion per
/// application, one sim::SimEngine over the whole system, and one workspace
/// per worker of the fanned-out queries; see the header comment above for
/// the full caching contract.
///
/// Determinism: every query is bitwise identical to the corresponding
/// one-shot (engines cold-start at each query boundary), and the fanned-out
/// queries return identical bits for any thread count.
///
/// Thread-safety: a Workbench is a mutable session — queries update cached
/// engines, so concurrent queries on one Workbench are not allowed. The
/// parallelism lives *inside* a query, not across queries.
class Workbench {
 public:
  /// Builds all per-application analysis state. Throws sdf::GraphError for
  /// invalid systems (incomplete mapping, inconsistent or deadlocking
  /// applications) — a session is valid for its whole lifetime.
  explicit Workbench(platform::System sys, const WorkbenchOptions& opts = {});

  Workbench(const Workbench&) = delete;             ///< sessions are unique
  Workbench& operator=(const Workbench&) = delete;  ///< sessions are unique

  /// The session's system (applications + platform + mapping).
  [[nodiscard]] const platform::System& system() const noexcept { return sys_; }
  /// Number of applications in the session.
  [[nodiscard]] std::size_t app_count() const noexcept { return sys_.app_count(); }

  // ---- single-application queries (cached structure) ----------------------

  /// Isolation period of one application (== analysis::compute_period).
  [[nodiscard]] Report<analysis::PeriodResult> throughput(sdf::AppId app);

  /// Single-iteration latency (== analysis::compute_latency).
  [[nodiscard]] Report<analysis::GraphLatencyResult> latency(sdf::AppId app);

  /// Critical-cycle actors (== analysis::find_bottleneck).
  [[nodiscard]] Report<analysis::BottleneckReport> bottleneck(sdf::AppId app);

  /// Buffer-size / period Pareto frontier (== dse::explore_buffer_tradeoff
  /// plus provenance).
  [[nodiscard]] Report<std::vector<dse::BufferPoint>> buffer_frontier(
      sdf::AppId app, const dse::BufferExplorerOptions& opts = {});

  // ---- whole-system queries ----------------------------------------------

  /// Probabilistic contention estimate for all applications running
  /// concurrently (== prob::ContentionEstimator::estimate), computed
  /// serially on the calling thread.
  [[nodiscard]] Report<std::vector<prob::AppEstimate>> contention(
      const prob::EstimatorOptions& opts = {});

  /// Same, restricted to one use-case (== estimate(SystemView(sys, uc))).
  [[nodiscard]] Report<std::vector<prob::AppEstimate>> contention(
      const platform::UseCase& uc, const prob::EstimatorOptions& opts = {});

  /// Allocation-free steady-state variant of contention(): identical
  /// numbers, but the estimates are served as a span into session-owned
  /// slots (the estimator runs in the session's persistent workspace). The
  /// returned reference — value span and provenance alike — is valid until
  /// the next contention/contention_view call or session destruction.
  /// After one warm-up query per distinct shape, repeated calls perform
  /// zero heap allocations; contention() is a deep-copying shim over this
  /// path.
  [[nodiscard]] const Report<std::span<const prob::AppEstimate>>& contention_view(
      const prob::EstimatorOptions& opts = {});
  /// Use-case-restricted contention_view (see above; == contention(uc, opts)
  /// served as a view).
  [[nodiscard]] const Report<std::span<const prob::AppEstimate>>& contention_view(
      const platform::UseCase& uc, const prob::EstimatorOptions& opts = {});

  /// Worst-case period bounds (== wcrt::worst_case_bounds), through the
  /// session's engines and WCRT workspace.
  [[nodiscard]] Report<std::vector<wcrt::AppBound>> wcrt(
      const wcrt::WcrtOptions& opts = {});
  /// Worst-case bounds restricted to one use-case (zero-copy view;
  /// == worst_case_bounds(SystemView(sys, uc))).
  [[nodiscard]] Report<std::vector<wcrt::AppBound>> wcrt(
      const platform::UseCase& uc, const wcrt::WcrtOptions& opts = {});

  /// Reference discrete-event simulation (== sim::simulate), on the
  /// session's cached SimEngine: the first call flattens the system once,
  /// every further call is a reset + run. Use-case runs restrict through
  /// the engine's id remap tables — no copy, no rebuild.
  [[nodiscard]] Report<sim::SimResult> simulate(const sim::SimOptions& opts = {});
  /// Simulation restricted to one use-case: a reset(uc) + run of the
  /// session engine.
  [[nodiscard]] Report<sim::SimResult> simulate(const platform::UseCase& uc,
                                                const sim::SimOptions& opts = {});

  // ---- fanned-out queries (WorkbenchOptions::threads workers) --------------

  /// Estimates every given use-case, fanned out over the session's workers
  /// (worker 0 on the session's engines, the others on engine-set clones).
  /// Results are in input order and bitwise identical for any thread count
  /// (each use-case evaluation is a pure function of the use-case and
  /// options). Each worker reuses its view, estimator and WCRT workspaces
  /// from item to item, so a warm sweep allocates only the results it
  /// returns and the handles of the threads it starts.
  [[nodiscard]] Report<std::vector<UseCaseResult>> sweep_use_cases(
      std::span<const platform::UseCase> use_cases, const SweepOptions& opts = {});

  /// Scores candidate mappings of the session's applications (max estimated
  /// slowdown; == dse::evaluate_mapping per candidate), fanned out over the
  /// session's workers (dse::score_mapping on each worker's workspace).
  /// Results in input order, bitwise identical for any thread count.
  /// Throws sdf::GraphError for a candidate that maps an actor to a node the
  /// platform does not have.
  [[nodiscard]] Report<std::vector<double>> score_mappings(
      std::span<const platform::Mapping> candidates,
      const prob::EstimatorOptions& opts = {});

  /// Simulated-annealing mapping exploration from the session's current
  /// mapping (== dse::optimise_mapping on worker 0's workspace). One
  /// candidate is scored per step on the calling thread, so the result does
  /// not depend on the thread count.
  [[nodiscard]] Report<dse::MapperResult> optimise_mapping(
      const dse::MapperOptions& opts = {});

  // ---- introspection -------------------------------------------------------

  /// Counter snapshot of the session's transposition table (all zeros when
  /// the session was built without one). The table may be shared: counters
  /// cover every session/controller attached to it, not just this one.
  [[nodiscard]] analysis::TranspositionTable::Stats transposition_stats() const;

  /// The session's transposition table (nullptr when memoisation is off) —
  /// lets callers attach further consumers (e.g. an AdmissionController)
  /// to the same table.
  [[nodiscard]] const std::shared_ptr<analysis::TranspositionTable>&
  transposition_table() const noexcept {
    return table_;
  }

 private:
  /// One worker's mutable state for the fanned-out queries: a workspace
  /// (view, engine list and estimator scratch; for mapping queries also a
  /// copy of the system whose mapping each candidate rebinds) over borrowed
  /// engines, and a WCRT workspace. Worker 0 is the session itself
  /// (serving_, over engines_); each worker w >= 1 owns the engine clone its
  /// workspace borrows.
  struct Worker {
    std::vector<analysis::ThroughputEngine> engines;  // empty for worker 0
    dse::AnalysisWorkspace ws;
    wcrt::WcrtWorkspace wcrt;
    bool has_system = false;  // ws.sys is a copy of sys_
  };

  void check_app(sdf::AppId app) const;
  /// Shared core of contention()/contention_view(): runs the estimator in
  /// the session workspace, serves the result via contention_report_.
  const Report<std::span<const prob::AppEstimate>>& contention_core(
      const platform::UseCase& uc, const prob::EstimatorOptions& opts);
  /// Runs body(item, worker) for every item in [0, count) on min(threads_,
  /// count) workers; see workbench.cpp.
  template <typename Body>
  void fan_out(std::size_t count, const Body& body);
  /// `w`'s workspace with its copy of sys_ made (on first use), for the
  /// mapping queries.
  dse::AnalysisWorkspace& mapping_workspace(Worker& w);
  /// The session's simulation engine (lazy; structure flattened once).
  sim::SimEngine& sim_engine();

  platform::System sys_;
  std::shared_ptr<analysis::TranspositionTable> table_;  // nullptr = off
  std::vector<analysis::ThroughputEngine> engines_;  // one per application
  std::size_t threads_ = 1;                          // resolved options.threads
  // Worker 0, the session: its serving view, engine list and estimator and
  // WCRT workspaces serve the serial queries as well as worker 0's share of
  // the fanned-out ones.
  Worker serving_;
  std::deque<Worker> workers_;         // workers 1.., built on first use
  std::vector<std::thread> started_;   // handles of workers 1.., storage reused
  std::vector<sim::SimEngine> sim_engine_;           // lazy, 0 or 1 entries

  // Steady-state serving results: the allocation-free contention_view
  // serves spans into these grow-only slots.
  platform::UseCase full_uc_;                        // 0..N-1, built once
  std::vector<prob::AppEstimate> est_pool_;          // grow-only result slots
  Report<std::span<const prob::AppEstimate>> contention_report_;
};

}  // namespace procon::api
