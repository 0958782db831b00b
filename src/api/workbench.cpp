#include "api/workbench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

namespace procon::api {
namespace {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-application WCRT transposition probe/store. Bounds are memoised as
/// one (isolation, worst-case) entry per app plus one (waiting, response)
/// entry per actor, all keyed by the restriction fingerprint and the WCRT
/// options; a query hits only if *every* entry is present (all-or-nothing),
/// otherwise it recomputes and stores the full set.
bool probe_wcrt(analysis::TranspositionTable* table, std::uint64_t fp,
                const wcrt::WcrtOptions& opts, const platform::SystemView& view,
                std::vector<wcrt::AppBound>& out) {
  if (table == nullptr) return false;
  const std::size_t napps = view.app_count();
  out.clear();
  out.resize(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    analysis::TTKeyBuilder app_key(fp, analysis::TTQuery::WcrtAppBound);
    app_key.absorb(static_cast<std::uint64_t>(opts.policy));
    app_key.absorb(static_cast<std::uint64_t>(opts.tdma_slot));
    app_key.absorb(i);
    analysis::TTValue v;
    if (!table->lookup(app_key.key(), v)) return false;
    out[i].isolation_period = v.primary;
    out[i].worst_case_period = v.secondary;
    const std::size_t nactors = view.app(static_cast<sdf::AppId>(i)).actor_count();
    out[i].actors.resize(nactors);
    for (std::size_t a = 0; a < nactors; ++a) {
      analysis::TTKeyBuilder actor_key(fp, analysis::TTQuery::WcrtActorBound);
      actor_key.absorb(static_cast<std::uint64_t>(opts.policy));
      actor_key.absorb(static_cast<std::uint64_t>(opts.tdma_slot));
      actor_key.absorb(i);
      actor_key.absorb(a);
      if (!table->lookup(actor_key.key(), v)) return false;
      out[i].actors[a].waiting_time = v.primary;
      out[i].actors[a].response_time = v.secondary;
    }
  }
  return true;
}

void store_wcrt(analysis::TranspositionTable* table, std::uint64_t fp,
                const wcrt::WcrtOptions& opts,
                std::span<const wcrt::AppBound> bounds) {
  if (table == nullptr) return;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    analysis::TTKeyBuilder app_key(fp, analysis::TTQuery::WcrtAppBound);
    app_key.absorb(static_cast<std::uint64_t>(opts.policy));
    app_key.absorb(static_cast<std::uint64_t>(opts.tdma_slot));
    app_key.absorb(i);
    analysis::TTValue v;
    v.primary = bounds[i].isolation_period;
    v.secondary = bounds[i].worst_case_period;
    table->store(app_key.key(), v);
    for (std::size_t a = 0; a < bounds[i].actors.size(); ++a) {
      analysis::TTKeyBuilder actor_key(fp, analysis::TTQuery::WcrtActorBound);
      actor_key.absorb(static_cast<std::uint64_t>(opts.policy));
      actor_key.absorb(static_cast<std::uint64_t>(opts.tdma_slot));
      actor_key.absorb(i);
      actor_key.absorb(a);
      analysis::TTValue av;
      av.primary = bounds[i].actors[a].waiting_time;
      av.secondary = bounds[i].actors[a].response_time;
      table->store(actor_key.key(), av);
    }
  }
}

/// Fills `ptrs` (capacity reused) with the engines of `uc`'s applications,
/// each reset to cold start, and returns it as a span.
std::span<analysis::ThroughputEngine* const> engines_for(
    std::span<analysis::ThroughputEngine> engines, std::span<const sdf::AppId> uc,
    std::vector<analysis::ThroughputEngine*>& ptrs) {
  ptrs.clear();
  for (const sdf::AppId id : uc) {
    if (id >= engines.size()) {
      throw sdf::GraphError("Workbench: use-case references unknown application");
    }
    engines[id].reset();
    ptrs.push_back(&engines[id]);
  }
  return ptrs;
}

}  // namespace

Workbench::Workbench(platform::System sys, const WorkbenchOptions& opts)
    : sys_(std::move(sys)),
      table_(opts.table),
      threads_(opts.threads != 0
                   ? opts.threads
                   : std::max<std::size_t>(std::thread::hardware_concurrency(), 1)) {
  sys_.validate();
  engines_.reserve(sys_.app_count());
  for (const sdf::Graph& app : sys_.apps()) engines_.emplace_back(app);
  serving_.ws.engines = engines_;
  serving_.ws.engine_ptrs.reserve(sys_.app_count());
  full_uc_ = sys_.full_use_case();
}

void Workbench::check_app(sdf::AppId app) const {
  if (app >= sys_.app_count()) {
    throw sdf::GraphError("Workbench: application id out of range");
  }
}

/// Worker 0 is the calling thread. Workers 1..N-1 are threads started here;
/// each takes item indices from one atomic counter, and all are joined
/// before returning, so the session holds no thread between queries. Each
/// worker w >= 1 is built on the calling thread the first time a query
/// needs it, before any thread starts: it copies engines_, which worker 0
/// mutates once the fan-out runs. The first exception a body throws is
/// rethrown after the join; the other workers stop at their next item.
template <typename Body>
void Workbench::fan_out(std::size_t count, const Body& body) {
  const std::size_t workers = std::max<std::size_t>(std::min(threads_, count), 1);
  while (workers_.size() + 1 < workers) {
    Worker& w = workers_.emplace_back();
    w.engines = engines_;
    w.ws.engines = w.engines;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  const auto run = [&](std::size_t w) {
    Worker& worker = w == 0 ? serving_ : workers_[w - 1];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i, worker);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        next.store(count, std::memory_order_relaxed);
      }
    }
  };
  started_.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) started_.emplace_back(run, w);
  } catch (...) {
    // A worker that cannot start leaves its items to the workers that did.
  }
  run(0);
  for (std::thread& t : started_) t.join();
  started_.clear();
  if (error) std::rethrow_exception(error);
}

dse::AnalysisWorkspace& Workbench::mapping_workspace(Worker& w) {
  if (!w.has_system) {
    w.ws.sys = sys_;
    w.has_system = true;
  }
  return w.ws;
}

sim::SimEngine& Workbench::sim_engine() {
  if (sim_engine_.empty()) sim_engine_.emplace_back(sys_);
  return sim_engine_.front();
}

// ---- single-application queries -------------------------------------------

Report<analysis::PeriodResult> Workbench::throughput(sdf::AppId app) {
  check_app(app);
  Timer timer;
  Report<analysis::PeriodResult> report;
  analysis::TTKey key;
  if (table_ != nullptr) {
    key = analysis::TTKeyBuilder(sys_.app_component(app),
                                 analysis::TTQuery::IsolationPeriod)
              .key();
    analysis::TTValue v;
    if (table_->lookup(key, v)) {
      report.value.deadlocked = (v.flags & analysis::TTValue::kDeadlocked) != 0;
      report.value.period = v.primary;
      report.provenance = {"hsdf-mcr (Howard, cached structure)", 1, 1, timer.ms()};
      return report;
    }
  }
  engines_[app].reset();
  report.value = engines_[app].recompute();
  if (table_ != nullptr) {
    analysis::TTValue v;
    v.primary = report.value.period;
    v.flags = report.value.deadlocked ? analysis::TTValue::kDeadlocked : 0;
    table_->store(key, v);
  }
  report.provenance = {"hsdf-mcr (Howard, cached structure)", 1, 1, timer.ms()};
  return report;
}

Report<analysis::GraphLatencyResult> Workbench::latency(sdf::AppId app) {
  check_app(app);
  Timer timer;
  analysis::TTKey key;
  if (table_ != nullptr) {
    key = analysis::TTKeyBuilder(sys_.app_component(app), analysis::TTQuery::Latency)
              .key();
    analysis::TTValue v;
    if (table_->lookup(key, v)) {
      Report<analysis::GraphLatencyResult> report;
      report.value.latency = v.primary;
      report.value.critical_actors.assign(v.ids, v.ids + v.id_count);
      report.provenance = {"longest zero-token path (cached expansion)", 1, 1,
                           timer.ms()};
      return report;
    }
  }
  Report<analysis::GraphLatencyResult> report;
  report.value = engines_[app].latency();
  if (table_ != nullptr &&
      report.value.critical_actors.size() <= analysis::TTValue::kMaxIds) {
    // Results whose critical-actor list does not fit the compact entry are
    // simply not cached (never truncated).
    analysis::TTValue v;
    v.primary = report.value.latency;
    v.id_count = static_cast<std::uint8_t>(report.value.critical_actors.size());
    std::copy(report.value.critical_actors.begin(),
              report.value.critical_actors.end(), v.ids);
    table_->store(key, v);
  }
  report.provenance = {"longest zero-token path (cached expansion)", 1, 1,
                       timer.ms()};
  return report;
}

Report<analysis::BottleneckReport> Workbench::bottleneck(sdf::AppId app) {
  check_app(app);
  Timer timer;
  analysis::TTKey key;
  if (table_ != nullptr) {
    key = analysis::TTKeyBuilder(sys_.app_component(app),
                                 analysis::TTQuery::Bottleneck)
              .key();
    analysis::TTValue v;
    if (table_->lookup(key, v)) {
      Report<analysis::BottleneckReport> report;
      report.value.deadlocked = (v.flags & analysis::TTValue::kDeadlocked) != 0;
      report.value.period = v.primary;
      report.value.actors.assign(v.ids, v.ids + v.id_count);
      report.provenance = {"Howard policy-graph critical cycle", 1, 1, timer.ms()};
      return report;
    }
  }
  Report<analysis::BottleneckReport> report;
  report.value = engines_[app].bottleneck();
  if (table_ != nullptr && report.value.actors.size() <= analysis::TTValue::kMaxIds) {
    analysis::TTValue v;
    v.primary = report.value.period;
    v.flags = report.value.deadlocked ? analysis::TTValue::kDeadlocked : 0;
    v.id_count = static_cast<std::uint8_t>(report.value.actors.size());
    std::copy(report.value.actors.begin(), report.value.actors.end(), v.ids);
    table_->store(key, v);
  }
  report.provenance = {"Howard policy-graph critical cycle", 1, 1, timer.ms()};
  return report;
}

Report<std::vector<dse::BufferPoint>> Workbench::buffer_frontier(
    sdf::AppId app, const dse::BufferExplorerOptions& opts) {
  check_app(app);
  Timer timer;
  Report<std::vector<dse::BufferPoint>> report;
  report.value = dse::explore_buffer_tradeoff(sys_.app(app), opts);
  report.provenance = {"greedy frontier (fresh engine per candidate)",
                       report.value.size(), 1, timer.ms()};
  return report;
}

// ---- whole-system queries --------------------------------------------------

Report<std::vector<prob::AppEstimate>> Workbench::contention(
    const prob::EstimatorOptions& opts) {
  return contention(full_uc_, opts);
}

Report<std::vector<prob::AppEstimate>> Workbench::contention(
    const platform::UseCase& uc, const prob::EstimatorOptions& opts) {
  // Deep-copying shim over the workspace core: same numbers, owning storage.
  const auto& core = contention_core(uc, opts);
  Report<std::vector<prob::AppEstimate>> report;
  report.value.assign(core.value.begin(), core.value.end());
  report.provenance = core.provenance;
  return report;
}

const Report<std::span<const prob::AppEstimate>>& Workbench::contention_view(
    const prob::EstimatorOptions& opts) {
  return contention_core(full_uc_, opts);
}

const Report<std::span<const prob::AppEstimate>>& Workbench::contention_view(
    const platform::UseCase& uc, const prob::EstimatorOptions& opts) {
  return contention_core(uc, opts);
}

const Report<std::span<const prob::AppEstimate>>& Workbench::contention_core(
    const platform::UseCase& uc, const prob::EstimatorOptions& opts) {
  Timer timer;
  dse::AnalysisWorkspace& ws = serving_.ws;
  ws.view.rebind(sys_, uc);  // zero-copy restriction, capacity reused
  const prob::ContentionEstimator est(opts);
  const auto engines = engines_for(ws.engines, uc, ws.engine_ptrs);
  if (est_pool_.size() < uc.size()) est_pool_.resize(uc.size());
  est.estimate_into(ws.view, {}, engines, ws.est,
                    std::span<prob::AppEstimate>(est_pool_.data(), uc.size()));
  contention_report_.value =
      std::span<const prob::AppEstimate>(est_pool_.data(), uc.size());
  // Assigning a const char* into the retained string reuses its capacity —
  // the warm path stays heap-free.
  contention_report_.provenance.method = prob::method_name(opts.method);
  contention_report_.provenance.evaluations =
      static_cast<std::size_t>(opts.iterations);
  contention_report_.provenance.threads = 1;
  contention_report_.provenance.wall_ms = timer.ms();
  return contention_report_;
}

Report<std::vector<wcrt::AppBound>> Workbench::wcrt(const wcrt::WcrtOptions& opts) {
  return wcrt(full_uc_, opts);
}

Report<std::vector<wcrt::AppBound>> Workbench::wcrt(const platform::UseCase& uc,
                                                    const wcrt::WcrtOptions& opts) {
  Timer timer;
  dse::AnalysisWorkspace& ws = serving_.ws;
  ws.view.rebind(sys_, uc);  // zero-copy restriction, capacity reused
  Report<std::vector<wcrt::AppBound>> report;
  const std::uint64_t fp = table_ != nullptr ? ws.view.fingerprint() : 0;
  if (probe_wcrt(table_.get(), fp, opts, ws.view, report.value)) {
    report.provenance = {"Analyzed Worst Case", 1, 1, timer.ms()};
    return report;
  }
  report.value.resize(uc.size());
  wcrt::worst_case_bounds_into(ws.view, opts, engines_for(ws.engines, uc, ws.engine_ptrs),
                               serving_.wcrt, report.value);
  store_wcrt(table_.get(), fp, opts, report.value);
  report.provenance = {"Analyzed Worst Case", 1, 1, timer.ms()};
  return report;
}

Report<sim::SimResult> Workbench::simulate(const sim::SimOptions& opts) {
  Timer timer;
  Report<sim::SimResult> report;
  sim::SimEngine& engine = sim_engine();
  engine.reset();
  report.value = engine.run(opts);
  report.provenance = {"discrete-event simulation (cached engine)",
                       report.value.events_processed, 1, timer.ms()};
  return report;
}

Report<sim::SimResult> Workbench::simulate(const platform::UseCase& uc,
                                           const sim::SimOptions& opts) {
  Timer timer;
  Report<sim::SimResult> report;
  sim::SimEngine& engine = sim_engine();
  engine.reset(uc);
  report.value = engine.run(opts);
  report.provenance = {"discrete-event simulation (cached engine)",
                       report.value.events_processed, 1, timer.ms()};
  return report;
}

// ---- fanned-out queries ---------------------------------------------------

Report<std::vector<UseCaseResult>> Workbench::sweep_use_cases(
    std::span<const platform::UseCase> use_cases, const SweepOptions& opts) {
  Timer timer;
  const prob::ContentionEstimator est(opts.estimator);
  Report<std::vector<UseCaseResult>> report;
  report.value.resize(use_cases.size());
  fan_out(use_cases.size(), [&](std::size_t i, Worker& worker) {
    // Each evaluation resets its engines, so the slot result is a pure
    // function of the use-case — identical regardless of which worker
    // computes it after which other items. The zero-copy view over sys_ is
    // the worker's own, so workers share nothing mutable.
    dse::AnalysisWorkspace& ws = worker.ws;
    const platform::UseCase& uc = use_cases[i];
    ws.view.rebind(sys_, uc);
    UseCaseResult& out = report.value[i];
    out.use_case = uc;
    out.estimates.resize(uc.size());
    est.estimate_into(ws.view, {}, engines_for(ws.engines, uc, ws.engine_ptrs), ws.est,
                      out.estimates);
    if (opts.with_wcrt) {
      out.bounds.resize(uc.size());
      wcrt::worst_case_bounds_into(ws.view, opts.wcrt,
                                   engines_for(ws.engines, uc, ws.engine_ptrs),
                                   worker.wcrt, out.bounds);
    }
  });
  report.provenance = {"sweep: " + std::string(prob::method_name(opts.estimator.method)),
                       use_cases.size(), threads_, timer.ms()};
  return report;
}

Report<std::vector<double>> Workbench::score_mappings(
    std::span<const platform::Mapping> candidates,
    const prob::EstimatorOptions& opts) {
  Timer timer;
  const prob::ContentionEstimator est(opts);
  Report<std::vector<double>> report;
  report.value.resize(candidates.size());
  fan_out(candidates.size(), [&](std::size_t i, Worker& worker) {
    report.value[i] = dse::score_mapping(candidates[i], est, mapping_workspace(worker));
  });
  report.provenance = {"mapping score: " + std::string(prob::method_name(opts.method)),
                       candidates.size(), threads_, timer.ms()};
  return report;
}

Report<dse::MapperResult> Workbench::optimise_mapping(const dse::MapperOptions& opts) {
  Timer timer;
  Report<dse::MapperResult> report;
  // Worker 0's workspace carries the scoring state, so repeated mapper
  // queries skip the per-call graph copies and engine construction.
  report.value = dse::optimise_mapping(sys_.apps(), sys_.platform(), sys_.mapping(),
                                       opts, mapping_workspace(serving_));
  report.provenance = {"simulated annealing", report.value.evaluations, 1,
                       timer.ms()};
  return report;
}

analysis::TranspositionTable::Stats Workbench::transposition_stats() const {
  return table_ != nullptr ? table_->stats() : analysis::TranspositionTable::Stats{};
}

}  // namespace procon::api
