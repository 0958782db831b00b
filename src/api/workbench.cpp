#include "api/workbench.h"

#include <algorithm>
#include <chrono>
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
    std::vector<analysis::ThroughputEngine>& engines, std::span<const sdf::AppId> uc,
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
    : sys_(std::move(sys)), table_(opts.table), pool_(opts.threads) {
  sys_.validate();
  engines_.reserve(sys_.app_count());
  for (const sdf::Graph& app : sys_.apps()) engines_.emplace_back(app);
  full_uc_ = sys_.full_use_case();
  ptr_scratch_.reserve(sys_.app_count());
}

void Workbench::check_app(sdf::AppId app) const {
  if (app >= sys_.app_count()) {
    throw sdf::GraphError("Workbench: application id out of range");
  }
}

std::vector<dse::AnalysisWorkspace>& Workbench::worker_sets(std::size_t count) {
  while (workers_.size() < count) {
    dse::AnalysisWorkspace& ws = workers_.emplace_back();
    ws.sys = sys_;
    ws.engines = engines_;
  }
  return workers_;
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
  scratch_view_.rebind(sys_, uc);  // zero-copy restriction, capacity reused
  const prob::ContentionEstimator est(opts);
  const auto engines = engines_for(engines_, uc, ptr_scratch_);
  if (est_pool_.size() < uc.size()) est_pool_.resize(uc.size());
  est.estimate_into(scratch_view_, {}, engines, est_ws_,
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
  scratch_view_.rebind(sys_, uc);  // zero-copy restriction, capacity reused
  Report<std::vector<wcrt::AppBound>> report;
  const std::uint64_t fp = table_ != nullptr ? scratch_view_.fingerprint() : 0;
  if (probe_wcrt(table_.get(), fp, opts, scratch_view_, report.value)) {
    report.provenance = {"Analyzed Worst Case", 1, 1, timer.ms()};
    return report;
  }
  report.value.resize(uc.size());
  wcrt::worst_case_bounds_into(scratch_view_, opts,
                               engines_for(engines_, uc, ptr_scratch_), wcrt_ws_,
                               report.value);
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

// ---- sharded queries -------------------------------------------------------

Report<std::vector<UseCaseResult>> Workbench::sweep_use_cases(
    std::span<const platform::UseCase> use_cases, const SweepOptions& opts) {
  Timer timer;
  const prob::ContentionEstimator est(opts.estimator);
  auto& workers = worker_sets(pool_.size());
  if (sweep_scratch_.empty()) sweep_scratch_.resize(pool_.size());

  Report<std::vector<UseCaseResult>> report;
  report.value.resize(use_cases.size());
  pool_.for_each_index(use_cases.size(), [&](std::size_t i, std::size_t w) {
    // One engine-set clone per worker; each evaluation resets its engines,
    // so the slot result is a pure function of the use-case — identical
    // regardless of which worker computes it after which other items.
    std::vector<analysis::ThroughputEngine>& engines = workers[w].engines;
    SweepScratch& scratch = sweep_scratch_[w];
    const platform::UseCase& uc = use_cases[i];
    // Zero-copy restriction: the estimator and the bounds read the selected
    // applications through the worker's view. Workers share nothing
    // mutable, and a warm sweep allocates only its results.
    scratch.view.rebind(sys_, uc);
    UseCaseResult& out = report.value[i];
    out.use_case = uc;
    out.estimates.resize(uc.size());
    est.estimate_into(scratch.view, {}, engines_for(engines, uc, scratch.engines),
                      scratch.est, out.estimates);
    if (opts.with_wcrt) {
      out.bounds.resize(uc.size());
      wcrt::worst_case_bounds_into(scratch.view, opts.wcrt,
                                   engines_for(engines, uc, scratch.engines),
                                   scratch.wcrt, out.bounds);
    }
  });
  report.provenance = {"sweep: " + std::string(prob::method_name(opts.estimator.method)),
                       use_cases.size(), pool_.size(), timer.ms()};
  return report;
}

Report<std::vector<TopologyResult>> Workbench::sweep_topologies(
    std::span<const platform::Topology> topologies,
    const TopologySweepOptions& opts) {
  Timer timer;
  const prob::ContentionEstimator est(opts.estimator);
  const platform::UseCase& uc = opts.use_case.empty() ? full_uc_ : opts.use_case;
  if (topo_scratch_.empty()) topo_scratch_.push_back(sys_);
  platform::System& scratch = topo_scratch_.front();

  Report<std::vector<TopologyResult>> report;
  report.value.resize(topologies.size());
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    scratch.set_topology(topologies[i]);
    const platform::SystemView view(scratch, uc);
    TopologyResult& out = report.value[i];
    {
      // Session engines: topology changes neither application structure nor
      // the mapping, so the per-app ThroughputEngines apply unchanged.
      out.estimates.resize(uc.size());
      est.estimate_into(view, {}, engines_for(engines_, uc, ptr_scratch_), est_ws_,
                        out.estimates);
    }
    out.sim = sim::simulate(view, opts.sim);
  }
  report.provenance = {"topology sweep: " +
                           std::string(prob::method_name(opts.estimator.method)),
                       topologies.size(), 1, timer.ms()};
  return report;
}

Report<std::vector<double>> Workbench::score_mappings(
    std::span<const platform::Mapping> candidates,
    const prob::EstimatorOptions& opts) {
  Timer timer;
  Report<std::vector<double>> report;
  report.value = dse::score_mappings(candidates, opts, &pool_, worker_sets(pool_.size()));
  report.provenance = {"mapping score: " + std::string(prob::method_name(opts.method)),
                       candidates.size(), pool_.size(), timer.ms()};
  return report;
}

Report<dse::MapperResult> Workbench::optimise_mapping(const dse::MapperOptions& opts) {
  Timer timer;
  Report<dse::MapperResult> report;
  // The first worker workspace carries the scoring state, so repeated
  // mapper queries skip the per-call graph copies and engine construction.
  report.value = dse::optimise_mapping(sys_.apps(), sys_.platform(), sys_.mapping(),
                                       opts, worker_sets(1).front());
  report.provenance = {"simulated annealing", report.value.evaluations, 1,
                       timer.ms()};
  return report;
}

analysis::TranspositionTable::Stats Workbench::transposition_stats() const {
  return table_ != nullptr ? table_->stats() : analysis::TranspositionTable::Stats{};
}

}  // namespace procon::api
