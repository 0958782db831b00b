#include "admission/admission.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "sdf/algorithms.h"
#include "sdf/zobrist.h"
#include "util/contracts.h"

namespace procon::admission {

using prob::Composite;

// Structural identity: the candidate LRU is keyed by the name-free Zobrist
// graph component (sdf::ZobristHash::graph_component — the same per-app
// component platform::System maintains incrementally), tie-broken exactly
// by sdf::graphs_equal. The transposition table keys derive from the same
// component, so candidate state and memoised periods agree on what "same
// graph" means.

AdmissionController::AdmissionController(
    platform::Platform platform, std::size_t candidate_cache_capacity,
    std::shared_ptr<analysis::TranspositionTable> table)
    : platform_(std::move(platform)),
      store_({}, platform_, platform::Mapping(std::span<const sdf::Graph>{})),
      candidate_capacity_(std::max<std::size_t>(candidate_cache_capacity, 1)),
      table_(std::move(table)) {
  nodes_.assign(platform_.node_count(), Composite::identity());
  candidates_.reserve(candidate_capacity_);
}

std::size_t AdmissionController::admitted_count() const noexcept {
  std::size_t n = 0;
  for (const auto& a : apps_) n += a.active ? 1 : 0;
  return n;
}

Composite AdmissionController::node_load(platform::NodeId node) const {
  if (node >= nodes_.size()) throw std::out_of_range("node_load: invalid node");
  return nodes_[node];
}

platform::UseCase AdmissionController::active_use_case() const {
  platform::UseCase uc;
  for (AppHandle h = 0; h < apps_.size(); ++h) {
    if (apps_[h].active) uc.push_back(h);
  }
  return uc;
}

platform::System AdmissionController::snapshot_system() const {
  const platform::UseCase active = active_use_case();
  if (active.empty()) {
    throw std::logic_error("snapshot_system: no admitted applications");
  }
  return platform::SystemView(store_, active).materialise();
}

AdmissionController::CandidateEntry& AdmissionController::candidate_for(
    const sdf::Graph& app) {
  const std::uint64_t fp = sdf::ZobristHash::graph_component(app);
  for (CandidateEntry& e : candidates_) {
    if (e.fingerprint == fp && sdf::graphs_equal(e.graph, app)) {
      e.last_used = ++candidate_clock_;  // hit: O(weights), no rebuild
      return e;
    }
  }

  // First sight: build the engine, which is the validation — its
  // constructor rejects exactly the inconsistent graphs (no repetition
  // vector) and the graphs above its expansion cap, before expanding, and
  // its zero-token-cycle verdict exactly the deadlocking ones. Then derive
  // the mapping-independent analysis state and cache it (evicting the least
  // recently used slot).
  CandidateEntry entry;
  try {
    entry.engine = std::make_shared<analysis::ThroughputEngine>(app);
  } catch (const sdf::GraphError& e) {
    throw sdf::GraphError(std::string("admission: ") + e.what());
  }
  if (entry.engine->structurally_deadlocked()) {
    throw sdf::GraphError("admission: graph deadlocks");
  }
  const auto iso = entry.engine->recompute();
  if (iso.period <= 0.0) {
    throw sdf::GraphError("admission: no positive isolation period");
  }
  entry.fingerprint = fp;
  entry.graph = app;
  entry.isolation_period = iso.period;
  entry.loads = prob::derive_loads(app, entry.engine->repetition_vector(), iso.period);
  entry.last_used = ++candidate_clock_;

  if (candidates_.size() < candidate_capacity_) {
    candidates_.push_back(std::move(entry));
    return candidates_.back();
  }
  std::size_t victim = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    if (candidates_[i].last_used < candidates_[victim].last_used) victim = i;
  }
  candidates_[victim] = std::move(entry);
  return candidates_[victim];
}

void AdmissionController::totals_with(std::span<const platform::NodeId> nodes,
                                      std::span<const prob::ActorLoad> loads,
                                      std::vector<Composite>& totals) const {
  totals.assign(nodes_.begin(), nodes_.end());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    Composite& t = totals[nodes[a]];
    t = prob::compose(t, prob::to_composite(loads[a]));
  }
}

PROCON_WARM_PATH double AdmissionController::predict_period(
    std::uint64_t graph_comp, const sdf::Graph& graph,
    std::span<const platform::NodeId> nodes,
    std::span<const prob::ActorLoad> loads, analysis::ThroughputEngine& engine,
    std::span<const Composite> node_totals) const {
  PROCON_ASSERT_NO_ALLOC("AdmissionController::predict_period");
  // Transposition probe: the period is a pure function of the graph
  // structure (loads derive from it deterministically), the node
  // assignment, and the composites on the assigned nodes — absorb exactly
  // those, bitwise. A hit returns the stored recompute result verbatim.
  analysis::TTKey key;
  if (table_) {
    analysis::TTKeyBuilder b(graph_comp, analysis::TTQuery::AdmissionPeriod);
    for (std::size_t a = 0; a < nodes.size(); ++a) {
      const Composite& total = node_totals[nodes[a]];
      b.absorb(nodes[a]);
      b.absorb_double(total.probability);
      b.absorb_double(total.weighted_blocking);
    }
    key = b.key();
    analysis::TTValue v;
    if (table_->lookup(key, v)) return v.primary;
  }
  response_scratch_.assign(graph.actor_count(), 0.0);
  for (sdf::ActorId a = 0; a < graph.actor_count(); ++a) {
    const Composite self = prob::to_composite(loads[a]);
    const Composite& total = node_totals[nodes[a]];
    double twait = 0.0;
    if (prob::can_invert(self)) {
      twait = prob::decompose(total, self).weighted_blocking;
    } else {
      // Saturated actor: the inverse is undefined (paper's caveat); the
      // whole-node waiting time is a conservative stand-in.
      twait = total.weighted_blocking;
    }
    response_scratch_[a] = static_cast<double>(graph.actor(a).exec_time) + twait;
  }
  const auto res = engine.recompute(response_scratch_);
  if (res.deadlocked) {
    throw sdf::GraphError("predict_period: response-time graph deadlocks");
  }
  if (table_) {
    analysis::TTValue v;
    v.primary = res.period;
    table_->store(key, v);
  }
  return res.period;
}

void AdmissionController::evaluate_candidate(
    const sdf::Graph& graph, std::span<const platform::NodeId> nodes,
    const CandidateEntry& cand, const QoS& qos, WhatIfReport& out) const {
  totals_with(nodes, cand.loads, totals_scratch_);

  // The candidate's own predicted period.
  out.predicted_period = predict_period(cand.fingerprint, graph, nodes,
                                        cand.loads, *cand.engine, totals_scratch_);
  if (out.predicted_period > qos.max_period) {
    out.reason = "requesting application's predicted period " +
                 std::to_string(out.predicted_period) +
                 " exceeds its QoS bound " + std::to_string(qos.max_period);
    return;
  }

  // Impact on every admitted peer.
  for (AppHandle h = 0; h < apps_.size(); ++h) {
    const AdmittedApp& peer = apps_[h];
    if (!peer.active) {
      out.peer_periods.push_back(0.0);
      continue;
    }
    const double p =
        predict_period(store_.app_component(h), store_.app(h), peer.nodes,
                       peer.loads, *peer.engine, totals_scratch_);
    out.peer_periods.push_back(p);
    if (p > peer.qos.max_period) {
      out.reason = "admission would push application '" + store_.app(h).name() +
                   "' to period " + std::to_string(p) +
                   " beyond its QoS bound " + std::to_string(peer.qos.max_period);
      return;
    }
  }
  out.admissible = true;
}

void AdmissionController::full_report(const prob::EstimatorOptions& estimator,
                                      std::vector<prob::AppEstimate>& out) {
  // The same machinery an api::Workbench contention query runs: the Figure 4
  // estimator over a zero-copy view of the resident store, through the
  // cached per-application engines. Resizing keeps the surviving slots, and
  // with them their actor vectors' capacity.
  out.resize(report_uc_.size());
  if (report_uc_.empty()) return;
  report_view_.rebind(store_, report_uc_);
  prob::ContentionEstimator(estimator).estimate_into(report_view_, {},
                                                     report_engines_, report_ws_, out);
}

void AdmissionController::collect_active(AppHandle skip) {
  report_uc_.clear();
  report_engines_.clear();
  for (AppHandle h = 0; h < apps_.size(); ++h) {
    if (!apps_[h].active || h == skip) continue;
    report_uc_.push_back(h);
    report_engines_.push_back(apps_[h].engine.get());
  }
}

Decision AdmissionController::request(const sdf::Graph& app,
                                      const std::vector<platform::NodeId>& nodes,
                                      const QoS& qos) {
  if (nodes.size() != app.actor_count()) {
    throw sdf::GraphError("request: mapping size mismatch");
  }
  for (const platform::NodeId n : nodes) {
    if (n >= platform_.node_count()) {
      throw sdf::GraphError("request: actor mapped to nonexistent node");
    }
  }
  // LRU-cached analysis state: the request() that follows a successful
  // probe of the same graph skips validation, engine construction and load
  // derivation entirely.
  CandidateEntry& cand = candidate_for(app);

  WhatIfReport verdict;
  evaluate_candidate(app, nodes, cand, qos, verdict);

  Decision decision;
  decision.predicted_period = verdict.predicted_period;
  decision.peer_periods = std::move(verdict.peer_periods);
  decision.reason = std::move(verdict.reason);
  if (!verdict.admissible) return decision;

  // Commit: move the graph into the resident store and update every touched
  // node composite in O(1) per actor.
  AdmittedApp rec;
  rec.nodes = nodes;
  rec.qos = qos;
  rec.engine = cand.engine;  // shared with the LRU slot
  rec.isolation_period = cand.isolation_period;
  rec.loads = cand.loads;
  store_.append_app(app, nodes);
  for (sdf::ActorId a = 0; a < rec.nodes.size(); ++a) {
    Composite& t = nodes_[rec.nodes[a]];
    t = prob::compose(t, prob::to_composite(rec.loads[a]));
  }
  rec.active = true;
  apps_.push_back(std::move(rec));
  decision.admitted = true;
  decision.handle = static_cast<AppHandle>(apps_.size() - 1);
  return decision;
}

WhatIfReport AdmissionController::what_if_admit(
    const sdf::Graph& app, const std::vector<platform::NodeId>& nodes,
    const QoS& qos, const prob::EstimatorOptions& estimator) {
  WhatIfReport out;
  WhatIfOptions opts;
  opts.estimator = estimator;
  what_if_admit(app, nodes, qos, out, opts);
  return out;
}

PROCON_WARM_PATH void AdmissionController::what_if_admit(
    const sdf::Graph& app, std::span<const platform::NodeId> nodes,
    const QoS& qos, WhatIfReport& out, const WhatIfOptions& opts) {
  PROCON_ASSERT_NO_ALLOC("AdmissionController::what_if_admit");
  out.admissible = false;
  out.reason.clear();
  out.predicted_period = 0.0;
  out.peer_periods.clear();
  // A full report resizes `estimates` in place; only a verdict-only probe
  // empties it.
  if (!opts.with_estimates) out.estimates.clear();

  if (nodes.size() != app.actor_count()) {
    throw sdf::GraphError("what_if_admit: mapping size mismatch");
  }
  for (const platform::NodeId n : nodes) {
    if (n >= platform_.node_count()) {
      throw sdf::GraphError("what_if_admit: actor mapped to nonexistent node");
    }
  }
  CandidateEntry& cand = candidate_for(app);
  evaluate_candidate(app, nodes, cand, qos, out);
  if (!opts.with_estimates) return;  // verdict-only: allocation-free on a hit

  // Append the candidate to the resident store for the duration of the
  // report; every view below sees admitted graphs in place, zero copies.
  store_.append_app(app, nodes);
  try {
    collect_active();
    report_uc_.push_back(static_cast<sdf::AppId>(store_.app_count() - 1));
    report_engines_.push_back(cand.engine.get());
    full_report(opts.estimator, out.estimates);
  } catch (...) {
    store_.pop_app();
    throw;
  }
  store_.pop_app();
}

WhatIfReport AdmissionController::what_if_remove(
    AppHandle handle, const prob::EstimatorOptions& estimator) {
  if (handle >= apps_.size() || !apps_[handle].active) {
    throw std::out_of_range("what_if_remove: unknown or already-removed application");
  }
  const AdmittedApp& rec = apps_[handle];

  // Node composites without the removed application: peel its loads out via
  // the inverse operators, or rebuild from the survivors when some load is
  // saturated (the paper's non-invertible caveat).
  bool invertible = true;
  for (const prob::ActorLoad& l : rec.loads) {
    invertible = invertible && prob::can_invert(prob::to_composite(l));
  }
  if (invertible) {
    totals_scratch_.assign(nodes_.begin(), nodes_.end());
    for (sdf::ActorId a = 0; a < rec.nodes.size(); ++a) {
      Composite& t = totals_scratch_[rec.nodes[a]];
      t = prob::decompose(t, prob::to_composite(rec.loads[a]));
    }
  } else {
    totals_scratch_.assign(platform_.node_count(), Composite::identity());
    for (AppHandle h = 0; h < apps_.size(); ++h) {
      if (!apps_[h].active || h == handle) continue;
      for (sdf::ActorId b = 0; b < apps_[h].nodes.size(); ++b) {
        Composite& t = totals_scratch_[apps_[h].nodes[b]];
        t = prob::compose(t, prob::to_composite(apps_[h].loads[b]));
      }
    }
  }

  WhatIfReport out;
  out.admissible = true;
  for (AppHandle h = 0; h < apps_.size(); ++h) {
    if (!apps_[h].active || h == handle) {
      out.peer_periods.push_back(0.0);
      continue;
    }
    out.peer_periods.push_back(
        predict_period(store_.app_component(h), store_.app(h), apps_[h].nodes,
                       apps_[h].loads, *apps_[h].engine, totals_scratch_));
  }
  collect_active(handle);
  full_report(estimator, out.estimates);
  return out;
}

void AdmissionController::remove(AppHandle handle) {
  if (handle >= apps_.size() || !apps_[handle].active) {
    throw std::out_of_range("remove: unknown or already-removed application");
  }
  AdmittedApp& rec = apps_[handle];
  bool invertible = true;
  for (const prob::ActorLoad& l : rec.loads) {
    invertible = invertible && prob::can_invert(prob::to_composite(l));
  }
  if (invertible) {
    // O(1) per actor: peel each load out of its node composite (Eq. 8/9).
    for (sdf::ActorId a = 0; a < rec.nodes.size(); ++a) {
      Composite& t = nodes_[rec.nodes[a]];
      t = prob::decompose(t, prob::to_composite(rec.loads[a]));
    }
    rec.active = false;
  } else {
    // Saturated actor (P == 1): the inverse is undefined; rebuild all node
    // composites from the remaining applications (paper's caveat).
    rec.active = false;
    nodes_.assign(platform_.node_count(), Composite::identity());
    for (const AdmittedApp& other : apps_) {
      if (!other.active) continue;
      for (sdf::ActorId b = 0; b < other.nodes.size(); ++b) {
        Composite& t = nodes_[other.nodes[b]];
        t = prob::compose(t, prob::to_composite(other.loads[b]));
      }
    }
  }
}

double AdmissionController::predicted_period(AppHandle handle) const {
  if (handle >= apps_.size() || !apps_[handle].active) {
    throw std::out_of_range("predicted_period: unknown application");
  }
  const AdmittedApp& rec = apps_[handle];
  return predict_period(store_.app_component(handle), store_.app(handle),
                        rec.nodes, rec.loads, *rec.engine, nodes_);
}

}  // namespace procon::admission
