#include "wcrt/wcrt.h"

#include <cmath>
#include <stdexcept>

#include "analysis/engine.h"
#include "util/contracts.h"

namespace procon::wcrt {

double wcrt_round_robin(double own_exec, const std::vector<double>& other_execs) {
  double wait = 0.0;
  for (const double t : other_execs) wait += t;
  return own_exec + wait;
}

double wcrt_tdma(double own_exec, double own_slot,
                 const std::vector<double>& other_slots) {
  if (own_slot <= 0.0) throw std::invalid_argument("wcrt_tdma: slot must be > 0");
  double wheel_rest = 0.0;  // W - s(a)
  for (const double s : other_slots) wheel_rest += s;
  const double slots_needed = std::ceil(own_exec / own_slot);
  return own_exec + slots_needed * wheel_rest;
}

std::vector<AppBound> worst_case_bounds(const platform::SystemView& view,
                                        const WcrtOptions& opts) {
  view.validate();
  // One-shot call: build the per-application engines locally and delegate.
  std::vector<analysis::ThroughputEngine> engines;
  engines.reserve(view.app_count());
  for (sdf::AppId i = 0; i < view.app_count(); ++i) engines.emplace_back(view.app(i));
  std::vector<analysis::ThroughputEngine*> ptrs;
  ptrs.reserve(engines.size());
  for (analysis::ThroughputEngine& e : engines) ptrs.push_back(&e);
  WcrtWorkspace ws;
  std::vector<AppBound> out(view.app_count());
  worst_case_bounds_into(view, opts, ptrs, ws, out);
  return out;
}

PROCON_WARM_PATH void worst_case_bounds_into(
    const platform::SystemView& view, const WcrtOptions& opts,
    std::span<analysis::ThroughputEngine* const> engines, WcrtWorkspace& ws,
    std::span<AppBound> out) {
  PROCON_ASSERT_NO_ALLOC("wcrt::worst_case_bounds_into");
  const std::size_t napps = view.app_count();
  if (engines.size() != napps) {
    throw sdf::GraphError("worst_case_bounds: engine count mismatch");
  }
  if (out.size() != napps) {
    throw sdf::GraphError("worst_case_bounds: output slot count mismatch");
  }

  // The isolation and worst-case periods below are two weight assignments
  // over each engine's cached structure.
  for (sdf::AppId i = 0; i < napps; ++i) {
    const auto iso = engines[i]->recompute();
    if (iso.deadlocked || iso.period <= 0.0) {
      throw sdf::GraphError("worst_case_bounds: application '" +
                            view.app(i).name() +
                            "' has no positive isolation period");
    }
    out[i].isolation_period = iso.period;
    out[i].actors.resize(view.app(i).actor_count());
  }

  // Group actor execution times (and TDMA slots) per node. The workspace
  // arenas only ever grow, so warm calls stay within their capacity.
  const std::size_t nnodes = view.platform().node_count();
  if (ws.per_node.size() < nnodes) ws.per_node.resize(nnodes);
  for (std::size_t n = 0; n < nnodes; ++n) ws.per_node[n].clear();
  for (sdf::AppId i = 0; i < napps; ++i) {
    for (sdf::ActorId a = 0; a < view.app(i).actor_count(); ++a) {
      const auto exec = static_cast<double>(view.app(i).actor(a).exec_time);
      const double slot =
          opts.tdma_slot > 0 ? static_cast<double>(opts.tdma_slot) : exec;
      ws.per_node[view.node_of(i, a)].push_back(NodeDemand{{i, a}, exec, slot});
    }
  }

  if (ws.response.size() < napps) ws.response.resize(napps);
  for (sdf::AppId i = 0; i < napps; ++i) {
    ws.response[i].resize(view.app(i).actor_count(), 0.0);
  }
  for (std::size_t n = 0; n < nnodes; ++n) {
    const auto& entries = ws.per_node[n];
    for (std::size_t s = 0; s < entries.size(); ++s) {
      const NodeDemand& e = entries[s];
      ws.others.clear();
      for (std::size_t k = 0; k < entries.size(); ++k) {
        if (k == s) continue;
        ws.others.push_back(opts.policy == Policy::TdmaPreemptive
                                ? entries[k].slot
                                : entries[k].exec);
      }
      double r = 0.0;
      switch (opts.policy) {
        case Policy::RoundRobinNonPreemptive:
          r = wcrt_round_robin(e.exec, ws.others);
          break;
        case Policy::TdmaPreemptive:
          r = wcrt_tdma(e.exec, e.slot, ws.others);
          break;
      }
      out[e.who.app].actors[e.who.actor].response_time = r;
      out[e.who.app].actors[e.who.actor].waiting_time = r - e.exec;
      ws.response[e.who.app][e.who.actor] = r;
    }
  }

  for (sdf::AppId i = 0; i < napps; ++i) {
    const auto res = engines[i]->recompute(ws.response[i]);
    if (res.deadlocked) {
      throw sdf::GraphError("worst_case_bounds: response-time graph deadlocks");
    }
    out[i].worst_case_period = res.period;
  }
}

}  // namespace procon::wcrt
