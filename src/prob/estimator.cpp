#include "prob/estimator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "prob/monte_carlo.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace procon::prob {

const char* method_name(Method m) noexcept {
  switch (m) {
    case Method::Exact: return "Probabilistic Exact";
    case Method::SecondOrder: return "Probabilistic Second Order";
    case Method::FourthOrder: return "Probabilistic Fourth Order";
    case Method::MthOrder: return "Probabilistic M-th Order";
    case Method::Composability: return "Composability-based";
    case Method::CompositionInverse: return "Composability-based (inverse)";
    case Method::MonteCarlo: return "Monte-Carlo sampling";
  }
  return "?";
}

ContentionEstimator::ContentionEstimator(EstimatorOptions opts) : opts_(opts) {
  if (opts_.order < 1) throw std::invalid_argument("estimator order must be >= 1");
  if (opts_.iterations < 1) {
    throw std::invalid_argument("estimator iterations must be >= 1");
  }
}

namespace {

constexpr std::uint64_t kMonteCarloSeed = 7;

/// Step 4 on one node: waits[s] is the expected waiting time of loads[s]
/// behind the node's other loads. One node kernel call per node; only the
/// Monte-Carlo sampler runs per actor.
void waiting_times_on_node(std::span<const ActorLoad> loads,
                           std::span<const platform::GlobalActor> who,
                           const EstimatorOptions& opts, EstimatorWorkspace& ws,
                           std::span<double> waits) {
  switch (opts.method) {
    case Method::Exact:  // an order of n keeps every degree of n - 1 others
      node_waiting_times(loads, static_cast<int>(loads.size()), ws.lanes, waits);
      return;
    case Method::SecondOrder: node_waiting_times(loads, 2, ws.lanes, waits); return;
    case Method::FourthOrder: node_waiting_times(loads, 4, ws.lanes, waits); return;
    case Method::MthOrder: node_waiting_times(loads, opts.order, ws.lanes, waits); return;
    case Method::Composability: node_composed_waiting_times(loads, ws.lanes, waits); return;
    case Method::CompositionInverse: {
      // One O(n) fold of the node, then an O(1) removal per actor; an
      // actor at P == 1 (the paper's non-invertible case) takes the direct
      // fold of its others instead.
      const Composite node_total = compose_all(loads);
      if (std::any_of(loads.begin(), loads.end(), [](const ActorLoad& l) {
            return !can_invert(to_composite(l));
          })) {
        node_composed_waiting_times(loads, ws.lanes, waits);
      }
      for (std::size_t s = 0; s < loads.size(); ++s) {
        const Composite self = to_composite(loads[s]);
        if (can_invert(self)) waits[s] = decompose(node_total, self).weighted_blocking;
      }
      return;
    }
    case Method::MonteCarlo:
      for (std::size_t s = 0; s < loads.size(); ++s) {
        ws.others.clear();
        for (std::size_t i = 0; i < loads.size(); ++i) {
          if (i != s) ws.others.push_back(loads[i]);
        }
        // Per-slot deterministic stream: the estimate is reproducible and
        // independent of evaluation order.
        util::Rng rng(kMonteCarloSeed ^ (0x9E3779B97F4A7C15ULL * (who[s].app + 1)) ^
                      (0xBF58476D1CE4E5B9ULL * (who[s].actor + 1)));
        waits[s] = waiting_time_monte_carlo(ws.others, rng, opts.mc_trials);
      }
      return;
  }
  throw std::logic_error("waiting_times_on_node: unhandled method");
}

/// Step 4's guard, raised for an actor whose waiting time is negative or
/// not finite. A series truncated at an odd order can fall below zero near
/// saturation; step 5 would then run on a response time shorter than the
/// execution time and report a period below isolation.
[[noreturn]] void throw_bad_wait(const platform::SystemView& view,
                                 const EstimatorOptions& opts,
                                 platform::GlobalActor who) {
  std::string what = std::string("estimate: ") + method_name(opts.method);
  if (opts.method == Method::MthOrder) what += " at order " + std::to_string(opts.order);
  const sdf::Graph& app = view.app(who.app);
  throw sdf::GraphError(what + " gives actor '" + app.actor(who.actor).name +
                        "' of application '" + app.name() +
                        "' a negative or non-finite waiting time");
}

/// Grows a workspace arena to at least `count` slots without ever shrinking
/// it — shrinking a vector-of-vectors destroys the inner buffers, which is
/// exactly the allocation churn the workspace exists to avoid.
template <typename T>
void ensure_slots(std::vector<T>& arena, std::size_t count) {
  if (arena.size() < count) arena.resize(count);
}

}  // namespace

std::vector<AppEstimate> ContentionEstimator::estimate(
    const platform::SystemView& view,
    std::span<const sdf::ExecTimeModel> models) const {
  view.validate();
  // One-shot call: build the per-application engines locally. Each engine
  // caches every structure-dependent analysis step; the Step-5 loop then
  // only rewrites execution times per pass.
  std::vector<analysis::ThroughputEngine> engines;
  engines.reserve(view.app_count());
  for (sdf::AppId i = 0; i < view.app_count(); ++i) engines.emplace_back(view.app(i));
  std::vector<analysis::ThroughputEngine*> ptrs;
  ptrs.reserve(engines.size());
  for (analysis::ThroughputEngine& e : engines) ptrs.push_back(&e);
  EstimatorWorkspace ws;
  std::vector<AppEstimate> out(view.app_count());
  estimate_into(view, models, ptrs, ws, out);
  return out;
}

PROCON_WARM_PATH void ContentionEstimator::estimate_into(
    const platform::SystemView& view, std::span<const sdf::ExecTimeModel> models,
    std::span<analysis::ThroughputEngine* const> engines, EstimatorWorkspace& ws,
    std::span<AppEstimate> out) const {
  PROCON_ASSERT_NO_ALLOC("ContentionEstimator::estimate_into");
  const std::size_t napps = view.app_count();
  if (!models.empty() && models.size() != napps) {
    throw sdf::GraphError("estimate: execution-time model count mismatch");
  }
  if (engines.size() != napps) {
    throw sdf::GraphError("estimate: engine count mismatch");
  }
  if (out.size() != napps) {
    throw sdf::GraphError("estimate: output slot count mismatch");
  }
  // All temporaries live in the workspace with grow-only capacity: a warm
  // call of previously-seen shapes touches the heap zero times.
  ensure_slots(ws.means, napps);
  ensure_slots(ws.loads, napps);
  ensure_slots(ws.response, napps);

  // Step 1: isolation periods (repetition vectors are cached in the engines).
  for (sdf::AppId i = 0; i < napps; ++i) {
    const sdf::Graph& app = view.app(i);
    if (engines[i]->actor_count() != app.actor_count()) {
      throw sdf::GraphError("estimate: engine does not match application '" +
                            app.name() + "'");
    }
    // Mean execution time per actor (equals the graph's fixed times for the
    // deterministic model, where the slot stays empty).
    ws.means[i].clear();
    if (!models.empty()) {
      if (models[i].size() != app.actor_count()) {
        throw sdf::GraphError("estimate: execution-time model size mismatch");
      }
      ws.means[i].reserve(app.actor_count());
      for (const auto& dist : models[i]) ws.means[i].push_back(dist.mean());
    }
    const auto iso = engines[i]->recompute(ws.means[i]);
    if (iso.deadlocked || iso.period <= 0.0) {
      throw sdf::GraphError("estimate: application '" + app.name() +
                            "' has no positive isolation period");
    }
    out[i].isolation_period = iso.period;
    out[i].estimated_period = iso.period;  // starting point for iteration
    out[i].actors.resize(app.actor_count());
  }

  // Interconnect: enumerate the routed channels once per call — routes are
  // pure structure, reused every pass; only their loads change per pass.
  // All three arenas are grow-only, so warm calls stay allocation-free.
  const platform::Topology& topo = view.platform().topology();
  ws.flows.clear();
  ws.flow_links.clear();
  ws.flow_service.clear();
  if (!topo.none()) {
    for (sdf::AppId i = 0; i < napps; ++i) {
      const sdf::Graph& app = view.app(i);
      const sdf::RepetitionVector& q = engines[i]->repetition_vector();
      for (sdf::ChannelId c = 0; c < app.channel_count(); ++c) {
        const sdf::Channel& ch = app.channel(c);
        const platform::NodeId src_node = view.node_of(i, ch.src);
        const platform::NodeId dst_node = view.node_of(i, ch.dst);
        if (src_node == dst_node) continue;
        LinkFlow flow;
        flow.app = i;
        flow.src = ch.src;
        flow.reps = q[ch.src];
        flow.route_begin = static_cast<std::uint32_t>(ws.flow_links.size());
        topo.route(src_node, dst_node, ws.flow_links);
        flow.route_end = static_cast<std::uint32_t>(ws.flow_links.size());
        for (std::uint32_t k = flow.route_begin; k < flow.route_end; ++k) {
          ws.flow_service.push_back(static_cast<double>(
              topo.service_time(ws.flow_links[k], ch.prod_rate)));
        }
        ws.flows.push_back(flow);
      }
    }
  }

  for (int pass = 0; pass < opts_.iterations; ++pass) {
    // Step 2: per-actor loads from the current period estimates.
    for (sdf::AppId i = 0; i < napps; ++i) {
      const sdf::RepetitionVector& q = engines[i]->repetition_vector();
      if (models.empty()) {
        derive_loads_into(view.app(i), q, out[i].estimated_period, ws.loads[i]);
      } else {
        derive_loads_stochastic_into(view.app(i), q, out[i].estimated_period,
                                     models[i], ws.loads[i]);
      }
    }

    // Step 3: group by node (the grouping arenas keep each node's slot
    // capacity across passes and calls).
    const std::size_t nnodes = view.platform().node_count();
    ensure_slots(ws.node_loads, nnodes);
    ensure_slots(ws.node_actors, nnodes);
    for (std::size_t n = 0; n < nnodes; ++n) {
      ws.node_loads[n].clear();
      ws.node_actors[n].clear();
    }
    for (sdf::AppId i = 0; i < napps; ++i) {
      for (sdf::ActorId a = 0; a < view.app(i).actor_count(); ++a) {
        const platform::NodeId node = view.node_of(i, a);
        ws.node_loads[node].push_back(ws.loads[i][a]);
        ws.node_actors[node].push_back({i, a});
      }
    }

    // Step 4: waiting and response times, one node kernel call per node.
    for (sdf::AppId i = 0; i < napps; ++i) {
      ws.response[i].resize(view.app(i).actor_count(), 0.0);
    }
    for (std::size_t n = 0; n < nnodes; ++n) {
      const std::vector<ActorLoad>& loads = ws.node_loads[n];
      const std::vector<platform::GlobalActor>& who = ws.node_actors[n];
      if (loads.empty()) continue;
      ws.waits.resize(loads.size());
      waiting_times_on_node(loads, who, opts_, ws, ws.waits);
      for (std::size_t s = 0; s < loads.size(); ++s) {
        const platform::GlobalActor e = who[s];
        const double twait = ws.waits[s];
        if (!(twait >= 0.0 && twait <= std::numeric_limits<double>::max())) {
          throw_bad_wait(view, opts_, e);
        }
        const double mean_exec =
            ws.means[e.app].empty()
                ? static_cast<double>(view.app(e.app).actor(e.actor).exec_time)
                : ws.means[e.app][e.actor];
        out[e.app].actors[e.actor].waiting_time = twait;
        ws.response[e.app][e.actor] = mean_exec + twait;
        out[e.app].actors[e.actor].response_time = ws.response[e.app][e.actor];
      }
    }

    // Step 4b (interconnect extension): per-link waiting, composed into the
    // same fixed point. Each flow loads every link on its route; the
    // producer's response time then absorbs, per hop, the transfer time
    // plus the second-order expected waiting behind the *other* flows on
    // that link. Always second-order, whatever the node method — links are
    // a house extension orthogonal to the paper's method axis, and the
    // sim-agreement bound documented in tests/test_interconnect.cpp is
    // calibrated against this composition.
    if (!ws.flows.empty()) {
      const std::size_t nlinks = topo.link_count();
      ensure_slots(ws.per_link, nlinks);
      for (std::size_t l = 0; l < nlinks; ++l) ws.per_link[l].clear();
      for (std::uint32_t f = 0; f < ws.flows.size(); ++f) {
        const LinkFlow& flow = ws.flows[f];
        for (std::uint32_t k = flow.route_begin; k < flow.route_end; ++k) {
          ws.per_link[ws.flow_links[k]].push_back(LinkOccupant{
              f, link_flow_load(ws.flow_service[k], flow.reps,
                                out[flow.app].estimated_period)});
        }
      }
      for (std::uint32_t f = 0; f < ws.flows.size(); ++f) {
        const LinkFlow& flow = ws.flows[f];
        double tlink = 0.0;
        for (std::uint32_t k = flow.route_begin; k < flow.route_end; ++k) {
          ws.others.clear();
          for (const LinkOccupant& o : ws.per_link[ws.flow_links[k]]) {
            if (o.flow != f) ws.others.push_back(o.load);
          }
          tlink += ws.flow_service[k] + waiting_time_second_order(ws.others);
        }
        out[flow.app].actors[flow.src].waiting_time += tlink;
        ws.response[flow.app][flow.src] += tlink;
        out[flow.app].actors[flow.src].response_time =
            ws.response[flow.app][flow.src];
      }
    }

    // Step 5: periods of the response-time graphs — a warm-started weight
    // rewrite on the cached structure, not a fresh analysis. One Howard
    // solve per application: the dominant cost of deep fixed-point runs.
    for (sdf::AppId i = 0; i < napps; ++i) {
      const auto res = engines[i]->recompute(ws.response[i]);
      if (res.deadlocked) {
        throw sdf::GraphError("estimate: response-time graph deadlocks");
      }
      out[i].estimated_period = res.period;
    }
  }
}

}  // namespace procon::prob
