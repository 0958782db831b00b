#include "analysis/engine.h"

#include <algorithm>
#include <string>

#include "analysis/expansion.h"

namespace procon::analysis {
namespace {

/// The source actors of `nodes`, deduplicated, in first-seen order.
std::vector<sdf::ActorId> actors_of(std::span<const std::uint32_t> nodes,
                                    std::span<const sdf::ActorId> node_actor,
                                    std::size_t actor_count) {
  std::vector<sdf::ActorId> actors;
  std::vector<bool> seen(actor_count, false);
  for (const std::uint32_t node : nodes) {
    const sdf::ActorId a = node_actor[node];
    if (!seen[a]) {
      seen[a] = true;
      actors.push_back(a);
    }
  }
  return actors;
}

}  // namespace

ThroughputEngine::ThroughputEngine(const sdf::Graph& g, const EngineOptions& opts) {
  actor_count_ = g.actor_count();

  // The closure's self-loops have rate 1/1, so the closed graph and `g`
  // share one repetition vector: solve (or check) it on `g` itself.
  if (opts.repetition != nullptr) {
    if (opts.repetition->size() != actor_count_) {
      throw sdf::GraphError("ThroughputEngine: repetition vector size mismatch");
    }
    // Enforce the documented contract: the supplied vector must actually
    // solve the balance equations, or the expansion would be silently wrong.
    for (const std::uint64_t qa : *opts.repetition) {
      if (qa == 0) {
        throw sdf::GraphError("ThroughputEngine: repetition vector has zero entry");
      }
    }
    for (const sdf::Channel& ch : g.channels()) {
      if ((*opts.repetition)[ch.src] * ch.prod_rate !=
          (*opts.repetition)[ch.dst] * ch.cons_rate) {
        throw sdf::GraphError(
            "ThroughputEngine: repetition vector violates balance equations");
      }
    }
    q_ = *opts.repetition;
  } else {
    auto q = sdf::compute_repetition_vector(g);
    if (!q) throw sdf::GraphError("ThroughputEngine: inconsistent graph");
    q_ = std::move(*q);
  }

  // The cap, before anything is expanded.
  const std::uint64_t firings = sdf::repetition_sum(q_);
  if (firings > sdf::kMaxRepetitionSum) {
    throw sdf::GraphError("ThroughputEngine: the repetition vector sums to " +
                          std::to_string(firings) + " firings, above the cap of " +
                          std::to_string(sdf::kMaxRepetitionSum));
  }

  // HSDF nodes: actors in id order, q[a] consecutive firings each.
  std::vector<std::uint32_t> node_base(actor_count_);
  node_actor_.reserve(firings);
  std::size_t upper = 0;  // one candidate edge per consumed token
  for (sdf::ActorId a = 0; a < actor_count_; ++a) {
    node_base[a] = static_cast<std::uint32_t>(node_actor_.size());
    node_actor_.insert(node_actor_.end(), q_[a], a);
    upper += q_[a];  // the closure's self-loop, if the actor needs one
  }
  for (const sdf::Channel& ch : g.channels()) {
    upper += static_cast<std::size_t>(q_[ch.dst]) * ch.cons_rate;
  }

  // Close the graph inside the expansion: each actor without a self-loop
  // gets the candidate edges of a 1-token one. dedup_candidates sorts the
  // list, so the edges are those of expanding g.with_self_loops().
  std::vector<EdgeCandidate> edges;
  edges.reserve(upper);
  for (const sdf::Channel& ch : g.channels()) {
    append_channel_candidates(ch, q_, node_base, edges);
  }
  if (!opts.assume_closed) {
    for (sdf::ActorId a = 0; a < actor_count_; ++a) {
      if (!g.has_self_loop(a)) {
        append_channel_candidates(sdf::Channel{a, a, 1, 1, 1}, q_, node_base, edges);
      }
    }
  }
  dedup_candidates(edges);
  solver_.build(node_actor_.size(), edges);

  default_times_.reserve(actor_count_);
  for (sdf::ActorId a = 0; a < actor_count_; ++a) {
    default_times_.push_back(static_cast<double>(g.actor(a).exec_time));
  }
  node_weight_.resize(node_actor_.size());
}

std::span<const double> ThroughputEngine::times_or_default(
    std::span<const double> exec_times) const {
  if (exec_times.empty()) return default_times_;
  if (exec_times.size() != actor_count_) {
    throw sdf::GraphError("ThroughputEngine: exec_times size mismatch");
  }
  return exec_times;
}

double ThroughputEngine::solve(std::span<const double> times) {
  for (std::size_t v = 0; v < node_weight_.size(); ++v) {
    node_weight_[v] = times[node_actor_[v]];
  }
  solver_.set_node_weights(node_weight_);
  return solver_.solve();
}

PeriodResult ThroughputEngine::recompute(std::span<const double> exec_times) {
  const std::span<const double> times = times_or_default(exec_times);
  PeriodResult out;
  if (solver_.deadlocked()) {
    out.deadlocked = true;
    return out;
  }
  if (!solver_.has_cycle()) return out;  // acyclic expansion: period 0

  // A cold solve under the graph's own times is the isolation period.
  const bool isolation = exec_times.empty() && solver_.policy().empty();
  if (isolation && !memo_policy_.empty()) {
    // Node weights need no restore: every solve sets all of them first.
    solver_.install_policy(memo_policy_);
    out.period = memo_period_;
    return out;
  }

  out.period = solve(times);
  if (isolation && memoise_) {
    const std::span<const std::int64_t> policy = solver_.policy();
    memo_policy_.assign(policy.begin(), policy.end());
    memo_period_ = out.period;
  }
  return out;
}

GraphLatencyResult ThroughputEngine::latency(std::span<const double> exec_times) const {
  const std::span<const double> times = times_or_default(exec_times);
  GraphLatencyResult out;
  const std::size_t n = node_actor_.size();
  if (n == 0) return out;
  if (solver_.deadlocked()) {
    throw sdf::GraphError("ThroughputEngine::latency: zero-token subgraph is cyclic");
  }
  const std::span<const std::uint32_t> offset = solver_.offsets();
  const std::span<const std::uint32_t> dst = solver_.targets();
  const std::span<const double> tokens = solver_.tokens();

  // Kahn topological order over the zero-token edges, relaxing longest
  // paths; source nodes start at 0 and finish after their own firing.
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::size_t e = 0; e < dst.size(); ++e) {
    if (tokens[e] == 0.0) ++indegree[dst[e]];
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<double> finish(n, 0.0);
  std::vector<std::uint32_t> pred(n, UINT32_MAX);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) {
      order.push_back(v);
      finish[v] = times[node_actor_[v]];
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t v = order[head];
    for (std::uint32_t e = offset[v]; e < offset[v + 1]; ++e) {
      if (tokens[e] != 0.0) continue;
      const std::uint32_t w = dst[e];
      const double cand = finish[v] + times[node_actor_[w]];
      if (cand > finish[w]) {
        finish[w] = cand;
        pred[w] = v;
      }
      if (--indegree[w] == 0) order.push_back(w);
    }
  }

  // The critical path ends at the first node of maximum finish time.
  std::uint32_t best = 0;
  for (std::uint32_t v = 1; v < n; ++v) {
    if (finish[v] > finish[best]) best = v;
  }
  out.latency = finish[best];
  std::vector<std::uint32_t> path;
  for (std::uint32_t v = best; v != UINT32_MAX; v = pred[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  out.critical_actors = actors_of(path, node_actor_, actor_count_);
  return out;
}

BottleneckReport ThroughputEngine::bottleneck(std::span<const double> exec_times) {
  const std::span<const double> times = times_or_default(exec_times);
  BottleneckReport out;
  if (solver_.deadlocked()) {
    out.deadlocked = true;
    return out;
  }
  if (!solver_.has_cycle()) return out;

  solver_.reset();  // cold: critical_cycle() reads this solve's ratios
  out.period = solve(times);
  out.actors = actors_of(solver_.critical_cycle(), node_actor_, actor_count_);
  std::sort(out.actors.begin(), out.actors.end());
  return out;
}

}  // namespace procon::analysis
