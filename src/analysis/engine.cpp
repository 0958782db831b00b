#include "analysis/engine.h"

#include "analysis/hsdf.h"

namespace procon::analysis {

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

  // HSDF nodes: actors in id order, q[a] consecutive firings each.
  std::vector<std::uint32_t> node_base(actor_count_);
  node_actor_.reserve(sdf::repetition_sum(q_));
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
  std::vector<HsdfEdgeCandidate> edges;
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

PeriodResult ThroughputEngine::recompute(std::span<const double> exec_times) {
  if (!exec_times.empty() && exec_times.size() != actor_count_) {
    throw sdf::GraphError("ThroughputEngine::recompute: exec_times size mismatch");
  }
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

  const std::span<const double> times =
      exec_times.empty() ? std::span<const double>(default_times_) : exec_times;
  for (std::size_t v = 0; v < node_weight_.size(); ++v) {
    node_weight_[v] = times[node_actor_[v]];
  }
  solver_.set_node_weights(node_weight_);
  out.period = solver_.solve();
  if (isolation && memoise_) {
    const std::span<const std::int64_t> policy = solver_.policy();
    memo_policy_.assign(policy.begin(), policy.end());
    memo_period_ = out.period;
  }
  return out;
}

}  // namespace procon::analysis
