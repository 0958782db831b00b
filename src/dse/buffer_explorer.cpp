#include "dse/buffer_explorer.h"

#include "analysis/engine.h"
#include "analysis/expansion.h"
#include "analysis/howard.h"
#include "sdf/transform.h"
#include "sdf/zobrist.h"

namespace procon::dse {
namespace {

std::uint64_t total_of(const std::vector<std::uint64_t>& caps) {
  std::uint64_t t = 0;
  for (const auto c : caps) t += c;
  return t;
}

/// Incremental bounded-period evaluator. The bounded variant of a graph is
/// the closed graph plus one reverse "space" channel per bounded channel;
/// in the HSDF expansion every channel contributes an independent candidate
/// edge set, and a capacity bump only changes the initial tokens of the
/// bumped channel's reverse channel. This evaluator therefore expands the
/// closed graph's channels once, caches one deduplicated edge segment per
/// reverse channel, and per candidate re-expands only the segments whose
/// capacity changed before re-merging and solving. Results are bitwise
/// identical to a fresh ThroughputEngine on the bounded graph copy: the
/// merged candidate multiset is the same, the sort-dedup is order
/// independent, and Howard cold-starts either way.
class BoundedPeriodEvaluator {
 public:
  BoundedPeriodEvaluator(const sdf::Graph& original, const sdf::Graph& closed,
                         const sdf::RepetitionVector& q)
      : q_(q) {
    node_base_.resize(closed.actor_count());
    for (sdf::ActorId a = 0; a < closed.actor_count(); ++a) {
      node_base_[a] = static_cast<std::uint32_t>(weights_.size());
      weights_.insert(weights_.end(), q[a],
                      static_cast<double>(closed.actor(a).exec_time));
    }

    // The closed graph's own channels (forward + closure self-loops) never
    // change across candidates: expand and deduplicate them once.
    for (const sdf::Channel& ch : closed.channels()) {
      analysis::append_channel_candidates(ch, q_, node_base_, static_);
    }
    analysis::dedup_candidates(static_);

    // One mutable segment per bounded (non-self-loop) original channel.
    segments_.resize(original.channel_count());
    cached_caps_.assign(original.channel_count(), 0);
    for (sdf::ChannelId c = 0; c < original.channel_count(); ++c) {
      bounded_.push_back(!original.channel(c).is_self_loop());
      forward_.push_back(original.channel(c));
    }
  }

  /// Analytic period of the closed graph bounded to `caps` (indexed by
  /// original channel id; self-loop channels are their own bound and are
  /// ignored). Deadlock is reported through the result, as with
  /// ThroughputEngine::recompute.
  analysis::PeriodResult period(const std::vector<std::uint64_t>& caps) {
    for (sdf::ChannelId c = 0; c < caps.size(); ++c) {
      if (!bounded_[c]) continue;
      if (caps[c] == cached_caps_[c]) continue;
      if (caps[c] == 0) {
        // Back to unbounded: drop the reverse channel entirely.
        segments_[c].clear();
        cached_caps_[c] = 0;
        continue;
      }
      const sdf::Channel& fwd = forward_[c];
      if (caps[c] < fwd.initial_tokens) {
        throw sdf::GraphError("explore_buffer_tradeoff: capacity below initial tokens");
      }
      // Reverse channel: consumer frees space, producer claims it.
      const sdf::Channel space{fwd.dst, fwd.src, fwd.cons_rate, fwd.prod_rate,
                               caps[c] - fwd.initial_tokens};
      segments_[c].clear();
      analysis::append_channel_candidates(space, q_, node_base_, segments_[c]);
      analysis::dedup_candidates(segments_[c]);
      cached_caps_[c] = caps[c];
    }

    merged_.assign(static_.begin(), static_.end());
    for (const auto& seg : segments_) {
      merged_.insert(merged_.end(), seg.begin(), seg.end());
    }
    analysis::dedup_candidates(merged_);

    solver_.build(weights_.size(), merged_);
    solver_.set_node_weights(weights_);
    analysis::PeriodResult out;
    if (solver_.deadlocked()) {
      out.deadlocked = true;
      return out;
    }
    if (!solver_.has_cycle()) return out;
    out.period = solver_.solve();
    return out;
  }

 private:
  sdf::RepetitionVector q_;
  std::vector<std::uint32_t> node_base_;
  std::vector<double> weights_;                   // per HSDF node: exec time
  std::vector<analysis::EdgeCandidate> static_;   // closed graph's channels
  std::vector<std::vector<analysis::EdgeCandidate>> segments_;  // per reverse channel
  std::vector<std::uint64_t> cached_caps_;
  std::vector<std::uint8_t> bounded_;
  std::vector<sdf::Channel> forward_;
  std::vector<analysis::EdgeCandidate> merged_;   // scratch
  analysis::HowardSolver solver_;
};

}  // namespace

std::vector<BufferPoint> explore_buffer_tradeoff(const sdf::Graph& g,
                                                 const BufferExplorerOptions& options,
                                                 analysis::TranspositionTable* table) {
  // Hoisted once for the whole exploration: the self-loop closure and its
  // repetition vector. Bounding a channel appends a reverse "space" channel
  // whose rates are the forward rates swapped, so every bounded variant
  // shares the closed graph's actors and repetition vector; only the
  // channel set differs per candidate.
  const sdf::Graph closed = g.with_self_loops();
  const auto q = sdf::compute_repetition_vector(closed);
  if (!q) throw sdf::GraphError("explore_buffer_tradeoff: inconsistent graph");
  const analysis::EngineOptions eng_opts{.assume_closed = true,
                                         .repetition = &*q};

  double unbounded = 0.0;
  {
    // The unbounded reference period, keyed on the *closed* graph's
    // component so it never aliases entries computed from the open graph.
    // Its engine comes first: it rejects a graph above the expansion cap
    // (sdf::kMaxRepetitionSum) before the evaluator below expands it.
    analysis::TTKey key;
    analysis::TTValue v;
    bool hit = false;
    if (table != nullptr) {
      analysis::TTKeyBuilder b(sdf::ZobristHash::graph_component(closed),
                               analysis::TTQuery::IsolationPeriod);
      key = b.key();
      hit = table->lookup(key, v);
    }
    if (hit) {
      unbounded = v.primary;
    } else {
      unbounded = analysis::ThroughputEngine(closed, eng_opts).recompute().period;
      if (table != nullptr) {
        v.primary = unbounded;
        table->store(key, v);
      }
    }
  }
  // Capacity vectors index the original graph's channels; the closure keeps
  // those ids and appends its self-loops, which stay unbounded.
  BoundedPeriodEvaluator evaluator(g, closed, *q);
  const std::uint64_t gcomp =
      table != nullptr ? sdf::ZobristHash::graph_component(g) : 0;
  // Memoised per capacity vector: the bounded period is a pure function of
  // (graph structure, caps). The evaluator's diff-patching tolerates
  // skipped evaluations, since it patches against the caps it last
  // *computed*, not the caps it was last asked about.
  const auto bounded_period = [&](const std::vector<std::uint64_t>& caps) {
    analysis::TTKey key;
    analysis::TTValue v;
    if (table != nullptr) {
      analysis::TTKeyBuilder b(gcomp, analysis::TTQuery::BufferPeriod);
      b.absorb(caps.size());
      for (const std::uint64_t c : caps) b.absorb(c);
      key = b.key();
      if (table->lookup(key, v)) return v.primary;
    }
    const analysis::PeriodResult r = evaluator.period(caps);
    if (r.deadlocked) {
      throw sdf::GraphError("explore_buffer_tradeoff: bounded graph deadlocks");
    }
    if (table != nullptr) {
      v.primary = r.period;
      table->store(key, v);
    }
    return r.period;
  };
  std::vector<std::uint64_t> caps = sdf::minimal_feasible_capacities(g);

  std::vector<BufferPoint> frontier;
  double current = bounded_period(caps);
  frontier.push_back(BufferPoint{caps, total_of(caps), current});

  for (std::size_t step = 0; step < options.max_steps; ++step) {
    if (current <= unbounded * (1.0 + kBufferConvergence)) break;

    // Greedy: grow each channel by one production quantum, keep the best.
    double best_period = current;
    sdf::ChannelId best_channel = sdf::kInvalidChannel;
    std::uint64_t best_increment = 0;
    for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
      if (g.channel(c).is_self_loop()) continue;
      const std::uint64_t increment = g.channel(c).prod_rate;
      caps[c] += increment;
      const double candidate = bounded_period(caps);
      caps[c] -= increment;
      if (candidate < best_period - 1e-12) {
        best_period = candidate;
        best_channel = c;
        best_increment = increment;
      }
    }
    if (best_channel == sdf::kInvalidChannel) {
      // No single increment helps: grow every channel once (plateaus can
      // need simultaneous growth); if that does not help either, stop.
      auto grown = caps;
      for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
        if (!g.channel(c).is_self_loop()) grown[c] += g.channel(c).prod_rate;
      }
      const double candidate = bounded_period(grown);
      if (candidate >= current - 1e-12) break;
      caps = std::move(grown);
      current = candidate;
    } else {
      caps[best_channel] += best_increment;
      current = best_period;
    }
    frontier.push_back(BufferPoint{caps, total_of(caps), current});
  }
  return frontier;
}

}  // namespace procon::dse
