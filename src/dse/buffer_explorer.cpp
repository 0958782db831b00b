#include "dse/buffer_explorer.h"

#include <algorithm>

#include "analysis/engine.h"
#include "sdf/repetition.h"
#include "sdf/transform.h"

namespace procon::dse {
namespace {

std::uint64_t total_of(const std::vector<std::uint64_t>& caps) {
  std::uint64_t t = 0;
  for (const auto c : caps) t += c;
  return t;
}

}  // namespace

std::vector<BufferPoint> explore_buffer_tradeoff(const sdf::Graph& g,
                                                 const BufferExplorerOptions& options) {
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

  // The unbounded reference period. Its engine comes first: it rejects a
  // graph above the expansion cap (sdf::kMaxRepetitionSum) before any
  // bounded copy is made.
  const double unbounded =
      analysis::ThroughputEngine(closed, eng_opts).recompute().period;

  // Capacity vectors index the original graph's channels; the closure keeps
  // those ids and appends its self-loops, which stay unbounded (capacity 0).
  std::vector<std::uint64_t> padded(closed.channel_count(), 0);
  const auto bounded_period = [&](const std::vector<std::uint64_t>& caps) {
    std::copy(caps.begin(), caps.end(), padded.begin());
    const analysis::PeriodResult r =
        analysis::ThroughputEngine(sdf::with_buffer_capacities(closed, padded),
                                   eng_opts)
            .recompute();
    if (r.deadlocked) {
      throw sdf::GraphError("explore_buffer_tradeoff: bounded graph deadlocks");
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
