// Test oracle for dse::explore_buffer_tradeoff: the same greedy walk, but
// every candidate capacity vector is solved on a bounded graph copy by a
// fresh ThroughputEngine. The library's incremental reverse-channel
// evaluator must reproduce this frontier bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/engine.h"
#include "dse/buffer_explorer.h"
#include "sdf/repetition.h"
#include "sdf/transform.h"

namespace procon::testing {

inline std::vector<dse::BufferPoint> buffer_frontier_oracle(
    const sdf::Graph& g, const dse::BufferExplorerOptions& options = {}) {
  const sdf::Graph closed = g.with_self_loops();
  const auto q = sdf::compute_repetition_vector(closed);
  if (!q) throw sdf::GraphError("buffer_frontier_oracle: inconsistent graph");
  const analysis::EngineOptions eng_opts{.assume_closed = true,
                                         .repetition = &*q};
  // Capacity vectors index the original graph's channels; the closure keeps
  // those ids and appends its self-loops, which stay unbounded (capacity 0).
  std::vector<std::uint64_t> padded(closed.channel_count(), 0);
  const auto bounded_period = [&](const std::vector<std::uint64_t>& caps) {
    std::copy(caps.begin(), caps.end(), padded.begin());
    analysis::ThroughputEngine engine(sdf::with_buffer_capacities(closed, padded),
                                      eng_opts);
    const analysis::PeriodResult r = engine.recompute();
    if (r.deadlocked) {
      throw sdf::GraphError("buffer_frontier_oracle: bounded graph deadlocks");
    }
    return r.period;
  };
  const auto total_of = [](const std::vector<std::uint64_t>& caps) {
    std::uint64_t t = 0;
    for (const std::uint64_t c : caps) t += c;
    return t;
  };

  const double unbounded =
      analysis::ThroughputEngine(closed, eng_opts).recompute().period;
  std::vector<std::uint64_t> caps = sdf::minimal_feasible_capacities(g);
  double current = bounded_period(caps);
  std::vector<dse::BufferPoint> frontier{{caps, total_of(caps), current}};
  for (std::size_t step = 0; step < options.max_steps; ++step) {
    if (current <= unbounded * (1.0 + dse::kBufferConvergence)) break;
    // Grow each channel by one production quantum, keep the best.
    double best_period = current;
    sdf::ChannelId best_channel = sdf::kInvalidChannel;
    for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
      if (g.channel(c).is_self_loop()) continue;
      caps[c] += g.channel(c).prod_rate;
      const double candidate = bounded_period(caps);
      caps[c] -= g.channel(c).prod_rate;
      if (candidate < best_period - 1e-12) {
        best_period = candidate;
        best_channel = c;
      }
    }
    if (best_channel == sdf::kInvalidChannel) {
      // Plateau: grow every channel once; stop if even that does not help.
      auto grown = caps;
      for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
        if (!g.channel(c).is_self_loop()) grown[c] += g.channel(c).prod_rate;
      }
      const double candidate = bounded_period(grown);
      if (candidate >= current - 1e-12) break;
      caps = std::move(grown);
      current = candidate;
    } else {
      caps[best_channel] += g.channel(best_channel).prod_rate;
      current = best_period;
    }
    frontier.push_back(dse::BufferPoint{caps, total_of(caps), current});
  }
  return frontier;
}

/// Capacities, totals and periods equal point by point (periods compared
/// with ==, i.e. bit for bit for the finite values a frontier holds).
inline void expect_same_frontier(const std::vector<dse::BufferPoint>& got,
                                 const std::vector<dse::BufferPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].capacities, want[k].capacities) << "point " << k;
    EXPECT_EQ(got[k].total_tokens, want[k].total_tokens) << "point " << k;
    EXPECT_EQ(got[k].period, want[k].period) << "point " << k;
  }
}

}  // namespace procon::testing
