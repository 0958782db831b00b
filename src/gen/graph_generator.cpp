#include "gen/graph_generator.h"

#include <algorithm>
#include <stdexcept>

#include "sdf/algorithms.h"
#include "sdf/repetition.h"
#include "util/rational.h"

namespace procon::gen {
namespace {

using sdf::ActorId;
using sdf::Graph;

// Chord edges added beyond the ring, as a fraction of the actor count.
constexpr double kChordFraction = 0.5;

/// Derives balanced rates for an edge u->v from the chosen repetition
/// entries: prod = q[v]/g, cons = q[u]/g with g = gcd (smallest balanced
/// pair).
std::pair<std::uint32_t, std::uint32_t> balanced_rates(std::uint64_t qu,
                                                       std::uint64_t qv) {
  const auto g = static_cast<std::uint64_t>(
      util::gcd64(static_cast<std::int64_t>(qu), static_cast<std::int64_t>(qv)));
  return {static_cast<std::uint32_t>(qv / g), static_cast<std::uint32_t>(qu / g)};
}

}  // namespace

Graph generate_graph(util::Rng& rng, const GeneratorOptions& opts,
                     const std::string& name) {
  if (opts.min_actors < 2 || opts.max_actors < opts.min_actors) {
    throw std::invalid_argument("generate_graph: invalid actor-count range");
  }
  if (opts.max_repetition < 1 || opts.min_exec_time < 1 ||
      opts.max_exec_time < opts.min_exec_time) {
    throw std::invalid_argument("generate_graph: invalid parameter range");
  }

  const auto n = static_cast<std::uint32_t>(rng.uniform_int(
      opts.min_actors, opts.max_actors));

  Graph g(name);
  std::vector<std::uint64_t> q(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    q[a] = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(opts.max_repetition)));
    g.add_actor(name + "_a" + std::to_string(a),
                rng.uniform_int(opts.min_exec_time, opts.max_exec_time));
  }

  // Ring backbone over a random permutation: guarantees strong connectivity.
  std::vector<ActorId> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  rng.shuffle(perm);
  std::vector<sdf::ChannelId> ring_edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    const ActorId u = perm[i];
    const ActorId v = perm[(i + 1) % n];
    const auto [p, c] = balanced_rates(q[u], q[v]);
    ring_edges.push_back(g.add_channel(u, v, p, c, 0));
  }

  // Random chords (no self-edges; duplicates allowed - SDF is a multigraph).
  const auto chords = static_cast<std::uint32_t>(kChordFraction * n);
  for (std::uint32_t k = 0; k < chords; ++k) {
    const auto u = static_cast<ActorId>(rng.uniform_int(0, n - 1));
    auto v = static_cast<ActorId>(rng.uniform_int(0, n - 2));
    if (v >= u) ++v;
    const auto [p, c] = balanced_rates(q[u], q[v]);
    g.add_channel(u, v, p, c, 0);
  }

  // Deadlock repair: abstract execution reports starved channels; add one
  // firing's worth of tokens to one of them and retry. Each addition
  // strictly enables progress, so the loop terminates within
  // sum(q[dst] * cons) additions.
  for (std::uint32_t guard = 0; ; ++guard) {
    const sdf::DeadlockDiagnosis diag = sdf::diagnose_deadlock(g);
    if (diag.deadlock_free) break;
    if (diag.starved_channels.empty() || guard > 100000) {
      throw std::logic_error("generate_graph: deadlock repair failed");
    }
    // Prefer ring edges (keeps chords delay-free where possible).
    sdf::ChannelId pick = diag.starved_channels.front();
    for (const sdf::ChannelId c : diag.starved_channels) {
      if (std::find(ring_edges.begin(), ring_edges.end(), c) != ring_edges.end()) {
        pick = c;
        break;
      }
    }
    // Rebuild with increased tokens (channels are immutable by design).
    Graph g2(g.name());
    for (const sdf::Actor& a : g.actors()) g2.add_actor(a.name, a.exec_time);
    for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
      const sdf::Channel& ch = g.channel(c);
      const std::uint64_t extra = (c == pick) ? ch.cons_rate : 0;
      g2.add_channel(ch.src, ch.dst, ch.prod_rate, ch.cons_rate,
                     ch.initial_tokens + extra);
    }
    g = std::move(g2);
  }

  // Optional pipelining head start on the ring-closing edge.
  if (opts.extra_token_iterations > 0) {
    Graph g2(g.name());
    for (const sdf::Actor& a : g.actors()) g2.add_actor(a.name, a.exec_time);
    const sdf::ChannelId last_ring = ring_edges.back();
    for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
      const sdf::Channel& ch = g.channel(c);
      std::uint64_t extra = 0;
      if (c == last_ring) {
        extra = static_cast<std::uint64_t>(opts.extra_token_iterations) *
                ch.cons_rate * q[ch.dst];
      }
      g2.add_channel(ch.src, ch.dst, ch.prod_rate, ch.cons_rate,
                     ch.initial_tokens + extra);
    }
    g = std::move(g2);
  }
  return g;
}

std::vector<Graph> generate_graphs(util::Rng& rng, const GeneratorOptions& opts,
                                   std::size_t count, const std::string& prefix) {
  std::vector<Graph> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = prefix;
    if (i < 26) {
      name += static_cast<char>('A' + i);
    } else {
      name += "G" + std::to_string(i);
    }
    out.push_back(generate_graph(rng, opts, name));
  }
  return out;
}

std::vector<Graph> paper_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  GeneratorOptions opts;  // defaults already match the paper's setup
  return generate_graphs(rng, opts, 10);
}

}  // namespace procon::gen
