#include "sdf/algorithms.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>

namespace procon::sdf {

SccResult strongly_connected_components(const Graph& g) {
  // Iterative Tarjan to avoid deep recursion on large generated graphs.
  const std::size_t n = g.actor_count();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<ActorId> stack;
  SccResult result;
  result.component_of.assign(n, 0);
  std::uint32_t next_index = 0;

  struct Frame {
    ActorId actor;
    std::size_t edge_pos;
  };
  std::vector<Frame> call_stack;

  for (ActorId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const ActorId v = frame.actor;
      const auto out = g.out_channels(v);
      if (frame.edge_pos < out.size()) {
        const ActorId w = g.channel(out[frame.edge_pos]).dst;
        ++frame.edge_pos;
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const ActorId parent = call_stack.back().actor;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v is the root of an SCC; pop it.
          while (true) {
            const ActorId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component_of[w] = result.component_count;
            if (w == v) break;
          }
          ++result.component_count;
        }
      }
    }
  }
  return result;
}

bool is_strongly_connected(const Graph& g) {
  if (g.actor_count() == 0) return false;
  return strongly_connected_components(g).component_count == 1;
}

DeadlockDiagnosis diagnose_deadlock(const Graph& g) {
  DeadlockDiagnosis diag;
  const auto q_opt = compute_repetition_vector(g);
  if (!q_opt) return diag;  // inconsistent: treated as not deadlock-free
  diag.consistent = true;
  const RepetitionVector& q = *q_opt;
  const std::uint64_t firings = repetition_sum(q);
  if (firings > kMaxRepetitionSum) {
    throw GraphError("graph '" + g.name() + "': the repetition vector sums to " +
                     std::to_string(firings) + " firings, above the cap of " +
                     std::to_string(kMaxRepetitionSum));
  }

  std::vector<std::uint64_t> tokens(g.channel_count());
  for (ChannelId c = 0; c < g.channel_count(); ++c) {
    tokens[c] = g.channel(c).initial_tokens;
  }
  std::vector<std::uint64_t> remaining(g.actor_count());
  for (ActorId a = 0; a < g.actor_count(); ++a) remaining[a] = q[a];

  auto can_fire = [&](ActorId a) {
    if (remaining[a] == 0) return false;
    for (const ChannelId cid : g.in_channels(a)) {
      if (tokens[cid] < g.channel(cid).cons_rate) return false;
    }
    return true;
  };
  auto fire = [&](ActorId a) {
    for (const ChannelId cid : g.in_channels(a)) tokens[cid] -= g.channel(cid).cons_rate;
    for (const ChannelId cid : g.out_channels(a)) tokens[cid] += g.channel(cid).prod_rate;
    --remaining[a];
  };

  // Worklist abstract execution. Firing an actor can only enable successors,
  // so a simple round-robin sweep terminates in O(iter_work * degree).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (ActorId a = 0; a < g.actor_count(); ++a) {
      while (can_fire(a)) {
        fire(a);
        progressed = true;
      }
    }
  }

  for (ActorId a = 0; a < g.actor_count(); ++a) {
    if (remaining[a] > 0) diag.starved_actors.push_back(a);
  }
  if (diag.starved_actors.empty()) {
    diag.deadlock_free = true;
    return diag;
  }
  for (const ActorId a : diag.starved_actors) {
    for (const ChannelId cid : g.in_channels(a)) {
      if (tokens[cid] < g.channel(cid).cons_rate) diag.starved_channels.push_back(cid);
    }
  }
  return diag;
}

bool is_deadlock_free(const Graph& g) { return diagnose_deadlock(g).deadlock_free; }

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) noexcept {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

std::uint64_t graph_fingerprint(const Graph& g, std::uint64_t seed) noexcept {
  std::uint64_t h =
      fingerprint_mix(seed, std::hash<std::string_view>{}(g.name()));
  h = fingerprint_mix(h, g.actor_count());
  h = fingerprint_mix(h, g.channel_count());
  for (const Actor& a : g.actors()) {
    h = fingerprint_mix(h, std::hash<std::string_view>{}(a.name));
    h = fingerprint_mix(h, static_cast<std::uint64_t>(a.exec_time));
  }
  for (const Channel& c : g.channels()) {
    h = fingerprint_mix(h, c.src);
    h = fingerprint_mix(h, c.dst);
    h = fingerprint_mix(h, c.prod_rate);
    h = fingerprint_mix(h, c.cons_rate);
    h = fingerprint_mix(h, c.initial_tokens);
  }
  return h;
}

bool graphs_equal(const Graph& a, const Graph& b) noexcept {
  if (a.name() != b.name() || a.actor_count() != b.actor_count() ||
      a.channel_count() != b.channel_count()) {
    return false;
  }
  for (ActorId i = 0; i < a.actor_count(); ++i) {
    const Actor& x = a.actor(i);
    const Actor& y = b.actor(i);
    if (x.name != y.name || x.exec_time != y.exec_time) return false;
  }
  for (ChannelId c = 0; c < a.channel_count(); ++c) {
    const Channel& x = a.channel(c);
    const Channel& y = b.channel(c);
    if (x.src != y.src || x.dst != y.dst || x.prod_rate != y.prod_rate ||
        x.cons_rate != y.cons_rate || x.initial_tokens != y.initial_tokens) {
      return false;
    }
  }
  return true;
}

}  // namespace procon::sdf
