#include "analysis/state_space.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace procon::analysis {
namespace {

using sdf::ActorId;
using sdf::ChannelId;
using sdf::Graph;
using sdf::Time;

/// Canonical execution state: token distribution plus, per actor, the
/// remaining execution time of its ongoing firing (-1 if idle). Times are
/// stored relative to "now" so recurring configurations compare equal.
struct State {
  std::vector<std::uint64_t> tokens;
  std::vector<Time> remaining;

  bool operator==(const State&) const = default;
};

/// splitmix64 finaliser-based fold over the packed state words. Long runs
/// can visit hundreds of thousands of states; hashing beats the former
/// std::map's O(log n) lexicographic vector comparisons per lookup.
struct StateHash {
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  std::size_t operator()(const State& s) const noexcept {
    std::uint64_t acc = 0x2545F4914F6CDD1DULL;
    for (const std::uint64_t t : s.tokens) acc = mix(acc ^ t);
    for (const Time r : s.remaining) {
      acc = mix(acc ^ static_cast<std::uint64_t>(r));
    }
    return static_cast<std::size_t>(acc);
  }
};

}  // namespace

StateSpaceResult self_timed_period(const Graph& g, const StateSpaceOptions& opts) {
  StateSpaceResult result;
  const auto q_opt = sdf::compute_repetition_vector(g);
  if (!q_opt) {
    result.deadlocked = true;
    return result;
  }
  const sdf::RepetitionVector& q = *q_opt;
  const std::size_t n = g.actor_count();

  const std::uint64_t max_firings =
      opts.max_firings ? opts.max_firings : 1'000'000ULL + 10'000ULL * n;
  result.firing_cap = max_firings;

  State st;
  st.tokens.resize(g.channel_count());
  for (ChannelId c = 0; c < g.channel_count(); ++c) {
    st.tokens[c] = g.channel(c).initial_tokens;
  }
  st.remaining.assign(n, -1);

  std::vector<std::uint64_t> completions(n, 0);
  auto iterations_done = [&]() -> std::uint64_t {
    std::uint64_t iters = ~0ULL;
    for (std::size_t a = 0; a < n; ++a) {
      iters = std::min(iters, completions[a] / q[a]);
    }
    return iters;
  };

  auto can_start = [&](ActorId a) {
    if (st.remaining[a] >= 0) return false;  // no auto-concurrency
    for (const ChannelId cid : g.in_channels(a)) {
      if (st.tokens[cid] < g.channel(cid).cons_rate) return false;
    }
    return true;
  };

  Time now = 0;
  std::uint64_t fired = 0;
  // Visited states -> (time, iterations completed).
  std::unordered_map<State, std::pair<Time, std::uint64_t>, StateHash> seen;
  seen.reserve(1024);

  while (fired < max_firings) {
    // Phase 1: start every enabled firing (consume tokens at start). A
    // started actor may enable others only by *finishing*, and consumption
    // only removes tokens, so one sweep per actor suffices; zero-time actors
    // are completed immediately in phase 2 below.
    for (ActorId a = 0; a < n; ++a) {
      if (can_start(a)) {
        for (const ChannelId cid : g.in_channels(a)) {
          st.tokens[cid] -= g.channel(cid).cons_rate;
        }
        st.remaining[a] = g.actor(a).exec_time;
      }
    }

    // Phase 2: complete zero-remaining firings at the current instant,
    // which may enable further same-instant starts. Loop until stable.
    bool instant_progress = true;
    while (instant_progress) {
      instant_progress = false;
      for (ActorId a = 0; a < n; ++a) {
        if (st.remaining[a] == 0) {
          for (const ChannelId cid : g.out_channels(a)) {
            st.tokens[cid] += g.channel(cid).prod_rate;
          }
          st.remaining[a] = -1;
          ++completions[a];
          ++fired;
          instant_progress = true;
        }
      }
      // A cycle of zero-time actors never leaves this instant.
      if (fired >= max_firings) return result;
      for (ActorId a = 0; a < n; ++a) {
        if (can_start(a)) {
          for (const ChannelId cid : g.in_channels(a)) {
            st.tokens[cid] -= g.channel(cid).cons_rate;
          }
          st.remaining[a] = g.actor(a).exec_time;
          instant_progress = true;
        }
      }
    }

    // Quiescent at `now`: record / check recurrence.
    const std::uint64_t iters = iterations_done();
    const auto [it, inserted] = seen.try_emplace(st, now, iters);
    if (!inserted) {
      const auto [prev_time, prev_iters] = it->second;
      const std::uint64_t diters = iters - prev_iters;
      const Time dtime = now - prev_time;
      if (diters == 0) {
        // State recurred without progress: livelock/deadlock.
        result.deadlocked = true;
        return result;
      }
      result.converged = true;
      result.period = util::Rational(dtime, static_cast<std::int64_t>(diters));
      result.transient_end = prev_time;
      result.iterations_in_cycle = diters;
      result.cycle_duration = dtime;
      return result;
    }

    // Phase 3: advance time to the next completion.
    Time step = 0;
    for (ActorId a = 0; a < n; ++a) {
      if (st.remaining[a] > 0 && (step == 0 || st.remaining[a] < step)) {
        step = st.remaining[a];
      }
    }
    if (step == 0) {
      // Nothing executing and nothing could start: deadlock.
      result.deadlocked = true;
      return result;
    }
    if (now > sdf::kTimeInfinity - step) {
      throw sdf::GraphError("self_timed_period: time overflows int64");
    }
    now += step;
    for (ActorId a = 0; a < n; ++a) {
      if (st.remaining[a] > 0) st.remaining[a] -= step;
    }
  }

  // Cap reached without recurrence.
  return result;
}

}  // namespace procon::analysis
