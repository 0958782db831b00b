// Reference implementations the library is checked against.
//
//  * The explicit HSDF: expand_to_hsdf materialises one node per firing
//    (with its actor and execution time) and the deduplicated precedence
//    edges, built on the library's append_channel_candidates and
//    dedup_candidates in the library's node layout.
//  * Maximum cycle ratio over it: Howard's policy iteration
//    (mcr_howard, mcr_with_critical_cycle, on the library's HowardSolver),
//    Lawler's parametric search with Bellman-Ford positive-cycle detection
//    (mcr_binary_search, mcr_with_critical_cycle_lawler) and exhaustive
//    simple-cycle enumeration for small graphs (mcr_enumerate).
//  * iteration_latency: the longest path over the zero-token edges.
//  * hsdf_latency and hsdf_bottleneck: compute_latency and find_bottleneck
//    rebuilt on the explicit HSDF; ThroughputEngine's latency() and
//    bottleneck() must reproduce them bit for bit.
//  * waiting_time_exact_bruteforce: Eq. 4 by explicit subset enumeration.
//  * estimate_per_actor: the Figure 4 estimator with step 4 run per actor,
//    on the public per-actor kernels; ContentionEstimator::estimate_into,
//    which runs one node kernel per node, must reproduce it bit for bit.
//    It mirrors the ledger's Figure 4 replay (replay_estimate and kernel in
//    ledger/common.cpp), plus CompositionInverse, which the replay lacks;
//    the two copies can be merged when the benchmark next changes.
//
// The self-timed steady-state period of a strongly connected HSDF equals
//   max over directed cycles C of ( sum of node execution times on C )
//                                / ( sum of edge tokens on C ),
// the maximum cycle ratio (Reiter '68; Dasdan '04 [4] surveys algorithms).
// A cycle whose token sum is zero means the graph deadlocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/engine.h"
#include "analysis/expansion.h"
#include "analysis/howard.h"
#include "analysis/throughput.h"
#include "platform/system_view.h"
#include "prob/compose.h"
#include "prob/estimator.h"
#include "prob/load.h"
#include "prob/waiting_time.h"
#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::testing {

// ---- explicit HSDF ----------------------------------------------------------

/// One firing of a source actor within an iteration.
struct HsdfNode {
  sdf::ActorId source_actor = sdf::kInvalidActor;
  std::uint32_t firing = 0;  ///< 0-based firing index within the iteration
  double exec_time = 0.0;
};

/// Precedence edge: dst's firing in iteration n depends on src's firing in
/// iteration n - tokens.
struct HsdfEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t tokens = 0;
};

/// A homogeneous SDF graph (all rates 1).
struct Hsdf {
  std::vector<HsdfNode> nodes;
  std::vector<HsdfEdge> edges;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges.size(); }
};

/// Expands `g` (with repetition vector `q`) into an HSDF: actors in id
/// order, q[a] consecutive firings each, edges sorted by (src, dst). If
/// `exec_times` is non-empty it overrides the graph's integral actor times.
/// Throws sdf::GraphError if q or exec_times does not match the graph.
inline Hsdf expand_to_hsdf(const sdf::Graph& g, const sdf::RepetitionVector& q,
                           std::span<const double> exec_times = {}) {
  if (q.size() != g.actor_count()) {
    throw sdf::GraphError("expand_to_hsdf: repetition vector size mismatch");
  }
  if (!exec_times.empty() && exec_times.size() != g.actor_count()) {
    throw sdf::GraphError("expand_to_hsdf: exec_times size mismatch");
  }
  Hsdf h;
  std::vector<std::uint32_t> node_base(g.actor_count(), 0);
  for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
    node_base[a] = static_cast<std::uint32_t>(h.nodes.size());
    const double tau = exec_times.empty() ? static_cast<double>(g.actor(a).exec_time)
                                          : exec_times[a];
    for (std::uint32_t k = 0; k < q[a]; ++k) h.nodes.push_back(HsdfNode{a, k, tau});
  }
  std::vector<analysis::EdgeCandidate> raw;
  for (const sdf::Channel& ch : g.channels()) {
    analysis::append_channel_candidates(ch, q, node_base, raw);
  }
  analysis::dedup_candidates(raw);
  h.edges.reserve(raw.size());
  for (const analysis::EdgeCandidate& c : raw) {
    h.edges.push_back(HsdfEdge{c.src(), c.dst(), c.tokens});
  }
  return h;
}

/// expand_to_hsdf of g.with_self_loops() (no auto-concurrency), the
/// expansion every library analysis works on.
inline Hsdf expand_closed(const sdf::Graph& g,
                          std::span<const double> exec_times = {}) {
  const sdf::Graph closed = g.with_self_loops();
  const auto q = sdf::compute_repetition_vector(closed);
  if (!q) throw sdf::GraphError("expand_closed: inconsistent graph");
  return expand_to_hsdf(closed, *q, exec_times);
}

/// Builds `solver` over `h`'s edges (in their order) with node weights from
/// its nodes' execution times.
inline void build_solver(analysis::HowardSolver& solver, const Hsdf& h) {
  std::vector<analysis::EdgeCandidate> edges;
  edges.reserve(h.edges.size());
  for (const HsdfEdge& e : h.edges) {
    edges.push_back(analysis::EdgeCandidate{
        (static_cast<std::uint64_t>(e.src) << 32) | e.dst, e.tokens});
  }
  solver.build(h.node_count(), edges);
  std::vector<double> weights;
  weights.reserve(h.node_count());
  for (const HsdfNode& n : h.nodes) weights.push_back(n.exec_time);
  solver.set_node_weights(weights);
}

// ---- maximum cycle ratio ----------------------------------------------------

/// Result of an MCR computation.
struct McrResult {
  /// True if a zero-token cycle exists (deadlock: period unbounded).
  bool deadlocked = false;
  /// The maximum cycle ratio = steady-state iteration period. Valid when
  /// !deadlocked and the graph has at least one cycle.
  double ratio = 0.0;
  /// False if the graph is acyclic.
  bool has_cycle = false;
};

/// Options for the parametric search.
struct McrOptions {
  double relative_tolerance = 1e-10;  ///< binary search convergence
  int max_iterations = 128;           ///< hard cap on bisection steps
};

/// MCR plus the cycle achieving it, as HSDF node indices in traversal
/// order; empty when the graph is acyclic or deadlocked.
struct CriticalCycleResult {
  McrResult mcr;
  std::vector<std::uint32_t> cycle;
};

/// Howard's policy iteration; the critical cycle is one walk of the final
/// policy. The ratio is exact (a cycle's weight/token quotient).
inline CriticalCycleResult mcr_with_critical_cycle(const Hsdf& h) {
  CriticalCycleResult result;
  if (h.node_count() == 0 || h.edges.empty()) return result;
  analysis::HowardSolver solver;
  build_solver(solver, h);
  if (!solver.has_cycle()) return result;
  result.mcr.has_cycle = true;
  if (solver.deadlocked()) {
    result.mcr.deadlocked = true;
    return result;
  }
  result.mcr.ratio = solver.solve();
  result.cycle = solver.critical_cycle();
  return result;
}

/// Howard's policy iteration, ratio only.
inline McrResult mcr_howard(const Hsdf& h) { return mcr_with_critical_cycle(h).mcr; }

namespace oracle_detail {

struct EdgeView {
  std::uint32_t src, dst;
  double weight;  // execution time of the src node
  double tokens;  // iteration distance
};

inline std::vector<EdgeView> make_edges(const Hsdf& h) {
  std::vector<EdgeView> edges;
  edges.reserve(h.edges.size());
  for (const HsdfEdge& e : h.edges) {
    edges.push_back(EdgeView{e.src, e.dst, h.nodes[e.src].exec_time,
                             static_cast<double>(e.tokens)});
  }
  return edges;
}

/// True if the directed graph restricted to `edges` contains a cycle.
inline bool has_cycle(std::size_t n, const std::vector<EdgeView>& edges,
                      bool zero_token_only) {
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (const EdgeView& e : edges) {
    if (zero_token_only && e.tokens != 0.0) continue;
    adj[e.src].push_back(e.dst);
  }
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> colour(n, White);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (colour[root] != White) continue;
    stack.emplace_back(root, 0);
    colour[root] = Grey;
    while (!stack.empty()) {
      auto& [v, pos] = stack.back();
      if (pos < adj[v].size()) {
        const std::uint32_t w = adj[v][pos++];
        if (colour[w] == Grey) return true;
        if (colour[w] == White) {
          colour[w] = Grey;
          stack.emplace_back(w, 0);
        }
      } else {
        colour[v] = Black;
        stack.pop_back();
      }
    }
  }
  return false;
}

/// Bellman-Ford: does a cycle with positive total (weight - lambda *
/// tokens) exist? Longest-path relaxation from an implicit super-source;
/// any relaxation after n rounds implies a positive cycle.
inline bool positive_cycle_exists(std::size_t n, const std::vector<EdgeView>& edges,
                                  double lambda) {
  std::vector<double> dist(n, 0.0);
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (const EdgeView& e : edges) {
      const double cand = dist[e.src] + e.weight - lambda * e.tokens;
      if (cand > dist[e.dst] + 1e-15) {
        dist[e.dst] = cand;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

}  // namespace oracle_detail

/// Lawler binary search; works on any HSDF. Never throws.
inline McrResult mcr_binary_search(const Hsdf& h, const McrOptions& opts = {}) {
  using oracle_detail::EdgeView;
  McrResult result;
  const std::size_t n = h.node_count();
  if (n == 0) return result;
  const std::vector<EdgeView> edges = oracle_detail::make_edges(h);
  if (!oracle_detail::has_cycle(n, edges, /*zero_token_only=*/false)) return result;
  result.has_cycle = true;
  if (oracle_detail::has_cycle(n, edges, /*zero_token_only=*/true)) {
    result.deadlocked = true;
    return result;
  }
  // All cycles have token sum >= 1, so the ratio is below the total weight.
  double lo = 0.0;
  double hi = 1.0;
  for (const HsdfNode& node : h.nodes) hi += std::max(node.exec_time, 0.0);
  if (!oracle_detail::positive_cycle_exists(n, edges, 0.0)) {
    result.ratio = 0.0;  // every cycle weight is <= 0
    return result;
  }
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (oracle_detail::positive_cycle_exists(n, edges, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= opts.relative_tolerance * std::max(1.0, hi)) break;
  }
  result.ratio = 0.5 * (lo + hi);
  return result;
}

/// Lawler parametric search, then Bellman-Ford predecessor tracking
/// slightly below lambda* to expose one critical cycle.
inline CriticalCycleResult mcr_with_critical_cycle_lawler(const Hsdf& h,
                                                          const McrOptions& opts = {}) {
  using oracle_detail::EdgeView;
  CriticalCycleResult result;
  result.mcr = mcr_binary_search(h, opts);
  if (!result.mcr.has_cycle || result.mcr.deadlocked) return result;

  const std::size_t n = h.node_count();
  const std::vector<EdgeView> edges = oracle_detail::make_edges(h);
  // Slightly below lambda* every critical cycle has (numerically) positive
  // reduced weight; Bellman-Ford with predecessor tracking exposes one.
  const double lambda = result.mcr.ratio - 1e-7 * std::max(1.0, result.mcr.ratio) - 1e-12;
  std::vector<double> dist(n, 0.0);
  std::vector<std::uint32_t> pred(n, UINT32_MAX);
  std::uint32_t touched = UINT32_MAX;
  for (std::size_t round = 0; round <= n; ++round) {
    touched = UINT32_MAX;
    for (const EdgeView& e : edges) {
      const double cand = dist[e.src] + e.weight - lambda * e.tokens;
      if (cand > dist[e.dst] + 1e-12) {
        dist[e.dst] = cand;
        pred[e.dst] = e.src;
        touched = e.dst;
      }
    }
    if (touched == UINT32_MAX) break;
  }
  if (touched == UINT32_MAX) return result;  // numerically flat: no cycle found

  // Walk predecessors n steps to land on the cycle, then extract it. The
  // walk lists the cycle backwards from the repeated node w, so the forward
  // cycle is the w-suffix of the walk, reversed.
  std::uint32_t v = touched;
  for (std::size_t i = 0; i < n; ++i) v = pred[v];
  std::vector<bool> on(n, false);
  std::vector<std::uint32_t> walk;
  std::uint32_t w = v;
  while (!on[w]) {
    on[w] = true;
    walk.push_back(w);
    w = pred[w];
  }
  const auto pos = std::find(walk.begin(), walk.end(), w);
  std::vector<std::uint32_t> cycle(pos, walk.end());
  std::reverse(cycle.begin(), cycle.end());
  result.cycle = std::move(cycle);
  return result;
}

/// Exhaustive simple-cycle enumeration; throws std::invalid_argument if the
/// graph has more than `max_nodes` nodes (guard against blow-up).
inline McrResult mcr_enumerate(const Hsdf& h, std::size_t max_nodes = 24) {
  if (h.node_count() > max_nodes) {
    throw std::invalid_argument("mcr_enumerate: graph too large for enumeration");
  }
  McrResult result;
  const std::size_t n = h.node_count();
  if (n == 0) return result;

  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> adj(n);
  for (const HsdfEdge& e : h.edges) adj[e.src].emplace_back(e.dst, e.tokens);

  std::vector<bool> on_path(n, false);
  double best = -1.0;
  bool any_cycle = false;
  bool deadlock = false;
  // DFS rooted at `start`, visiting only nodes >= start so each simple cycle
  // is found exactly once (at its minimum node).
  struct StackFrame {
    std::uint32_t node;
    std::size_t next_edge;
    double weight_sum;     // node weights along the path including `node`
    std::uint64_t tokens;  // edge tokens along the path into `node`
  };
  for (std::uint32_t start = 0; start < n; ++start) {
    std::vector<StackFrame> stack;
    stack.push_back({start, 0, h.nodes[start].exec_time, 0});
    on_path[start] = true;
    while (!stack.empty()) {
      StackFrame& f = stack.back();
      if (f.next_edge < adj[f.node].size()) {
        const auto [to, tok] = adj[f.node][f.next_edge++];
        if (to == start) {
          any_cycle = true;
          const std::uint64_t cycle_tokens = f.tokens + tok;
          if (cycle_tokens == 0) {
            deadlock = true;
          } else {
            best = std::max(best, f.weight_sum / static_cast<double>(cycle_tokens));
          }
        } else if (to > start && !on_path[to]) {
          on_path[to] = true;
          stack.push_back({to, 0, f.weight_sum + h.nodes[to].exec_time, f.tokens + tok});
        }
      } else {
        on_path[f.node] = false;
        stack.pop_back();
      }
    }
  }
  result.has_cycle = any_cycle;
  result.deadlocked = deadlock;
  if (any_cycle && !deadlock) result.ratio = std::max(best, 0.0);
  return result;
}

// ---- latency and bottleneck -------------------------------------------------

struct LatencyResult {
  /// Longest weighted path through one iteration (time units).
  double latency = 0.0;
  /// HSDF nodes on the critical path, in execution order.
  std::vector<std::uint32_t> path;
};

/// Longest path over the zero-token edges of an HSDF, in Kahn topological
/// order. Throws sdf::GraphError if the zero-token subgraph is cyclic.
inline LatencyResult iteration_latency(const Hsdf& h) {
  const std::size_t n = h.node_count();
  LatencyResult result;
  if (n == 0) return result;

  std::vector<std::vector<std::uint32_t>> out(n);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const HsdfEdge& e : h.edges) {
    if (e.tokens != 0) continue;
    out[e.src].push_back(e.dst);
    ++indegree[e.dst];
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<double> finish(n, 0.0);
  std::vector<std::uint32_t> pred(n, UINT32_MAX);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) {
      order.push_back(v);
      finish[v] = h.nodes[v].exec_time;
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t v = order[head];
    for (const std::uint32_t w : out[v]) {
      const double cand = finish[v] + h.nodes[w].exec_time;
      if (cand > finish[w]) {
        finish[w] = cand;
        pred[w] = v;
      }
      if (--indegree[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != n) {
    throw sdf::GraphError("iteration_latency: zero-token subgraph is cyclic");
  }
  std::uint32_t best = 0;
  for (std::uint32_t v = 1; v < n; ++v) {
    if (finish[v] > finish[best]) best = v;
  }
  result.latency = finish[best];
  for (std::uint32_t v = best; v != UINT32_MAX; v = pred[v]) result.path.push_back(v);
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

/// compute_latency on the explicit HSDF of g.with_self_loops().
inline analysis::GraphLatencyResult hsdf_latency(const sdf::Graph& g,
                                                 std::span<const double> exec_times = {}) {
  const Hsdf h = expand_closed(g, exec_times);
  const LatencyResult r = iteration_latency(h);
  analysis::GraphLatencyResult out;
  out.latency = r.latency;
  std::vector<bool> seen(g.actor_count(), false);
  for (const std::uint32_t node : r.path) {
    const sdf::ActorId a = h.nodes[node].source_actor;
    if (!seen[a]) {
      seen[a] = true;
      out.critical_actors.push_back(a);
    }
  }
  return out;
}

/// find_bottleneck on the explicit HSDF of g.with_self_loops().
inline analysis::BottleneckReport hsdf_bottleneck(const sdf::Graph& g,
                                                  std::span<const double> exec_times = {}) {
  const Hsdf h = expand_closed(g, exec_times);
  const CriticalCycleResult cc = mcr_with_critical_cycle(h);
  analysis::BottleneckReport report;
  report.deadlocked = cc.mcr.deadlocked;
  report.period = cc.mcr.deadlocked ? 0.0 : cc.mcr.ratio;
  std::vector<bool> seen(g.actor_count(), false);
  for (const std::uint32_t node : cc.cycle) {
    const sdf::ActorId a = h.nodes[node].source_actor;
    if (!seen[a]) {
      seen[a] = true;
      report.actors.push_back(a);
    }
  }
  std::sort(report.actors.begin(), report.actors.end());
  return report;
}

// ---- waiting time -----------------------------------------------------------

/// Eq. 4 by explicit subset enumeration (O(n * 2^n)). Throws
/// std::invalid_argument beyond `max_actors`.
inline double waiting_time_exact_bruteforce(std::span<const prob::ActorLoad> others,
                                            std::size_t max_actors = 20) {
  const std::size_t n = others.size();
  if (n > max_actors) {
    throw std::invalid_argument("waiting_time_exact_bruteforce: too many actors");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Inner sum over the j-subsets of the other n-1 actors, enumerated.
    std::vector<std::size_t> rest;
    for (std::size_t k = 0; k < n; ++k) {
      if (k != i) rest.push_back(k);
    }
    const std::size_t m = rest.size();
    double series = 1.0;
    for (std::size_t mask = 1; mask < (1ULL << m); ++mask) {
      double prod = 1.0;
      std::size_t j = 0;
      for (std::size_t b = 0; b < m; ++b) {
        if (mask & (1ULL << b)) {
          prod *= others[rest[b]].probability;
          ++j;
        }
      }
      const double sign = (j % 2 == 1) ? 1.0 : -1.0;
      series += sign * prod / static_cast<double>(j + 1);
    }
    total += others[i].weighted_blocking() * series;
  }
  return total;
}

// ---- Figure 4 estimate --------------------------------------------------------

/// The waiting time of one actor behind `others` (the loads of the other
/// actors on its node, in node order), by the per-actor function of
/// `opts.method`. CompositionInverse and MonteCarlo are not covered.
inline double per_actor_waiting_time(const prob::EstimatorOptions& opts,
                                     std::span<const prob::ActorLoad> others) {
  switch (opts.method) {
    case prob::Method::Exact: return prob::waiting_time_exact(others);
    case prob::Method::SecondOrder: return prob::waiting_time_second_order(others);
    case prob::Method::FourthOrder: return prob::waiting_time_fourth_order(others);
    case prob::Method::MthOrder: return prob::waiting_time_approx(others, opts.order);
    case prob::Method::Composability: return prob::compose_all(others).weighted_blocking;
    case prob::Method::CompositionInverse:
    case prob::Method::MonteCarlo: break;
  }
  throw std::invalid_argument("per_actor_waiting_time: method not covered");
}

/// ContentionEstimator::estimate_into for deterministic execution times on
/// a view without a topology, with step 4 run per actor: each actor's
/// other loads are copied in node order and handed to the per-actor
/// function (CompositionInverse: Eq. 8/9 against the node's fold, or the
/// direct fold of the others at P == 1). A negative or non-finite waiting
/// time throws the estimator's sdf::GraphError, with the same message.
/// `engines[i]` serves view.app(i).
inline void estimate_per_actor(const platform::SystemView& view,
                               std::span<analysis::ThroughputEngine* const> engines,
                               const prob::EstimatorOptions& opts,
                               std::vector<prob::AppEstimate>& out) {
  if (!view.platform().topology().none()) {
    throw std::invalid_argument("estimate_per_actor: routed topologies are not covered");
  }
  struct Occupant {
    platform::GlobalActor who;
    prob::ActorLoad load;
  };
  const std::size_t napps = view.app_count();
  out.assign(napps, prob::AppEstimate{});
  std::vector<std::vector<prob::ActorLoad>> loads(napps);
  std::vector<std::vector<double>> response(napps);
  std::vector<std::vector<Occupant>> per_node(view.platform().node_count());
  std::vector<prob::ActorLoad> others;

  for (sdf::AppId i = 0; i < napps; ++i) {
    const analysis::PeriodResult iso = engines[i]->recompute(std::span<const double>{});
    if (iso.deadlocked || iso.period <= 0.0) {
      throw std::runtime_error("estimate_per_actor: no positive isolation period");
    }
    out[i].isolation_period = iso.period;
    out[i].estimated_period = iso.period;
    out[i].actors.resize(view.app(i).actor_count());
  }
  for (int pass = 0; pass < opts.iterations; ++pass) {
    for (sdf::AppId i = 0; i < napps; ++i) {
      prob::derive_loads_into(view.app(i), engines[i]->repetition_vector(),
                              out[i].estimated_period, loads[i]);
    }
    for (auto& entries : per_node) entries.clear();
    for (sdf::AppId i = 0; i < napps; ++i) {
      for (sdf::ActorId a = 0; a < view.app(i).actor_count(); ++a) {
        per_node[view.node_of(i, a)].push_back({{i, a}, loads[i][a]});
      }
    }
    for (sdf::AppId i = 0; i < napps; ++i) {
      response[i].resize(view.app(i).actor_count(), 0.0);
    }
    for (const auto& entries : per_node) {
      prob::Composite node_total = prob::Composite::identity();
      for (const Occupant& e : entries) {
        node_total = prob::compose(node_total, prob::to_composite(e.load));
      }
      for (std::size_t s = 0; s < entries.size(); ++s) {
        const Occupant& e = entries[s];
        others.clear();
        for (std::size_t k = 0; k < entries.size(); ++k) {
          if (k != s) others.push_back(entries[k].load);
        }
        double twait = 0.0;
        if (opts.method == prob::Method::CompositionInverse) {
          const prob::Composite self = prob::to_composite(e.load);
          twait = prob::can_invert(self) ? prob::decompose(node_total, self).weighted_blocking
                                         : prob::compose_all(others).weighted_blocking;
        } else {
          twait = per_actor_waiting_time(opts, others);
        }
        if (!(twait >= 0.0 && twait <= std::numeric_limits<double>::max())) {
          std::string what = std::string("estimate: ") + prob::method_name(opts.method);
          if (opts.method == prob::Method::MthOrder) {
            what += " at order " + std::to_string(opts.order);
          }
          const sdf::Graph& app = view.app(e.who.app);
          throw sdf::GraphError(what + " gives actor '" + app.actor(e.who.actor).name +
                                "' of application '" + app.name() +
                                "' a negative or non-finite waiting time");
        }
        const double exec =
            static_cast<double>(view.app(e.who.app).actor(e.who.actor).exec_time);
        out[e.who.app].actors[e.who.actor].waiting_time = twait;
        response[e.who.app][e.who.actor] = exec + twait;
        out[e.who.app].actors[e.who.actor].response_time = response[e.who.app][e.who.actor];
      }
    }
    for (sdf::AppId i = 0; i < napps; ++i) {
      const analysis::PeriodResult res = engines[i]->recompute(response[i]);
      if (res.deadlocked) throw std::runtime_error("estimate_per_actor: response graph deadlocks");
      out[i].estimated_period = res.period;
    }
  }
}

}  // namespace procon::testing
