#include "analysis/howard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace procon::analysis {
namespace {

constexpr double kEps = 1e-9;
constexpr double kNegInf = -1e300;

}  // namespace

void HowardSolver::build(std::size_t node_count,
                         std::span<const EdgeCandidate> edges) {
  n_ = node_count;
  has_cycle_ = false;
  deadlocked_ = false;
  warm_ = false;

  // Counting sort of edges by source into CSR arrays (stable, so each
  // node's out-edges keep their input order).
  offset_.assign(n_ + 1, 0);
  for (const EdgeCandidate& e : edges) ++offset_[e.src() + 1];
  for (std::size_t v = 0; v < n_; ++v) offset_[v + 1] += offset_[v];
  dst_.resize(edges.size());
  tokens_.resize(edges.size());
  {
    std::vector<std::uint32_t> cursor(offset_.begin(), offset_.end() - 1);
    for (const EdgeCandidate& e : edges) {
      const std::uint32_t slot = cursor[e.src()]++;
      dst_[slot] = e.dst();
      tokens_[slot] = static_cast<double>(e.tokens);
    }
  }

  weight_.assign(n_, 0.0);

  alive_.assign(n_, 1);
  if (dst_.empty()) {
    std::fill(alive_.begin(), alive_.end(), std::uint8_t{0});
    return;
  }

  // Trim nodes that cannot reach a cycle (iteratively peel nodes whose
  // every out-edge leads to an already-dead node). Policy walks are then
  // guaranteed to end in a cycle: without this, a walk draining into a sink
  // leaves its tail at ratio -inf, the improvement step skips edges into
  // that tail, and a real cycle behind it is never discovered.
  // A closed expansion (every node on a self-loop chain) has no sink, so
  // the reverse adjacency is built only when some node starts dead.
  std::vector<std::uint32_t> live_out(n_);
  std::vector<std::uint32_t> dead;
  for (std::uint32_t v = 0; v < n_; ++v) {
    live_out[v] = offset_[v + 1] - offset_[v];
    if (live_out[v] == 0) dead.push_back(v);
  }
  if (!dead.empty()) {
    std::vector<std::uint32_t> roffset(n_ + 1, 0);
    std::vector<std::uint32_t> rsrc(dst_.size());
    for (const std::uint32_t d : dst_) ++roffset[d + 1];
    for (std::size_t v = 0; v < n_; ++v) roffset[v + 1] += roffset[v];
    {
      std::vector<std::uint32_t> cursor(roffset.begin(), roffset.end() - 1);
      for (std::uint32_t v = 0; v < n_; ++v) {
        for (std::uint32_t e = offset_[v]; e < offset_[v + 1]; ++e) {
          rsrc[cursor[dst_[e]]++] = v;
        }
      }
    }
    while (!dead.empty()) {
      const std::uint32_t u = dead.back();
      dead.pop_back();
      alive_[u] = 0;
      for (std::uint32_t r = roffset[u]; r < roffset[u + 1]; ++r) {
        const std::uint32_t w = rsrc[r];
        if (alive_[w] && --live_out[w] == 0) dead.push_back(w);
      }
    }
  }

  // One-time structural checks: any cycle at all, then zero-token cycles
  // (deadlock). Iterative colouring DFS over the CSR arrays.
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> colour;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  auto dfs_has_cycle = [&](bool zero_only) {
    colour.assign(n_, White);
    stack.clear();
    for (std::uint32_t root = 0; root < n_; ++root) {
      if (colour[root] != White) continue;
      stack.emplace_back(root, offset_[root]);
      colour[root] = Grey;
      while (!stack.empty()) {
        auto& [v, pos] = stack.back();
        if (pos < offset_[v + 1]) {
          const std::uint32_t e = pos++;
          if (zero_only && tokens_[e] != 0.0) continue;
          const std::uint32_t w = dst_[e];
          if (colour[w] == Grey) return true;
          if (colour[w] == White) {
            colour[w] = Grey;
            stack.emplace_back(w, offset_[w]);
          }
        } else {
          colour[v] = Black;
          stack.pop_back();
        }
      }
    }
    return false;
  };
  has_cycle_ = dfs_has_cycle(false);
  if (has_cycle_) deadlocked_ = dfs_has_cycle(true);
}

void HowardSolver::set_node_weights(std::span<const double> weights) {
  if (weights.size() != n_) {
    throw std::invalid_argument("HowardSolver: node weight size mismatch");
  }
  std::copy(weights.begin(), weights.end(), weight_.begin());
}

void HowardSolver::install_policy(std::span<const std::int64_t> policy) {
  if (policy.size() != n_) {
    throw std::invalid_argument("HowardSolver: policy size mismatch");
  }
  policy_.assign(policy.begin(), policy.end());
  // Per-round evaluation state: sized here, overwritten by every round.
  ratio_.resize(n_);
  dist_.resize(n_);
  warm_ = true;
}

double HowardSolver::solve() {
  if (!has_cycle_ || deadlocked_) {
    throw std::logic_error("HowardSolver::solve: no finite cycle ratio exists");
  }

  if (!warm_) {
    // Cold start: first cycle-reaching out-edge per node. Trimmed nodes
    // (no path to any cycle) keep policy -1 and adopt ratio -inf.
    policy_.assign(n_, -1);
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (!alive_[v]) continue;
      for (std::uint32_t e = offset_[v]; e < offset_[v + 1]; ++e) {
        if (alive_[dst_[e]]) {
          policy_[v] = e;
          break;
        }
      }
    }
    ratio_.assign(n_, kNegInf);
    dist_.assign(n_, 0.0);
    warm_ = true;
  }

  visit_mark_.assign(n_, UINT32_MAX);
  evaluated_.assign(n_, 0);

  const std::size_t max_rounds = 2 * n_ + 64;  // generous safety cap
  for (std::size_t round = 0; round < max_rounds; ++round) {
    // --- policy evaluation -------------------------------------------------
    // Follow the policy's functional graph; every walk ends in a cycle.
    std::fill(visit_mark_.begin(), visit_mark_.end(), UINT32_MAX);
    std::fill(evaluated_.begin(), evaluated_.end(), 0);
    std::fill(ratio_.begin(), ratio_.end(), kNegInf);
    std::fill(dist_.begin(), dist_.end(), 0.0);

    for (std::uint32_t start = 0; start < n_; ++start) {
      if (evaluated_[start] || policy_[start] < 0) continue;
      // Walk until we hit an evaluated node or revisit this walk.
      path_.clear();
      std::uint32_t v = start;
      while (!evaluated_[v] && visit_mark_[v] != start && policy_[v] >= 0) {
        visit_mark_[v] = start;
        path_.push_back(v);
        v = dst_[static_cast<std::size_t>(policy_[v])];
      }
      if (policy_[v] >= 0 && !evaluated_[v] && visit_mark_[v] == start) {
        // Found a fresh cycle starting at v: compute its ratio and collect
        // the cycle nodes in traversal order.
        double w_sum = 0.0, t_sum = 0.0;
        cyc_.clear();
        std::uint32_t u = v;
        do {
          const auto e = static_cast<std::size_t>(policy_[u]);
          cyc_.push_back(u);
          w_sum += weight_[u];
          t_sum += tokens_[e];
          u = dst_[e];
        } while (u != v);
        const double lambda = t_sum > 0.0 ? w_sum / t_sum : kNegInf;
        // Fix dist(v) = 0 and propagate backwards along the cycle:
        // dist(u) = w - lambda * t + dist(next).
        ratio_[v] = lambda;
        dist_[v] = 0.0;
        evaluated_[v] = 1;
        for (std::size_t i = cyc_.size(); i-- > 1;) {
          const std::uint32_t node = cyc_[i];
          const auto e = static_cast<std::size_t>(policy_[node]);
          ratio_[node] = lambda;
          dist_[node] = weight_[node] - lambda * tokens_[e] + dist_[dst_[e]];
          evaluated_[node] = 1;
        }
      }
      // Unwind the path (tail nodes draining into the evaluated region).
      for (std::size_t i = path_.size(); i-- > 0;) {
        const std::uint32_t node = path_[i];
        if (evaluated_[node]) continue;
        const auto e = static_cast<std::size_t>(policy_[node]);
        ratio_[node] = ratio_[dst_[e]];
        dist_[node] = weight_[node] - ratio_[node] * tokens_[e] + dist_[dst_[e]];
        evaluated_[node] = 1;
      }
    }

    // --- policy improvement ------------------------------------------------
    bool changed = false;
    for (std::uint32_t v = 0; v < n_; ++v) {
      for (std::uint32_t e = offset_[v]; e < offset_[v + 1]; ++e) {
        if (policy_[v] == static_cast<std::int64_t>(e)) continue;
        const std::uint32_t d = dst_[e];
        if (!alive_[d] || ratio_[d] == kNegInf) continue;
        // First criterion: a strictly better cycle becomes reachable.
        if (ratio_[d] > ratio_[v] + kEps) {
          policy_[v] = e;
          changed = true;
          continue;
        }
        // Second criterion: same ratio, strictly better potential.
        if (std::abs(ratio_[d] - ratio_[v]) <= kEps) {
          const double cand = weight_[v] - ratio_[v] * tokens_[e] + dist_[d];
          if (cand > dist_[v] + kEps * std::max(1.0, std::abs(dist_[v]))) {
            policy_[v] = e;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }

  double best = 0.0;
  for (std::uint32_t v = 0; v < n_; ++v) {
    if (ratio_[v] != kNegInf) best = std::max(best, ratio_[v]);
  }
  return best;
}

std::vector<std::uint32_t> HowardSolver::critical_cycle() const {
  if (!warm_) {
    throw std::logic_error("HowardSolver::critical_cycle: no solve() yet");
  }
  // Start from the smallest-index node of maximum ratio (deterministic for
  // a given final policy) and follow the policy; the walk must close into
  // the component's cycle, whose ratio equals the maximum.
  std::uint32_t start = UINT32_MAX;
  double best = kNegInf;
  for (std::uint32_t v = 0; v < n_; ++v) {
    if (policy_[v] >= 0 && ratio_[v] > best) {
      best = ratio_[v];
      start = v;
    }
  }
  if (start == UINT32_MAX) return {};

  std::vector<std::uint32_t> order(n_, UINT32_MAX);  // position in the walk
  std::vector<std::uint32_t> walk;
  std::uint32_t v = start;
  while (order[v] == UINT32_MAX && policy_[v] >= 0) {
    order[v] = static_cast<std::uint32_t>(walk.size());
    walk.push_back(v);
    v = dst_[static_cast<std::size_t>(policy_[v])];
  }
  if (order[v] == UINT32_MAX) return {};  // walk drained (trimmed region)
  return std::vector<std::uint32_t>(walk.begin() + order[v], walk.end());
}

}  // namespace procon::analysis
