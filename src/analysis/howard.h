// Howard's policy-iteration algorithm for the maximum cycle ratio.
//
// Dasdan's experimental study ([4], cited by the paper for MCM analysis)
// identifies Howard's algorithm as the fastest MCR solver in practice. It
// maintains a policy (one chosen out-edge per node), evaluates the ratio of
// the unique cycle each policy component contains, and greedily switches
// edges that improve the reachable ratio until a fixpoint.
//
// The solver below keeps the graph in CSR form (offset/edge arrays instead
// of per-node vectors) and retains its policy between calls: when only the
// node weights change — the repeated-analysis pattern of the contention
// estimator, the DSE loops and admission control — re-solving warm-starts
// from the previous policy and typically converges in one or two
// improvement rounds instead of a full cold start. ThroughputEngine
// (analysis/engine.h) builds on exactly this property.
//
// It is the library's one MCR solver. The tests cross-validate it on
// thousands of random graphs against the Lawler parametric search and
// exhaustive cycle enumeration, which live in tests/analysis_oracle.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/expansion.h"

namespace procon::analysis {

/// Reusable Howard solver over a fixed edge topology with mutable node
/// weights. Usage:
///   HowardSolver s;
///   s.build(n, edges);           // once per structure: CSR + DFS checks
///   if (s.has_cycle() && !s.deadlocked()) {
///     s.set_node_weights(w);     // per analysis: new execution times
///     double lambda = s.solve(); // warm-starts after the first call
///   }
class HowardSolver {
 public:
  /// Builds the CSR topology over `node_count` nodes from `edges` and runs
  /// the one-time structural checks: cycle existence and zero-token
  /// (deadlock) cycles. Each node's out-edges keep their order in `edges`.
  /// Node weights are zero until set_node_weights. Resets any previous
  /// policy. ThroughputEngine hands it its sorted, deduplicated expansion
  /// (dedup_candidates) directly.
  void build(std::size_t node_count, std::span<const EdgeCandidate> edges);

  /// True if the graph contains at least one directed cycle.
  [[nodiscard]] bool has_cycle() const noexcept { return has_cycle_; }
  /// True if a zero-token cycle exists (period unbounded / deadlock).
  [[nodiscard]] bool deadlocked() const noexcept { return deadlocked_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// The CSR topology, read-only: the out-edges of node v are the indices
  /// [offsets()[v], offsets()[v + 1]) of targets() and tokens(), in their
  /// order in the edges given to build().
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
    return offset_;
  }
  /// Target node of each edge (see offsets()).
  [[nodiscard]] std::span<const std::uint32_t> targets() const noexcept { return dst_; }
  /// Token count (iteration distance) of each edge (see offsets()).
  [[nodiscard]] std::span<const double> tokens() const noexcept { return tokens_; }

  /// Replaces the per-node weight (the execution time folded onto every
  /// outgoing edge). Size must equal node_count().
  void set_node_weights(std::span<const double> weights);

  /// Maximum cycle ratio under the current weights. Requires has_cycle() &&
  /// !deadlocked(). The first call cold-starts the policy; later calls
  /// warm-start from the previous policy (see policy()).
  [[nodiscard]] double solve();

  /// Discards the warm-start state (the next solve() cold-starts).
  void reset() noexcept { warm_ = false; }

  /// The warm-start state the next solve() starts from: the final policy of
  /// the most recent solve() (one global edge index per node, -1 where no
  /// out-edge reaches a cycle). Empty when the next solve() cold-starts.
  /// The policy is all a solve carries over — ratios and potentials are
  /// re-evaluated from it every round.
  [[nodiscard]] std::span<const std::int64_t> policy() const noexcept {
    return warm_ ? std::span<const std::int64_t>(policy_)
                 : std::span<const std::int64_t>();
  }

  /// Installs a policy() taken from a solver over the same topology as the
  /// warm-start state: the next solve() then runs exactly as it would right
  /// after the solve that produced it (critical_cycle() waits for that
  /// solve). No heap allocation once this solver has solved. Throws
  /// std::invalid_argument on a size mismatch.
  void install_policy(std::span<const std::int64_t> policy);

  /// Nodes of a critical cycle of the most recent solve(), in traversal
  /// order. The final policy's functional graph contains, reachable from
  /// any node of maximum ratio, exactly the cycle that enforces the MCR —
  /// so after a solve the critical cycle costs one policy walk, no extra
  /// parametric search. Throws std::logic_error if solve() has not run.
  [[nodiscard]] std::vector<std::uint32_t> critical_cycle() const;

 private:
  // --- fixed topology (CSR) ---
  std::size_t n_ = 0;
  std::vector<std::uint32_t> offset_;  // n_ + 1 entries; out-edges of v are
                                       // [offset_[v], offset_[v+1])
  std::vector<std::uint32_t> dst_;     // edge target node
  std::vector<double> tokens_;         // edge token count
  std::vector<std::uint8_t> alive_;    // node can reach a cycle
  bool has_cycle_ = false;
  bool deadlocked_ = false;

  // --- mutable weights ---
  std::vector<double> weight_;  // per node, folded onto its out-edges

  // --- persistent policy state (the warm start) ---
  bool warm_ = false;
  std::vector<std::int64_t> policy_;  // global edge index, -1 if no out-edge

  // --- policy evaluation, rebuilt from policy_ every round ---
  std::vector<double> ratio_;
  std::vector<double> dist_;

  // --- scratch reused across solves (avoids per-call allocation) ---
  std::vector<std::uint32_t> visit_mark_;
  std::vector<std::uint8_t> evaluated_;
  std::vector<std::uint32_t> path_;
  std::vector<std::uint32_t> cyc_;
};

}  // namespace procon::analysis
