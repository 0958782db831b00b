// The SDF -> HSDF (homogeneous SDF) expansion, as a sorted edge list.
//
// Each actor a is replaced by q[a] nodes (one per firing in an iteration);
// each channel induces precedence edges between producing and consuming
// firings, annotated with an iteration distance ("tokens" in the
// homogeneous graph). This is the classical unfolding of Sriram &
// Bhattacharyya used by the throughput analyses the paper builds on ([2],
// [4], [14]).
//
// The expansion keeps, for every (producer firing, consumer firing) pair,
// only the edge with the minimum iteration distance - the binding
// constraint - so it has at most q[src]*q[dst] edges per channel.
//
// Nodes are laid out actors in id order, q[a] consecutive firings each.
// The deduplicated edge list goes straight into Howard's CSR core
// (analysis/howard.h); ThroughputEngine is its builder. No node or graph
// object is materialised.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::analysis {

/// One candidate precedence edge of the expansion, before the global
/// minimum-distance deduplication. `key` packs (src node << 32 | dst node)
/// so sorting and deduplicating are single-word compares.
struct EdgeCandidate {
  std::uint64_t key;
  std::uint64_t tokens;

  [[nodiscard]] std::uint32_t src() const noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }
  [[nodiscard]] std::uint32_t dst() const noexcept {
    return static_cast<std::uint32_t>(key);
  }
};

/// Appends the candidate edges of one channel to `out`. `node_base[a]` is
/// the node index of actor a's first firing (actors in id order, q[a]
/// consecutive firings each).
void append_channel_candidates(const sdf::Channel& ch, const sdf::RepetitionVector& q,
                               std::span<const std::uint32_t> node_base,
                               std::vector<EdgeCandidate>& out);

/// Sorts candidates by (key, tokens) and drops all but the minimum-distance
/// edge per (src, dst) pair — the binding constraint. Each node's out-edges
/// then appear in ascending destination order.
void dedup_candidates(std::vector<EdgeCandidate>& candidates);

}  // namespace procon::analysis
