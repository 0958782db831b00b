// Zobrist-style structural hashing for graphs, mappings and systems.
//
// A Zobrist hash assigns every *feature* of a structure an independent
// pseudo-random 64-bit code drawn from a deterministic, seed-fixed table,
// and defines the hash of the structure as the XOR of its feature codes.
// XOR is its own inverse, so adding or removing a feature updates the hash
// in O(1) — the classic trick from game-tree search, applied here to the
// repeated-analysis problem: admission probes, DSE candidates and
// multi-tenant service queries keep re-analysing structurally identical
// (sub)systems, and an incrementally-maintained fingerprint is what lets a
// transposition table recognise them without rehashing O(system) state.
//
// The features are the paper-relevant structure only — actor execution
// times, channel endpoints/rates/tokens, and (mapping slot, node) pairs.
// Names are deliberately *excluded*: analysis results do not depend on
// them, so two differently-named but structurally identical applications
// hash equal and can share transposition entries across tenants. Callers
// that need exact identity (the admission candidate LRU, the service
// session LRU) key on these fingerprints and tie-break with graphs_equal /
// systems_equal, which do compare names.
//
// Composition convention (used by platform::System / platform::Mapping /
// platform::SystemView):
//
//   system fp = place(kPlatformTag, 0, platform component)
//             ^ XOR_i place(kAppTag,     i, graph_component(app_i))
//             ^ XOR_i place(kMappingTag, i, mapping row component_i)
//
// `place` salts a slot-free component by its position, so reordering
// applications changes the hash while each per-app component stays
// reusable: a SystemView re-places the parent's cached components at view
// slots in O(use-case size) instead of rehashing graphs.
#pragma once

#include <cstdint>
#include <span>

#include "sdf/graph.h"
#include "sdf/types.h"

namespace procon::sdf {

/// \brief Deterministic, seed-fixed Zobrist feature hashing over SDF
/// structures.
///
/// All members are static and allocation-free; the feature table is
/// generated at compile time from a fixed seed, so hashes are stable across
/// runs, platforms and thread counts (a requirement for the committed
/// bench identity records). See the header comment for the composition
/// convention and the name-exclusion rationale.
class ZobristHash {
 public:
  /// Fixed generator seed for the compile-time feature table. Changing it
  /// changes every fingerprint (and invalidates any persisted hashes).
  static constexpr std::uint64_t kSeed = 0x5A0B'F157'C0DE'2007ULL;

  /// Placement tag for per-application graph components.
  static constexpr std::uint64_t kAppTag = 0xA1;
  /// Placement tag for per-application mapping-row components.
  static constexpr std::uint64_t kMappingTag = 0xB2;
  /// Placement tag for the platform component (always slot 0).
  static constexpr std::uint64_t kPlatformTag = 0xC3;

  /// Feature code of actor `a` with execution time `exec_time`.
  [[nodiscard]] static std::uint64_t actor_feature(ActorId a,
                                                   Time exec_time) noexcept;

  /// Feature code of channel `c` (mixes src, dst, rates and initial tokens).
  [[nodiscard]] static std::uint64_t channel_feature(ChannelId c,
                                                     const Channel& ch) noexcept;

  /// Feature code of processing node `node` with type `type`.
  [[nodiscard]] static std::uint64_t node_feature(std::uint32_t node,
                                                  std::uint32_t type) noexcept;

  /// Feature code of the (actor `a` -> node `node`) mapping assignment.
  /// Unmapped slots (platform::kInvalidNode) hash like any other value, so
  /// partially-built mappings have well-defined fingerprints.
  [[nodiscard]] static std::uint64_t mapping_feature(ActorId a,
                                                     std::uint32_t node) noexcept;

  /// Slot-free structural component of a whole graph: XOR of all actor and
  /// channel features. Name-free by design (see header comment). O(actors +
  /// channels), no allocation.
  [[nodiscard]] static std::uint64_t graph_component(const Graph& g) noexcept;

  /// Slot-free component of one mapping row: XOR of mapping_feature(a,
  /// nodes[a]) over all actors. O(actors), no allocation.
  [[nodiscard]] static std::uint64_t mapping_row_component(
      std::span<const std::uint32_t> nodes) noexcept;

  /// Salts a slot-free `component` by (`tag`, `slot`) so position matters in
  /// a XOR composition. place(t, s, c1) ^ place(t, s, c2) has the XOR-delta
  /// property needed for O(1) in-place updates: replacing component c1 by c2
  /// at the same slot XORs exactly those two terms.
  [[nodiscard]] static std::uint64_t place(std::uint64_t tag, std::uint64_t slot,
                                           std::uint64_t component) noexcept;
};

}  // namespace procon::sdf
