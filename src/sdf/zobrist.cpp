#include "sdf/zobrist.h"

#include <array>

namespace procon::sdf {

namespace {

// splitmix64 finaliser: a cheap, well-distributed 64-bit mixer.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The seed-fixed feature table: 256 independent 64-bit codes generated at
// compile time by iterating splitmix64 from ZobristHash::kSeed. Entries act
// as per-dimension salts so distinct feature kinds (actor vs channel vs
// mapping vs node) and distinct field positions draw from unrelated
// streams.
constexpr std::array<std::uint64_t, 256> make_table() noexcept {
  std::array<std::uint64_t, 256> t{};
  std::uint64_t state = ZobristHash::kSeed;
  for (auto& e : t) {
    state += 0x9E3779B97F4A7C15ULL;
    e = mix(state);
  }
  return t;
}

constexpr std::array<std::uint64_t, 256> kTable = make_table();

// Distinct table rows per feature kind / field dimension.
constexpr std::size_t kActorDim = 0;
constexpr std::size_t kChannelDim = 8;
constexpr std::size_t kNodeDim = 16;
constexpr std::size_t kMappingDim = 24;
constexpr std::size_t kPlaceDim = 32;

// Chains one field into a feature hash, salted by its dimension row.
constexpr std::uint64_t step(std::uint64_t h, std::uint64_t v,
                             std::size_t dim) noexcept {
  return mix(h ^ v ^ kTable[dim & 0xFF]);
}

}  // namespace

std::uint64_t ZobristHash::actor_feature(ActorId a, Time exec_time) noexcept {
  std::uint64_t h = step(kTable[kActorDim], a, kActorDim + 1);
  return step(h, static_cast<std::uint64_t>(exec_time), kActorDim + 2);
}

std::uint64_t ZobristHash::channel_feature(ChannelId c, const Channel& ch) noexcept {
  std::uint64_t h = step(kTable[kChannelDim], c, kChannelDim + 1);
  h = step(h, ch.src, kChannelDim + 2);
  h = step(h, ch.dst, kChannelDim + 3);
  h = step(h, ch.prod_rate, kChannelDim + 4);
  h = step(h, ch.cons_rate, kChannelDim + 5);
  return step(h, ch.initial_tokens, kChannelDim + 6);
}

std::uint64_t ZobristHash::node_feature(std::uint32_t node, std::uint32_t type) noexcept {
  std::uint64_t h = step(kTable[kNodeDim], node, kNodeDim + 1);
  return step(h, type, kNodeDim + 2);
}

std::uint64_t ZobristHash::mapping_feature(ActorId a, std::uint32_t node) noexcept {
  std::uint64_t h = step(kTable[kMappingDim], a, kMappingDim + 1);
  return step(h, node, kMappingDim + 2);
}

std::uint64_t ZobristHash::graph_component(const Graph& g) noexcept {
  std::uint64_t comp = 0;
  ActorId a = 0;
  for (const Actor& actor : g.actors()) {
    comp ^= actor_feature(a++, actor.exec_time);
  }
  ChannelId c = 0;
  for (const Channel& ch : g.channels()) {
    comp ^= channel_feature(c++, ch);
  }
  return comp;
}

std::uint64_t ZobristHash::mapping_row_component(
    std::span<const std::uint32_t> nodes) noexcept {
  std::uint64_t comp = 0;
  for (ActorId a = 0; a < nodes.size(); ++a) {
    comp ^= mapping_feature(a, nodes[a]);
  }
  return comp;
}

std::uint64_t ZobristHash::place(std::uint64_t tag, std::uint64_t slot,
                                 std::uint64_t component) noexcept {
  std::uint64_t h = step(kTable[kPlaceDim], tag, kPlaceDim + 1);
  h = step(h, slot, kPlaceDim + 2);
  return mix(h ^ component);
}

}  // namespace procon::sdf
