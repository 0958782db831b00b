// Synchronous Data Flow graph (SDFG) representation.
//
// An SDFG is a directed (multi-)graph whose vertices ("actors") represent
// tasks with fixed execution times, and whose edges ("channels") carry
// tokens. A channel has a production rate (tokens appended per source actor
// firing), a consumption rate (tokens removed per destination firing) and a
// number of initial tokens. An actor may fire when every incoming channel
// holds at least its consumption rate worth of tokens. See Lee &
// Messerschmitt (1987) and Definition 1-3 of the paper.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sdf/types.h"

namespace procon::sdf {

/// Thrown on malformed graph construction or queries with invalid ids.
class GraphError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A task vertex: name plus fixed execution time tau (Definition 1).
struct Actor {
  std::string name;
  Time exec_time = 1;
};

/// A token-carrying edge between two actors.
struct Channel {
  ActorId src = kInvalidActor;
  ActorId dst = kInvalidActor;
  std::uint32_t prod_rate = 1;      ///< tokens produced per src firing
  std::uint32_t cons_rate = 1;      ///< tokens consumed per dst firing
  std::uint64_t initial_tokens = 0; ///< tokens present before execution starts

  [[nodiscard]] bool is_self_loop() const noexcept { return src == dst; }
};

/// An SDF application graph. Actors and channels are stored densely and
/// addressed by index; the class maintains adjacency lists as channels are
/// added. Graphs are value types (copyable) so analyses can cheaply derive
/// modified variants (e.g. response-time-annotated copies).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  /// Adds an actor; returns its id. exec_time must be >= 0.
  ActorId add_actor(std::string name, Time exec_time);

  /// Adds a channel; rates must be >= 1 and endpoints valid. Returns its id.
  ChannelId add_channel(ActorId src, ActorId dst, std::uint32_t prod_rate,
                        std::uint32_t cons_rate, std::uint64_t initial_tokens = 0);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::size_t actor_count() const noexcept { return actors_.size(); }
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }

  [[nodiscard]] const Actor& actor(ActorId a) const;
  [[nodiscard]] Actor& actor(ActorId a);
  [[nodiscard]] const Channel& channel(ChannelId c) const;

  [[nodiscard]] std::span<const Actor> actors() const noexcept { return actors_; }
  [[nodiscard]] std::span<const Channel> channels() const noexcept { return channels_; }

  /// Ids of channels leaving / entering an actor (self-loops appear in both).
  [[nodiscard]] std::span<const ChannelId> out_channels(ActorId a) const;
  [[nodiscard]] std::span<const ChannelId> in_channels(ActorId a) const;

  /// Looks up an actor by name; returns kInvalidActor if absent.
  [[nodiscard]] ActorId find_actor(const std::string& name) const noexcept;

  /// Total of exec_time over all actors weighted by nothing (raw sum).
  [[nodiscard]] Time total_exec_time() const noexcept;

  /// Returns a copy of this graph with every actor's execution time replaced
  /// by new_times[a] (rounded analysis is done elsewhere; this variant takes
  /// integral times). Sizes must match.
  [[nodiscard]] Graph with_exec_times(std::span<const Time> new_times) const;

  /// Returns a copy with a self-loop channel (rate 1/1, one initial token)
  /// added to every actor that does not already have one, which disables
  /// auto-concurrency (an actor cannot overlap with itself).
  [[nodiscard]] Graph with_self_loops() const;

  /// True if some channel a->a with prod == cons and >=1 token exists.
  [[nodiscard]] bool has_self_loop(ActorId a) const;

 private:
  void check_actor(ActorId a) const;

  std::string name_;
  std::vector<Actor> actors_;
  std::vector<Channel> channels_;
  std::vector<std::vector<ChannelId>> out_;
  std::vector<std::vector<ChannelId>> in_;
};

}  // namespace procon::sdf
