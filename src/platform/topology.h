// Interconnect model: the network the platform's nodes talk over.
//
// The paper models contention only at shared processors; a real MPSoC
// also contends on the interconnect. A Topology attaches a network shape
// (shared bus, bidirectional ring, or 2D mesh) to a Platform, with a
// per-link transfer width and latency and *deterministic minimal
// routing* (netsim-style dimension-order XY on the mesh, shortest
// direction on the ring, the one shared medium on the bus). Channels
// whose producer and consumer are mapped to different nodes are routed
// over a fixed link sequence; both analysis tiers consume those routes —
// sim::SimEngine arbitrates each link FCFS with real events, and
// prob::ContentionEstimator folds per-link loads into its waiting-time
// fixed point.
//
// A default-constructed Topology has kind None: no links, no routing, and
// every consumer of the model reproduces the pre-interconnect results
// bitwise (the backward-compatibility contract tested in
// tests/test_interconnect.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.h"
#include "sdf/types.h"

namespace procon::platform {

/// Index of a directed link within a Topology.
using LinkId = std::uint32_t;
/// Sentinel for "no link" (unreachable direction in routing tables).
inline constexpr LinkId kInvalidLink = 0xFFFFFFFFu;

/// The interconnect shape attached to a Platform.
enum class TopologyKind : std::uint8_t {
  None = 0,  ///< No interconnect: inter-node transfers are free (legacy model).
  Bus = 1,   ///< One shared medium every inter-node transfer arbitrates for.
  Ring = 2,  ///< Bidirectional ring; minimal-direction routing, ties clockwise.
  Mesh2D = 3 ///< rows x cols grid; deterministic XY dimension-order routing.
};

/// One directed link of the interconnect.
///
/// `width` tokens cross the link per time unit once a transfer is granted;
/// `latency` is the fixed grant-to-first-token delay. The transfer of `t`
/// tokens therefore occupies the link for `latency + ceil(t / width)` time
/// units (see Topology::service_time).
struct Link {
  /// Source node, or kInvalidNode for the bus's shared medium.
  NodeId src = kInvalidNode;
  /// Destination node, or kInvalidNode for the bus's shared medium.
  NodeId dst = kInvalidNode;
  /// Tokens transferred per time unit (>= 1; factory-clamped).
  std::uint32_t width = 1;
  /// Fixed per-transfer setup delay (>= 0; factory-clamped).
  sdf::Time latency = 1;

  /// Field-wise equality (endpoints and attributes).
  [[nodiscard]] friend bool operator==(const Link&, const Link&) = default;
};

/// \brief Interconnect topology: links plus deterministic minimal routing.
///
/// Construct via the bus / ring / mesh factories (a default-constructed
/// instance is kind None and routes nothing). Link structure is canonical
/// per (kind, dimensions) — only widths and latencies are mutable — so two
/// topologies compare equal iff their Zobrist features match, which is what
/// keeps fingerprint-keyed caches (the transposition table, the service's
/// session LRU) sound.
class Topology {
 public:
  /// The no-interconnect topology (kind None, zero links).
  Topology() = default;

  /// A single shared bus over `nodes` processing nodes: every inter-node
  /// transfer crosses the one shared link. Throws std::invalid_argument if
  /// `nodes` == 0. `width` is clamped to >= 1, `latency` to >= 0.
  [[nodiscard]] static Topology bus(std::size_t nodes, std::uint32_t width = 1,
                                    sdf::Time latency = 1);

  /// A bidirectional ring over `nodes` processing nodes (2 directed links
  /// per node: clockwise link 2i goes i -> (i+1) mod n, counter-clockwise
  /// link 2i+1 goes i -> (i-1) mod n). Routing takes the minimal direction;
  /// equidistant ties go clockwise. Throws std::invalid_argument if
  /// `nodes` < 2.
  [[nodiscard]] static Topology ring(std::size_t nodes, std::uint32_t width = 1,
                                     sdf::Time latency = 1);

  /// A `rows` x `cols` 2D mesh (node r*cols+c sits at row r, column c) with
  /// directed links to each grid neighbour. Routing is deterministic XY
  /// dimension order: correct the column first, then the row. Throws
  /// std::invalid_argument if either dimension is 0 or rows*cols < 2.
  [[nodiscard]] static Topology mesh(std::size_t rows, std::size_t cols,
                                     std::uint32_t width = 1,
                                     sdf::Time latency = 1);

  /// The shape of this interconnect (None for the default instance).
  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  /// True when kind() == TopologyKind::None (no routing happens).
  [[nodiscard]] bool none() const noexcept { return kind_ == TopologyKind::None; }
  /// Number of processing nodes this topology spans (0 when none()).
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
  /// Mesh row count (0 unless kind() == Mesh2D).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  /// Mesh column count (0 unless kind() == Mesh2D).
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Number of directed links.
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  /// The link with index `id`. Throws std::out_of_range on a bad id.
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Sets the width of link `id` (clamped to >= 1). Throws
  /// std::out_of_range on a bad id. Mutate through System::set_link_width
  /// when the topology is installed in a System, so its fingerprint tracks.
  void set_link_width(LinkId id, std::uint32_t width);
  /// Sets the latency of link `id` (clamped to >= 0). Throws
  /// std::out_of_range on a bad id. Mutate through System::set_link_latency
  /// when the topology is installed in a System.
  void set_link_latency(LinkId id, sdf::Time latency);

  /// Appends the deterministic minimal route from `src` to `dst` to `out`
  /// and returns the number of links appended (0 when src == dst or
  /// none()). Throws std::out_of_range if either node is outside the
  /// topology. The route depends only on structure, never on traffic, so
  /// repeated calls are bitwise-identical — the determinism every cached
  /// route table relies on.
  std::size_t route(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

  /// Time link `id` is occupied transferring `tokens` tokens:
  /// latency + ceil(tokens / width), or 0 when `tokens` == 0. Throws
  /// std::out_of_range on a bad id.
  [[nodiscard]] sdf::Time service_time(LinkId id, std::uint64_t tokens) const;

  /// Structural equality (kind, dimensions, every link field).
  [[nodiscard]] friend bool operator==(const Topology&, const Topology&) = default;

 private:
  TopologyKind kind_ = TopologyKind::None;
  std::uint32_t nodes_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<Link> links_;
  // Mesh routing table: dir_link_[node*4 + direction] with directions
  // 0=east(+col) 1=west(-col) 2=south(+row) 3=north(-row); kInvalidLink on
  // grid borders. Built once by the mesh factory.
  std::vector<LinkId> dir_link_;
};

}  // namespace procon::platform
