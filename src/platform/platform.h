// Hardware platform model: a set of named processing nodes.
//
// The paper's platform is a heterogeneous MPSoC whose nodes are
// non-preemptive processing elements (DSPs, accelerators, IP blocks).
// For contention analysis only the identity of nodes matters; the
// arbitration policy is a property of the simulator / analysis chosen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sdf/types.h"

namespace procon::platform {

/// Index of a processing node within a Platform.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Identifies a class of processing elements (RISC, DSP, accelerator...).
/// Actors may have type-dependent execution times (see heterogeneous.h).
using NodeType = std::uint32_t;

/// One processing element.
struct Node {
  std::string name;
  NodeType type = 0;
};

/// A set of processing nodes. As in the paper, communication between nodes
/// is free: there is no interconnect model.
class Platform {
 public:
  /// Convenience: creates `count` nodes named "<prefix>0".."<prefix>N-1",
  /// all of type 0.
  static Platform homogeneous(std::size_t count, const std::string& prefix = "Proc");

  NodeId add_node(std::string name, NodeType type = 0);

  /// Number of distinct node types in use (max type + 1; 0 for an empty
  /// platform).
  [[nodiscard]] std::size_t type_count() const noexcept;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] NodeId find_node(const std::string& name) const noexcept;

  /// Inert stand-in for the removed interconnect model: none() is always
  /// true. Kept only because the benchmark's step-4 replay still calls
  /// `view.platform().topology().none()` (ledger/common.cpp:368); delete it
  /// with that call.
  struct NoInterconnect {
    /// Always true: no platform carries an interconnect.
    [[nodiscard]] static constexpr bool none() noexcept { return true; }
  };
  /// The interconnect stand-in (see NoInterconnect).
  [[nodiscard]] static constexpr NoInterconnect topology() noexcept { return {}; }

 private:
  std::vector<Node> nodes_;
};

}  // namespace procon::platform
