// A System bundles applications, platform and mapping - the unit every
// analysis and the simulator operate on, read through a
// platform::SystemView (platform/system_view.h). A UseCase selects the
// subset of applications that run concurrently (the paper's central
// notion).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "platform/mapping.h"
#include "platform/platform.h"
#include "sdf/graph.h"

namespace procon::platform {

/// A use-case: indices of concurrently active applications (sorted, unique).
using UseCase = std::vector<sdf::AppId>;

class System {
 public:
  /// Empty system (fingerprint-consistent with System({}, {}, {})).
  System();
  System(std::vector<sdf::Graph> apps, Platform platform, Mapping mapping);

  [[nodiscard]] std::span<const sdf::Graph> apps() const noexcept { return apps_; }
  [[nodiscard]] const sdf::Graph& app(sdf::AppId id) const;
  [[nodiscard]] std::size_t app_count() const noexcept { return apps_.size(); }
  [[nodiscard]] const Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] const Mapping& mapping() const noexcept { return mapping_; }

  /// Replaces the actor-to-node mapping, keeping applications and platform.
  /// Lets mapping explorers rebind the same system per candidate instead of
  /// re-copying every application graph. Throws sdf::GraphError (and keeps
  /// the resident mapping) if the mapping's application count does not
  /// match or an actor sits on a node the platform does not have.
  void set_mapping(Mapping&& mapping);
  /// Copying overload: assigns into the resident mapping's storage, so
  /// rebinding a same-shape candidate performs no heap allocation.
  void set_mapping(const Mapping& mapping);

  /// Appends one application with actor a mapped on nodes[a] (run-time
  /// admission: the admitted set grows in place, no re-copy of the resident
  /// applications). Throws sdf::GraphError on a mapping size mismatch.
  /// Invalidates SystemViews over this system.
  void append_app(sdf::Graph app, std::span<const NodeId> nodes);
  /// Braced-list convenience for the span overload.
  void append_app(sdf::Graph app, std::initializer_list<NodeId> nodes) {
    append_app(std::move(app), std::span<const NodeId>(nodes.begin(), nodes.size()));
  }

  /// Removes the most recently appended application (what-if rollback).
  /// Throws std::out_of_range when there is none.
  void pop_app();

  /// The use-case containing every application.
  [[nodiscard]] UseCase full_use_case() const;

  /// Validation: mapping complete and on the platform's nodes, every app
  /// consistent & deadlock-free. Throws sdf::GraphError with a descriptive
  /// message on violation. Same rules as SystemView::validate on the whole
  /// system.
  void validate() const;

  /// Live Zobrist fingerprint of the whole system:
  ///   place(kPlatformTag, 0, platform component)
  ///   ^ XOR_i place(kAppTag, i, app_component(i))
  ///   ^ mapping().fingerprint().
  /// Computed once in the constructor (the from-scratch oracle) and
  /// XOR-updated in O(delta) by set_mapping/append_app/pop_app. Name-free:
  /// structurally identical systems under different names fingerprint
  /// equal, which is what lets transposition entries be shared across
  /// tenants. Exact-identity caches must still tie-break with a structural
  /// comparison that includes names.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return platform_placed_ ^ apps_fp_ ^ mapping_.fingerprint();
  }

  /// Slot-free Zobrist component of application `id`'s graph (cached at
  /// append time; see sdf::ZobristHash::graph_component). SystemView
  /// re-places these at view slots to derive per-use-case fingerprints in
  /// O(use-case size). Throws std::out_of_range on a bad id.
  [[nodiscard]] std::uint64_t app_component(sdf::AppId id) const {
    return app_comp_.at(id);
  }

  /// The platform's placed Zobrist term (slot 0 under kPlatformTag) —
  /// restriction never changes the platform, so views reuse it verbatim.
  [[nodiscard]] std::uint64_t platform_fingerprint() const noexcept {
    return platform_placed_;
  }

 private:
  /// Throws sdf::GraphError unless `mapping` has one row per application
  /// and every actor sits on a node below platform().node_count() (so an
  /// unmapped kInvalidNode actor fails too). O(actors), allocation-free.
  void check_mapping(const Mapping& mapping) const;

  std::vector<sdf::Graph> apps_;
  Platform platform_;
  Mapping mapping_;
  std::vector<std::uint64_t> app_comp_;  // slot-free per-app graph components
  std::uint64_t apps_fp_ = 0;            // XOR of placed app components
  std::uint64_t platform_placed_ = 0;    // place(kPlatformTag, 0, node features)
};

}  // namespace procon::platform
