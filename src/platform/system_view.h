// SystemView: a non-owning, index-remapped restriction of a System to a
// UseCase, and the one input of every one-shot analysis (the estimator,
// the WCRT bounds, the simulator).
//
// A view holds only the parent pointer plus remap tables (view app id ->
// parent app id, and flattened actor/channel offsets in view order); no
// graph, platform or mapping data is copied. A full-system view (every
// application, in order) is the identity remap, so the same code path
// serves restricted and unrestricted queries. materialise() is the one
// copying restriction, for callers that need a standalone System.
//
// A System converts implicitly to its full view, the way std::string
// converts to std::string_view: estimate(sys), worst_case_bounds(sys),
// simulate(sys, opts) and SimEngine(sys) all call the view signature.
//
// View-local ids: application i of the view is parent application
// use_case()[i]; actor and channel ids stay app-local (restriction never
// renumbers within an application), and the flattened actor/channel id
// spaces (actor_base/channel_base) are in view order — exactly the
// numbering of the materialised copy.
//
// Lifetime: the view borrows the parent System, which must outlive it —
// the implicit conversion makes this easy to get wrong, e.g.
// `SystemView v = make_system();` dangles at the end of the statement,
// while passing a temporary System straight to a one-shot call is fine.
// The parent must not be structurally modified (apps appended/removed)
// while views over it are in use; rebinding the mapping in place
// (System::set_mapping) is visible through the view, by design.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "platform/system.h"

namespace procon::platform {

/// \brief Non-owning, index-remapped restriction of a System to a UseCase —
/// the one input of every one-shot analysis.
///
/// Holds only the parent pointer plus remap tables; see the header comment
/// above for id conventions and the lifetime contract (the parent System
/// must outlive the view and must not be structurally modified while views
/// over it are in use).
///
/// Thread-safety: a view is immutable after construction; concurrent reads
/// through distinct or shared views are safe as long as the parent System
/// is not mutated.
class SystemView {
 public:
  /// Unbound view — only valid as a rebind() target (reusable scratch
  /// storage in session objects); every other member is undefined until the
  /// first rebind().
  SystemView() = default;

  /// Full view: every application of `sys`, identity remap. Implicit, so a
  /// System passes wherever a view is expected; the view must not outlive
  /// `sys`.
  SystemView(const System& sys);  // NOLINT(google-explicit-constructor)

  /// Restriction to `use_case` (parent app ids; need not be sorted, must be
  /// in range — throws std::out_of_range otherwise). Entries are remapped
  /// to view ids 0..k-1 in use-case order; a repeated entry selects the
  /// application twice.
  SystemView(const System& sys, UseCase use_case);

  /// Re-points this view at (`sys`, `use_case`), reusing the remap tables'
  /// capacity — the steady-state alternative to constructing a fresh view
  /// per swept use-case (three vector allocations each). After rebinding,
  /// the view is indistinguishable from SystemView(sys, use_case); warm
  /// rebinds within previously-seen use-case sizes allocate nothing. The
  /// same lifetime rules apply to the new parent.
  void rebind(const System& sys, std::span<const sdf::AppId> use_case);

  /// The borrowed parent System.
  [[nodiscard]] const System& parent() const noexcept { return *sys_; }
  /// View app id -> parent app id table (the use-case, verbatim).
  [[nodiscard]] std::span<const sdf::AppId> use_case() const noexcept { return uc_; }

  /// Number of selected applications.
  [[nodiscard]] std::size_t app_count() const noexcept { return uc_.size(); }
  /// Parent application id of view application `view_app`.
  [[nodiscard]] sdf::AppId parent_app(sdf::AppId view_app) const { return uc_.at(view_app); }
  /// Graph of view application `view_app` (read through the parent).
  [[nodiscard]] const sdf::Graph& app(sdf::AppId view_app) const {
    return sys_->app(uc_.at(view_app));
  }
  /// The parent's platform (restriction never changes the platform).
  [[nodiscard]] const Platform& platform() const noexcept { return sys_->platform(); }
  /// Node of actor `actor` of view application `view_app`.
  [[nodiscard]] NodeId node_of(sdf::AppId view_app, sdf::ActorId actor) const {
    return sys_->mapping().node_of(uc_.at(view_app), actor);
  }

  // ---- flattened actor/channel id remap tables (view order) ---------------

  /// Total actors over the selected applications.
  [[nodiscard]] std::size_t actor_count() const noexcept { return actor_base_.back(); }
  /// Total channels over the selected applications.
  [[nodiscard]] std::size_t channel_count() const noexcept { return channel_base_.back(); }
  /// First flat actor id of view application `view_app` (actor_base(k) ==
  /// actor_count() for view_app == app_count()).
  [[nodiscard]] std::uint32_t actor_base(sdf::AppId view_app) const {
    return actor_base_.at(view_app);
  }
  /// First flat channel id of view application `view_app` (channel_base(k)
  /// == channel_count() for view_app == app_count()).
  [[nodiscard]] std::uint32_t channel_base(sdf::AppId view_app) const {
    return channel_base_.at(view_app);
  }
  /// View application owning flat actor id `flat` (binary search).
  [[nodiscard]] sdf::AppId app_of_actor(std::uint32_t flat) const;

  /// Zobrist fingerprint of the restriction, bitwise equal to
  /// materialise().fingerprint() — derived on demand from the parent's
  /// cached per-app components re-placed at view slots, in O(use-case
  /// size) instead of O(selected structure) and without allocating.
  /// Computed per call (not cached) so mapping rebinds on the parent
  /// (System::set_mapping), which are visible through the view by design,
  /// are reflected. Like the System fingerprint it is name-free, so
  /// structurally identical use-cases of different tenants fingerprint
  /// equal (the transposition-sharing hook).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Deep copy: a standalone System holding the selected applications
  /// (graphs in view order, mapping rows remapped) — the one copying
  /// restriction.
  [[nodiscard]] System materialise() const;

  /// Validation of the selected applications only: their mapping rows are
  /// complete and in range, and each selected app consistent &
  /// deadlock-free. Throws sdf::GraphError on violation. System::validate
  /// runs these rules on the whole system. Every one-shot analysis calls it
  /// first.
  void validate() const;

 private:
  const System* sys_ = nullptr;
  UseCase uc_;
  std::vector<std::uint32_t> actor_base_;    // size app_count()+1
  std::vector<std::uint32_t> channel_base_;  // size app_count()+1
};

}  // namespace procon::platform
