#include "platform/system.h"

#include <stdexcept>

#include "platform/system_view.h"
#include "sdf/zobrist.h"

namespace procon::platform {

namespace {
using sdf::ZobristHash;

std::uint64_t node_component(const Platform& p) noexcept {
  std::uint64_t comp = 0;
  for (NodeId n = 0; n < p.node_count(); ++n) {
    comp ^= ZobristHash::node_feature(n, p.node(n).type);
  }
  return comp;
}
}  // namespace

System::System() : System({}, Platform{}, Mapping{}) {}

// The constructor is the from-scratch fingerprint computation — the oracle
// every incremental update (set_mapping/append_app/pop_app) is tested
// against. Mapping maintains its own fingerprint, so only the platform and
// per-app graph components are hashed here.
System::System(std::vector<sdf::Graph> apps, Platform platform, Mapping mapping)
    : apps_(std::move(apps)), platform_(std::move(platform)), mapping_(std::move(mapping)) {
  platform_placed_ =
      ZobristHash::place(ZobristHash::kPlatformTag, 0, node_component(platform_));
  app_comp_.reserve(apps_.size());
  for (sdf::AppId i = 0; i < apps_.size(); ++i) {
    app_comp_.push_back(ZobristHash::graph_component(apps_[i]));
    apps_fp_ ^= ZobristHash::place(ZobristHash::kAppTag, i, app_comp_.back());
  }
}

void System::check_mapping(const Mapping& mapping) const {
  if (mapping.app_count() != apps_.size()) {
    throw sdf::GraphError("System: mapping/application count mismatch");
  }
  for (sdf::AppId id = 0; id < apps_.size(); ++id) {
    for (sdf::ActorId a = 0; a < apps_[id].actor_count(); ++a) {
      if (mapping.node_of(id, a) >= platform_.node_count()) {
        throw sdf::GraphError("System: actor mapped to nonexistent node");
      }
    }
  }
}

void System::set_mapping(Mapping&& mapping) {
  check_mapping(mapping);
  // The incoming Mapping carries its own live fingerprint, so the system
  // fingerprint (which XORs it in on read) needs no extra work here.
  mapping_ = std::move(mapping);
}

void System::set_mapping(const Mapping& mapping) {
  check_mapping(mapping);
  // Copy-assign in place: same-shape rows reuse the resident rows' heap
  // storage, keeping warm explorer rebinds allocation-free.
  mapping_ = mapping;
}

const sdf::Graph& System::app(sdf::AppId id) const {
  if (id >= apps_.size()) throw std::out_of_range("System::app: invalid id");
  return apps_[id];
}

void System::append_app(sdf::Graph app, std::span<const NodeId> nodes) {
  if (nodes.size() != app.actor_count()) {
    throw sdf::GraphError("System::append_app: mapping size mismatch");
  }
  apps_.push_back(std::move(app));
  mapping_.push_app(nodes);
  // O(new app) fingerprint delta: hash only the appended graph.
  app_comp_.push_back(ZobristHash::graph_component(apps_.back()));
  apps_fp_ ^= ZobristHash::place(ZobristHash::kAppTag, apps_.size() - 1,
                                 app_comp_.back());
}

void System::pop_app() {
  if (apps_.empty()) throw std::out_of_range("System::pop_app: no applications");
  apps_fp_ ^= ZobristHash::place(ZobristHash::kAppTag, apps_.size() - 1,
                                 app_comp_.back());
  apps_.pop_back();
  app_comp_.pop_back();
  mapping_.pop_app();
}

UseCase System::full_use_case() const {
  UseCase uc(apps_.size());
  for (sdf::AppId i = 0; i < apps_.size(); ++i) uc[i] = i;
  return uc;
}

void System::validate() const {
  if (!mapping_.is_complete()) {
    throw sdf::GraphError("System: mapping is incomplete");
  }
  // One set of rules: the whole-system view checks the rest.
  SystemView(*this).validate();
}

}  // namespace procon::platform
