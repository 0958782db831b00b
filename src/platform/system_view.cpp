#include "platform/system_view.h"

#include <algorithm>
#include <stdexcept>

#include "sdf/algorithms.h"
#include "sdf/zobrist.h"
#include "util/contracts.h"

namespace procon::platform {

namespace {

UseCase identity_use_case(const System& sys) {
  UseCase uc(sys.app_count());
  for (sdf::AppId i = 0; i < uc.size(); ++i) uc[i] = i;
  return uc;
}

}  // namespace

SystemView::SystemView(const System& sys) : SystemView(sys, identity_use_case(sys)) {}

SystemView::SystemView(const System& sys, UseCase use_case)
    : sys_(&sys), uc_(std::move(use_case)) {
  rebind(sys, uc_);
}

PROCON_WARM_PATH void SystemView::rebind(const System& sys,
                                         std::span<const sdf::AppId> use_case) {
  PROCON_ASSERT_NO_ALLOC("SystemView::rebind");
  sys_ = &sys;
  // Self-assignment-safe: the constructor rebinds from its own uc_.
  if (use_case.data() != uc_.data() || use_case.size() != uc_.size()) {
    uc_.assign(use_case.begin(), use_case.end());
  }
  actor_base_.clear();
  channel_base_.clear();
  actor_base_.reserve(uc_.size() + 1);
  channel_base_.reserve(uc_.size() + 1);
  std::uint32_t actors = 0;
  std::uint32_t channels = 0;
  for (const sdf::AppId id : uc_) {
    const sdf::Graph& g = sys_->app(id);  // bounds-checked, throws out_of_range
    actor_base_.push_back(actors);
    channel_base_.push_back(channels);
    actors += static_cast<std::uint32_t>(g.actor_count());
    channels += static_cast<std::uint32_t>(g.channel_count());
  }
  actor_base_.push_back(actors);
  channel_base_.push_back(channels);
}

std::uint64_t SystemView::fingerprint() const {
  // Re-place the parent's cached slot-free components at view slots —
  // bitwise what materialise()'s System constructor would compute, at O(1)
  // per selected application and with no allocation. Reads the mapping row
  // components live, so parent set_mapping rebinds are reflected.
  std::uint64_t fp = sys_->platform_fingerprint();
  for (sdf::AppId view_app = 0; view_app < uc_.size(); ++view_app) {
    const sdf::AppId id = uc_[view_app];
    fp ^= sdf::ZobristHash::place(sdf::ZobristHash::kAppTag, view_app,
                                  sys_->app_component(id)) ^
          sdf::ZobristHash::place(sdf::ZobristHash::kMappingTag, view_app,
                                  sys_->mapping().row_component(id));
  }
  return fp;
}

sdf::AppId SystemView::app_of_actor(std::uint32_t flat) const {
  if (flat >= actor_count()) {
    throw std::out_of_range("SystemView::app_of_actor: flat id out of range");
  }
  const auto it =
      std::upper_bound(actor_base_.begin(), actor_base_.end(), flat);
  return static_cast<sdf::AppId>(it - actor_base_.begin() - 1);
}

System SystemView::materialise() const {
  std::vector<sdf::Graph> apps;
  apps.reserve(uc_.size());
  for (const sdf::AppId id : uc_) apps.push_back(sys_->app(id));
  Mapping m(apps);
  for (sdf::AppId newid = 0; newid < uc_.size(); ++newid) {
    for (sdf::ActorId a = 0; a < apps[newid].actor_count(); ++a) {
      m.assign(newid, a, sys_->mapping().node_of(uc_[newid], a));
    }
  }
  return System(std::move(apps), sys_->platform(), std::move(m));
}

void SystemView::validate() const {
  if (sys_->mapping().app_count() != sys_->app_count()) {
    throw sdf::GraphError("SystemView: mapping/application count mismatch");
  }
  for (sdf::AppId i = 0; i < uc_.size(); ++i) {
    const sdf::Graph& g = app(i);
    if (g.actor_count() == 0) {
      throw sdf::GraphError("SystemView: application '" + g.name() + "' is empty");
    }
    // One repetition vector per application serves both verdicts and the
    // size cap (sdf::kMaxRepetitionSum), which bounds the liveness walk.
    const sdf::DeadlockDiagnosis diag = sdf::diagnose_deadlock(g);
    if (!diag.consistent) {
      throw sdf::GraphError("SystemView: application '" + g.name() +
                            "' is inconsistent");
    }
    if (!diag.deadlock_free) {
      throw sdf::GraphError("SystemView: application '" + g.name() + "' deadlocks");
    }
    for (sdf::ActorId a = 0; a < g.actor_count(); ++a) {
      NodeId node;
      try {
        node = node_of(i, a);
      } catch (const std::out_of_range&) {
        // Mapping row shorter than the application: report it as an
        // invalid system, not as a raw index error.
        throw sdf::GraphError("SystemView: mapping is incomplete for application '" +
                              g.name() + "'");
      }
      if (node >= platform().node_count()) {
        throw sdf::GraphError("SystemView: actor mapped to nonexistent node");
      }
    }
  }
}

}  // namespace procon::platform
