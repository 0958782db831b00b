#include "sim/sim_engine.h"

#include <algorithm>
#include <stdexcept>

#include "sdf/repetition.h"
#include "util/contracts.h"

namespace procon::sim {

using platform::NodeId;
using sdf::ActorId;
using sdf::AppId;
using sdf::Time;

namespace {
constexpr std::uint32_t kNoActor = UINT32_MAX;
constexpr std::uint32_t kInactive = UINT32_MAX;
// Heap events with this bit set in Event::actor are link completions; the
// low bits index msg_pool_. Flat actor counts stay far below 2^31.
constexpr std::uint32_t kLinkFlag = 0x80000000u;
// Event cap when SimOptions::max_events is 0.
constexpr std::uint64_t kDefaultMaxEvents = 200'000'000ULL;
// Steady state: the first quarter of each application's iterations is
// warm-up, and a run is converged with at least four iterations after it.
constexpr double kWarmupFraction = 0.25;
constexpr std::uint64_t kMinIterations = 4;
}  // namespace

SimEngine::SimEngine(const platform::SystemView& view) {
  view.validate();
  build(view);
  reset();
}

void SimEngine::build(const platform::SystemView& view) {
  node_count_ = static_cast<std::uint32_t>(view.platform().node_count());

  // Flatten actors and channels over every selected application; adjacency
  // is gathered in per-actor buckets first, then packed into CSR arrays.
  std::vector<std::vector<std::uint32_t>> in_of;
  std::vector<std::vector<std::uint32_t>> out_of;
  std::vector<std::uint32_t> chan_src;  // flat channel -> producer flat actor
  std::uint32_t chan_base = 0;
  for (AppId i = 0; i < view.app_count(); ++i) {
    const sdf::Graph& g = view.app(i);
    app_actor_base_.push_back(actor_count_);
    const auto q = sdf::compute_repetition_vector(g);
    for (ActorId a = 0; a < g.actor_count(); ++a) {
      app_of_.push_back(i);
      local_of_.push_back(a);
      exec_.push_back(g.actor(a).exec_time);
      node_of_.push_back(view.node_of(i, a));
      reps_.push_back((*q)[a]);
      in_of.emplace_back();
      out_of.emplace_back();
      ++actor_count_;
    }
    for (sdf::ChannelId c = 0; c < g.channel_count(); ++c) {
      const sdf::Channel& ch = g.channel(c);
      const std::uint32_t cid = chan_base + c;
      init_tokens_.push_back(ch.initial_tokens);
      chan_cons_.push_back(ch.cons_rate);
      chan_prod_.push_back(ch.prod_rate);
      chan_dst_.push_back(app_actor_base_[i] + ch.dst);
      chan_src.push_back(app_actor_base_[i] + ch.src);
      in_of[app_actor_base_[i] + ch.dst].push_back(cid);
      out_of[app_actor_base_[i] + ch.src].push_back(cid);
    }
    chan_base += static_cast<std::uint32_t>(g.channel_count());
  }
  app_actor_base_.push_back(actor_count_);

  const auto pack = [this](const std::vector<std::vector<std::uint32_t>>& lists,
                           std::vector<std::uint32_t>& start,
                           std::vector<std::uint32_t>& flat) {
    start.assign(actor_count_ + 1, 0);
    std::uint32_t total = 0;
    for (std::uint32_t a = 0; a < actor_count_; ++a) {
      start[a] = total;
      total += static_cast<std::uint32_t>(lists[a].size());
    }
    start[actor_count_] = total;
    flat.reserve(total);
    for (const auto& l : lists) flat.insert(flat.end(), l.begin(), l.end());
  };
  pack(in_of, in_start_, in_list_);
  pack(out_of, out_start_, out_list_);

  // Bake interconnect routes: a pure function of (topology, mapping), so a
  // rebuilt engine reproduces them bit-identically. Per-hop service times
  // are precomputed for the channel's production burst.
  const platform::Topology& topo = view.platform().topology();
  link_count_ = static_cast<std::uint32_t>(topo.link_count());
  const std::size_t chan_count = init_tokens_.size();
  route_start_.assign(chan_count + 1, 0);
  for (std::size_t c = 0; c < chan_count; ++c) {
    route_start_[c] = static_cast<std::uint32_t>(route_links_.size());
    if (!topo.none() && node_of_[chan_src[c]] != node_of_[chan_dst_[c]]) {
      topo.route(node_of_[chan_src[c]], node_of_[chan_dst_[c]], route_links_);
    }
  }
  route_start_[chan_count] = static_cast<std::uint32_t>(route_links_.size());
  route_service_.reserve(route_links_.size());
  for (std::size_t c = 0; c < chan_count; ++c) {
    for (std::uint32_t k = route_start_[c]; k < route_start_[c + 1]; ++k) {
      route_service_.push_back(topo.service_time(route_links_[k], chan_prod_[c]));
    }
  }

  full_uc_.resize(app_count());
  for (AppId i = 0; i < full_uc_.size(); ++i) full_uc_[i] = i;

  // FCFS rings: one slot per actor mapped to the node, since an actor is
  // queued at most once.
  fcfs_start_.assign(node_count_ + 1, 0);
  for (std::uint32_t a = 0; a < actor_count_; ++a) ++fcfs_start_[node_of_[a] + 1];
  for (NodeId n = 0; n < node_count_; ++n) fcfs_start_[n + 1] += fcfs_start_[n];

  // Preallocate everything sized by static structure so resets never grow.
  tokens_.resize(init_tokens_.size());
  state_.resize(actor_count_);
  ready_time_.resize(actor_count_);
  dist_.resize(actor_count_);
  actor_stats_.resize(actor_count_);
  iter_left_.resize(actor_count_);
  iter_lead_.resize(actor_count_);
  app_lagging_.resize(view.app_count());
  active_index_.resize(view.app_count());
  iteration_times_.resize(view.app_count());
  view_apps_.reserve(view.app_count());
  node_util_.resize(node_count_);
  fcfs_ring_.resize(actor_count_);
  rings_.start.resize(node_count_ + 1);
  rings_.flat.resize(actor_count_);
  ring_cursor_.resize(node_count_);
  fcfs_head_.resize(node_count_);
  fcfs_len_.resize(node_count_);
  rr_next_.resize(node_count_);
  node_busy_.resize(node_count_);
  node_busy_time_.resize(node_count_);
  link_queue_.resize(link_count_);
  link_head_.resize(link_count_);
  link_busy_.resize(link_count_);
  link_busy_time_.resize(link_count_);
  link_util_.resize(link_count_);
  events_.reserve(actor_count_ + link_count_ + 16);

  // Snapshot buffers, at their largest: 3 words per node plus its ring,
  // 4 per actor plus its input tokens, and a count plus 2 words per pending
  // event (at most one per node, as a node runs one actor at a time).
  snap_.reserve(3 * node_count_ + actor_count_ + 4 * actor_count_ + chan_count + 1 +
                2 * node_count_);
  snap_stats_.resize(actor_count_);
  snap_busy_.resize(node_count_);
  snap_iters_.resize(view.app_count());
  pending_.reserve(events_.capacity());
}

PROCON_WARM_PATH void SimEngine::build_rings(const platform::UseCase& uc) {
  PROCON_ASSERT_NO_ALLOC("SimEngine::build_rings");
  // Rings in CSR form: members of a node's ring in use-case order then
  // local id, the exact push order a fresh build of the materialised
  // restriction would produce, so round-robin scans and TDMA wheels
  // tie-break identically. The buffers are sized at build time for the
  // full system, so rebuilding never allocates.
  std::fill(rings_.start.begin(), rings_.start.end(), std::uint32_t{0});
  for (const AppId app : uc) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      ++rings_.start[node_of_[a] + 1];
    }
  }
  for (NodeId n = 0; n < node_count_; ++n) rings_.start[n + 1] += rings_.start[n];
  std::copy(rings_.start.begin(), rings_.start.end() - 1, ring_cursor_.begin());
  for (const AppId app : uc) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      rings_.flat[ring_cursor_[node_of_[a]]++] = a;
    }
  }
}

PROCON_WARM_PATH void SimEngine::reset() {
  PROCON_ASSERT_NO_ALLOC("SimEngine::reset");
  armed_ = false;
  arm(full_uc_);
}

PROCON_WARM_PATH void SimEngine::reset(const platform::UseCase& uc) {
  PROCON_ASSERT_NO_ALLOC("SimEngine::reset");
  // Disarm first and validate the whole use-case before touching any
  // state: a rejected use-case leaves an engine that refuses to run.
  armed_ = false;
  for (std::size_t j = 0; j < uc.size(); ++j) {
    if (uc[j] >= app_count()) {
      throw sdf::GraphError("SimEngine::reset: use-case references unknown application");
    }
    for (std::size_t i = 0; i < j; ++i) {
      if (uc[i] == uc[j]) {
        throw sdf::GraphError("SimEngine::reset: duplicate application in use-case");
      }
    }
  }
  arm(uc);
}

void SimEngine::arm(const platform::UseCase& uc) {
  std::fill(active_index_.begin(), active_index_.end(), kInactive);
  for (std::uint32_t j = 0; j < uc.size(); ++j) active_index_[uc[j]] = j;
  active_ = uc;

  // Dynamic state back to time zero; capacities survive.
  std::copy(init_tokens_.begin(), init_tokens_.end(), tokens_.begin());
  std::fill(state_.begin(), state_.end(), ActorState::Idle);
  std::fill(ready_time_.begin(), ready_time_.end(), Time{0});
  std::fill(rr_next_.begin(), rr_next_.end(), std::size_t{0});
  std::fill(node_busy_.begin(), node_busy_.end(), std::uint8_t{0});
  std::fill(node_busy_time_.begin(), node_busy_time_.end(), Time{0});
  std::fill(actor_stats_.begin(), actor_stats_.end(), ActorStats{});
  std::copy(reps_.begin(), reps_.end(), iter_left_.begin());
  std::fill(iter_lead_.begin(), iter_lead_.end(), std::uint64_t{0});
  for (std::uint32_t j = 0; j < active_.size(); ++j) {
    app_lagging_[j] = app_actor_base_[active_[j] + 1] - app_actor_base_[active_[j]];
  }
  std::fill(fcfs_head_.begin(), fcfs_head_.end(), std::uint32_t{0});
  std::fill(fcfs_len_.begin(), fcfs_len_.end(), std::uint32_t{0});
  for (auto& q : link_queue_) q.clear();
  std::fill(link_head_.begin(), link_head_.end(), std::size_t{0});
  std::fill(link_busy_.begin(), link_busy_.end(), std::uint8_t{0});
  std::fill(link_busy_time_.begin(), link_busy_time_.end(), Time{0});
  msg_pool_.clear();
  msg_free_.clear();
  events_.clear();
  next_seq_ = 0;
  root_spent_ = false;
  trace_.clear();
  // The iteration-time arena keeps every per-slot buffer (and its capacity)
  // alive across resets; only the first active-count slots are used.
  for (std::uint32_t j = 0; j < active_.size(); ++j) iteration_times_[j].clear();

  // Arbitration rings: a pure function of the use-case, rebuilt in place.
  build_rings(active_);
  armed_ = true;
}

void SimEngine::bind_options(const SimOptions& opts) {
  std::fill(dist_.begin(), dist_.end(), nullptr);
  if (!opts.exec_models.empty()) {
    if (opts.exec_models.size() != active_.size()) {
      throw sdf::GraphError("simulate: execution-time model count mismatch");
    }
    for (std::uint32_t j = 0; j < active_.size(); ++j) {
      const sdf::ExecTimeModel& model = opts.exec_models[j];
      const AppId app = active_[j];
      const std::uint32_t base = app_actor_base_[app];
      if (model.size() != app_actor_base_[app + 1] - base) {
        throw sdf::GraphError("simulate: execution-time model size mismatch");
      }
      for (std::uint32_t a = base; a < app_actor_base_[app + 1]; ++a) {
        dist_[a] = &model[a - base];
      }
    }
  }
  max_exec_ = 0;
  for (const AppId app : active_) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      max_exec_ = std::max(max_exec_, exec_[a]);
    }
  }
  sample_rng_ = util::Rng(opts.sample_seed);
}

SimResult SimEngine::run(const SimOptions& opts) {
  // Deep-copying shim: identical numbers, owning storage.
  return run_view(opts).materialise();
}

PROCON_WARM_PATH SimResultView SimEngine::run_view(const SimOptions& opts) {
  PROCON_ASSERT_NO_ALLOC("SimEngine::run_view");
  if (opts.horizon <= 0) {
    throw std::invalid_argument("simulate: horizon must be > 0");
  }
  if (!armed_) {
    throw sdf::GraphError("SimEngine::run: reset() required between runs");
  }
  // Copy only the scalar option fields; the stochastic models are bound by
  // pointer (dist_) from the caller's options, which outlive this
  // synchronous run — no per-run deep copy of the model tables.
  opts_.horizon = opts.horizon;
  opts_.arbitration = opts.arbitration;
  opts_.max_events = opts.max_events;
  opts_.sample_seed = opts.sample_seed;
  opts_.collect_trace = opts.collect_trace;
  bind_options(opts);
  if (!firings_end_in_range()) {
    throw std::invalid_argument(
        "simulate: horizon plus the longest firing overflows sdf::Time");
  }
  armed_ = false;  // dynamic state is about to be spent

  // Fast-forward eligibility (sim_engine.h): fixed times, no TDMA, no
  // trace, no routed channels.
  ff_events_ = 0;
  seeking_ = opts.exec_models.empty() && opts_.arbitration != Arbitration::Tdma &&
             !opts_.collect_trace && route_links_.empty();
  period_mark_ = false;
  snap_.clear();
  snap_power_ = 1;

  // Seed: everything that can fire at t = 0 requests its node, in the same
  // order a fresh restricted build would (use-case order, then local id).
  for (const AppId app : active_) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      try_enqueue(a, 0);
    }
  }
  for (NodeId n = 0; n < node_count_; ++n) try_dispatch(n, 0);

  const std::uint64_t max_events =
      opts_.max_events ? opts_.max_events : kDefaultMaxEvents;
  std::uint64_t processed = 0;
  while (!events_.empty() && processed < max_events) {
    // The handled event stays at the root until its first successor
    // replaces it (push_event); it is popped only if it scheduled none.
    const Event ev = events_.front();
    if (ev.time > opts_.horizon) break;
    root_spent_ = true;
    ++processed;
    if (ev.actor & kLinkFlag) {
      on_link_completion(ev.actor & ~kLinkFlag, ev.time);
    } else {
      on_completion(ev.actor, ev.time);
    }
    if (root_spent_) {
      std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
      events_.pop_back();
      root_spent_ = false;
    }
    if (period_mark_) {
      period_mark_ = false;
      processed = seek_period(ev.time, processed, max_events);
    }
  }
  return finalise_view(processed);
}

bool SimEngine::firings_end_in_range() const {
  const bool tdma = opts_.arbitration == Arbitration::Tdma;
  for (NodeId n = 0; n < node_count_; ++n) {
    const std::span<const std::uint32_t> wheel = ring(n);
    Time wheel_period = 0;
    if (tdma) {
      for (const std::uint32_t a : wheel) {
        if (__builtin_add_overflow(wheel_period, slot_len(a), &wheel_period)) return false;
      }
    }
    for (const std::uint32_t a : wheel) {
      // The longest draw: the fixed time, or the largest outcome (outcomes
      // are ascending).
      Time reach = dist_[a] != nullptr ? dist_[a]->outcomes().back().value : exec_[a];
      // TDMA: the first serving slot begins within a turn of the ready
      // time, and at most ceil(reach / slot) + 1 slots serve the firing
      // (the first may be partial), so it ends within reach / slot + 3
      // turns.
      Time turns = 0;
      if (tdma && (__builtin_add_overflow(reach / slot_len(a), 3, &turns) ||
                   __builtin_mul_overflow(turns, wheel_period, &reach))) {
        return false;
      }
      if (reach > sdf::kTimeInfinity - opts_.horizon) return false;
    }
  }
  return true;
}

Time SimEngine::draw_exec(std::uint32_t a) {
  return dist_[a] != nullptr ? dist_[a]->sample(sample_rng_) : exec_[a];
}

bool SimEngine::inputs_available(std::uint32_t a) const {
  for (std::uint32_t k = in_start_[a]; k < in_start_[a + 1]; ++k) {
    const std::uint32_t c = in_list_[k];
    if (tokens_[c] < chan_cons_[c]) return false;
  }
  return true;
}

void SimEngine::consume_inputs(std::uint32_t a) {
  for (std::uint32_t k = in_start_[a]; k < in_start_[a + 1]; ++k) {
    const std::uint32_t c = in_list_[k];
    tokens_[c] -= chan_cons_[c];
  }
}

void SimEngine::push_event(Time t, std::uint32_t id) {
  const Event ev{t, next_seq_++, id};
  if (!root_spent_) {
    events_.push_back(ev);
    std::push_heap(events_.begin(), events_.end(), std::greater<>{});
    return;
  }
  // Replace the spent root: sift the new event down from the top.
  root_spent_ = false;
  const std::size_t n = events_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && events_[child] > events_[child + 1]) ++child;
    if (!(ev > events_[child])) break;
    events_[hole] = events_[child];
    hole = child;
  }
  events_[hole] = ev;
}

std::pair<Time, Time> SimEngine::tdma_completion(std::uint32_t a, Time t,
                                                 Time demand) const {
  const std::span<const std::uint32_t> wheel = ring(node_of_[a]);
  Time wheel_period = 0;
  Time offset = 0;
  for (const std::uint32_t member : wheel) {
    if (member == a) offset = wheel_period;
    wheel_period += slot_len(member);
  }
  const Time s = slot_len(a);
  Time remaining = demand;
  // First wheel turn whose slot has not entirely passed.
  Time m = (t - offset) / wheel_period;
  if (t > m * wheel_period + offset + s) ++m;
  if (m < 0) m = 0;
  Time start = -1;
  Time now = t;
  while (remaining > 0) {
    const Time slot_begin = m * wheel_period + offset;
    const Time slot_end = slot_begin + s;
    const Time from = std::max(now, slot_begin);
    if (from < slot_end) {
      if (start < 0) start = from;
      const Time avail = slot_end - from;
      if (remaining <= avail) return {start, from + remaining};
      remaining -= avail;
      now = slot_end;
    }
    ++m;
  }
  return {start < 0 ? t : start, t};  // zero execution time: instant
}

void SimEngine::try_enqueue(std::uint32_t a, Time t) {
  if (state_[a] != ActorState::Idle || !inputs_available(a)) return;
  ready_time_[a] = t;
  if (opts_.arbitration == Arbitration::Tdma) {
    // TDMA is contention-free per construction: service time computable
    // in closed form, no queueing against other actors.
    consume_inputs(a);
    state_[a] = ActorState::Running;
    const Time demand = draw_exec(a);
    const auto [start, done] = tdma_completion(a, t, demand);
    if (opts_.collect_trace) {
      trace_.push_back(TraceEvent{start, done, active_index_[app_of_[a]],
                                  local_of_[a], node_of_[a]});
    }
    actor_stats_[a].total_waiting += start - t;
    actor_stats_[a].total_service += demand;
    // Busy accounting: exec units actually served, clipped at the horizon.
    node_busy_time_[node_of_[a]] +=
        std::min<Time>(demand, std::max<Time>(0, opts_.horizon - start));
    push_event(done, a);
    return;
  }
  state_[a] = ActorState::Queued;
  if (opts_.arbitration == Arbitration::Fcfs) {
    const NodeId n = node_of_[a];
    const std::uint32_t cap = fcfs_start_[n + 1] - fcfs_start_[n];
    std::uint32_t pos = fcfs_head_[n] + fcfs_len_[n]++;
    if (pos >= cap) pos -= cap;
    fcfs_ring_[fcfs_start_[n] + pos] = a;
  }
}

std::uint32_t SimEngine::pick_next(NodeId node) {
  if (opts_.arbitration == Arbitration::Fcfs) {
    if (fcfs_len_[node] == 0) return kNoActor;
    std::uint32_t& head = fcfs_head_[node];
    const std::uint32_t a = fcfs_ring_[fcfs_start_[node] + head];
    if (++head == fcfs_start_[node + 1] - fcfs_start_[node]) head = 0;
    --fcfs_len_[node];
    return a;
  }
  // Round-robin: scan the ring from the cursor for a queued actor.
  const std::span<const std::uint32_t> wheel = ring(node);
  std::size_t pos = rr_next_[node];
  for (std::size_t k = 0; k < wheel.size(); ++k) {
    if (state_[wheel[pos]] == ActorState::Queued) {
      rr_next_[node] = pos + 1 == wheel.size() ? 0 : pos + 1;
      return wheel[pos];
    }
    if (++pos == wheel.size()) pos = 0;
  }
  return kNoActor;
}

void SimEngine::try_dispatch(NodeId node, Time t) {
  if (opts_.arbitration == Arbitration::Tdma) return;  // nothing to do
  if (node_busy_[node]) return;
  const std::uint32_t a = pick_next(node);
  if (a == kNoActor) return;
  consume_inputs(a);
  state_[a] = ActorState::Running;
  node_busy_[node] = 1;
  const Time demand = draw_exec(a);
  if (opts_.collect_trace) {
    trace_.push_back(TraceEvent{t, t + demand, active_index_[app_of_[a]],
                                local_of_[a], node});
  }
  actor_stats_[a].total_waiting += t - ready_time_[a];
  actor_stats_[a].total_service += demand;
  node_busy_time_[node] +=
      std::min(t + demand, opts_.horizon) - std::min(t, opts_.horizon);
  push_event(t + demand, a);
}

void SimEngine::on_completion(std::uint32_t a, Time t) {
  // Produce outputs: instantly on unrouted channels, as an interconnect
  // message on routed ones (tokens arrive when the last hop completes).
  for (std::uint32_t k = out_start_[a]; k < out_start_[a + 1]; ++k) {
    const std::uint32_t c = out_list_[k];
    if (route_start_[c] == route_start_[c + 1]) {
      tokens_[c] += chan_prod_[c];
    } else {
      send_message(c, t);
    }
  }
  state_[a] = ActorState::Idle;
  ++actor_stats_[a].firings;
  if (--iter_left_[a] == 0) {
    iter_left_[a] = reps_[a];
    const std::uint32_t j = active_index_[app_of_[a]];
    if (iter_lead_[a]++ == 0 && --app_lagging_[j] == 0) complete_iteration(j, t);
  }

  if (opts_.arbitration != Arbitration::Tdma) node_busy_[node_of_[a]] = 0;

  // The finished actor may immediately be ready again, then every
  // consumer of the produced tokens.
  try_enqueue(a, t);
  for (std::uint32_t k = out_start_[a]; k < out_start_[a + 1]; ++k) {
    try_enqueue(chan_dst_[out_list_[k]], t);
  }

  // Serve the node this actor released, and the nodes of any consumers
  // that just became ready.
  try_dispatch(node_of_[a], t);
  for (std::uint32_t k = out_start_[a]; k < out_start_[a + 1]; ++k) {
    try_dispatch(node_of_[chan_dst_[out_list_[k]]], t);
  }
}

void SimEngine::send_message(std::uint32_t chan, Time t) {
  std::uint32_t m;
  if (!msg_free_.empty()) {
    m = msg_free_.back();
    msg_free_.pop_back();
    msg_pool_[m] = Msg{chan, 0};
  } else {
    m = static_cast<std::uint32_t>(msg_pool_.size());
    msg_pool_.push_back(Msg{chan, 0});
  }
  link_queue_[route_links_[route_start_[chan]]].push_back(m);
  try_dispatch_link(route_links_[route_start_[chan]], t);
}

void SimEngine::try_dispatch_link(platform::LinkId link, Time t) {
  if (link_busy_[link]) return;
  auto& q = link_queue_[link];
  std::size_t& head = link_head_[link];
  if (head == q.size()) return;
  const std::uint32_t m = q[head++];
  // Amortised compaction keeps the served prefix from growing without
  // bound on long runs while staying O(1) per pop.
  if (head >= 4096 && head * 2 >= q.size()) {
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  link_busy_[link] = 1;
  const Msg& msg = msg_pool_[m];
  const Time service = route_service_[route_start_[msg.chan] + msg.hop];
  link_busy_time_[link] +=
      std::min(t + service, opts_.horizon) - std::min(t, opts_.horizon);
  push_event(t + service, kLinkFlag | m);
}

void SimEngine::on_link_completion(std::uint32_t m, Time t) {
  const Msg msg = msg_pool_[m];
  const platform::LinkId link = route_links_[route_start_[msg.chan] + msg.hop];
  link_busy_[link] = 0;
  const std::uint32_t next_hop = msg.hop + 1;
  if (route_start_[msg.chan] + next_hop == route_start_[msg.chan + 1]) {
    // Final hop: the tokens arrive at the consumer.
    tokens_[msg.chan] += chan_prod_[msg.chan];
    msg_free_.push_back(m);
    const std::uint32_t dst = chan_dst_[msg.chan];
    try_enqueue(dst, t);
    try_dispatch_link(link, t);
    try_dispatch(node_of_[dst], t);
  } else {
    // Forward to the next hop, then backfill the link just released.
    msg_pool_[m].hop = next_hop;
    link_queue_[route_links_[route_start_[msg.chan] + next_hop]].push_back(m);
    try_dispatch_link(route_links_[route_start_[msg.chan] + next_hop], t);
    try_dispatch_link(link, t);
  }
}

void SimEngine::complete_iteration(std::uint32_t active_app, Time t) {
  // Every actor of the application is now at least one iteration ahead of
  // the old count: record the iteration, lower every lead by one and
  // recount the actors left at lead 0 (at least the one that just fired
  // its q(a)-th firing).
  iteration_times_[active_app].push_back(t);
  const AppId app = active_[active_app];
  std::uint32_t lagging = 0;
  for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
    lagging += --iter_lead_[a] == 0 ? 1u : 0u;
  }
  app_lagging_[active_app] = lagging;
  if (active_app == 0 && seeking_) period_mark_ = true;
}

std::uint64_t SimEngine::seek_period(Time t, std::uint64_t processed,
                                     std::uint64_t max_events) {
  // Brent's cycle detection over the states at the first application's
  // iteration completions: compare with the saved snapshot every step,
  // replace it when the step count reaches the next power of two.
  if (!snap_.empty()) {
    ++snap_steps_;
    std::size_t pos = 0;
    const bool match = encode_state(t, [&](std::uint64_t v) {
      return pos < snap_.size() && snap_[pos++] == v;
    }) && pos == snap_.size();
    if (match) {
      // At most one jump per run: afterwards less than a period fits.
      seeking_ = false;
      return fast_forward(t, processed, max_events);
    }
    if (snap_steps_ < snap_power_) return processed;
    snap_power_ *= 2;
  }
  save_state(t, processed);
  return processed;
}

template <class Sink>
bool SimEngine::encode_state(Time t, Sink&& sink) {
  // Cheap, fast-changing fields first so a mismatch exits early; the
  // pending events are sorted only once everything else has matched.
  for (NodeId n = 0; n < node_count_; ++n) {
    if (!sink(node_busy_[n]) || !sink(rr_next_[n]) || !sink(fcfs_len_[n])) return false;
    const std::uint32_t cap = fcfs_start_[n + 1] - fcfs_start_[n];
    std::uint32_t pos = fcfs_head_[n];
    for (std::uint32_t i = 0; i < fcfs_len_[n]; ++i) {
      if (!sink(fcfs_ring_[fcfs_start_[n] + pos])) return false;
      if (++pos == cap) pos = 0;
    }
  }
  for (const AppId app : active_) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      const bool queued = state_[a] == ActorState::Queued;
      if (!sink(static_cast<std::uint64_t>(state_[a])) || !sink(iter_left_[a]) ||
          !sink(iter_lead_[a]) ||
          !sink(static_cast<std::uint64_t>(queued ? t - ready_time_[a] : 0))) {
        return false;
      }
      for (std::uint32_t k = in_start_[a]; k < in_start_[a + 1]; ++k) {
        if (!sink(tokens_[in_list_[k]])) return false;
      }
    }
  }
  pending_.assign(events_.begin(), events_.end());
  std::sort(pending_.begin(), pending_.end(),
            [](const Event& x, const Event& y) { return y > x; });
  if (!sink(pending_.size())) return false;
  for (const Event& ev : pending_) {
    if (!sink(static_cast<std::uint64_t>(ev.time - t)) || !sink(ev.actor)) return false;
  }
  return true;
}

void SimEngine::save_state(Time t, std::uint64_t processed) {
  snap_.clear();
  (void)encode_state(t, [this](std::uint64_t v) {
    snap_.push_back(v);  // within the capacity reserved at build
    return true;
  });
  snap_steps_ = 0;
  snap_time_ = t;
  snap_processed_ = processed;
  for (const AppId app : active_) {
    std::copy(actor_stats_.begin() + app_actor_base_[app],
              actor_stats_.begin() + app_actor_base_[app + 1],
              snap_stats_.begin() + app_actor_base_[app]);
  }
  std::copy(node_busy_time_.begin(), node_busy_time_.end(), snap_busy_.begin());
  for (std::uint32_t j = 0; j < active_.size(); ++j) {
    snap_iters_[j] = iteration_times_[j].size();
  }
}

std::uint64_t SimEngine::fast_forward(Time t, std::uint64_t processed,
                                      std::uint64_t max_events) {
  // The live state equals the saved one: the run between them is a period
  // of P time units and E events. Skip the largest k whole periods whose
  // last one ends at least max_exec_ before the horizon (no busy-time
  // clipping inside it) and that keep the event count within max_events.
  const Time period = t - snap_time_;
  const std::uint64_t period_events = processed - snap_processed_;
  const Time room = opts_.horizon - max_exec_ - t;
  if (period <= 0 || room < period) return processed;
  const std::uint64_t k = std::min(static_cast<std::uint64_t>(room / period),
                                   (max_events - processed) / period_events);
  if (k == 0) return processed;

  const auto times = static_cast<Time>(k);
  const Time shift = times * period;
  for (Event& ev : events_) ev.time += shift;  // uniform shift keeps the heap
  for (const AppId app : active_) {
    for (std::uint32_t a = app_actor_base_[app]; a < app_actor_base_[app + 1]; ++a) {
      ready_time_[a] += shift;
      ActorStats& s = actor_stats_[a];
      const ActorStats& base = snap_stats_[a];
      s.firings += k * (s.firings - base.firings);
      s.total_waiting += times * (s.total_waiting - base.total_waiting);
      s.total_service += times * (s.total_service - base.total_service);
    }
  }
  for (NodeId n = 0; n < node_count_; ++n) {
    node_busy_time_[n] += times * (node_busy_time_[n] - snap_busy_[n]);
  }
  for (std::uint32_t j = 0; j < active_.size(); ++j) {
    std::vector<Time>& it = iteration_times_[j];
    const std::size_t first = snap_iters_[j];
    const std::size_t last = it.size();
    for (std::uint64_t m = 1; m <= k; ++m) {
      const Time offset = static_cast<Time>(m) * period;
      for (std::size_t i = first; i < last; ++i) it.push_back(it[i] + offset);
    }
  }
  ff_events_ = k * period_events;
  return processed + ff_events_;
}

SimResultView SimEngine::finalise_view(std::uint64_t processed) {
  view_apps_.clear();
  for (std::uint32_t j = 0; j < active_.size(); ++j) {
    AppSimView app;
    const PeriodStats stats =
        steady_state_metrics(iteration_times_[j], kWarmupFraction, kMinIterations);
    app.iterations = stats.iterations;
    app.converged = stats.converged;
    app.average_period = stats.average_period;
    app.worst_period = stats.worst_period;
    const std::uint32_t base = app_actor_base_[active_[j]];
    const std::uint32_t end = app_actor_base_[active_[j] + 1];
    app.actors = {actor_stats_.data() + base, end - base};
    app.iteration_times = {iteration_times_[j].data(), iteration_times_[j].size()};
    view_apps_.push_back(app);
  }
  for (NodeId n = 0; n < node_count_; ++n) {
    node_util_[n] =
        opts_.horizon > 0
            ? static_cast<double>(node_busy_time_[n]) / static_cast<double>(opts_.horizon)
            : 0.0;
  }
  for (std::uint32_t l = 0; l < link_count_; ++l) {
    link_util_[l] =
        opts_.horizon > 0
            ? static_cast<double>(link_busy_time_[l]) / static_cast<double>(opts_.horizon)
            : 0.0;
  }
  SimResultView result;
  result.apps = view_apps_;
  result.node_utilisation = node_util_;
  result.link_utilisation = link_util_;
  result.events_processed = processed;
  result.horizon = opts_.horizon;
  result.trace = trace_;
  return result;
}

SimResult simulate(const platform::SystemView& view, const SimOptions& opts) {
  if (opts.horizon <= 0) {
    throw std::invalid_argument("simulate: horizon must be > 0");
  }
  SimEngine engine(view);
  return engine.run(opts);
}

}  // namespace procon::sim
