#include "api/service.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "sdf/algorithms.h"

namespace procon::api {

namespace {

// Shard count of the service-wide transposition table: sessions executing
// on different pool workers rarely contend for one shard.
constexpr std::size_t kTranspositionShards = 16;

/// Exact structural equality of two systems (the fingerprint tie-breaker):
/// identical analysis inputs, hence identical results from a shared session.
bool systems_equal(const platform::System& a, const platform::System& b) noexcept {
  if (a.app_count() != b.app_count() ||
      a.platform().node_count() != b.platform().node_count()) {
    return false;
  }
  for (platform::NodeId n = 0; n < a.platform().node_count(); ++n) {
    if (a.platform().node(n).type != b.platform().node(n).type) return false;
  }
  for (sdf::AppId i = 0; i < a.app_count(); ++i) {
    if (!sdf::graphs_equal(a.app(i), b.app(i))) return false;
    for (sdf::ActorId act = 0; act < a.app(i).actor_count(); ++act) {
      if (a.mapping().node_of(i, act) != b.mapping().node_of(i, act)) return false;
    }
  }
  return true;
}

void append_u64(std::string& key, std::uint64_t v) {
  key.push_back('#');
  key.append(std::to_string(v));
}

/// 128-bit content hash accumulator for coalescing keys of payloads too
/// large to spell out (stochastic exec-time models). Two independently
/// seeded splitmix64 chains, same collision standard as the transposition
/// table's primary+verify pair: a wrong coalesce requires a simultaneous
/// 128-bit collision.
struct ContentHash {
  std::uint64_t a = 0x9E3779B97F4A7C15ull;
  std::uint64_t b = 0xD1B54A32D192ED03ull;

  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  void absorb(std::uint64_t v) noexcept {
    a = mix(a ^ v);
    b = mix(b + (v ^ 0xA5A5A5A5A5A5A5A5ull));
  }
  void absorb_double(double v) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    absorb(bits);
  }
};

/// Every EstimatorOptions field, for the Contention and TopologySweep keys.
void append_estimator(std::string& key, const prob::EstimatorOptions& e) {
  append_u64(key, static_cast<std::uint64_t>(e.method));
  append_u64(key, static_cast<std::uint64_t>(e.order));
  append_u64(key, static_cast<std::uint64_t>(e.iterations));
  append_u64(key, e.mc_trials);
}

/// Every SimOptions field, for the Simulate and TopologySweep keys.
/// Stochastic execution-time models are too large to spell into the key;
/// their full content (outcome values + weights bitwise) goes into a 128-bit
/// hash instead. Simulation is deterministic given sample_seed, so
/// content-equal models coalescing is exact up to a 128-bit collision — the
/// transposition table's standard.
void append_sim(std::string& key, const sim::SimOptions& s) {
  if (!s.exec_models.empty()) {
    ContentHash h;
    h.absorb(s.exec_models.size());
    for (const sdf::ExecTimeModel& m : s.exec_models) {
      h.absorb(m.size());
      for (const sdf::ExecTimeDistribution& dist : m) {
        h.absorb(dist.outcomes().size());
        for (const auto& o : dist.outcomes()) {
          h.absorb(static_cast<std::uint64_t>(o.value));
          h.absorb_double(o.weight);
        }
      }
    }
    append_u64(key, h.a);
    append_u64(key, h.b);
  }
  append_u64(key, static_cast<std::uint64_t>(s.horizon));
  append_u64(key, static_cast<std::uint64_t>(s.arbitration));
  append_u64(key, s.max_events);
  append_u64(key, s.sample_seed);
  append_u64(key, s.collect_trace ? 1 : 0);
}

}  // namespace

TicketStatus QueryTicket::status() const {
  detail::TicketShared& s = shared();
  std::lock_guard<std::mutex> lock(s.m);
  return s.status;
}

void QueryTicket::wait() const {
  detail::TicketShared& s = shared();
  std::unique_lock<std::mutex> lock(s.m);
  s.cv.wait(lock, [&] { return s.status == TicketStatus::Done ||
                               s.status == TicketStatus::Failed; });
}

std::shared_ptr<const QueryValue> QueryTicket::share() const {
  wait();
  detail::TicketShared& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  if (s.status == TicketStatus::Failed) std::rethrow_exception(s.error);
  return s.value;
}

// The state (held by this ticket) keeps the value alive after the returned
// handle is dropped.
const QueryValue& QueryTicket::get() const& { return *share(); }

QueryValue QueryTicket::get() && { return *share(); }

detail::TicketShared& QueryTicket::shared() const {
  if (!state_) throw std::logic_error("QueryTicket: empty (default-constructed?)");
  return *state_;
}

AnalysisService::AnalysisService(const ServiceOptions& opts)
    : session_capacity_(std::max<std::size_t>(opts.session_capacity, 1)),
      table_(opts.transposition_capacity > 0
                 ? std::make_shared<analysis::TranspositionTable>(
                       opts.transposition_capacity, kTranspositionShards)
                 : nullptr),
      pool_(opts.threads) {}

AnalysisService::~AnalysisService() { drain(); }

void AnalysisService::drain() {
  std::unique_lock<std::mutex> lock(m_);
  idle_cv_.wait(lock, [&] {
    for (const auto& s : sessions_) {
      if (s->busy || !s->queue.empty()) return false;
    }
    return true;
  });
}

SystemId AnalysisService::register_system(platform::System sys) {
  sys.validate();  // fail at the door, not inside a worker
  // The Zobrist fingerprint is O(1) to read and name-free, so
  // renamed-but-identical tenants land on the same value. Collisions are
  // disambiguated by systems_equal, which compares names too — sharing
  // stays exact.
  const std::uint64_t fp = sys.fingerprint();
  std::lock_guard<std::mutex> lock(m_);
  const auto id = static_cast<SystemId>(registrations_.size());
  SystemId structure = id;
  for (SystemId r = 0; r < id; ++r) {
    const platform::System& earlier = registrations_[r].system;
    if (earlier.fingerprint() == fp && systems_equal(earlier, sys)) {
      structure = r;
      break;
    }
  }
  registrations_.push_back(Registration{std::move(sys), structure});
  return id;
}

std::size_t AnalysisService::session_count() const {
  std::lock_guard<std::mutex> lock(m_);
  return sessions_.size();
}

ServiceStats AnalysisService::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

analysis::TranspositionTable::Stats AnalysisService::transposition_stats() const {
  // No service lock: the table aggregates under its own shard mutexes and
  // the shared_ptr member is immutable after construction.
  return table_ ? table_->stats() : analysis::TranspositionTable::Stats{};
}

AnalysisService::Session& AnalysisService::session_for(const Registration& reg) {
  for (auto& s : sessions_) {
    if (s->structure == reg.structure) {
      s->last_used = ++clock_;
      return *s;
    }
  }

  // Miss: evict idle least-recently-used sessions down to capacity. Busy
  // or queued sessions are never evicted (their addresses are live in
  // drainers); if everything is busy the store temporarily overflows and
  // is trimmed by a later miss.
  while (sessions_.size() >= session_capacity_) {
    std::size_t victim = sessions_.size();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const Session& s = *sessions_[i];
      if (s.busy || !s.queue.empty()) continue;
      if (victim == sessions_.size() ||
          s.last_used < sessions_[victim]->last_used) {
        victim = i;
      }
    }
    if (victim == sessions_.size()) break;  // everything busy: overflow
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++stats_.sessions_evicted;
  }

  // Cold build, under the lock. Rebuilds after eviction are identical by
  // construction: a Workbench is a pure function of its System, and
  // queries never depend on session history.
  auto session = std::make_unique<Session>();
  session->structure = reg.structure;
  session->bench = std::make_unique<Workbench>(
      reg.system, WorkbenchOptions{.threads = 1, .table = table_});
  session->last_used = ++clock_;
  ++stats_.sessions_built;
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

std::string AnalysisService::coalesce_key(SystemId structure,
                                          const QueryDesc& d) {
  std::string key;
  key.reserve(64);
  append_u64(key, structure);
  append_u64(key, static_cast<std::uint64_t>(d.kind));
  switch (d.kind) {
    case QueryKind::Throughput:
    case QueryKind::Latency:
    case QueryKind::Bottleneck:
      append_u64(key, d.app);
      break;
    case QueryKind::BufferFrontier:
      append_u64(key, d.app);
      append_u64(key, d.buffers.max_steps);
      break;
    case QueryKind::Contention:
      for (const sdf::AppId a : d.use_case) append_u64(key, a);
      append_estimator(key, d.estimator);
      break;
    case QueryKind::Wcrt:
      for (const sdf::AppId a : d.use_case) append_u64(key, a);
      append_u64(key, static_cast<std::uint64_t>(d.wcrt.policy));
      append_u64(key, static_cast<std::uint64_t>(d.wcrt.tdma_slot));
      break;
    case QueryKind::Simulate:
      for (const sdf::AppId a : d.use_case) append_u64(key, a);
      append_sim(key, d.sim);
      break;
    case QueryKind::TopologySweep: {
      // The candidate list is arbitrarily long; absorb it into a 128-bit
      // content hash like the exec-time models. Link endpoints are
      // canonical from (kind, dims), so only the mutable attributes
      // (widths, latencies) need hashing beyond the shape.
      ContentHash h;
      h.absorb(d.topologies.size());
      for (const platform::Topology& t : d.topologies) {
        h.absorb(static_cast<std::uint64_t>(t.kind()));
        h.absorb(t.node_count());
        h.absorb(t.rows());
        h.absorb(t.cols());
        for (std::size_t l = 0; l < t.link_count(); ++l) {
          const platform::Link& lk = t.link(static_cast<platform::LinkId>(l));
          h.absorb(lk.width);
          h.absorb(static_cast<std::uint64_t>(lk.latency));
        }
      }
      append_u64(key, h.a);
      append_u64(key, h.b);
      for (const sdf::AppId a : d.use_case) append_u64(key, a);
      append_estimator(key, d.estimator);
      append_sim(key, d.sim);
      break;
    }
  }
  return key;
}

QueryValue AnalysisService::execute(Workbench& wb, const QueryDesc& d) {
  switch (d.kind) {
    case QueryKind::Throughput:
      return wb.throughput(d.app);
    case QueryKind::Latency:
      return wb.latency(d.app);
    case QueryKind::Bottleneck:
      return wb.bottleneck(d.app);
    case QueryKind::BufferFrontier:
      return wb.buffer_frontier(d.app, d.buffers);
    case QueryKind::Contention:
      return d.use_case.empty() ? wb.contention(d.estimator)
                                : wb.contention(d.use_case, d.estimator);
    case QueryKind::Wcrt:
      return d.use_case.empty() ? wb.wcrt(d.wcrt) : wb.wcrt(d.use_case, d.wcrt);
    case QueryKind::Simulate:
      return d.use_case.empty() ? wb.simulate(d.sim)
                                : wb.simulate(d.use_case, d.sim);
    case QueryKind::TopologySweep: {
      TopologySweepOptions topts;
      topts.estimator = d.estimator;
      topts.sim = d.sim;
      topts.use_case = d.use_case;
      return wb.sweep_topologies(d.topologies, topts);
    }
  }
  throw std::logic_error("AnalysisService: unhandled query kind");
}

QueryTicket AnalysisService::submit(SystemId id, QueryDesc desc) {
  std::shared_ptr<detail::TicketShared> state;
  Session* to_drain = nullptr;
  {
    std::lock_guard<std::mutex> lock(m_);
    const Registration& reg = registrations_.at(id);
    std::string key = coalesce_key(reg.structure, desc);
    if (const auto twin = inflight_.find(key); twin != inflight_.end()) {
      // A pending or running twin exists: attach instead of re-running.
      state = twin->second;
      ++stats_.coalesced;
    } else if (const auto hit = results_.find(key); hit != results_.end()) {
      // Coalescing-after-completion: a recently executed twin's result is
      // still in the arena — alias its slot in an already-Done ticket.
      // Bitwise-identical by the purity contract, zero copies.
      hit->second.epoch = result_epoch_;  // refresh: hot entries live on
      state = std::make_shared<detail::TicketShared>();
      state->status = TicketStatus::Done;
      state->value = hit->second.value;
      ++stats_.result_hits;
    } else {
      // Resolved before the twin is published: a build that throws leaves
      // nothing in flight that would never complete.
      Session& s = session_for(reg);
      state = std::make_shared<detail::TicketShared>();
      inflight_.emplace(key, state);
      s.queue.push_back(Job{state, std::move(desc), std::move(key)});
      to_drain = schedule(s);
    }
    ++stats_.submitted;
  }
  if (to_drain != nullptr) {
    pool_.post([this, to_drain] { drain_session(to_drain); });
  }
  return QueryTicket(std::move(state));
}

AnalysisService::Session* AnalysisService::schedule(Session& s) {
  // One drainer per session at a time serialises Workbench access; the
  // drainer re-checks the queue before exiting, so a job enqueued while it
  // winds down is never stranded. The session pointer is stable: it is
  // unique_ptr-owned and never evicted while busy.
  if (s.busy || s.queue.empty()) return nullptr;
  s.busy = true;
  return &s;
}

void AnalysisService::drain_session(Session* s) {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (s->queue.empty()) {
      s->busy = false;
      idle_cv_.notify_all();
      return;
    }
    Job job = std::move(s->queue.front());
    s->queue.pop_front();
    {
      std::lock_guard<std::mutex> slock(job.state->m);
      job.state->status = TicketStatus::Running;
    }

    // Execute without the service lock: other sessions proceed in
    // parallel; this session is protected by busy == true. The result
    // lands directly in its shared arena slot — every consumer (coalesced
    // tickets, share() holders, the result cache) aliases it, none copies.
    lock.unlock();
    std::shared_ptr<QueryValue> value;
    std::exception_ptr error;
    try {
      value = std::make_shared<QueryValue>(execute(*s->bench, job.desc));
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();

    ++stats_.executed;
    inflight_.erase(job.key);
    std::shared_ptr<const QueryValue> published = std::move(value);
    if (!error) store_result(job.key, published);
    {
      std::lock_guard<std::mutex> slock(job.state->m);
      job.state->status =
          error ? TicketStatus::Failed : TicketStatus::Done;
      job.state->error = error;
      job.state->value = std::move(published);
    }
    job.state->cv.notify_all();
  }
}

void AnalysisService::store_result(const std::string& key,
                                   std::shared_ptr<const QueryValue> value) {
  results_[key] = CachedResult{std::move(value), result_epoch_};
  // Epoch-based reclamation: every stride executions the epoch advances
  // and entries not hit for kResultCacheEpochs epochs are forgotten.
  // Holders of the value (tickets, share() handles) are unaffected — the
  // arena slot is a shared_ptr, reclamation only drops the cache's ref.
  if (++epoch_executed_ >= kResultCacheStride) {
    epoch_executed_ = 0;
    ++result_epoch_;
    if (result_epoch_ >= kResultCacheEpochs) {
      const std::uint64_t horizon = result_epoch_ - kResultCacheEpochs;
      for (auto it = results_.begin(); it != results_.end();) {
        it = it->second.epoch <= horizon ? results_.erase(it) : std::next(it);
      }
    }
  }
}

}  // namespace procon::api
