// procon::api::AnalysisService — the asynchronous, multi-tenant front door
// over Workbench sessions.
//
// A Workbench is deliberately a *single-client* object: one stateful
// session per System, queries strictly serialised, parallelism only inside
// a query. That is the right shape for one analyst and exactly the wrong
// shape for a server. The AnalysisService is the layer in between — the
// session-vs-service split: it owns
//
//   * a resident store of registered platform::Systems (tenants),
//   * a bounded, fingerprint-keyed LRU of live Workbench sessions (one per
//     distinct registered system *structure*; bitwise-identical
//     registrations share a session, eviction rebuilds on next touch —
//     the same eviction discipline as the admission controller's
//     candidate LRU),
//   * a shared util::ThreadPool whose work queue executes submitted
//     queries.
//
// The query surface is asynchronous:
//
//   * submit(SystemId, QueryDesc) returns a Ticket — a future-like handle
//     with wait()/try_get()/get()/cancel(). Queries on one session are
//     serialised (the Workbench contract); queries on different sessions
//     run concurrently on the pool workers.
//   * identical in-flight queries COALESCE: a submit that matches a
//     pending or running query attaches to its ticket state instead of
//     enqueueing a duplicate — thousands of clients asking the admission
//     question of the moment cost one evaluation.
//   * a recently completed query's result is cached: a matching submit
//     completes at once, aliasing the same immutable value. A use-case
//     sweep is one ticket per use-case (Contention / Wcrt / Simulate with a
//     use_case), each coalesced and result-cached like any other ticket.
//
// Determinism: a query executes as exactly one Workbench call on exactly
// one worker, and Workbench queries are pure functions of (system,
// options). Results are therefore bitwise identical to the equivalent
// serial Workbench call, for any client count, worker count, submission
// order or eviction history (asserted by tests/test_service.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "api/report.h"
#include "api/workbench.h"

namespace procon::api {

/// \brief Handle of a registered tenant system (dense, never reused).
using SystemId = std::uint32_t;

/// \brief Which Workbench query a ticket runs.
enum class QueryKind : std::uint8_t {
  Throughput,      ///< Workbench::throughput(app)
  Latency,         ///< Workbench::latency(app)
  Bottleneck,      ///< Workbench::bottleneck(app)
  BufferFrontier,  ///< Workbench::buffer_frontier(app, buffers)
  Contention,      ///< Workbench::contention([use_case,] estimator)
  Wcrt,            ///< Workbench::wcrt([use_case,] wcrt)
  Simulate,        ///< Workbench::simulate([use_case,] sim)
  TopologySweep,   ///< Workbench::sweep_topologies(topologies, ...)
};

/// \brief One submitted query: the kind plus every option the kind reads.
///
/// Fields irrelevant to `kind` are ignored (and excluded from the
/// coalescing key). An empty `use_case` means "all applications" for the
/// whole-system kinds.
struct QueryDesc {
  QueryKind kind = QueryKind::Throughput;  ///< which query to run
  /// Target application (Throughput / Latency / Bottleneck /
  /// BufferFrontier).
  sdf::AppId app = 0;
  /// Restriction for Contention / Wcrt / Simulate; empty = full system.
  platform::UseCase use_case;
  prob::EstimatorOptions estimator;  ///< Contention configuration
  wcrt::WcrtOptions wcrt;            ///< Wcrt configuration
  sim::SimOptions sim;               ///< Simulate configuration
  dse::BufferExplorerOptions buffers;  ///< BufferFrontier configuration
  /// Candidate interconnects for TopologySweep, evaluated in order (the
  /// sweep reads `estimator`, `sim` and `use_case` above for its options,
  /// and runs the routed simulation per candidate).
  std::vector<platform::Topology> topologies;
};

/// \brief Every result shape a ticket can carry, in QueryKind order.
using QueryValue = std::variant<Report<analysis::PeriodResult>,
                                Report<analysis::GraphLatencyResult>,
                                Report<analysis::BottleneckReport>,
                                Report<std::vector<dse::BufferPoint>>,
                                Report<std::vector<prob::AppEstimate>>,
                                Report<std::vector<wcrt::AppBound>>,
                                Report<sim::SimResult>,
                                Report<std::vector<TopologyResult>>>;

/// \brief Lifecycle of a ticket's underlying query.
enum class TicketStatus : std::uint8_t {
  Pending,    ///< queued, not yet picked up by a worker
  Running,    ///< executing on a worker
  Done,       ///< finished; the value is available
  Cancelled,  ///< abandoned before execution (every client cancelled)
  Failed,     ///< the query threw; get() rethrows the exception
};

namespace detail {

/// \brief Shared completion state behind one (possibly coalesced) query.
///
/// One instance per *executed* query; every coalesced Ticket holds a
/// reference. The result itself is a shared arena slot
/// (shared_ptr<const T>): the service's result cache, coalesced siblings
/// and Ticket::share() callers all alias one immutable value instead of
/// deep-copying Reports per client. Internal — sized and locked by the
/// service and the tickets.
template <typename T>
struct TicketShared {
  std::mutex m;               ///< guards every field below
  std::condition_variable cv; ///< notified on any terminal transition
  TicketStatus status = TicketStatus::Pending;  ///< current lifecycle stage
  /// The result slot (non-null exactly when status == Done). Immutable
  /// once published; aliased by the service's result cache.
  std::shared_ptr<const T> value;
  std::exception_ptr error;   ///< set when status == Failed
  std::size_t clients = 1;    ///< tickets attached (grows by coalescing)
  std::size_t cancels = 0;    ///< distinct tickets that cancelled
};

}  // namespace detail

/// \brief Future-like handle to a submitted query.
///
/// Obtained from AnalysisService::submit. Move-only; several tickets may
/// share one underlying query through coalescing, which cancel() respects
/// (a query is abandoned only when *every* attached ticket cancels).
/// Thread-safe: distinct threads may operate on distinct tickets of the
/// same query concurrently; one ticket is a single-owner object.
template <typename T>
class Ticket {
 public:
  /// \brief Empty ticket (valid() == false); assign from submit() to use.
  Ticket() = default;

  Ticket(Ticket&&) noexcept = default;             ///< tickets move
  Ticket& operator=(Ticket&&) noexcept = default;  ///< tickets move
  Ticket(const Ticket&) = delete;                  ///< single owner
  Ticket& operator=(const Ticket&) = delete;       ///< single owner

  /// \brief Whether this ticket refers to a submitted query.
  /// \return true unless default-constructed or moved-from
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// \brief Current lifecycle stage of the underlying query.
  /// \return the status at the time of the call (may advance immediately
  ///         after)
  [[nodiscard]] TicketStatus status() const {
    std::lock_guard<std::mutex> lock(check().m);
    return state_->status;
  }

  /// \brief Blocks until the query reaches a terminal state (Done,
  /// Cancelled or Failed).
  void wait() const {
    auto& s = check();
    std::unique_lock<std::mutex> lock(s.m);
    s.cv.wait(lock, [&] { return terminal(s.status); });
  }

  /// \brief Non-blocking result access.
  /// \return pointer to the value when Done (valid while the ticket lives),
  ///         nullptr in every other state
  [[nodiscard]] const T* try_get() const {
    auto& s = check();
    std::lock_guard<std::mutex> lock(s.m);
    return s.status == TicketStatus::Done ? s.value.get() : nullptr;
  }

  /// \brief Blocking result access: wait(), then the value.
  ///
  /// Rethrows the query's exception when it Failed; throws std::logic_error
  /// when the query was Cancelled.
  /// \return the query result (valid while the ticket lives)
  [[nodiscard]] const T& get() const& {
    auto& s = check();
    std::unique_lock<std::mutex> lock(s.m);
    s.cv.wait(lock, [&] { return terminal(s.status); });
    if (s.status == TicketStatus::Failed) std::rethrow_exception(s.error);
    if (s.status == TicketStatus::Cancelled) {
      throw std::logic_error("Ticket::get: query was cancelled");
    }
    return *s.value;
  }

  /// \brief Rvalue get(): returns the value BY VALUE, so
  /// `service.submit(...).get()` is safe — the expiring ticket may be the
  /// last owner of the shared state a reference would dangle into. Copies
  /// (never moves): coalesced siblings may still read the same state.
  /// \return a copy of the query result
  [[nodiscard]] T get() && {
    const Ticket& self = *this;
    return self.get();
  }

  /// \brief Zero-copy result access: wait(), then shared ownership of the
  /// immutable value — no deep copy, valid after the ticket (and the
  /// service) are gone, so a consumer can keep or forward a result without
  /// copying its Report. Throws exactly like get() on Failed/Cancelled
  /// queries.
  /// \return shared handle to the query result
  [[nodiscard]] std::shared_ptr<const T> share() const {
    auto& s = check();
    std::unique_lock<std::mutex> lock(s.m);
    s.cv.wait(lock, [&] { return terminal(s.status); });
    if (s.status == TicketStatus::Failed) std::rethrow_exception(s.error);
    if (s.status == TicketStatus::Cancelled) {
      throw std::logic_error("Ticket::share: query was cancelled");
    }
    return s.value;
  }

  /// \brief Withdraws this ticket's interest in the query.
  ///
  /// The query is abandoned — transitions to Cancelled, never executes —
  /// only when it is still Pending and every coalesced ticket has
  /// cancelled; a Running or finished query, and a query other clients
  /// still await, proceeds unaffected. Idempotent per ticket.
  /// \return true when this call abandoned the query, false otherwise
  bool cancel() {
    auto& s = check();
    std::lock_guard<std::mutex> lock(s.m);
    if (cancelled_) return false;
    cancelled_ = true;
    ++s.cancels;
    if (s.status == TicketStatus::Pending && s.cancels >= s.clients) {
      s.status = TicketStatus::Cancelled;
      s.cv.notify_all();
      return true;
    }
    return false;
  }

 private:
  friend class AnalysisService;
  explicit Ticket(std::shared_ptr<detail::TicketShared<T>> state)
      : state_(std::move(state)) {}

  [[nodiscard]] static bool terminal(TicketStatus st) noexcept {
    return st == TicketStatus::Done || st == TicketStatus::Cancelled ||
           st == TicketStatus::Failed;
  }
  [[nodiscard]] detail::TicketShared<T>& check() const {
    if (!state_) throw std::logic_error("Ticket: empty (default-constructed?)");
    return *state_;
  }

  std::shared_ptr<detail::TicketShared<T>> state_;
  bool cancelled_ = false;
};

/// \brief The ticket type AnalysisService::submit returns.
using QueryTicket = Ticket<QueryValue>;

/// \brief Construction options of an AnalysisService.
struct ServiceOptions {
  /// Service workers executing tickets (including the calling thread's
  /// slot, like WorkbenchOptions::threads). 0 = one per hardware thread;
  /// 1 = no background workers at all — submit() then executes
  /// synchronously before returning (tickets complete immediately).
  std::size_t threads = 0;
  /// Maximum live Workbench sessions; beyond it the least-recently-used
  /// *idle* session is evicted (rebuilt identically on next touch).
  /// Clamped to >= 1. Each session runs its queries serially: parallelism
  /// comes from the service pool, across sessions.
  std::size_t session_capacity = 8;
  /// Entry capacity of the service-wide analysis::TranspositionTable,
  /// shared by every session the service builds. Because Zobrist
  /// fingerprints are name-free, structurally identical tenants hit each
  /// other's entries — and entries outlive session eviction, so a rebuilt
  /// session starts warm. 0 disables the table entirely (sessions run
  /// table-free, bitwise identical results either way). The table has 16
  /// shards, so sessions on different pool workers rarely contend.
  std::size_t transposition_capacity = std::size_t{1} << 16;
};

/// \brief Service-level counters (monotonic since construction).
struct ServiceStats {
  std::uint64_t submitted = 0;        ///< submit() calls accepted
  std::uint64_t coalesced = 0;        ///< submits attached to in-flight queries
  std::uint64_t executed = 0;         ///< queries actually run on a session
  std::uint64_t cancelled = 0;        ///< queries abandoned before execution
  std::uint64_t sessions_built = 0;   ///< Workbench constructions (cold + rebuilds)
  std::uint64_t sessions_evicted = 0; ///< sessions dropped by the LRU bound
  std::uint64_t result_hits = 0;      ///< submits served from the result cache
};

/// \brief Asynchronous, multi-tenant analysis server over Workbench
/// sessions: register Systems, submit ticketed queries.
///
/// See the header comment above for the architecture. Thread-safety: every
/// public method may be called from any thread concurrently; per-session
/// execution is serialised internally (the Workbench contract), sessions
/// run in parallel across the pool. Determinism: results are bitwise
/// identical to the equivalent serial Workbench call for any client/worker
/// count and any eviction history.
class AnalysisService {
 public:
  /// \brief Builds an empty service (no tenants, no sessions).
  /// \param opts worker count, session capacity, transposition table size
  explicit AnalysisService(const ServiceOptions& opts = {});

  /// \brief Blocks until every submitted query finished, then shuts the
  /// pool down. Outstanding tickets stay readable (they own their shared
  /// state).
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;             ///< unique
  AnalysisService& operator=(const AnalysisService&) = delete;  ///< unique

  /// \brief Registers a tenant system and returns its handle.
  ///
  /// Validates like Workbench construction (throws sdf::GraphError on
  /// invalid systems — registration either yields a servable tenant or
  /// fails). The system is copied into the resident store; sessions are
  /// built lazily on first query. Registering a bitwise-identical system
  /// twice yields two SystemIds that *share* one live session (the
  /// fingerprint-keyed LRU) — safe because queries never mutate results.
  /// \param sys the applications + platform + mapping to serve
  /// \return dense handle for submit()
  SystemId register_system(platform::System sys);

  /// \brief Number of registered tenants.
  /// \return registration count (never shrinks)
  [[nodiscard]] std::size_t tenant_count() const;

  /// \brief Number of live Workbench sessions (<= capacity except while
  /// every session is busy).
  /// \return live session count
  [[nodiscard]] std::size_t session_count() const;

  /// \brief Submits a query against a tenant's session.
  ///
  /// Non-blocking (with background workers): the query is enqueued on the
  /// tenant's session, executed in submission order per session,
  /// concurrently across sessions. An identical query already pending or
  /// running on the same session structure coalesces — the returned ticket
  /// shares its completion state (the key reads every option the kind
  /// reads; see coalesce_key). Throws std::out_of_range for unknown ids;
  /// analysis errors surface through the ticket as Failed.
  /// \param id tenant handle
  /// \param desc the query (kind + options)
  /// \return ticket tracking the (possibly shared) query
  [[nodiscard]] QueryTicket submit(SystemId id, QueryDesc desc);

  /// \brief Snapshot of the service counters.
  /// \return monotonic totals since construction
  [[nodiscard]] ServiceStats stats() const;

  /// \brief Snapshot of the shared transposition table's counters
  /// (aggregated and per shard). All zeros when the table is disabled
  /// (ServiceOptions::transposition_capacity == 0).
  /// \return hits / misses / stores / evictions / verify failures
  [[nodiscard]] analysis::TranspositionTable::Stats transposition_stats() const;

  /// \brief Blocks until every query submitted so far has finished.
  void drain();

 private:
  struct Registration {
    platform::System system;
    std::uint64_t fingerprint = 0;
    /// Serial of the session this tenant last resolved to: the hot-path
    /// shortcut past the fingerprint scan + structural comparison. Serials
    /// are never reused, so a stale hint simply misses.
    std::uint64_t resolved_serial = 0;
  };

  struct Job {
    std::shared_ptr<detail::TicketShared<QueryValue>> state;
    QueryDesc desc;
    std::string key;  // in-flight coalescing key; empty = not coalescable
  };

  struct Session {
    std::uint64_t serial = 0;    // unique forever (coalesce keys, hints)
    std::uint64_t fingerprint = 0;
    std::unique_ptr<Workbench> bench;  // null while constructing
    // The registration's resident system this session is (being) built
    // from: the structural-equality anchor while bench is still null.
    // Stable — registrations_ is a deque that only grows.
    const platform::System* origin = nullptr;
    bool constructing = false;   // placeholder: Workbench build in flight
    std::deque<Job> queue;       // submitted, not yet executed
    bool busy = false;           // a drainer holds it
    std::uint64_t last_used = 0; // LRU stamp
  };

  /// One completed result kept for coalescing-after-completion, stamped
  /// with the epoch of its last hit (epoch-based reclamation).
  struct CachedResult {
    std::shared_ptr<const QueryValue> value;
    std::uint64_t epoch = 0;
  };

  /// Live session for registration `id`. The construction latch: a cold
  /// build publishes a `constructing` placeholder, releases `lock`, builds
  /// the Workbench, then relocks and fills the placeholder in — hot
  /// tenants' submits only ever wait for the map scan, never for a build.
  /// Concurrent resolvers of the same structure wait on construct_cv_ and
  /// re-find the session by serial. The pointer is stable while
  /// busy/constructing or while its queue is non-empty.
  Session& session_for(std::unique_lock<std::mutex>& lock, SystemId id);
  /// The live session with serial `serial`, or nullptr (under the lock).
  [[nodiscard]] Session* find_serial(std::uint64_t serial) noexcept;
  /// Publishes a completed result under `key` at the current epoch and
  /// advances the reclamation epoch every kResultCacheStride executions
  /// (under the lock).
  void store_result(const std::string& key,
                    std::shared_ptr<const QueryValue> value);
  /// Claims `s` for a drainer if it has work and none holds it. Returns
  /// the session to post a drainer for (nullptr when none needed); the
  /// caller posts OUTSIDE the service lock — with no background workers
  /// post() runs the drainer inline, which must not hold the lock.
  [[nodiscard]] Session* schedule(Session& s);
  /// Executes `s`'s queue until empty (one drainer at a time per session).
  void drain_session(Session* s);
  /// Runs one query on a session's Workbench (no service lock held).
  static QueryValue execute(Workbench& wb, const QueryDesc& desc);
  /// Coalescing key of `desc` against session serial `serial` (unique per
  /// live session, so fingerprint collisions can never cross-attach two
  /// different tenants' queries). Stochastic exec-time models are keyed by
  /// a 128-bit content hash over their outcome lists (values + weights
  /// bitwise) — the same collision standard as the transposition table's
  /// verify tags, so such Simulate and TopologySweep queries coalesce and
  /// cache too.
  static std::string coalesce_key(std::uint64_t serial, const QueryDesc& desc);

  mutable std::mutex m_;
  std::condition_variable idle_cv_;  // session went idle / queue drained
  std::condition_variable construct_cv_;  // a session build finished/failed
  // Deque: registrations are returned by reference (system(id)) and must
  // stay put while later registrations grow the store.
  std::deque<Registration> registrations_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::string, std::shared_ptr<detail::TicketShared<QueryValue>>>
      inflight_;
  // Completed-result arena: coalescing keys -> shared value slots. An entry
  // lives kResultCacheEpochs epochs past its last hit, an epoch being
  // kResultCacheStride executions. Outstanding Ticket/share() holders keep
  // their values alive (shared_ptr); reclamation only forgets the cache's
  // reference.
  static constexpr std::uint64_t kResultCacheEpochs = 4;
  static constexpr std::uint64_t kResultCacheStride = 64;
  std::unordered_map<std::string, CachedResult> results_;
  std::uint64_t result_epoch_ = 0;      // advances per stride executions
  std::uint64_t epoch_executed_ = 0;    // executions in the current epoch
  ServiceStats stats_;
  std::uint64_t clock_ = 0;          // LRU stamps
  std::uint64_t session_serial_ = 0; // unique session ids, never reused
  std::size_t session_capacity_ = 8;
  // One table for the whole service: every session shares it, so a tenant's
  // warm entries serve every structurally identical tenant. shared_ptr so
  // sessions (whose Workbench holds a reference) can outlive nothing —
  // the service owns both — but the Workbench API takes shared ownership.
  std::shared_ptr<analysis::TranspositionTable> table_;
  // Declared last: destroyed first, so the pool joins (draining posted
  // drainers) while every member above is still alive.
  util::ThreadPool pool_;
};

}  // namespace procon::api
