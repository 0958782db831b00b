// procon::api::AnalysisService — the asynchronous, multi-tenant front door
// over Workbench sessions.
//
// A Workbench is deliberately a *single-client* object: one stateful
// session per System, queries strictly serialised, parallelism only inside
// a query. That is the right shape for one analyst and exactly the wrong
// shape for a server. The AnalysisService is the layer in between — the
// session-vs-service split: it owns
//
//   * a resident store of registered platform::Systems (tenants), each
//     resolved once, at registration, to a structure id: the first
//     registration bitwise identical to it, so identical tenants share
//     everything below,
//   * a bounded LRU of live Workbench sessions, one per structure id. A
//     cold session is built on the submitting thread under the service
//     lock; eviction rebuilds on next touch (the same eviction discipline
//     as the admission controller's candidate LRU),
//   * a shared util::ThreadPool whose work queue executes submitted
//     queries.
//
// The query surface is asynchronous:
//
//   * submit(SystemId, QueryDesc) returns a QueryTicket — a future-like
//     handle with status()/wait()/get()/share(). Queries on one session are
//     serialised (the Workbench contract); queries on different sessions
//     run concurrently on the pool workers.
//   * identical in-flight queries COALESCE: a submit that matches a
//     pending or running query of the same structure attaches to its ticket
//     state instead of enqueueing a duplicate.
//   * a recently completed query's result is cached per structure: a
//     matching submit completes at once, aliasing the same immutable value,
//     even after the session that computed it was evicted. A use-case
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
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "api/report.h"
#include "api/workbench.h"
#include "util/thread_pool.h"

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
  /// Runs nothing: submit() rejects it with std::invalid_argument. The
  /// interconnect sweep it named is gone; the enumerator stays only because
  /// the benchmark's service workload spells it as a case label
  /// (ledger/service.cpp:317). Delete it with that label.
  TopologySweep,
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
};

/// \brief Every result shape a ticket can carry, in QueryKind order.
using QueryValue = std::variant<Report<analysis::PeriodResult>,
                                Report<analysis::GraphLatencyResult>,
                                Report<analysis::BottleneckReport>,
                                Report<std::vector<dse::BufferPoint>>,
                                Report<std::vector<prob::AppEstimate>>,
                                Report<std::vector<wcrt::AppBound>>,
                                Report<sim::SimResult>>;

/// \brief Lifecycle of a ticket's underlying query.
enum class TicketStatus : std::uint8_t {
  Pending,  ///< queued, not yet picked up by a worker
  Running,  ///< executing on a worker
  Done,     ///< finished; the value is available
  Failed,   ///< the query threw; get() rethrows the exception
};

namespace detail {

/// \brief Shared completion state behind one (possibly coalesced) query.
///
/// One instance per *executed* query; every coalesced QueryTicket holds a
/// reference. The result itself is a shared arena slot
/// (shared_ptr<const QueryValue>): the service's result cache, coalesced
/// siblings and QueryTicket::share() callers all alias one immutable value
/// instead of deep-copying Reports per client. Internal — written by the
/// service, read by the tickets.
struct TicketShared {
  std::mutex m;               ///< guards every field below
  std::condition_variable cv; ///< notified when the query finishes
  TicketStatus status = TicketStatus::Pending;  ///< current lifecycle stage
  /// The result slot (non-null exactly when status == Done). Immutable
  /// once published; aliased by the service's result cache.
  std::shared_ptr<const QueryValue> value;
  std::exception_ptr error;   ///< set when status == Failed
};

}  // namespace detail

/// \brief Future-like handle to a submitted query.
///
/// Obtained from AnalysisService::submit. Move-only; several tickets may
/// share one underlying query through coalescing. Thread-safe: distinct
/// threads may operate on distinct tickets of the same query concurrently;
/// one ticket is a single-owner object.
class QueryTicket {
 public:
  /// \brief Empty ticket; assign from submit() to use. Every other member
  /// throws std::logic_error on an empty ticket.
  QueryTicket() = default;

  QueryTicket(QueryTicket&&) noexcept = default;             ///< tickets move
  QueryTicket& operator=(QueryTicket&&) noexcept = default;  ///< tickets move
  QueryTicket(const QueryTicket&) = delete;                  ///< single owner
  QueryTicket& operator=(const QueryTicket&) = delete;       ///< single owner

  /// \brief Current lifecycle stage of the underlying query.
  /// \return the status at the time of the call (may advance immediately
  ///         after)
  [[nodiscard]] TicketStatus status() const;

  /// \brief Blocks until the query is Done or Failed.
  void wait() const;

  /// \brief Blocking result access: wait(), then the value. Rethrows the
  /// query's exception when it Failed.
  /// \return the query result (valid while the ticket lives)
  [[nodiscard]] const QueryValue& get() const&;

  /// \brief Rvalue get(): returns the value BY VALUE, so
  /// `service.submit(...).get()` is safe — the expiring ticket may be the
  /// last owner of the shared state a reference would dangle into. Copies
  /// (never moves): coalesced siblings may still read the same state.
  /// \return a copy of the query result
  [[nodiscard]] QueryValue get() &&;

  /// \brief Zero-copy result access: wait(), then shared ownership of the
  /// immutable value — no deep copy, valid after the ticket (and the
  /// service) are gone, so a consumer can keep or forward a result without
  /// copying its Report. Throws exactly like get() on a Failed query.
  /// \return shared handle to the query result
  [[nodiscard]] std::shared_ptr<const QueryValue> share() const;

 private:
  friend class AnalysisService;
  explicit QueryTicket(std::shared_ptr<detail::TicketShared> state)
      : state_(std::move(state)) {}

  [[nodiscard]] detail::TicketShared& shared() const;

  std::shared_ptr<detail::TicketShared> state_;
};

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
  /// built on the first query that executes. Registration resolves the
  /// tenant's structure once: a system bitwise identical to an earlier
  /// registration (fingerprint first, exact comparison as the
  /// tie-breaker) shares that registration's session, in-flight queries
  /// and cached results — safe because queries never mutate results.
  /// \param sys the applications + platform + mapping to serve
  /// \return dense handle for submit()
  SystemId register_system(platform::System sys);

  /// \brief Number of live Workbench sessions: at most the capacity once
  /// drain() returned. A miss while every live session is busy overflows the
  /// store until the next drainer goes idle and trims it.
  /// \return live session count
  [[nodiscard]] std::size_t session_count() const;

  /// \brief Submits a query against a tenant's session.
  ///
  /// An identical query already pending or running on the same structure
  /// coalesces (the returned ticket shares its completion state), and a
  /// recently completed one is served from the result cache; the key reads
  /// every option the kind reads (see coalesce_key). Otherwise the query is
  /// enqueued on the structure's session — built on this thread, under the
  /// service lock, when it is not live — and executed in submission order
  /// per session, concurrently across sessions. Non-blocking with
  /// background workers. Throws std::invalid_argument for
  /// QueryKind::TopologySweep before anything else (no session is touched
  /// and no counter moves), std::out_of_range for unknown ids; analysis
  /// errors surface through the ticket as Failed.
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
    /// Index of the first registration bitwise equal to this one (its own
    /// index when there is none): the key of its session, in-flight twins
    /// and cached results.
    SystemId structure = 0;
  };

  struct Job {
    std::shared_ptr<detail::TicketShared> state;
    QueryDesc desc;
    std::string key;  // in-flight coalescing key
  };

  struct Session {
    SystemId structure = 0;
    std::unique_ptr<Workbench> bench;
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

  /// Live session of `reg`'s structure (under the lock). A miss evicts idle
  /// least-recently-used sessions to make room, then builds the Workbench
  /// in place. The pointer is stable while the session is busy or its queue
  /// is non-empty.
  Session& session_for(const Registration& reg);
  /// Evicts idle least-recently-used sessions until at most `keep` are live
  /// or none is idle (under the lock). Busy or queued sessions stay: their
  /// addresses are live in drainers.
  void evict_idle(std::size_t keep);
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
  /// Executes `s`'s queue until empty (one drainer at a time per session),
  /// then trims the store down to capacity, which may evict `s` itself.
  void drain_session(Session* s);
  /// Runs one query on a session's Workbench (no service lock held).
  static QueryValue execute(Workbench& wb, const QueryDesc& desc);
  /// Coalescing key of `desc` against structure id `structure` (exact, so
  /// fingerprint collisions can never cross-attach two different tenants'
  /// queries). Stochastic exec-time models are keyed by a 128-bit content
  /// hash over their outcome lists (values + weights bitwise) — the same
  /// collision standard as the transposition table's verify tags, so such
  /// Simulate queries coalesce and cache too.
  static std::string coalesce_key(SystemId structure, const QueryDesc& desc);

  mutable std::mutex m_;
  std::condition_variable idle_cv_;  // session went idle / queue drained
  // Indexed by SystemId; only grows, so ids are never reused.
  std::deque<Registration> registrations_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::string, std::shared_ptr<detail::TicketShared>> inflight_;
  // Completed-result arena: coalescing keys -> shared value slots. An entry
  // lives kResultCacheEpochs epochs past its last hit, an epoch being
  // kResultCacheStride executions. Outstanding tickets and share() holders
  // keep their values alive (shared_ptr); reclamation only forgets the
  // cache's reference.
  static constexpr std::uint64_t kResultCacheEpochs = 4;
  static constexpr std::uint64_t kResultCacheStride = 64;
  std::unordered_map<std::string, CachedResult> results_;
  std::uint64_t result_epoch_ = 0;      // advances per stride executions
  std::uint64_t epoch_executed_ = 0;    // executions in the current epoch
  ServiceStats stats_;
  std::uint64_t clock_ = 0;          // LRU stamps
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
