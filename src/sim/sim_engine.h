// SimEngine: the discrete-event simulator as a constructed-once,
// resettable engine (the cached-structure treatment that
// analysis::ThroughputEngine gave the period analysis).
//
// Construction flattens a SystemView (a System passes as its full view)
// once into static tables — flat actor/channel arrays with CSR in/out
// adjacency, per-node arbitration rings, per-app repetition counts — and
// validates it once. After that, repeated simulations only clear dynamic
// state:
//
//   SimEngine engine(sys);          // O(system): flatten + validate
//   engine.reset();                 // arm a full-system run
//   SimResult full = engine.run({});
//   engine.reset({0, 2});           // arm a use-case-restricted run
//   SimResult uc = engine.run({});  // == simulate(SystemView(sys, {0, 2}))
//
// reset(uc) restricts zero-copy: it activates the selected applications via
// the flat-id remap tables (no graph or mapping copies, no revalidation)
// and builds the active arbitration rings in use-case order, so event
// creation order — and therefore every tie-break — matches a fresh
// simulation of the materialised restriction exactly. The one-shot
// sim::simulate (sim/simulator.h) builds an engine per call; results are
// bitwise identical either way.
//
// Steady-state serving contract: reset(uc) rebuilds the use-case's
// arbitration rings (CSR) in place, in buffers sized at build time for the
// full system — a ring is a pure function of the use-case, so rebuilding
// gives the same bits as keeping it. The event queue, ready lists,
// iteration-time and trace arenas keep their capacity across resets, and
// run_view() returns the results as views into engine-owned storage. A
// reset(uc) of any use-case, seen before or not, performs ZERO heap
// allocations, and so does a run_view() whose arenas already hold the
// capacity from an earlier run of the use-case
// (tests/test_steady_state_alloc.cpp asserts both with an instrumented
// allocator).
// The value-returning run() stays as a deep-copying shim.
//
// Communication is free, as in the paper: a completion deposits its tokens
// on every output channel at once, whichever nodes the two ends sit on.
//
// Event loop: a handled event stays at the heap root while it is processed;
// the first event it schedules replaces the root in one sift-down, and the
// root is popped only if it scheduled none. The loop and its handlers
// (completion, enqueue, dispatch) are one body templated on the
// arbitration, chosen once per run, so no handler tests the arbitration;
// stochastic draws and tracing stay runtime tests. Each actor
// keeps a count of its input channels that hold fewer tokens than it
// consumes: a deposit that reaches the rate lowers it and a firing's
// consumption recounts it, so an enqueue attempt tests one counter instead
// of rescanning the in-channels. Adjacency is packed per edge: an out-edge
// record carries the channel, both rates, the consumer and the consumer's
// node, and an in-edge record the channel and its rate, so a completion
// reads no per-channel table. Each node's FCFS ready list is a
// fixed ring in one flat array, sized by the actors mapped to the node (an
// actor is queued at most once). Application iterations are counted
// incrementally: each actor counts down its repetition count q(a) and keeps
// its lead over its application's iteration count, and the application
// completes an iteration when its last actor with lead 0 gets ahead.
//
// Steady-state fast-forward. Self-timed execution with fixed execution
// times is a deterministic finite-state system, so it settles into a
// periodic regime. A run looks for that regime when it has fixed execution
// times (no exec_models), FCFS or round-robin arbitration and no trace.
// TDMA completions depend on absolute time modulo the wheel, stochastic
// runs on the RNG state and traced runs record every event, so those runs
// only step.
//
//  * Snapshot. At each iteration completion of the first active application
//    the dynamic state is encoded relative to the current time t: per node
//    its busy flag, round-robin cursor and FCFS ring contents in order; per
//    active actor its state, iteration countdown, lead, wait so far if
//    queued (t - ready time) and the tokens on its input channels; and the
//    pending events in (time, creation order) as (time - t, actor).
//  * Detection. Brent's cycle detection keeps one saved snapshot, replaced
//    at power-of-two step counts, and compares the live state against it
//    with early exit; nothing is hashed. The saved snapshot also records
//    the accumulators at that point: time, event count, per-actor stats,
//    node busy time and iteration counts.
//  * Why a jump is exact. Events are ordered by (time, creation order), and
//    every new event is created after every pending one, so two states with
//    equal snapshots evolve identically, shifted by the period P between
//    them, as long as nothing reads absolute time. Only two things do: the
//    horizon (events past it are not processed, busy time is clipped at it)
//    and the max_events cap. Within those bounds every accumulator grows by
//    the same amount each period.
//  * The jump. Advancing k whole periods adds k*P to the pending event
//    times and the ready times, adds k times the per-period change to the
//    actor stats, node busy time and event count, and appends k copies of
//    the period's iteration times shifted by P, 2P, ... kP. Leads,
//    countdowns, tokens and queues are unchanged.
//  * The bound on k. With t the current time and X the largest execution
//    time of an active actor, k is the largest value with
//    t + k*P + X <= horizon and events + k*(events per period) <=
//    max_events. The last skipped period then ends at least X before the
//    horizon, so no dispatch inside it is clipped, and the cap is never
//    crossed. The run then steps the rest; at most one jump happens.
//
// fast_forwarded_events() reports how many of the last run's
// events_processed a jump accounted for. It is a diagnostic: results are
// bitwise identical to stepping every event (tests/test_sim_engine.cpp
// pins them with golden digests and against traced runs, which never
// jump). The snapshot buffers are members sized at build time, so the
// steady-state contract below covers runs that jump.
//
// An engine is a mutable session object: not thread-safe. Sharded callers
// (api::Workbench sweeps) keep one engine per worker. Copying an engine
// clones its cached structure — that is how worker clones are made.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "platform/system.h"
#include "platform/system_view.h"
#include "sdf/exec_time.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace procon::sim {

/// \brief Resettable discrete-event simulation engine with cached structure.
///
/// Flattens a platform::SystemView (a System passes as its full view) once
/// into flat CSR tables and serves repeated simulations through
/// reset()/reset(uc)/run()/run_view(). Results are bitwise identical to a
/// fresh sim::simulate of the same view, for every arbitration mode, seed
/// and execution-time model.
///
/// Determinism: simultaneous events are processed in creation order and all
/// arbitration tie-breaks follow use-case order, so a run is a pure
/// function of (structure, active use-case, options) — never of engine
/// history.
///
/// Thread-safety: a SimEngine is a mutable session object; concurrent calls
/// on one engine are not allowed. Sharded callers clone one engine per
/// worker (copying clones the cached structure).
class SimEngine {
 public:
  /// \brief Validates and flattens the applications `view` selects.
  ///
  /// A System passes as its full view. Only the selected applications are
  /// validated and flattened (O(restriction), like building from the
  /// materialised copy, without the copy). Throws sdf::GraphError on
  /// SystemView::validate failures. Duplicate view entries become
  /// independent flat applications, exactly as materialise() would
  /// duplicate the graph. The engine's application ids are the *view's*
  /// ids 0..k-1; reset(uc) indexes that space. The view (and its parent)
  /// are copied into flat tables, never retained. Arms a full-system run
  /// (no reset() needed before the first run()).
  /// \param view the applications + platform + mapping to simulate
  explicit SimEngine(const platform::SystemView& view);

  /// \brief Number of applications of the underlying system.
  /// \return the flattened application count (view ids 0..app_count()-1)
  [[nodiscard]] std::size_t app_count() const noexcept {
    return app_actor_base_.size() - 1;
  }

  /// \brief Applications active in the currently armed/last run.
  /// \return the active use-case, in use-case order
  [[nodiscard]] const platform::UseCase& active_use_case() const noexcept {
    return active_;
  }

  /// \brief Arms a full-system run: every application active, all dynamic
  /// state cleared (tokens to initial marking, queues and metrics emptied).
  void reset();

  /// \brief Arms a run restricted to `uc`.
  ///
  /// Results are indexed in use-case order, exactly like
  /// simulate(SystemView(sys, uc), opts). Rebuilds the use-case's
  /// arbitration rings in place and clears dynamic state — zero heap
  /// allocations for any use-case, seen before or not.
  /// \param uc engine app ids, unique and in range — throws sdf::GraphError
  ///        otherwise
  void reset(const platform::UseCase& uc);

  /// \brief Runs until the horizon and returns an owning deep copy of the
  /// results.
  ///
  /// Compatibility shim over run_view(): identical values, plus one deep
  /// copy of the per-app metrics, iteration times and trace into a
  /// standalone SimResult. Steady-state callers that can tolerate
  /// engine-owned storage should prefer run_view().
  ///
  /// Consumes the armed state: a second run without an intervening reset()
  /// throws sdf::GraphError (dynamic state is spent, rerunning it would not
  /// be a simulation from time zero).
  /// \param opts horizon, arbitration, execution-time models, trace flag.
  ///        Throws std::invalid_argument for a non-positive horizon or
  ///        one so close to INT64_MAX that a firing started by it could
  ///        end past it, and sdf::GraphError for execution-time model
  ///        mismatches (opts.exec_models entries pair with *active*
  ///        applications, in use-case order).
  /// \return owning per-application results, in use-case order
  [[nodiscard]] SimResult run(const SimOptions& opts = {});

  /// \brief Runs until the horizon and returns views into engine-owned
  /// storage — the allocation-free steady-state serving path.
  ///
  /// Same contract as run() (armed-state consumption, option validation,
  /// bitwise-identical numbers), but the returned SimResultView only
  /// borrows the engine's preallocated result arenas: per-actor stats,
  /// iteration times, trace and node utilisation are spans. The view is
  /// valid until the next reset()/run_view() call or engine destruction;
  /// call SimResultView::materialise() to keep a copy.
  /// \param opts same options as run()
  /// \return per-application result views, in use-case order
  [[nodiscard]] SimResultView run_view(const SimOptions& opts = {});

  /// \brief Events of the last run that a steady-state fast-forward
  /// accounted for instead of stepping them (see the header comment).
  ///
  /// A diagnostic output, included in that run's events_processed; 0 when
  /// the run did not jump or is not eligible (TDMA, stochastic models or
  /// traced runs).
  /// \return skipped event count of the last run_view()/run()
  [[nodiscard]] std::uint64_t fast_forwarded_events() const noexcept {
    return ff_events_;
  }

 private:
  enum class ActorState : std::uint8_t { Idle, Queued, Running };

  struct Event {
    sdf::Time time = 0;
    std::uint64_t seq = 0;  // creation order; makes simultaneous events stable
    std::uint32_t actor = 0;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Arbitration rings of one use-case in CSR form: ring of node n is
  /// flat[start[n] .. start[n+1]), members in use-case order then local id
  /// — the exact push order a fresh restricted build would produce.
  struct RingSet {
    std::vector<std::uint32_t> start;  // node -> offset (size nodes+1)
    std::vector<std::uint32_t> flat;   // active flat actor ids (size actors)
  };

  /// An out-edge of a flat actor: everything a completion needs to deposit
  /// on the channel and to wake the consumer, in one record.
  struct OutEdge {
    std::uint32_t chan = 0;
    std::uint32_t dst = 0;            // consumer flat actor
    platform::NodeId dst_node = 0;    // the consumer's node
    std::uint32_t prod = 0;
    std::uint32_t cons = 0;
  };

  /// An in-edge of a flat actor: the channel and its consumption rate.
  struct InEdge {
    std::uint32_t chan = 0;
    std::uint32_t cons = 0;
  };

  void build(const platform::SystemView& view);
  /// Clears dynamic state and arms a run of `uc` (already validated).
  void arm(const platform::UseCase& uc);
  void bind_options(const SimOptions& opts);
  /// Whether every firing ready by the horizon ends within sdf::Time. The
  /// event loop adds times unchecked (t + demand, TDMA wheel turns), so
  /// run_view() checks this bound once per run instead of per event.
  [[nodiscard]] bool firings_end_in_range() const;
  /// Rebuilds rings_ in place for `uc` (already validated).
  void build_rings(const platform::UseCase& uc);
  [[nodiscard]] std::span<const std::uint32_t> ring(platform::NodeId node) const {
    return {rings_.flat.data() + rings_.start[node],
            rings_.start[node + 1] - rings_.start[node]};
  }

  [[nodiscard]] sdf::Time draw_exec(std::uint32_t a);
  /// Adds a production burst to the edge's channel and lowers the
  /// consumer's missing-input count when the channel reaches its rate.
  void deposit(const OutEdge& e);
  /// Takes a's consumption from every input; a had no missing input.
  void consume_inputs(std::uint32_t a);
  /// Schedules an event; replaces the spent root if one is being handled.
  void push_event(sdf::Time t, std::uint32_t id);
  /// TDMA slot of flat actor a: its execution time, at least 1.
  [[nodiscard]] sdf::Time slot_len(std::uint32_t a) const {
    return std::max<sdf::Time>(exec_[a], 1);
  }
  [[nodiscard]] std::pair<sdf::Time, sdf::Time> tdma_completion(
      std::uint32_t a, sdf::Time t, sdf::Time demand) const;
  // The event body, one instantiation per arbitration (run_view picks it
  // once per run): seeding and the loop (step), and its handlers.
  template <Arbitration kArb>
  [[nodiscard]] std::uint64_t step(std::uint64_t max_events);
  template <Arbitration kArb>
  void try_enqueue(std::uint32_t a, platform::NodeId node, sdf::Time t);
  template <Arbitration kArb>
  void try_dispatch(platform::NodeId node, sdf::Time t);
  template <Arbitration kArb>
  void on_completion(std::uint32_t a, sdf::Time t);
  void complete_iteration(std::uint32_t active_app, sdf::Time t);
  /// Feeds the state after an iteration of the first active application
  /// into the cycle detection; on a repeat, jumps. Returns the new event
  /// count.
  [[nodiscard]] std::uint64_t seek_period(sdf::Time t, std::uint64_t processed,
                                          std::uint64_t max_events);
  /// Emits the snapshot encoding of the live state at time t into `sink`
  /// (returns false to stop early); false if the sink stopped it.
  template <class Sink>
  bool encode_state(sdf::Time t, Sink&& sink);
  void save_state(sdf::Time t, std::uint64_t processed);
  [[nodiscard]] std::uint64_t fast_forward(sdf::Time t, std::uint64_t processed,
                                           std::uint64_t max_events);
  [[nodiscard]] SimResultView finalise_view(std::uint64_t processed);

  // --- static structure (built once per system) ----------------------------
  std::uint32_t actor_count_ = 0;  // flat actors over *all* applications
  std::uint32_t node_count_ = 0;
  std::vector<std::uint32_t> app_actor_base_;  // app -> first flat actor (size A+1)
  std::vector<sdf::AppId> app_of_;             // flat actor -> parent app
  std::vector<sdf::ActorId> local_of_;         // flat actor -> app-local id
  std::vector<sdf::Time> exec_;                // flat actor -> tau
  std::vector<platform::NodeId> node_of_;      // flat actor -> node
  std::vector<std::uint64_t> reps_;            // flat actor -> q(a)
  platform::UseCase full_uc_;                  // 0..A-1, built once for reset()

  // Channels, flattened, with CSR in/out adjacency per actor: actor a's
  // edges are in_edges_[in_start_[a] .. in_start_[a+1]) and likewise out,
  // each in channel-id order.
  std::vector<std::uint64_t> init_tokens_;     // flat channel -> initial marking
  std::vector<std::uint32_t> in_start_;        // actor -> offset (size actors+1)
  std::vector<InEdge> in_edges_;
  std::vector<std::uint32_t> out_start_;
  std::vector<OutEdge> out_edges_;

  // --- per-reset state (active restriction) --------------------------------
  RingSet rings_;                              // active use-case's rings
  std::vector<std::uint32_t> ring_cursor_;     // node -> fill cursor (build_rings)
  platform::UseCase active_;                   // active apps, use-case order
  std::vector<std::uint32_t> active_index_;    // parent app -> active slot or ~0
  bool armed_ = false;

  // --- per-run option bindings ---------------------------------------------
  SimOptions opts_;  // scalar fields only; models are bound through dist_
  std::vector<const sdf::ExecTimeDistribution*> dist_;  // nullptr = fixed time
  util::Rng sample_rng_{0};
  sdf::Time max_exec_ = 0;                     // largest active exec time

  // --- dynamic state (cleared by reset, capacity kept) ---------------------
  std::vector<std::uint64_t> tokens_;
  /// Per flat actor, how many of its input channels hold fewer tokens than
  /// it consumes: it can fire exactly when this is 0. A function of tokens_,
  /// so the snapshot does not encode it and a jump leaves it valid.
  std::vector<std::uint32_t> missing_;
  std::vector<ActorState> state_;
  std::vector<sdf::Time> ready_time_;
  /// Per-node FCFS ready lists: node n's ring is
  /// fcfs_ring_[fcfs_start_[n] .. fcfs_start_[n+1]), one slot per actor
  /// mapped to n, with a head cursor and a length.
  std::vector<std::uint32_t> fcfs_ring_;
  std::vector<std::uint32_t> fcfs_start_;      // node -> offset (size nodes+1)
  std::vector<std::uint32_t> fcfs_head_;
  std::vector<std::uint32_t> fcfs_len_;
  std::vector<std::size_t> rr_next_;           // node -> ring cursor
  std::vector<std::uint8_t> node_busy_;
  std::vector<sdf::Time> node_busy_time_;
  std::vector<Event> events_;                  // binary min-heap (std::*_heap)
  std::uint64_t next_seq_ = 0;
  bool root_spent_ = false;                    // events_[0] is being handled

  // Iteration counting: per flat actor, firings left until its next
  // multiple of q(a), and its lead over its application's iteration count;
  // per active app, how many of its actors have lead 0.
  std::vector<std::uint64_t> iter_left_;
  std::vector<std::uint64_t> iter_lead_;
  std::vector<std::uint32_t> app_lagging_;

  // Fast-forward: the saved snapshot of Brent's cycle detection, the
  // accumulators at the save point, and the pending-event sort buffer. All
  // are sized at build time.
  bool seeking_ = false;                       // run is eligible, no jump yet
  bool period_mark_ = false;                   // first app just iterated
  std::uint64_t snap_power_ = 1;
  std::uint64_t snap_steps_ = 0;
  std::vector<std::uint64_t> snap_;            // empty until the first save
  sdf::Time snap_time_ = 0;
  std::uint64_t snap_processed_ = 0;
  std::vector<ActorStats> snap_stats_;         // flat actor -> stats at save
  std::vector<sdf::Time> snap_busy_;           // node -> busy time at save
  std::vector<std::size_t> snap_iters_;        // active app -> iterations
  std::vector<Event> pending_;
  std::uint64_t ff_events_ = 0;

  // Metrics arenas (flat-actor arrays are full-size; per-app arrays use the
  // first active-count slots and never shrink, so capacity survives resets).
  std::vector<ActorStats> actor_stats_;
  std::vector<std::vector<sdf::Time>> iteration_times_;  // per active app
  std::vector<TraceEvent> trace_;

  // Result-view arenas (reused per run; run_view returns spans over these).
  std::vector<AppSimView> view_apps_;
  std::vector<double> node_util_;
};

}  // namespace procon::sim
