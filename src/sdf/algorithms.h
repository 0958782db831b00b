// Structural graph algorithms: strongly connected components (Tarjan),
// strong-connectivity and deadlock-freedom checks.
//
// The paper's evaluation graphs are strongly connected (every actor
// reachable from every actor) and deadlock-free; the generator relies on
// these predicates, and the HSDF/MCR analyses require strong connectivity
// for a well-defined maximum cycle ratio.
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetition.h"

namespace procon::sdf {

/// Tarjan strongly-connected components. Returns component index per actor,
/// numbered in reverse topological order (0 is a sink component).
struct SccResult {
  std::vector<std::uint32_t> component_of;  ///< actor -> component index
  std::uint32_t component_count = 0;
};
[[nodiscard]] SccResult strongly_connected_components(const Graph& g);

/// True iff the graph has exactly one SCC containing all actors (and at
/// least one actor).
[[nodiscard]] bool is_strongly_connected(const Graph& g);

/// Deadlock-freedom via abstract execution: tries to complete one full
/// iteration (each actor a fired q[a] times) by repeatedly firing enabled
/// actors on token counts only. For consistent SDFGs this succeeds iff the
/// graph is deadlock-free (Lee & Messerschmitt). Returns false for
/// inconsistent graphs.
///
/// The walk fires repetition_sum(q) times, so a consistent graph whose sum
/// exceeds kMaxRepetitionSum throws GraphError, naming the graph, the sum
/// and the cap, before walking (here and in diagnose_deadlock).
[[nodiscard]] bool is_deadlock_free(const Graph& g);

/// Like is_deadlock_free but reports the set of actors that still had
/// pending firings when execution stalled (empty if none). Used by the
/// generator's token-repair loop, and by SystemView::validate, which reads
/// both verdicts from this one call. The same cap applies.
struct DeadlockDiagnosis {
  bool consistent = false;  ///< is_consistent(g); false => not deadlock-free
  bool deadlock_free = false;
  std::vector<ActorId> starved_actors;    ///< actors with pending firings
  std::vector<ChannelId> starved_channels;///< in-channels lacking tokens
};
[[nodiscard]] DeadlockDiagnosis diagnose_deadlock(const Graph& g);

/// Exact structural equality (the tie-breaker of the caches keyed on
/// sdf::ZobristHash fingerprints): same name, actors (names + execution
/// times) and channels (endpoints, rates, initial tokens). No allocation.
[[nodiscard]] bool graphs_equal(const Graph& a, const Graph& b) noexcept;

}  // namespace procon::sdf
