// Repetition vector and consistency analysis (Definition 2 of the paper).
//
// The repetition vector q of an SDFG is the smallest positive integer
// solution of the balance equations  q[src]*prod == q[dst]*cons  for every
// channel. A graph admitting such a solution is "consistent"; only
// consistent graphs can execute forever in bounded memory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sdf/graph.h"

namespace procon::sdf {

/// q[a] = number of firings of actor a per graph iteration.
using RepetitionVector = std::vector<std::uint64_t>;

/// Computes the repetition vector. Returns std::nullopt if the graph is
/// inconsistent (balance equations unsolvable). For graphs with several
/// weakly-connected components, each component is normalised independently
/// (the standard convention). Actors with no channels get q = 1. Firing-rate
/// ratios are kept gcd-reduced in plain int64; throws util::RationalError
/// when one of them, or the final integer scaling, overflows.
[[nodiscard]] std::optional<RepetitionVector> compute_repetition_vector(const Graph& g);

/// True iff the balance equations have a positive solution.
[[nodiscard]] bool is_consistent(const Graph& g);

/// Sum over actors of q[a] (number of HSDF vertices after expansion),
/// saturated at UINT64_MAX: entries may each be near 2^63, and a wrapped
/// sum would pass a size cap.
[[nodiscard]] std::uint64_t repetition_sum(const RepetitionVector& q);

/// Total work of one iteration: sum over actors of q[a] * tau(a). For a
/// fully sequential schedule this lower-bounds the period on one processor.
[[nodiscard]] Time iteration_workload(const Graph& g, const RepetitionVector& q);

}  // namespace procon::sdf
