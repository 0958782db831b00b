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

/// \brief Largest repetition-vector sum (HSDF firings per iteration) the
/// library expands or walks: analysis::ThroughputEngine's constructor and
/// the liveness walk (is_deadlock_free, diagnose_deadlock) reject larger
/// graphs before doing either. SystemView::validate walks, so every
/// session, one-shot, the simulator and admission reject them too.
///
/// Set from the slowest graph family measured, a -> b at rates (2^k, 1)
/// and b -> a at (1, 2^k) with 2^k tokens, in a Release build on a shared
/// 4-vCPU Xeon VM: a cold build plus solve takes 0.12 s at a sum of 2049
/// and 0.48 s at 4097, and grows about fourfold per doubling of the sum
/// (1.5 s at 8193). Generated graphs stay below 50.
inline constexpr std::uint64_t kMaxRepetitionSum = 4096;

/// Sum over actors of q[a] (number of HSDF vertices after expansion),
/// saturated at UINT64_MAX: entries may each be near 2^63, and a wrapped
/// sum would pass a size cap.
[[nodiscard]] std::uint64_t repetition_sum(const RepetitionVector& q);

/// Total work of one iteration: sum over actors of q[a] * tau(a). For a
/// fully sequential schedule this lower-bounds the period on one processor.
[[nodiscard]] Time iteration_workload(const Graph& g, const RepetitionVector& q);

}  // namespace procon::sdf
