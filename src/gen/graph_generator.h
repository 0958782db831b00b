// Random SDFG generation (substitute for the SDF3 tool [15]).
//
// Produces graphs with the properties the paper's evaluation relies on:
//  * consistent by construction: a repetition vector q is drawn first and
//    each edge's rates are derived from it (q[src]*prod == q[dst]*cons);
//  * strongly connected: a directed ring over a random actor permutation
//    forms the backbone, plus random chord edges, half as many as actors
//    (rounded down);
//  * deadlock-free: initial tokens are placed by a repair loop that adds
//    tokens to starved channels (reported by abstract execution) until one
//    full iteration completes;
//  * random execution times and 8-10 actors by default, mimicking the
//    DSP/multimedia applications of the paper's experiments.
#pragma once

#include <string>
#include <vector>

#include "sdf/graph.h"
#include "util/rng.h"

namespace procon::gen {

struct GeneratorOptions {
  std::uint32_t min_actors = 8;
  std::uint32_t max_actors = 10;
  std::uint64_t max_repetition = 4;   ///< q entries drawn from [1, max]
  sdf::Time min_exec_time = 10;
  sdf::Time max_exec_time = 100;
  /// Extra initial-token head start: after repair, this many additional
  /// "iterations worth" of tokens are added on the ring-closing edge to
  /// increase pipelining (0 = minimal tokens).
  std::uint32_t extra_token_iterations = 0;
};

/// Generates one random graph. Deterministic given the RNG state.
[[nodiscard]] sdf::Graph generate_graph(util::Rng& rng, const GeneratorOptions& opts,
                                        const std::string& name);

/// Generates `count` graphs named <prefix>A, <prefix>B, ... (wraps to
/// numeric suffixes beyond 26).
[[nodiscard]] std::vector<sdf::Graph> generate_graphs(util::Rng& rng,
                                                      const GeneratorOptions& opts,
                                                      std::size_t count,
                                                      const std::string& prefix = "");

/// The paper's benchmark workload: ten random strongly-connected SDFGs with
/// eight to ten actors each (named A..J), from the given seed.
[[nodiscard]] std::vector<sdf::Graph> paper_workload(std::uint64_t seed);

}  // namespace procon::gen
