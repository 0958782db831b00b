// Text serialisation for SDF graphs.
//
// A line-oriented format (one graph per stream) mirroring what SDF3's XML
// carries, without XML machinery:
//
//     graph <name>
//     actor <name> <exec_time>
//     dist <actor_name> constant <value>
//     dist <actor_name> uniform <lo> <hi>
//     dist <actor_name> discrete <k> <value weight>{k}
//     channel <src_name> <dst_name> <prod_rate> <cons_rate> <initial_tokens>
//     end
//
// `dist` lines carry the optional stochastic execution-time model (Section 6
// extension). Weights are written as C99 hexfloats so a written model parses
// back *bitwise* identical (ExecTimeDistribution::from_normalised rebuilds
// the derived moments from the already-normalised weights). The model is not
// part of sdf::Graph itself, so the model-free write_graph cannot emit it
// and the model-free read_graph REJECTS input containing `dist` lines
// rather than silently dropping the model — round-tripping a stochastic
// system requires the model-aware overloads below.
//
// Blank lines and lines starting with '#' are ignored. Every numeric field
// but a weight is one whole decimal integer token ("1e3", "1.5" and "2x"
// are errors), and a graph, actor, channel or dist line with a field after
// its last one is an error. Also provides Graphviz DOT export for visual
// inspection of generated graphs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sdf/exec_time.h"
#include "sdf/graph.h"

namespace procon::sdf {

/// Thrown on parse errors, with a 1-based line number in the message.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialises one graph in the line format above.
void write_graph(std::ostream& os, const Graph& g);
[[nodiscard]] std::string to_text(const Graph& g);

/// Serialises one graph plus its stochastic execution-time model (`dist`
/// lines; constant distributions as `constant`, everything else as
/// `discrete` with hexfloat weights). The model must have one distribution
/// per actor; throws std::invalid_argument on a size mismatch.
void write_graph(std::ostream& os, const Graph& g, const ExecTimeModel& model);

/// Parses exactly one graph; throws ParseError on malformed input — and on
/// `dist` lines, which would otherwise be silently dropped (use the
/// model-aware overload below for stochastic systems).
[[nodiscard]] Graph read_graph(std::istream& is);
[[nodiscard]] Graph graph_from_text(const std::string& text);

/// Parses exactly one graph and its execution-time model. Actors without a
/// `dist` line default to constant(exec_time), so `model` always comes back
/// with one distribution per actor. A model written by the model-aware
/// write_graph parses back bitwise identical (weights, moments, sampling).
[[nodiscard]] Graph read_graph(std::istream& is, ExecTimeModel& model);

/// Parses a stream containing any number of graphs (rejects `dist` lines,
/// like the model-free read_graph).
[[nodiscard]] std::vector<Graph> read_graphs(std::istream& is);

/// Parses any number of graphs plus one execution-time model per graph
/// (models[i] belongs to graphs[i]; defaulted like the single-graph
/// overload).
[[nodiscard]] std::vector<Graph> read_graphs(std::istream& is,
                                             std::vector<ExecTimeModel>& models);

/// Graphviz DOT rendering: actors as nodes "name (tau)", channels as edges
/// labelled "prod/cons [tokens]".
[[nodiscard]] std::string to_dot(const Graph& g);

}  // namespace procon::sdf
