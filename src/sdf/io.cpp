#include "sdf/io.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>

namespace procon::sdf {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError("line " + std::to_string(line) + ": " + what);
}

/// Reads the next field of `ls` as one whole integer token: std::from_chars
/// must consume all of it without overflow, so "1e3", "1.5" and "2x" fail
/// instead of reading as their leading digits.
template <typename T>
T read_integer(std::istream& ls, std::size_t line, const char* usage) {
  std::string token;
  if (!(ls >> token)) fail(line, usage);
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) {
    fail(line, "malformed or out-of-range integer '" + token + "'");
  }
  return value;
}

/// Weights travel as C99 hexfloats: exact round-trip, no decimal rounding.
std::string weight_to_text(double w) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", w);
  return buf;
}

double weight_from_text(std::size_t line, const std::string& token) {
  char* end = nullptr;
  const double w = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == token.c_str()) {
    fail(line, "malformed weight '" + token + "'");
  }
  return w;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << "graph " << (g.name().empty() ? "unnamed" : g.name()) << '\n';
  for (const Actor& a : g.actors()) {
    os << "actor " << a.name << ' ' << a.exec_time << '\n';
  }
  for (const Channel& c : g.channels()) {
    os << "channel " << g.actor(c.src).name << ' ' << g.actor(c.dst).name << ' '
       << c.prod_rate << ' ' << c.cons_rate << ' ' << c.initial_tokens << '\n';
  }
  os << "end\n";
}

void write_graph(std::ostream& os, const Graph& g, const ExecTimeModel& model) {
  if (model.size() != g.actor_count()) {
    throw std::invalid_argument(
        "write_graph: exec-time model size does not match actor count");
  }
  os << "graph " << (g.name().empty() ? "unnamed" : g.name()) << '\n';
  for (const Actor& a : g.actors()) {
    os << "actor " << a.name << ' ' << a.exec_time << '\n';
  }
  for (std::size_t i = 0; i < model.size(); ++i) {
    const ExecTimeDistribution& d = model[i];
    const std::string& name = g.actor(static_cast<ActorId>(i)).name;
    if (d.is_constant()) {
      os << "dist " << name << " constant " << d.outcomes().front().value << '\n';
    } else {
      // Outcomes are stored sorted + normalised; written as-is they parse
      // back through from_normalised bitwise (uniform shapes included).
      os << "dist " << name << " discrete " << d.outcomes().size();
      for (const auto& o : d.outcomes()) {
        os << ' ' << o.value << ' ' << weight_to_text(o.weight);
      }
      os << '\n';
    }
  }
  for (const Channel& c : g.channels()) {
    os << "channel " << g.actor(c.src).name << ' ' << g.actor(c.dst).name << ' '
       << c.prod_rate << ' ' << c.cons_rate << ' ' << c.initial_tokens << '\n';
  }
  os << "end\n";
}

std::string to_text(const Graph& g) {
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

namespace {

// Reads one graph starting at the current stream position. Returns nullopt
// if the stream is exhausted before a "graph" keyword is found. `model`
// receives the graph's `dist` lines (defaulted to constant(exec_time));
// nullptr REJECTS dist lines — a model-free parse must not silently drop a
// stochastic model.
std::optional<Graph> read_one(std::istream& is, std::size_t& line_no,
                              ExecTimeModel* model) {
  std::string line;
  std::optional<Graph> g;
  std::vector<std::optional<ExecTimeDistribution>> dists;
  const auto finish = [&](Graph done) {
    if (model != nullptr) {
      model->clear();
      model->reserve(done.actor_count());
      for (std::size_t i = 0; i < done.actor_count(); ++i) {
        model->push_back(i < dists.size() && dists[i]
                             ? *std::move(dists[i])
                             : ExecTimeDistribution::constant(
                                   done.actor(static_cast<ActorId>(i)).exec_time));
      }
    }
    return done;
  };
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;
    if (keyword == "graph") {
      std::string name;
      if (!(ls >> name)) fail(line_no, "graph requires a name");
      g.emplace(name);
      dists.clear();
    } else if (keyword == "dist") {
      if (!g) fail(line_no, "dist before graph");
      if (model == nullptr) {
        fail(line_no,
             "stochastic exec-time model present; use the model-aware "
             "read_graph/read_graphs overload");
      }
      std::string actor_name, shape;
      if (!(ls >> actor_name >> shape)) {
        fail(line_no, "dist requires <actor> <constant|uniform|discrete> ...");
      }
      const ActorId a = g->find_actor(actor_name);
      if (a == kInvalidActor) fail(line_no, "unknown actor " + actor_name);
      if (a < dists.size() && dists[a]) fail(line_no, "duplicate dist for " + actor_name);
      if (dists.size() <= a) dists.resize(a + 1);
      try {
        if (shape == "constant") {
          const auto v = read_integer<Time>(ls, line_no, "constant requires <value>");
          dists[a] = ExecTimeDistribution::constant(v);
        } else if (shape == "uniform") {
          const char* usage = "uniform requires <lo> <hi>";
          const auto lo = read_integer<Time>(ls, line_no, usage);
          const auto hi = read_integer<Time>(ls, line_no, usage);
          dists[a] = ExecTimeDistribution::uniform(lo, hi);
        } else if (shape == "discrete") {
          const char* usage = "discrete requires <k> > 0";
          const auto k = read_integer<std::size_t>(ls, line_no, usage);
          if (k == 0) fail(line_no, usage);
          // No reserve(k): k is untrusted until its pairs have been read.
          std::vector<ExecTimeDistribution::Outcome> outcomes;
          const char* pairs = "discrete requires k <value weight> pairs";
          for (std::size_t i = 0; i < k; ++i) {
            const auto v = read_integer<Time>(ls, line_no, pairs);
            std::string w;
            if (!(ls >> w)) fail(line_no, pairs);
            outcomes.push_back({v, weight_from_text(line_no, w)});
          }
          dists[a] = ExecTimeDistribution::from_normalised(std::move(outcomes));
        } else {
          fail(line_no, "unknown dist shape '" + shape + "'");
        }
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (keyword == "actor") {
      if (!g) fail(line_no, "actor before graph");
      const char* usage = "actor requires <name> <exec_time>";
      std::string name;
      if (!(ls >> name)) fail(line_no, usage);
      const auto tau = read_integer<Time>(ls, line_no, usage);
      if (g->find_actor(name) != kInvalidActor) fail(line_no, "duplicate actor " + name);
      try {
        g->add_actor(name, tau);
      } catch (const GraphError& e) {
        fail(line_no, e.what());
      }
    } else if (keyword == "channel") {
      if (!g) fail(line_no, "channel before graph");
      const char* usage = "channel requires <src> <dst> <prod> <cons> <tokens>";
      std::string src, dst;
      if (!(ls >> src >> dst)) fail(line_no, usage);
      const auto prod = read_integer<std::int64_t>(ls, line_no, usage);
      const auto cons = read_integer<std::int64_t>(ls, line_no, usage);
      const auto tokens = read_integer<std::int64_t>(ls, line_no, usage);
      const ActorId s = g->find_actor(src);
      const ActorId d = g->find_actor(dst);
      if (s == kInvalidActor) fail(line_no, "unknown actor " + src);
      if (d == kInvalidActor) fail(line_no, "unknown actor " + dst);
      if (prod <= 0 || cons <= 0 || tokens < 0) fail(line_no, "invalid channel parameters");
      constexpr std::int64_t kMaxRate = std::numeric_limits<std::uint32_t>::max();
      if (prod > kMaxRate || cons > kMaxRate) {
        fail(line_no, "channel rate exceeds " + std::to_string(kMaxRate));
      }
      try {
        g->add_channel(s, d, static_cast<std::uint32_t>(prod),
                       static_cast<std::uint32_t>(cons),
                       static_cast<std::uint64_t>(tokens));
      } catch (const GraphError& e) {
        fail(line_no, e.what());
      }
    } else if (keyword == "end") {
      if (!g) fail(line_no, "end before graph");
      return finish(*std::move(g));
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
    if (std::string extra; ls >> extra) {
      fail(line_no, "unexpected field '" + extra + "' after the last one");
    }
  }
  if (g) fail(line_no, "unexpected end of input (missing 'end')");
  return std::nullopt;
}

}  // namespace

Graph read_graph(std::istream& is) {
  std::size_t line_no = 0;
  auto g = read_one(is, line_no, nullptr);
  if (!g) throw ParseError("no graph found in input");
  return *std::move(g);
}

Graph read_graph(std::istream& is, ExecTimeModel& model) {
  std::size_t line_no = 0;
  auto g = read_one(is, line_no, &model);
  if (!g) throw ParseError("no graph found in input");
  return *std::move(g);
}

Graph graph_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

std::vector<Graph> read_graphs(std::istream& is) {
  std::vector<Graph> graphs;
  std::size_t line_no = 0;
  while (auto g = read_one(is, line_no, nullptr)) {
    graphs.push_back(*std::move(g));
  }
  return graphs;
}

std::vector<Graph> read_graphs(std::istream& is,
                               std::vector<ExecTimeModel>& models) {
  std::vector<Graph> graphs;
  models.clear();
  std::size_t line_no = 0;
  ExecTimeModel model;
  while (auto g = read_one(is, line_no, &model)) {
    graphs.push_back(*std::move(g));
    models.push_back(std::move(model));
  }
  return graphs;
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "digraph \"" << (g.name().empty() ? "sdf" : g.name()) << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=circle];\n";
  for (std::size_t i = 0; i < g.actor_count(); ++i) {
    const Actor& a = g.actor(static_cast<ActorId>(i));
    os << "  a" << i << " [label=\"" << a.name << "\\n(" << a.exec_time << ")\"];\n";
  }
  for (const Channel& c : g.channels()) {
    os << "  a" << c.src << " -> a" << c.dst << " [label=\"" << c.prod_rate << "/"
       << c.cons_rate;
    if (c.initial_tokens > 0) os << " [" << c.initial_tokens << "]";
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace procon::sdf
