#include "sdf/io.h"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string_view>
#include <typeinfo>

#include "gen/graph_generator.h"
#include "helpers.h"
#include "util/rng.h"

namespace procon::sdf {
namespace {

TEST(Io, RoundTripPaperGraph) {
  const Graph g = procon::testing::fig2_graph_a();
  const Graph g2 = graph_from_text(to_text(g));
  EXPECT_EQ(g2.name(), g.name());
  ASSERT_EQ(g2.actor_count(), g.actor_count());
  ASSERT_EQ(g2.channel_count(), g.channel_count());
  for (ActorId a = 0; a < g.actor_count(); ++a) {
    EXPECT_EQ(g2.actor(a).name, g.actor(a).name);
    EXPECT_EQ(g2.actor(a).exec_time, g.actor(a).exec_time);
  }
  for (ChannelId c = 0; c < g.channel_count(); ++c) {
    EXPECT_EQ(g2.channel(c).src, g.channel(c).src);
    EXPECT_EQ(g2.channel(c).dst, g.channel(c).dst);
    EXPECT_EQ(g2.channel(c).prod_rate, g.channel(c).prod_rate);
    EXPECT_EQ(g2.channel(c).cons_rate, g.channel(c).cons_rate);
    EXPECT_EQ(g2.channel(c).initial_tokens, g.channel(c).initial_tokens);
  }
}

TEST(Io, ParsesCommentsAndBlankLines) {
  const std::string text = R"(# a comment
graph demo

actor x 5
# another comment
actor y 7
channel x y 1 1 0
channel y x 1 1 1
end
)";
  const Graph g = graph_from_text(text);
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.actor_count(), 2u);
  EXPECT_EQ(g.channel_count(), 2u);
}

TEST(Io, MultipleGraphs) {
  std::ostringstream os;
  write_graph(os, procon::testing::fig2_graph_a());
  write_graph(os, procon::testing::fig2_graph_b());
  std::istringstream is(os.str());
  const auto graphs = read_graphs(is);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].name(), "A");
  EXPECT_EQ(graphs[1].name(), "B");
}

TEST(Io, ErrorUnknownActor) {
  const std::string text = "graph g\nactor a 1\nchannel a zz 1 1 0\nend\n";
  EXPECT_THROW(graph_from_text(text), ParseError);
}

TEST(Io, ErrorDuplicateActor) {
  const std::string text = "graph g\nactor a 1\nactor a 2\nend\n";
  EXPECT_THROW(graph_from_text(text), ParseError);
}

TEST(Io, ErrorMissingEnd) {
  const std::string text = "graph g\nactor a 1\n";
  EXPECT_THROW(graph_from_text(text), ParseError);
}

TEST(Io, ErrorActorBeforeGraph) {
  EXPECT_THROW(graph_from_text("actor a 1\nend\n"), ParseError);
}

TEST(Io, ErrorBadChannelParams) {
  const std::string text = "graph g\nactor a 1\nchannel a a 0 1 0\nend\n";
  EXPECT_THROW(graph_from_text(text), ParseError);
}

TEST(Io, ErrorUnknownKeyword) {
  EXPECT_THROW(graph_from_text("graph g\nfrobnicate\nend\n"), ParseError);
}

TEST(Io, ErrorEmptyInput) {
  EXPECT_THROW(graph_from_text(""), ParseError);
}

TEST(Io, ErrorMentionsLineNumber) {
  const std::string text = "graph g\nactor a 1\nchannel a b 1 1 0\nend\n";
  try {
    (void)graph_from_text(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Io, RoundTripStochasticModelBitwise) {
  const Graph g = procon::testing::fig2_graph_a();
  ExecTimeModel model;
  model.push_back(ExecTimeDistribution::uniform(2, 7));
  model.push_back(ExecTimeDistribution::discrete(
      {{3, 0.2}, {5, 0.5}, {11, 0.3}}));
  for (ActorId a = 2; a < g.actor_count(); ++a) {
    model.push_back(ExecTimeDistribution::constant(g.actor(a).exec_time));
  }

  std::ostringstream os;
  write_graph(os, g, model);
  std::istringstream is(os.str());
  ExecTimeModel back;
  const Graph g2 = read_graph(is, back);

  EXPECT_EQ(g2.actor_count(), g.actor_count());
  ASSERT_EQ(back.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(back[i].outcomes().size(), model[i].outcomes().size());
    for (std::size_t k = 0; k < model[i].outcomes().size(); ++k) {
      EXPECT_EQ(back[i].outcomes()[k].value, model[i].outcomes()[k].value);
      // Hexfloat weights + from_normalised: bitwise, not approximate.
      EXPECT_EQ(back[i].outcomes()[k].weight, model[i].outcomes()[k].weight);
    }
    EXPECT_EQ(back[i].mean(), model[i].mean());
    EXPECT_EQ(back[i].second_moment(), model[i].second_moment());
    // Sampling reads the cumulative table: identical draws prove it was
    // rebuilt bitwise too.
    util::Rng rng_a(99);
    util::Rng rng_b(99);
    for (int d = 0; d < 64; ++d) {
      EXPECT_EQ(back[i].sample(rng_a), model[i].sample(rng_b));
    }
  }
}

TEST(Io, ModelAwareReadDefaultsMissingDistToConstant) {
  const std::string text =
      "graph g\nactor a 4\nactor b 6\ndist a uniform 3 5\n"
      "channel a b 1 1 0\nchannel b a 1 1 1\nend\n";
  std::istringstream is(text);
  ExecTimeModel model;
  const Graph g = read_graph(is, model);
  ASSERT_EQ(model.size(), 2u);
  EXPECT_FALSE(model[0].is_constant());
  ASSERT_TRUE(model[1].is_constant());
  EXPECT_EQ(model[1].outcomes()[0].value, g.actor(1).exec_time);
}

TEST(Io, ModelFreeReadRejectsDistLines) {
  // The model-free parser must not silently drop a stochastic model.
  const std::string text =
      "graph g\nactor a 4\ndist a uniform 3 5\nend\n";
  EXPECT_THROW(graph_from_text(text), ParseError);
  std::istringstream is(text);
  EXPECT_THROW((void)read_graphs(is), ParseError);
}

// ---- hostile numbers -------------------------------------------------------
//
// sdf::io is the CLI's only input parser: a hostile number must fail as a
// ParseError naming its line, never as a wrapped rate, a non-finite model, a
// std::length_error / std::bad_alloc from sizing, or signed overflow.

TEST(Io, HostileNumbersRaiseParseErrorNamingTheLine) {
  struct Row {
    std::string_view what;
    std::string_view line;  // becomes line 4 of a two-actor cycle
  };
  const Row rows[] = {
      {"prod rate wraps uint32", "channel a b 4294967297 1 0"},
      {"cons rate wraps uint32", "channel a b 1 4294967297 0"},
      {"weights sum to 2", "dist a discrete 2 1 0x1p0 2 0x1p0"},
      {"nan weight", "dist a discrete 1 1 nan"},
      {"inf weight", "dist a discrete 1 1 inf"},
      {"nan among finite weights", "dist a discrete 2 1 0x1p-1 2 nan"},
      {"k would length_error", "dist a discrete 1000000000000000000 1 0x1p0"},
      {"k would bad_alloc", "dist a discrete 100000000000 1 0x1p0"},
      {"uniform too wide to build", "dist a uniform 0 100000000000"},
      {"uniform width overflows", "dist a uniform 0 9223372036854775807"},
      {"uniform lo negative", "dist a uniform -9223372036854775808 0"},
      {"exponent in an exec time", "actor c 1e3"},
      {"fraction in an exec time", "actor c 1.5"},
      {"suffix on an exec time", "actor c 2x"},
      {"field after an actor", "actor c 4 5"},
      {"fraction in a token count", "channel a b 1 1 1.7"},
      {"field after a channel", "channel a b 1 1 0 junk"},
      {"field after a dist", "dist a constant 1 2"},
  };
  for (const Row& row : rows) {
    const std::string text = "graph g\nactor a 1\nactor b 1\n" +
                             std::string(row.line) +
                             "\nchannel a b 1 1 0\nchannel b a 1 1 1\nend\n";
    std::istringstream is(text);
    std::vector<ExecTimeModel> models;
    try {
      (void)read_graphs(is, models);
      ADD_FAILURE() << row.what << ": parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << row.what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row.what << ": escaped as " << typeid(e).name() << ": "
                    << e.what();
    }
  }
}

/// Replaces 1-4 random tokens of `base` with extreme numbers and, one time
/// in four, truncates the result.
std::string mutate(const std::string& base, util::Rng& rng) {
  static constexpr std::array<std::string_view, 8> kExtremes = {
      "0",   "-1",  "4294967297", "9223372036854775807", "-9223372036854775808",
      "nan", "inf", "1000000000000"};
  // Token spans: maximal runs of non-whitespace.
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < base.size();) {
    if (std::isspace(static_cast<unsigned char>(base[i]))) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < base.size() && !std::isspace(static_cast<unsigned char>(base[i]))) ++i;
    tokens.emplace_back(start, i - start);
  }
  const auto swaps = rng.uniform_int(1, 4);
  std::vector<std::string_view> replacement(tokens.size());
  for (std::int64_t k = 0; k < swaps; ++k) {
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tokens.size()) - 1));
    replacement[t] = kExtremes[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(kExtremes.size()) - 1))];
  }
  std::string out;
  std::size_t at = 0;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (replacement[t].empty()) continue;
    out.append(base, at, tokens[t].first - at);
    out.append(replacement[t]);
    at = tokens[t].first + tokens[t].second;
  }
  out.append(base, at);
  if (rng.uniform01() < 0.25) {
    out.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out.size()))));
  }
  return out;
}

TEST(Io, MutatedNumbersOnlyEscapeAsParseOrGraphError) {
  // Generated graphs with constant and uniform models (write_graph emits a
  // non-constant model as `discrete` hexfloat pairs), plus one graph that
  // spells out the `uniform` and `constant` shapes.
  util::Rng rng(0x5DF);
  gen::GeneratorOptions gopts;
  gopts.min_actors = 3;
  gopts.max_actors = 5;
  std::ostringstream os;
  for (const Graph& g : gen::generate_graphs(rng, gopts, 3)) {
    ExecTimeModel model;
    for (const Actor& a : g.actors()) {
      const Time d = a.exec_time / 4;
      model.push_back(d == 0 ? ExecTimeDistribution::constant(a.exec_time)
                             : ExecTimeDistribution::uniform(a.exec_time - d,
                                                             a.exec_time + d));
    }
    write_graph(os, g, model);
  }
  os << "graph shapes\nactor x 4\nactor y 6\ndist x uniform 3 5\n"
        "dist y constant 6\nchannel x y 2 1 0\nchannel y x 1 2 2\nend\n";
  const std::string valid = os.str();

  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    std::vector<ExecTimeModel> models;
    const std::vector<Graph> graphs = read_graphs(is, models);
    EXPECT_EQ(models.size(), graphs.size());
    for (const ExecTimeModel& m : models) {
      for (const ExecTimeDistribution& d : m) {
        EXPECT_TRUE(std::isfinite(d.mean())) << "non-finite mean in:\n" << text;
      }
    }
    return graphs.size();
  };
  ASSERT_EQ(parse(valid), 4u);

  for (int mutant = 0; mutant < 20'000; ++mutant) {
    const std::string text = mutate(valid, rng);
    try {
      (void)parse(text);
    } catch (const ParseError&) {
    } catch (const GraphError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << mutant << " escaped as " << typeid(e).name()
                    << ": " << e.what();
    }
    if (::testing::Test::HasFailure()) break;  // one report, not thousands
  }
}

TEST(Io, DotContainsActorsAndRates) {
  const std::string dot = to_dot(procon::testing::fig2_graph_a());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("a0"), std::string::npos);
  EXPECT_NE(dot.find("2/1"), std::string::npos);
  EXPECT_NE(dot.find("[1]"), std::string::npos);  // initial token annotation
}

}  // namespace
}  // namespace procon::sdf
