#include "sdf/repetition.h"

#include "util/rational.h"

namespace procon::sdf {
namespace {

using util::checked_mul;

/// A positive firing-rate ratio num/den, gcd-reduced; den == 0 = unvisited.
struct Ratio {
  std::int64_t num = 0;
  std::int64_t den = 0;
};

/// r * p / c for positive rates: the two cross-reduced products of
/// util::Rational's multiply and divide, with the same overflow checks.
/// Cross-reducing keeps the result in lowest terms, so no final gcd.
Ratio scale(Ratio r, std::int64_t p, std::int64_t c) {
  const std::int64_t gp = util::gcd64(p, r.den);
  const std::int64_t num = checked_mul(r.num, p / gp);
  const std::int64_t den = r.den / gp;
  const std::int64_t gc = util::gcd64(num, c);
  return Ratio{num / gc, checked_mul(den, c / gc)};
}

}  // namespace

std::optional<RepetitionVector> compute_repetition_vector(const Graph& g) {
  const std::size_t n = g.actor_count();
  std::vector<Ratio> ratio(n);
  std::vector<int> component(n, -1);
  // Breadth-first visit order over all components: each actor is queued
  // once, so one array of n entries is the FIFO of every component's walk.
  std::vector<ActorId> order;
  order.reserve(n);
  int ncomp = 0;

  // BFS over the undirected structure, propagating firing-rate ratios.
  for (ActorId start = 0; start < n; ++start) {
    if (component[start] != -1) continue;
    const int comp = ncomp++;
    component[start] = comp;
    ratio[start] = Ratio{1, 1};
    std::size_t head = order.size();
    order.push_back(start);
    while (head < order.size()) {
      const ActorId a = order[head++];
      auto relax = [&](ActorId b, Ratio expected) -> bool {
        if (component[b] == -1) {
          component[b] = comp;
          ratio[b] = expected;
          order.push_back(b);
          return true;
        }
        return ratio[b].num == expected.num && ratio[b].den == expected.den;
      };
      for (const ChannelId cid : g.out_channels(a)) {
        const Channel& c = g.channel(cid);
        // q[a]*prod == q[dst]*cons  =>  q[dst] = q[a]*prod/cons.
        if (!relax(c.dst, scale(ratio[a], c.prod_rate, c.cons_rate))) {
          return std::nullopt;
        }
      }
      for (const ChannelId cid : g.in_channels(a)) {
        const Channel& c = g.channel(cid);
        if (!relax(c.src, scale(ratio[a], c.cons_rate, c.prod_rate))) {
          return std::nullopt;
        }
      }
    }
  }

  // Scale each component to the smallest positive integer vector.
  std::vector<std::int64_t> den_lcm(static_cast<std::size_t>(ncomp), 1);
  for (ActorId a = 0; a < n; ++a) {
    auto& l = den_lcm[static_cast<std::size_t>(component[a])];
    l = util::lcm64(l, ratio[a].den);
  }
  std::vector<std::int64_t> num_gcd(static_cast<std::size_t>(ncomp), 0);
  RepetitionVector q(n, 0);
  for (ActorId a = 0; a < n; ++a) {
    const auto comp = static_cast<std::size_t>(component[a]);
    // den divides the component's lcm, so this is exact.
    const std::int64_t scaled = checked_mul(ratio[a].num, den_lcm[comp] / ratio[a].den);
    q[a] = static_cast<std::uint64_t>(scaled);
    num_gcd[comp] = util::gcd64(num_gcd[comp], scaled);
  }
  for (ActorId a = 0; a < n; ++a) {
    q[a] /= static_cast<std::uint64_t>(num_gcd[static_cast<std::size_t>(component[a])]);
  }
  return q;
}

bool is_consistent(const Graph& g) {
  return compute_repetition_vector(g).has_value();
}

std::uint64_t repetition_sum(const RepetitionVector& q) {
  std::uint64_t s = 0;
  for (const auto v : q) s = v > UINT64_MAX - s ? UINT64_MAX : s + v;
  return s;
}

Time iteration_workload(const Graph& g, const RepetitionVector& q) {
  Time w = 0;
  for (ActorId a = 0; a < g.actor_count(); ++a) {
    w += g.actor(a).exec_time * static_cast<Time>(q[a]);
  }
  return w;
}

}  // namespace procon::sdf
