#include "prob/waiting_time.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis_oracle.h"
#include "prob/compose.h"
#include "util/rng.h"
#include "util/symmetric_poly.h"

namespace procon::prob {
namespace {

using procon::testing::waiting_time_exact_bruteforce;

ActorLoad make_load(double tau, double p) {
  ActorLoad l;
  l.exec_time = tau;
  l.probability = p;
  l.mean_blocking = tau / 2.0;
  return l;
}

TEST(WaitingTime, EmptyNodeNoWaiting) {
  EXPECT_DOUBLE_EQ(waiting_time_exact({}), 0.0);
  EXPECT_DOUBLE_EQ(waiting_time_second_order({}), 0.0);
}

TEST(WaitingTime, SingleBlocker) {
  // Section 3's opening example: b0 waits mu(a0) * P(a0) = 50/3 ~ 17.
  const std::vector<ActorLoad> others{make_load(100.0, 1.0 / 3.0)};
  const double expected = 50.0 / 3.0;
  EXPECT_NEAR(waiting_time_exact(others), expected, 1e-12);
  // All orders coincide with a single blocker.
  EXPECT_NEAR(waiting_time_second_order(others), expected, 1e-12);
  EXPECT_NEAR(waiting_time_fourth_order(others), expected, 1e-12);
  EXPECT_NEAR(waiting_time_approx(others, 1), expected, 1e-12);
}

TEST(WaitingTime, TwoBlockersMatchesSection32) {
  // t_wait(c) = muA PA (1 + PB/2) + muB PB (1 + PA/2).
  const ActorLoad a = make_load(80.0, 0.4);   // mu = 40
  const ActorLoad b = make_load(60.0, 0.25);  // mu = 30
  const double expected = 40.0 * 0.4 * (1.0 + 0.25 / 2.0) +
                          30.0 * 0.25 * (1.0 + 0.4 / 2.0);
  const std::vector<ActorLoad> others{a, b};
  EXPECT_NEAR(waiting_time_exact(others), expected, 1e-12);
  // With two actors the series ends at j = 1, so 2nd order is exact.
  EXPECT_NEAR(waiting_time_second_order(others), expected, 1e-12);
}

TEST(WaitingTime, ThreeBlockersMatchesEquation3) {
  const ActorLoad a = make_load(100.0, 0.3);
  const ActorLoad b = make_load(50.0, 0.2);
  const ActorLoad c = make_load(80.0, 0.5);
  auto term = [](const ActorLoad& x, const ActorLoad& y, const ActorLoad& z) {
    return x.mean_blocking * x.probability *
           (1.0 + 0.5 * (y.probability + z.probability) -
            (1.0 / 3.0) * y.probability * z.probability);
  };
  const double expected = term(a, b, c) + term(b, a, c) + term(c, a, b);
  const std::vector<ActorLoad> others{a, b, c};
  EXPECT_NEAR(waiting_time_exact(others), expected, 1e-12);
  // Third order captures the full series for three actors.
  EXPECT_NEAR(waiting_time_approx(others, 3), expected, 1e-12);
}

TEST(WaitingTime, SecondOrderFormulaEq5) {
  // Eq. 5: sum_i mu_i P_i (1 + 1/2 sum_{j != i} P_j).
  const std::vector<ActorLoad> others{make_load(10.0, 0.1), make_load(20.0, 0.2),
                                      make_load(30.0, 0.3), make_load(40.0, 0.4)};
  double expected = 0.0;
  for (std::size_t i = 0; i < others.size(); ++i) {
    double psum = 0.0;
    for (std::size_t j = 0; j < others.size(); ++j) {
      if (j != i) psum += others[j].probability;
    }
    expected += others[i].weighted_blocking() * (1.0 + 0.5 * psum);
  }
  EXPECT_NEAR(waiting_time_second_order(others), expected, 1e-12);
}

TEST(WaitingTime, InvalidOrderThrows) {
  const std::vector<ActorLoad> others{make_load(1.0, 0.5)};
  EXPECT_THROW((void)waiting_time_approx(others, 0), std::invalid_argument);
}

TEST(WaitingTime, BruteForceGuard) {
  const std::vector<ActorLoad> big(25, make_load(1.0, 0.1));
  EXPECT_THROW((void)waiting_time_exact_bruteforce(big), std::invalid_argument);
}

TEST(WaitingTime, OrderBeyondCountEqualsExact) {
  const std::vector<ActorLoad> others{make_load(10.0, 0.3), make_load(20.0, 0.6),
                                      make_load(15.0, 0.2)};
  EXPECT_NEAR(waiting_time_approx(others, 10), waiting_time_exact(others), 1e-12);
}

TEST(WaitingTime, ZeroProbabilityActorIsInvisible) {
  const std::vector<ActorLoad> with{make_load(10.0, 0.4), make_load(99.0, 0.0)};
  const std::vector<ActorLoad> without{make_load(10.0, 0.4)};
  EXPECT_NEAR(waiting_time_exact(with), waiting_time_exact(without), 1e-12);
}

// -------- bit identity of the capped kernels -----------------------------

/// The uncapped evaluation: the full symmetric-polynomial DP and one full
/// leave-one-out family per actor, summed exactly as the kernel sums them.
double uncapped_series(std::span<const ActorLoad> others, std::size_t max_j) {
  const std::size_t n = others.size();
  if (n == 0) return 0.0;
  std::vector<double> probs(n);
  for (std::size_t i = 0; i < n; ++i) probs[i] = others[i].probability;
  const std::vector<double> e = util::elementary_symmetric(probs);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> ei = util::elementary_symmetric_remove_one(e, probs[i]);
    double series = 1.0;
    double sign = 1.0;
    const std::size_t limit = std::min(max_j, n - 1);
    for (std::size_t j = 1; j <= limit; ++j) {
      series += sign * ei[j] / static_cast<double>(j + 1);
      sign = -sign;
    }
    total += others[i].weighted_blocking() * series;
  }
  return total;
}

TEST(WaitingTime, CappedKernelsAreBitwiseUncapped) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::array<std::pair<double, double>, 3> ranges{
      {{0.0, 0.05}, {0.0, 1.0}, {0.9, 1.0}}};
  util::Rng rng(404);
  std::size_t cases = 0;
  for (std::size_t n = 0; n <= 40; ++n) {
    for (const auto& [lo, hi] : ranges) {
      for (int sample = 0; sample < 4; ++sample) {
        std::vector<ActorLoad> loads;
        for (std::size_t i = 0; i < n; ++i) {
          loads.push_back(make_load(rng.uniform_real(1.0, 100.0), rng.uniform_real(lo, hi)));
        }
        for (std::size_t m = 1; m <= n + 1; ++m) {
          EXPECT_EQ(bits(waiting_time_approx(loads, static_cast<int>(m))),
                    bits(uncapped_series(loads, m - 1)))
              << "n=" << n << " P in [" << lo << ", " << hi << "] order=" << m;
        }
        EXPECT_EQ(bits(waiting_time_exact(loads)),
                  bits(uncapped_series(loads, n == 0 ? 0 : n - 1)))
            << "n=" << n << " P in [" << lo << ", " << hi << "] exact";
        cases += n + 2;
      }
    }
  }
  EXPECT_GT(cases, 10'000u);
}

// -------- node kernels against the per-actor reference -------------------

/// Loads with P from [lo, hi], about a tenth of them exactly 0 and a tenth
/// exactly 1.
std::vector<ActorLoad> node_loads(util::Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<ActorLoad> loads;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    const double p = u < 0.1 ? 0.0 : u < 0.2 ? 1.0 : rng.uniform_real(lo, hi);
    loads.push_back(make_load(rng.uniform_real(1.0, 100.0), p));
  }
  return loads;
}

TEST(WaitingTime, NodeKernelMatchesPerActorBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::array<std::pair<double, double>, 2> ranges{{{0.0, 0.3}, {0.9, 1.0}}};
  util::Rng rng(2207);
  std::vector<double> lanes;  // one scratch for every call, as the estimator holds it
  std::size_t lanes_checked = 0;
  for (std::size_t n = 0; n <= 40; ++n) {
    for (const auto& [lo, hi] : ranges) {
      const std::vector<ActorLoad> loads = node_loads(rng, n, lo, hi);
      std::vector<double> node(n);
      std::vector<ActorLoad> others;
      const auto others_of = [&](std::size_t k) -> std::span<const ActorLoad> {
        others.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (i != k) others.push_back(loads[i]);
        }
        return others;
      };
      for (std::size_t m = 1; m <= n + 1; ++m) {
        node_waiting_times(loads, static_cast<int>(m), lanes, node);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(bits(node[k]), bits(waiting_time_approx(others_of(k), static_cast<int>(m))))
              << "n=" << n << " P in [" << lo << ", " << hi << "] order=" << m << " lane " << k;
        }
        lanes_checked += n;
      }
      node_waiting_times(loads, static_cast<int>(std::max<std::size_t>(n, 1)), lanes, node);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits(node[k]), bits(waiting_time_exact(others_of(k))))
            << "n=" << n << " P in [" << lo << ", " << hi << "] exact lane " << k;
      }
      node_composed_waiting_times(loads, lanes, node);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits(node[k]), bits(compose_all(others_of(k)).weighted_blocking))
            << "n=" << n << " P in [" << lo << ", " << hi << "] composability lane " << k;
      }
      lanes_checked += 2 * n;
    }
  }
  EXPECT_GT(lanes_checked, 40'000u);
}

TEST(WaitingTime, NodeKernelRejectsBadArguments) {
  const std::vector<ActorLoad> loads{make_load(1.0, 0.5), make_load(2.0, 0.25)};
  std::vector<double> lanes;
  std::vector<double> one(1);
  std::vector<double> two(2);
  EXPECT_THROW(node_waiting_times(loads, 2, lanes, one), std::invalid_argument);
  EXPECT_THROW(node_waiting_times(loads, 0, lanes, two), std::invalid_argument);
  EXPECT_THROW(node_composed_waiting_times(loads, lanes, one), std::invalid_argument);
}

// -------- saturation audit (P -> 1) ---------------------------------------

/// Eq. 4 in long double, each actor's e_j rebuilt from scratch over the
/// others: no leave-one-out deconvolution, so no error amplification.
long double exact_reference(std::span<const ActorLoad> others) {
  const std::size_t n = others.size();
  std::vector<long double> e(n);
  long double total = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(e.begin(), e.end(), 0.0L);
    e[0] = 1.0L;
    std::size_t used = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      ++used;
      const long double p = others[k].probability;
      for (std::size_t j = used; j >= 1; --j) e[j] += p * e[j - 1];
    }
    long double series = 1.0L;
    long double sign = 1.0L;
    for (std::size_t j = 1; j < n; ++j) {
      series += sign * e[j] / static_cast<long double>(j + 1);
      sign = -sign;
    }
    total += static_cast<long double>(others[i].mean_blocking) *
             static_cast<long double>(others[i].probability) * series;
  }
  return total;
}

/// Loads with P drawn from [0.9, 1], a quarter of them exactly 1 (the
/// paper's saturated case); sample 0 is all ones.
std::vector<ActorLoad> saturated_loads(util::Rng& rng, std::size_t n, int sample) {
  std::vector<ActorLoad> loads;
  for (std::size_t i = 0; i < n; ++i) {
    const double p =
        sample == 0 || rng.uniform01() < 0.25 ? 1.0 : rng.uniform_real(0.9, 1.0);
    loads.push_back(make_load(rng.uniform_real(1.0, 100.0), p));
  }
  return loads;
}

TEST(WaitingTime, SaturationAuditAgainstLongDouble) {
  // The forward deconvolution e'_j = e_j - P e'_{j-1} amplifies rounding
  // error as P -> 1; the growth is documented in prob/waiting_time.h.
  util::Rng rng(2007);
  for (std::size_t n = 1; n <= 20; ++n) {
    double worst = 0.0;
    for (int sample = 0; sample < 100; ++sample) {
      const auto loads = saturated_loads(rng, n, sample);
      const long double ref = exact_reference(loads);
      const double rel = static_cast<double>(
          std::fabs(static_cast<long double>(waiting_time_exact(loads)) - ref) / ref);
      worst = std::max(worst, rel);
    }
    EXPECT_LE(worst, 1e-9) << "n=" << n;
  }
}

// -------- property-based sweeps ------------------------------------------

class WaitingTimeProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<ActorLoad> random_loads(util::Rng& rng, std::size_t max_n = 10) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_n)));
    std::vector<ActorLoad> loads;
    for (std::size_t i = 0; i < n; ++i) {
      loads.push_back(make_load(rng.uniform_real(1.0, 100.0),
                                rng.uniform_real(0.01, 0.95)));
    }
    return loads;
  }
};

TEST_P(WaitingTimeProperty, DpMatchesBruteForce) {
  util::Rng rng(GetParam());
  const auto loads = random_loads(rng);
  const double dp = waiting_time_exact(loads);
  const double bf = waiting_time_exact_bruteforce(loads);
  EXPECT_NEAR(dp, bf, 1e-9 * std::max(1.0, std::abs(bf))) << "seed=" << GetParam();
}

TEST_P(WaitingTimeProperty, SecondOrderIsMoreConservativeThanExact) {
  // The paper observes the 2nd-order estimate is always more conservative
  // (larger) than higher orders: truncating after the positive j=1 term
  // omits the negative j=2 correction.
  util::Rng rng(GetParam() + 1000);
  const auto loads = random_loads(rng);
  EXPECT_GE(waiting_time_second_order(loads) + 1e-12, waiting_time_exact(loads));
}

TEST_P(WaitingTimeProperty, AlternatingTruncationBracketsExact) {
  // Truncations after a positive term over-estimate; after a negative term
  // under-estimate (alternating-series bracket around Eq. 4).
  util::Rng rng(GetParam() + 2000);
  const auto loads = random_loads(rng);
  const double exact = waiting_time_exact(loads);
  const double even = waiting_time_approx(loads, 2);  // ends on +e1 term
  const double odd = waiting_time_approx(loads, 3);   // ends on -e2 term
  EXPECT_GE(even + 1e-12, exact);
  EXPECT_LE(odd - 1e-12, exact);
}

TEST_P(WaitingTimeProperty, ConservativeOrdering2nd4thExact) {
  // Paper (Section 5): "the second order estimate is always more
  // conservative than the fourth order estimate". Both even orders
  // over-estimate; the pointwise truncation error is C(k,m)/(k+1) which
  // shrinks as m grows: 2nd >= 4th >= exact.
  util::Rng rng(GetParam() + 5000);
  const auto loads = random_loads(rng);
  const double second = waiting_time_second_order(loads);
  const double fourth = waiting_time_fourth_order(loads);
  const double exact = waiting_time_exact(loads);
  EXPECT_GE(second + 1e-12, fourth);
  EXPECT_GE(fourth + 1e-12, exact);
}

TEST_P(WaitingTimeProperty, MonotoneInAddedLoad) {
  // Adding one more contender can only increase the expected waiting time.
  util::Rng rng(GetParam() + 3000);
  auto loads = random_loads(rng, 8);
  const double before = waiting_time_exact(loads);
  loads.push_back(make_load(rng.uniform_real(1.0, 100.0),
                            rng.uniform_real(0.05, 0.9)));
  EXPECT_GE(waiting_time_exact(loads) + 1e-12, before);
}

TEST_P(WaitingTimeProperty, WaitingNonNegative) {
  // The exact value and every *even*-order truncation are non-negative
  // (even orders over-estimate the non-negative exact value; order 1 is a
  // sum of non-negative terms). Odd orders >= 3 may undershoot below zero
  // at extreme loads - a documented artefact of the truncation.
  util::Rng rng(GetParam() + 4000);
  const auto loads = random_loads(rng);
  EXPECT_GE(waiting_time_exact(loads), 0.0);
  for (const int order : {1, 2, 4, 6}) {
    EXPECT_GE(waiting_time_approx(loads, order), 0.0) << "order " << order;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitingTimeProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace procon::prob
