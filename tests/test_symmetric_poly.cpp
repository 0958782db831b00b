#include "util/symmetric_poly.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace procon::util {
namespace {

TEST(ElementarySymmetric, EmptyInput) {
  const auto e = elementary_symmetric({});
  ASSERT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
}

TEST(ElementarySymmetric, SingleValue) {
  const std::vector<double> xs{0.5};
  const auto e = elementary_symmetric(xs);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_DOUBLE_EQ(e[1], 0.5);
}

TEST(ElementarySymmetric, TwoValues) {
  const std::vector<double> xs{2.0, 3.0};
  const auto e = elementary_symmetric(xs);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_DOUBLE_EQ(e[1], 5.0);   // 2 + 3
  EXPECT_DOUBLE_EQ(e[2], 6.0);   // 2 * 3
}

TEST(ElementarySymmetric, ThreeValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto e = elementary_symmetric(xs);
  EXPECT_DOUBLE_EQ(e[1], 6.0);   // 1+2+3
  EXPECT_DOUBLE_EQ(e[2], 11.0);  // 1*2 + 1*3 + 2*3
  EXPECT_DOUBLE_EQ(e[3], 6.0);   // 1*2*3
}

TEST(ElementarySymmetric, GeneratingFunctionIdentity) {
  // prod(1 + x_i t) evaluated at t = 1 equals sum of e_j.
  const std::vector<double> xs{0.1, 0.2, 0.3, 0.4, 0.5};
  const auto e = elementary_symmetric(xs);
  double sum = 0.0;
  for (const double v : e) sum += v;
  double prod = 1.0;
  for (const double x : xs) prod *= 1.0 + x;
  EXPECT_NEAR(sum, prod, 1e-12);
}

TEST(RemoveOne, InverseOfInsertion) {
  const std::vector<double> xs{0.3, 0.7, 0.2, 0.9};
  const auto e_all = elementary_symmetric(xs);
  // Removing 0.7 must give the polynomials of {0.3, 0.2, 0.9}.
  const std::vector<double> expected_set{0.3, 0.2, 0.9};
  const auto expected = elementary_symmetric(expected_set);
  const auto reduced = elementary_symmetric_remove_one(e_all, 0.7);
  ASSERT_EQ(reduced.size(), expected.size());
  for (std::size_t j = 0; j < reduced.size(); ++j) {
    EXPECT_NEAR(reduced[j], expected[j], 1e-12) << "degree " << j;
  }
}

TEST(RemoveOne, RemoveZeroIsTruncation) {
  const std::vector<double> xs{0.0, 0.5, 0.25};
  const auto e = elementary_symmetric(xs);
  const auto reduced = elementary_symmetric_remove_one(e, 0.0);
  const std::vector<double> rest{0.5, 0.25};
  const auto expected = elementary_symmetric(rest);
  for (std::size_t j = 0; j < reduced.size(); ++j) {
    EXPECT_NEAR(reduced[j], expected[j], 1e-12);
  }
}

TEST(RemoveOne, EmptyFamilyThrows) {
  // A family always holds e_0; an empty one must not wrap e.size() - 1.
  std::vector<double> out;
  EXPECT_THROW((void)elementary_symmetric_remove_one({}, 0.5), std::invalid_argument);
  EXPECT_THROW(elementary_symmetric_remove_one_into({}, 0.5, out, 2),
               std::invalid_argument);
}

// A degree cap m keeps e_0..e_m (and e'_0..e'_min(n-1, m)) bit for bit and
// computes nothing above it, so a capped removal can run on a capped family.
TEST(DegreeCap, RetainedDegreesAreBitwiseUncapped) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng(11);
  std::vector<double> capped, capped_ei;
  for (std::size_t n = 0; n <= 30; ++n) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.uniform01();
    const auto full = elementary_symmetric(xs);
    for (std::size_t cap = 0; cap <= n + 1; ++cap) {
      elementary_symmetric_into(xs, capped, cap);
      ASSERT_EQ(capped.size(), n + 1);
      for (std::size_t j = 0; j <= n; ++j) {
        EXPECT_EQ(bits(capped[j]), bits(j <= cap ? full[j] : 0.0))
            << "n=" << n << " cap=" << cap << " j=" << j;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto ei = elementary_symmetric_remove_one(full, xs[i]);
        elementary_symmetric_remove_one_into(capped, xs[i], capped_ei, cap);
        ASSERT_EQ(capped_ei.size(), std::min(n - 1, cap) + 1);
        for (std::size_t j = 0; j < capped_ei.size(); ++j) {
          EXPECT_EQ(bits(capped_ei[j]), bits(ei[j]))
              << "n=" << n << " cap=" << cap << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(SingleDegree, MatchesFullDp) {
  const std::vector<double> xs{0.4, 0.6, 0.8, 0.1};
  for (std::size_t j = 0; j <= xs.size(); ++j) {
    EXPECT_NEAR(elementary_symmetric_single(xs, j), elementary_symmetric(xs)[j], 1e-12);
  }
  EXPECT_DOUBLE_EQ(elementary_symmetric_single(xs, 7), 0.0);  // beyond degree
}

// Property sweep: random probability vectors, every leave-one-out family
// matches a from-scratch computation.
class RemoveOneProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RemoveOneProperty, AllLeaveOneOutFamiliesExact) {
  Rng rng(GetParam());
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform01();
  const auto e = elementary_symmetric(xs);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> rest;
    for (std::size_t k = 0; k < n; ++k) {
      if (k != i) rest.push_back(xs[k]);
    }
    const auto expected = elementary_symmetric(rest);
    const auto reduced = elementary_symmetric_remove_one(e, xs[i]);
    ASSERT_EQ(reduced.size(), expected.size());
    for (std::size_t j = 0; j < reduced.size(); ++j) {
      EXPECT_NEAR(reduced[j], expected[j], 1e-9)
          << "seed=" << GetParam() << " i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemoveOneProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace procon::util
