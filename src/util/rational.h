// Exact rational arithmetic on 64-bit integers.
//
// Used wherever exactness matters for correctness of the analysis: exact
// period bookkeeping for integer-time graphs. The repetition vector solves
// its balance equations in plain int64 with the same overflow contract (it
// throws RationalError and shares checked_mul/gcd64/lcm64).
// Values are kept normalised (gcd-reduced, denominator > 0) at all times.
#pragma once

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <numeric>
#include <stdexcept>
#include <string>

namespace procon::util {

/// Thrown on rational overflow or division by zero.
class RationalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An exact rational number num/den with int64 components.
///
/// Invariants: den > 0 and gcd(|num|, den) == 1. All arithmetic checks for
/// signed overflow and throws RationalError instead of wrapping.
class Rational {
 public:
  /// Value 0/1.
  constexpr Rational() noexcept : num_(0), den_(1) {}
  /// Integer value n/1.
  constexpr Rational(std::int64_t n) noexcept : num_(n), den_(1) {}  // NOLINT(google-explicit-constructor)
  /// Value num/den; throws RationalError if den == 0.
  Rational(std::int64_t num, std::int64_t den);

  [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

  [[nodiscard]] bool is_integer() const noexcept { return den_ == 1; }
  [[nodiscard]] bool is_zero() const noexcept { return num_ == 0; }

  /// Truncating conversion (towards zero).
  [[nodiscard]] std::int64_t trunc() const noexcept { return num_ / den_; }
  /// Floor division result.
  [[nodiscard]] std::int64_t floor() const noexcept;
  /// Ceiling division result.
  [[nodiscard]] std::int64_t ceil() const noexcept;
  /// Lossy conversion to double.
  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  [[nodiscard]] Rational reciprocal() const;
  [[nodiscard]] Rational abs() const;

  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }
  friend Rational operator-(const Rational& a) { return Rational(-a.num_, a.den_); }

  friend bool operator==(const Rational& a, const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  /// "n" for integers, "n/d" otherwise.
  [[nodiscard]] std::string to_string() const;

 private:
  void normalise();
  std::int64_t num_;
  std::int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// a * b; throws RationalError on signed overflow.
[[nodiscard]] inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw RationalError("rational multiplication overflow");
  }
  return r;
}
/// gcd of two non-negative values, gcd(0, x) == x.
[[nodiscard]] std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept;
/// lcm; throws RationalError on overflow.
[[nodiscard]] std::int64_t lcm64(std::int64_t a, std::int64_t b);

}  // namespace procon::util
