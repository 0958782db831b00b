#include "util/rational.h"

#include <cmath>
#include <ostream>

namespace procon::util {
namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    throw RationalError("rational addition overflow");
  }
  return r;
}

}  // namespace

std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  const std::int64_t g = gcd64(a, b);
  return checked_mul(a / g, b);
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  if (den_ == 0) throw RationalError("rational with zero denominator");
  normalise();
}

void Rational::normalise() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  const std::int64_t g = gcd64(num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
  if (num_ == 0) den_ = 1;
}

std::int64_t Rational::floor() const noexcept {
  const std::int64_t q = num_ / den_;
  return (num_ % den_ != 0 && num_ < 0) ? q - 1 : q;
}

std::int64_t Rational::ceil() const noexcept {
  const std::int64_t q = num_ / den_;
  return (num_ % den_ != 0 && num_ > 0) ? q + 1 : q;
}

Rational Rational::reciprocal() const {
  if (num_ == 0) throw RationalError("reciprocal of zero");
  return Rational(den_, num_);
}

Rational Rational::abs() const { return num_ < 0 ? Rational(-num_, den_) : *this; }

Rational& Rational::operator+=(const Rational& o) {
  // Reduce cross-terms first to delay overflow: a/b + c/d with g = gcd(b, d).
  const std::int64_t g = gcd64(den_, o.den_);
  const std::int64_t lhs = checked_mul(num_, o.den_ / g);
  const std::int64_t rhs = checked_mul(o.num_, den_ / g);
  num_ = checked_add(lhs, rhs);
  den_ = checked_mul(den_, o.den_ / g);
  normalise();
  return *this;
}

Rational& Rational::operator-=(const Rational& o) { return *this += -o; }

Rational& Rational::operator*=(const Rational& o) {
  // Cross-reduce before multiplying to keep magnitudes small.
  const std::int64_t g1 = gcd64(num_, o.den_);
  const std::int64_t g2 = gcd64(o.num_, den_);
  num_ = checked_mul(num_ / g1, o.num_ / g2);
  den_ = checked_mul(den_ / g2, o.den_ / g1);
  normalise();
  return *this;
}

Rational& Rational::operator/=(const Rational& o) { return *this *= o.reciprocal(); }

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  // Compare a.num * b.den <=> b.num * a.den without overflow via long double
  // fast path and exact fallback.
  try {
    const std::int64_t lhs = checked_mul(a.num_, b.den_);
    const std::int64_t rhs = checked_mul(b.num_, a.den_);
    return lhs <=> rhs;
  } catch (const RationalError&) {
    const long double lhs = static_cast<long double>(a.num_) * b.den_;
    const long double rhs = static_cast<long double>(b.num_) * a.den_;
    if (lhs < rhs) return std::strong_ordering::less;
    if (lhs > rhs) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
}

std::string Rational::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.to_string();
}

}  // namespace procon::util
