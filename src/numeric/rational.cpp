#include "numeric/rational.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace dlsched::numeric {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  DLSCHED_EXPECT(!den_.is_zero(), "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_.negate();
    den_.negate();
  }
  if (num_.is_zero()) {
    den_ = BigInt(std::int64_t{1});
    return;
  }
  const BigInt g = BigInt::gcd(num_, den_);
  if (!g.is_one()) {
    num_ /= g;
    den_ /= g;
  }
}

BinaryFraction binary_fraction(double value) noexcept {
  // A subnormal has no hidden bit and the smallest exponent.  Moving the
  // significand's trailing zeros into the exponent leaves it odd.
  constexpr int kFractionBits = 52;
  constexpr int kExponentBias = 1023 + kFractionBits;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const auto biased = static_cast<int>((bits >> kFractionBits) & 0x7ff);
  std::uint64_t significand = bits & ((std::uint64_t{1} << kFractionBits) - 1);
  if (biased != 0) significand |= std::uint64_t{1} << kFractionBits;
  BinaryFraction out;
  out.negative = (bits >> 63) != 0;
  if (significand == 0) return out;
  const int zeros = std::countr_zero(significand);
  out.odd = significand >> zeros;
  out.exponent = std::max(biased, 1) - kExponentBias + zeros;
  return out;
}

Rational Rational::from_double(double value) {
  DLSCHED_EXPECT(std::isfinite(value), "from_double: non-finite value");
  // An odd numerator over a power of two is in lowest terms: no gcd.
  const BinaryFraction fraction = binary_fraction(value);
  if (fraction.odd == 0) return Rational();
  Rational out;
  out.num_ = BigInt(fraction.odd);
  if (fraction.negative) out.num_.negate();
  if (fraction.exponent >= 0) {
    out.num_ <<= static_cast<std::size_t>(fraction.exponent);
  } else {
    out.den_ <<= static_cast<std::size_t>(-fraction.exponent);
  }
  return out;
}

Rational Rational::from_string(std::string_view text) {
  const std::string trimmed = trim(text);
  DLSCHED_EXPECT(!trimmed.empty(), "Rational::from_string: empty input");
  const std::size_t slash = trimmed.find('/');
  if (slash != std::string::npos) {
    return Rational(BigInt::from_string(trimmed.substr(0, slash)),
                    BigInt::from_string(trimmed.substr(slash + 1)));
  }
  const std::size_t dot = trimmed.find('.');
  if (dot != std::string::npos) {
    std::string digits = trimmed.substr(0, dot) + trimmed.substr(dot + 1);
    const std::size_t frac_digits = trimmed.size() - dot - 1;
    BigInt den = BigInt(std::int64_t{10}).pow(frac_digits);
    return Rational(BigInt::from_string(digits), std::move(den));
  }
  return Rational(BigInt::from_string(trimmed));
}

bool Rational::is_integer() const noexcept { return den_.is_one(); }

// Knuth TAOCP 4.5.1: reduce through the denominator gcd so the final
// normalization gcd runs on operands no larger than that gcd -- and skip
// it entirely in the common coprime-denominator case, where the sum of two
// reduced fractions is already in lowest terms.
void Rational::add_impl(const Rational& rhs, bool negate_rhs) {
  const BigInt g = BigInt::gcd(den_, rhs.den_);
  if (g.is_one()) {
    BigInt t = num_ * rhs.den_;
    BigInt u = rhs.num_ * den_;
    if (negate_rhs) {
      t -= u;
    } else {
      t += u;
    }
    if (t.is_zero()) {
      num_ = BigInt();
      den_ = BigInt(std::int64_t{1});
      return;
    }
    num_ = std::move(t);
    den_ *= rhs.den_;
    return;
  }
  const BigInt d1 = den_ / g;
  const BigInt d2 = rhs.den_ / g;
  BigInt t = num_ * d2;
  BigInt u = rhs.num_ * d1;
  if (negate_rhs) {
    t -= u;
  } else {
    t += u;
  }
  if (t.is_zero()) {
    num_ = BigInt();
    den_ = BigInt(std::int64_t{1});
    return;
  }
  // Any common factor of t and d1 * rhs.den_ divides g.
  const BigInt g2 = BigInt::gcd(t, g);
  if (g2.is_one()) {
    num_ = std::move(t);
    den_ = d1 * rhs.den_;
  } else {
    num_ = t / g2;
    den_ = d1 * (rhs.den_ / g2);
  }
}

Rational& Rational::operator+=(const Rational& rhs) {
  add_impl(rhs, /*negate_rhs=*/false);
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  add_impl(rhs, /*negate_rhs=*/true);
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  if (is_zero() || rhs.is_zero()) {
    num_ = BigInt();
    den_ = BigInt(std::int64_t{1});
    return *this;
  }
  if (this == &rhs) {
    // Squaring a reduced fraction stays reduced.
    num_ *= num_;
    den_ *= den_;
    return *this;
  }
  // Cross-reduce: gcd(n1, d2) and gcd(n2, d1) are all that can cancel
  // between two reduced fractions, and they are far smaller operands than
  // the full products.
  const BigInt g1 = BigInt::gcd(num_, rhs.den_);
  const BigInt g2 = BigInt::gcd(rhs.num_, den_);
  if (g1.is_one() && g2.is_one()) {  // coprime: no copies, no divisions
    num_ *= rhs.num_;
    den_ *= rhs.den_;
    return *this;
  }
  BigInt rn = rhs.num_;
  BigInt rd = rhs.den_;
  if (!g1.is_one()) {
    num_ /= g1;
    rd /= g1;
  }
  if (!g2.is_one()) {
    den_ /= g2;
    rn /= g2;
  }
  num_ *= rn;
  den_ *= rd;
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  DLSCHED_EXPECT(!rhs.is_zero(), "rational division by zero");
  if (is_zero()) return *this;
  if (this == &rhs) {
    num_ = BigInt(std::int64_t{1});
    den_ = BigInt(std::int64_t{1});
    return *this;
  }
  const BigInt g1 = BigInt::gcd(num_, rhs.num_);
  const BigInt g2 = BigInt::gcd(rhs.den_, den_);
  if (g1.is_one() && g2.is_one()) {  // coprime: no copies, no divisions
    num_ *= rhs.den_;
    den_ *= rhs.num_;
  } else {
    BigInt rn = rhs.num_;
    BigInt rd = rhs.den_;
    if (!g1.is_one()) {
      num_ /= g1;
      rn /= g1;
    }
    if (!g2.is_one()) {
      den_ /= g2;
      rd /= g2;
    }
    num_ *= rd;
    den_ *= rn;
  }
  if (den_.is_negative()) {
    num_.negate();
    den_.negate();
  }
  return *this;
}

Rational& Rational::sub_mul(const Rational& a, const Rational& b) {
  if (a.is_zero() || b.is_zero()) return *this;
  Rational product = a;
  product *= b;
  return *this -= product;
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.num_.negate();
  return result;
}

Rational Rational::abs() const {
  return is_negative() ? -*this : *this;
}

Rational Rational::inverse() const {
  DLSCHED_EXPECT(!is_zero(), "inverse of zero");
  Rational result;
  result.num_ = den_;
  result.den_ = num_;
  if (result.den_.is_negative()) {
    result.num_.negate();
    result.den_.negate();
  }
  return result;
}

int Rational::compare(const Rational& rhs) const {
  // Denominators are positive, so cross-multiplication preserves order.
  const int ls = num_.sign();
  const int rs = rhs.num_.sign();
  if (ls != rs) return ls < rs ? -1 : 1;
  return (num_ * rhs.den_).compare(rhs.num_ * den_);
}

BigInt Rational::floor() const {
  BigInt quotient;
  BigInt remainder;
  BigInt::divmod(num_, den_, quotient, remainder);
  if (num_.is_negative() && !remainder.is_zero()) {
    quotient -= BigInt(std::int64_t{1});
  }
  return quotient;
}

BigInt Rational::ceil() const {
  BigInt quotient;
  BigInt remainder;
  BigInt::divmod(num_, den_, quotient, remainder);
  if (num_.is_positive() && !remainder.is_zero()) {
    quotient += BigInt(std::int64_t{1});
  }
  return quotient;
}

double Rational::to_double() const noexcept {
  const double n = num_.to_double();
  const double d = den_.to_double();
  if (std::isfinite(n) && std::isfinite(d) && d != 0.0) return n / d;
  // Huge operands: shift both down so the leading bits survive.
  const std::size_t nb = num_.bit_length();
  const std::size_t db = den_.bit_length();
  const std::size_t shift = (nb > db ? db : nb) > 64 ? std::min(nb, db) - 64 : 0;
  const double sn = (num_ >> shift).to_double();
  const double sd = (den_ >> shift).to_double();
  if (std::isfinite(sn) && std::isfinite(sd)) return sn / sd;
  // One operand still overflows (a small numerator over a denominator
  // past 2^1024, or the reverse): divide the leading 64 bits of each and
  // scale the quotient by the bits dropped.  Past a few thousand binades
  // the quotient is 0 or inf whatever the exact exponent, so it is capped.
  const std::size_t num_shift = nb > 64 ? nb - 64 : 0;
  const std::size_t den_shift = db > 64 ? db - 64 : 0;
  const double lead =
      (num_ >> num_shift).to_double() / (den_ >> den_shift).to_double();
  constexpr std::size_t kCap = 4096;
  const int exponent =
      num_shift >= den_shift
          ? static_cast<int>(std::min(num_shift - den_shift, kCap))
          : -static_cast<int>(std::min(den_shift - num_shift, kCap));
  return std::ldexp(lead, exponent);
}

std::string Rational::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

std::ostream& operator<<(std::ostream& out, const Rational& value) {
  return out << value.to_string();
}

const Rational& min(const Rational& a, const Rational& b) {
  return b < a ? b : a;
}

const Rational& max(const Rational& a, const Rational& b) {
  return a < b ? b : a;
}

}  // namespace dlsched::numeric
