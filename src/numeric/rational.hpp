// Exact rational arithmetic over BigInt.
//
// Invariants: denominator > 0, gcd(|num|, den) == 1, zero is 0/1.
// Every double is exactly representable as a rational (mantissa * 2^exp),
// so platform parameters given as doubles convert losslessly via
// `Rational::from_double` -- the LPs solved in src/lp are then exact.
//
// Operators keep the reduced-form invariant without running a full-size
// gcd per operation: multiplication and division cross-reduce against the
// opposite operand first (gcd(n1, d2), gcd(n2, d1) -- Knuth 4.5.1), and
// addition reduces through the denominator gcd, skipping the final gcd
// entirely when the denominators are coprime.  Together with BigInt's
// inline small-value representation this keeps the simplex pivot loops
// allocation-free in the common case.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "numeric/bigint.hpp"

namespace dlsched::numeric {

class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value (implicit: rational code mixes freely with int literals).
  Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT
  Rational(int value) : num_(value), den_(1) {}           // NOLINT
  Rational(BigInt value) : num_(std::move(value)), den_(1) {}  // NOLINT
  /// num/den, normalized.  Throws on den == 0.
  Rational(BigInt num, BigInt den);
  /// Convenience int64 fraction.
  Rational(std::int64_t num, std::int64_t den)
      : Rational(BigInt(num), BigInt(den)) {}

  /// Exact conversion of a finite double (binary fraction).  Throws on
  /// NaN/inf.
  static Rational from_double(double value);

  /// Parses "a/b" or a plain integer or a decimal like "1.25".
  static Rational from_string(std::string_view text);

  [[nodiscard]] const BigInt& num() const noexcept { return num_; }
  [[nodiscard]] const BigInt& den() const noexcept { return den_; }

  [[nodiscard]] bool is_zero() const noexcept { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const noexcept { return num_.is_negative(); }
  [[nodiscard]] bool is_positive() const noexcept { return num_.is_positive(); }
  [[nodiscard]] bool is_integer() const noexcept;
  [[nodiscard]] int sign() const noexcept { return num_.sign(); }

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  /// Throws on division by zero.
  Rational& operator/=(const Rational& rhs);

  /// `*this -= a * b` -- the shape of every simplex pivot update
  /// (`tab[i][j] -= factor * pivot_row[j]`).  Zero factors short-circuit
  /// before any arithmetic; otherwise this is the cross-gcd multiply
  /// followed by the denominator-gcd subtraction in one call.
  Rational& sub_mul(const Rational& a, const Rational& b);

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational abs() const;
  /// Multiplicative inverse; throws on zero.
  [[nodiscard]] Rational inverse() const;

  friend Rational operator+(Rational lhs, const Rational& rhs) {
    return lhs += rhs;
  }
  friend Rational operator-(Rational lhs, const Rational& rhs) {
    return lhs -= rhs;
  }
  friend Rational operator*(Rational lhs, const Rational& rhs) {
    return lhs *= rhs;
  }
  friend Rational operator/(Rational lhs, const Rational& rhs) {
    return lhs /= rhs;
  }

  /// Three-way comparison by cross-multiplication.
  [[nodiscard]] int compare(const Rational& rhs) const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b) {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const Rational& a, const Rational& b) {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const Rational& a, const Rational& b) {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return a.compare(b) >= 0;
  }

  /// Floor of the rational value as a BigInt.
  [[nodiscard]] BigInt floor() const;
  /// Ceiling of the rational value as a BigInt.
  [[nodiscard]] BigInt ceil() const;

  /// Best-effort double (num/den in doubles with a scaling fallback for
  /// huge operands).
  [[nodiscard]] double to_double() const noexcept;

  /// "num/den" (or just "num" for integers).
  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& out, const Rational& value);

 private:
  void normalize();
  /// Shared +=/-= body (Knuth 4.5.1 denominator-gcd addition).
  void add_impl(const Rational& rhs, bool negate_rhs);

  BigInt num_;
  BigInt den_;
};

/// A finite double as (-1)^negative * odd * 2^exponent with `odd` odd, read
/// off its IEEE-754 bits: the lowest-terms binary fraction
/// `Rational::from_double` builds.  `odd` is 0 for +0 and -0.  The fields
/// are meaningless for NaN and inf.
struct BinaryFraction {
  std::uint64_t odd = 0;
  int exponent = 0;
  bool negative = false;
};
[[nodiscard]] BinaryFraction binary_fraction(double value) noexcept;

/// min/max conveniences used heavily by the closed-form formulas.
[[nodiscard]] const Rational& min(const Rational& a, const Rational& b);
[[nodiscard]] const Rational& max(const Rational& a, const Rational& b);

}  // namespace dlsched::numeric
