// Arbitrary-precision signed integer with a small-value inline fast path.
//
// This is the foundation of the exact rational simplex (src/lp).  The
// paper's optimality theorems are statements about exact LP optima; solving
// the LPs over rationals removes every floating-point tolerance from the
// reproduction, so the test suite can assert e.g. "sorting by non-decreasing
// ci is optimal" as an exact inequality.
//
// Representation: a value v with |v| < 2^62 lives inline in a single
// machine word (`small_`) and its arithmetic never touches the heap;
// anything larger falls back to a sign-magnitude vector of base-2^64 limbs,
// with products and carries in `unsigned __int128`.  Add/sub/mul on the
// inline form are overflow-checked and promote to the limb form exactly at
// the boundary.
//
// Representation invariants:
//   * is_small_  => |small_| < 2^62 and limbs_ is empty;
//   * !is_small_ => |value| >= 2^62, limbs_ is little-endian with no
//     trailing zero limb (one limb when 2^62 <= |value| < 2^64), and
//     sign_ is -1 or +1.
// The second invariant (the limb form never holds a small value) is what
// lets compare() decide mixed-representation orderings without promoting.
//
// Every multi-limb operation runs on spans of limbs (an inline operand is
// read as a one-limb span of its magnitude) through one schoolbook
// multiply and one Knuth algorithm D, and computes into per-thread scratch
// buffers that keep their capacity; only the final copy into the result's
// own storage can allocate.  Two entry points serve the exact simplex:
//   * fraction_free_update() sets cell = (cell * p - f * g) / den in one
//     call, the Bareiss pivot identity, and throws when the division is not
//     exact;
//   * gcd() runs Lehmer's algorithm (Knuth TAOCP 4.5.2, Algorithm L) on
//     62-bit leading parts while both operands are multi-limb, and finishes
//     in a single-word binary gcd.
//
// to_double() rounds exactly as the earlier base-2^32 form did: it sums
// the top four 32-bit digits one at a time, each 64-bit limb read as its
// two halves.  Answer digests hash these doubles, so this rule is part of
// the output, not an implementation detail.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dlsched::numeric {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From built-in integers (implicit by design: arithmetic mixes freely).
  BigInt(std::int64_t value);   // NOLINT(google-explicit-constructor)
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)
  BigInt(int value) : BigInt(static_cast<std::int64_t>(value)) {}  // NOLINT

  /// Parses an optionally signed decimal string.  Throws dlsched::Error on
  /// malformed input.
  static BigInt from_string(std::string_view text);

  [[nodiscard]] bool is_zero() const noexcept {
    return is_small_ && small_ == 0;
  }
  [[nodiscard]] bool is_negative() const noexcept {
    return is_small_ ? small_ < 0 : sign_ < 0;
  }
  [[nodiscard]] bool is_positive() const noexcept {
    return is_small_ ? small_ > 0 : sign_ > 0;
  }
  /// True when the value is exactly one (fast path for gcd results).
  [[nodiscard]] bool is_one() const noexcept {
    return is_small_ && small_ == 1;
  }
  /// -1, 0 or +1.
  [[nodiscard]] int sign() const noexcept {
    return is_small_ ? (small_ > 0) - (small_ < 0) : sign_;
  }
  /// True when the value is odd.
  [[nodiscard]] bool is_odd() const noexcept {
    return is_small_ ? (small_ & 1) != 0
                     : !limbs_.empty() && (limbs_[0] & 1U) != 0;
  }
  /// True when the value lives in the single-word inline representation
  /// (exposed for benchmarks and the representation-equivalence tests).
  [[nodiscard]] bool is_inline() const noexcept { return is_small_; }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  [[nodiscard]] BigInt abs() const;
  void negate() noexcept {
    // |small_| < 2^62, so negation never overflows the inline word.
    if (is_small_) {
      small_ = -small_;
    } else {
      sign_ = -sign_;
    }
  }

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C++ semantics: quotient rounds toward zero,
  /// remainder has the dividend's sign).  Throws on division by zero.
  BigInt& operator/=(const BigInt& rhs);
  BigInt& operator%=(const BigInt& rhs);
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);

  [[nodiscard]] BigInt operator-() const;

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  friend BigInt operator<<(BigInt lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, std::size_t bits) { return lhs >>= bits; }

  /// Quotient and remainder in one division.
  static void divmod(const BigInt& numerator, const BigInt& denominator,
                     BigInt& quotient, BigInt& remainder);

  /// Three-way comparison: -1, 0, +1.
  [[nodiscard]] int compare(const BigInt& rhs) const noexcept;

  friend bool operator==(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) noexcept {
    return a.compare(b) >= 0;
  }

  /// cell = (cell * p - f * g) / den, the fraction-free (Bareiss) pivot
  /// update, computed without a heap allocation once the calling thread's
  /// scratch has grown; the result goes into `cell`'s own limb storage (a
  /// cell growing out of the inline word takes a pooled arena buffer).
  /// Throws dlsched::Error when den is zero or the division leaves a
  /// remainder.  Any argument may alias any other.
  static void fraction_free_update(BigInt& cell, const BigInt& p,
                                   const BigInt& f, const BigInt& g,
                                   const BigInt& den);

  /// Greatest common divisor (always non-negative).
  static BigInt gcd(const BigInt& a, const BigInt& b);

  /// |*this| ^ exponent (exponent >= 0).
  [[nodiscard]] BigInt pow(std::uint64_t exponent) const;

  /// Decimal rendering.
  [[nodiscard]] std::string to_string() const;

  /// Double conversion that rounds after each of the top four 32-bit
  /// digits (see the file comment; not always the nearest double).  May
  /// overflow to +/-inf for astronomically large values.
  [[nodiscard]] double to_double() const noexcept;

  /// Exact conversion to int64 if the value fits, otherwise throws.
  [[nodiscard]] std::int64_t to_int64() const;
  /// True if the value is representable as int64.
  [[nodiscard]] bool fits_int64() const noexcept;

  friend std::ostream& operator<<(std::ostream& out, const BigInt& value);

 private:
  using Limb = std::uint64_t;
  /// Inline representation bound: |small_| < 2^62, so a sum of two inline
  /// values always fits in the int64 word and overflow checks are cheap.
  static constexpr std::int64_t kSmallLimit = std::int64_t{1} << 62;

  /// |x| as limbs: the limb vector, or `word` (set to the inline
  /// magnitude) viewed as zero or one limb.
  static std::span<const Limb> magnitude(const BigInt& x, Limb& word) noexcept;
  /// Sets *this to sign * magnitude, restoring both invariants: a value
  /// under 2^62 goes inline (the limb storage returns to the arena), a
  /// larger one is copied into the existing limb storage.  `magnitude`
  /// must be trimmed and must not point into limbs_.
  void assign(std::span<const Limb> magnitude, int sign);
  /// assign() for a magnitude of at most two limbs (the constructors and
  /// the inline-multiply overflow path).
  void assign(unsigned __int128 magnitude, int sign);
  [[nodiscard]] std::uint64_t small_magnitude() const noexcept {
    return small_ < 0 ? ~static_cast<std::uint64_t>(small_) + 1ULL
                      : static_cast<std::uint64_t>(small_);
  }

  std::int64_t small_ = 0;
  std::vector<Limb> limbs_;
  int sign_ = 0;
  bool is_small_ = true;
};

}  // namespace dlsched::numeric
