#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "numeric/bigint.hpp"
#include "util/error.hpp"

namespace dlsched::numeric {
namespace {

BigInt big(const char* s) { return BigInt::from_string(s); }

// ---------------------------------------------------------- construction --

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
}

TEST(BigInt, FromInt64RoundTrips) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{123456789}, std::int64_t{-987654321},
                         INT64_MAX, INT64_MIN}) {
    const BigInt x(v);
    EXPECT_TRUE(x.fits_int64());
    EXPECT_EQ(x.to_int64(), v) << v;
    EXPECT_EQ(x.to_string(), std::to_string(v)) << v;
  }
}

TEST(BigInt, FromStringRoundTrips) {
  for (const char* s :
       {"0", "1", "-1", "4294967296", "18446744073709551616",
        "-340282366920938463463374607431768211456",
        "99999999999999999999999999999999999999999999999999"}) {
    EXPECT_EQ(big(s).to_string(), s) << s;
  }
}

TEST(BigInt, FromStringAcceptsPlusSign) {
  EXPECT_EQ(big("+42").to_int64(), 42);
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(big(""), dlsched::Error);
  EXPECT_THROW(big("-"), dlsched::Error);
  EXPECT_THROW(big("12a3"), dlsched::Error);
  EXPECT_THROW(big("1.5"), dlsched::Error);
}

// ------------------------------------------------------------ comparison --

TEST(BigInt, CompareOrdersBySignThenMagnitude) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_GT(big("18446744073709551616"), big("18446744073709551615"));
}

// ------------------------------------------------------------ arithmetic --

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  EXPECT_EQ((big("4294967295") + BigInt(1)).to_string(), "4294967296");
  EXPECT_EQ((big("18446744073709551615") + BigInt(1)).to_string(),
            "18446744073709551616");
}

TEST(BigInt, MixedSignAddition) {
  EXPECT_EQ((BigInt(5) + BigInt(-8)).to_int64(), -3);
  EXPECT_EQ((BigInt(-5) + BigInt(8)).to_int64(), 3);
  EXPECT_EQ((BigInt(-5) + BigInt(5)).to_int64(), 0);
}

TEST(BigInt, SubtractionBorrowsAcrossLimbs) {
  EXPECT_EQ((big("4294967296") - BigInt(1)).to_string(), "4294967295");
  EXPECT_EQ((BigInt(3) - BigInt(10)).to_int64(), -7);
}

TEST(BigInt, MultiplicationKnownValues) {
  EXPECT_EQ((big("123456789") * big("987654321")).to_string(),
            "121932631112635269");
  EXPECT_EQ((big("-123456789") * big("987654321")).to_string(),
            "-121932631112635269");
  EXPECT_TRUE((BigInt(0) * big("987654321")).is_zero());
}

TEST(BigInt, MultiplicationLargeSquare) {
  // (10^20)^2 = 10^40.
  const BigInt x = BigInt(10).pow(20);
  EXPECT_EQ((x * x).to_string(), BigInt(10).pow(40).to_string());
}

TEST(BigInt, DivisionKnownValues) {
  EXPECT_EQ((big("121932631112635269") / big("987654321")).to_string(),
            "123456789");
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);  // truncation
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);  // sign of dividend
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), dlsched::Error);
  EXPECT_THROW(BigInt(1) % BigInt(0), dlsched::Error);
}

TEST(BigInt, DivisionSmallerNumerator) {
  EXPECT_TRUE((BigInt(3) / BigInt(10)).is_zero());
  EXPECT_EQ((BigInt(3) % BigInt(10)).to_int64(), 3);
}

TEST(BigInt, KnuthD6AddBackCase) {
  // Takes the rare add-back branch of Algorithm D on 64-bit limbs (the
  // "adding back required" case of Hacker's Delight's divmnu tests, one
  // limb width up): u = 2^191 + 3, v = 2^189 + 1 makes the first quotient
  // estimate one too big.
  const BigInt u = (BigInt(1) << 191) + BigInt(3);
  const BigInt v = (BigInt(1) << 189) + BigInt(1);
  BigInt q;
  BigInt r;
  BigInt::divmod(u, v, q, r);
  EXPECT_EQ(q, BigInt(3));
  EXPECT_EQ(r, BigInt(1) << 189);
  EXPECT_EQ(q * v + r, u);
}

// ---------------------------------------------------------------- shifts --

TEST(BigInt, ShiftLeftMatchesPow2Multiplication) {
  const BigInt x = big("123456789123456789");
  for (std::size_t bits : {1u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 128u}) {
    EXPECT_EQ(x << bits, x * BigInt(2).pow(bits)) << bits;
  }
}

TEST(BigInt, ShiftRightMatchesPow2Division) {
  const BigInt x = big("123456789123456789123456789");
  for (std::size_t bits : {1u, 31u, 32u, 33u, 63u, 64u, 65u}) {
    EXPECT_EQ(x >> bits, x / BigInt(2).pow(bits)) << bits;
  }
}

TEST(BigInt, ShiftRightBeyondWidthGivesZero) {
  EXPECT_TRUE((BigInt(5) >> 64).is_zero());
}

// ---------------------------------------------------------------- others --

TEST(BigInt, GcdKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(big("1000000007"), big("998244353")).to_int64(), 1);
}

TEST(BigInt, PowKnownValues) {
  EXPECT_EQ(BigInt(2).pow(10).to_int64(), 1024);
  EXPECT_EQ(BigInt(10).pow(0).to_int64(), 1);
  EXPECT_EQ(BigInt(-2).pow(3).to_int64(), -8);
  EXPECT_EQ(BigInt(-2).pow(4).to_int64(), 16);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ((BigInt(1) << 100).bit_length(), 101u);
}

TEST(BigInt, ToDoubleApproximatesLargeValues) {
  EXPECT_DOUBLE_EQ(BigInt(1234567).to_double(), 1234567.0);
  EXPECT_DOUBLE_EQ(BigInt(-42).to_double(), -42.0);
  const double huge = (BigInt(1) << 200).to_double();
  EXPECT_NEAR(huge, std::ldexp(1.0, 200), std::ldexp(1.0, 150));
}

TEST(BigInt, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt(INT64_MAX).fits_int64());
  EXPECT_TRUE(BigInt(INT64_MIN).fits_int64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).fits_int64());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).fits_int64());
  EXPECT_THROW((void)(BigInt(INT64_MAX) + BigInt(1)).to_int64(),
               dlsched::Error);
}

// ------------------------------------- small-value inline representation --

TEST(BigIntSmall, BoundaryAtTwoPow62) {
  const std::int64_t limit = std::int64_t{1} << 62;
  EXPECT_TRUE(BigInt(limit - 1).is_inline());
  EXPECT_TRUE(BigInt(-(limit - 1)).is_inline());
  EXPECT_FALSE(BigInt(limit).is_inline());
  EXPECT_FALSE(BigInt(-limit).is_inline());
  EXPECT_FALSE(BigInt(INT64_MAX).is_inline());
  EXPECT_FALSE(BigInt(INT64_MIN).is_inline());
  // Values are unaffected by which side of the boundary they live on.
  EXPECT_EQ(BigInt(limit - 1).to_int64(), limit - 1);
  EXPECT_EQ(BigInt(limit).to_int64(), limit);
  EXPECT_EQ(BigInt(-limit).to_int64(), -limit);
}

TEST(BigIntSmall, AdditionPromotesAcrossTheBoundary) {
  const BigInt almost((std::int64_t{1} << 62) - 1);
  const BigInt crossed = almost + BigInt(1);
  EXPECT_FALSE(crossed.is_inline());
  EXPECT_EQ(crossed.to_string(), "4611686018427387904");  // 2^62
  // ... and shrinks back once the value re-enters the inline range.
  const BigInt back = crossed - BigInt(1);
  EXPECT_TRUE(back.is_inline());
  EXPECT_EQ(back, almost);
  EXPECT_EQ(crossed + crossed, BigInt(std::int64_t{1} << 62) * BigInt(2));
}

TEST(BigIntSmall, MultiplicationPromotesOnOverflow) {
  const std::uint64_t raw = (std::uint64_t{1} << 31) + 12345;
  const BigInt a(static_cast<std::int64_t>(raw));
  const BigInt product = a * a;  // just past 2^62: leaves the inline range
  EXPECT_FALSE(product.is_inline());
  EXPECT_EQ(product.to_string(), std::to_string(raw * raw));  // < 2^64
  EXPECT_EQ(product / a, a);
  EXPECT_EQ((-a) * a, -product);
}

TEST(BigIntSmall, MixedSmallTimesLargeMultiply) {
  const BigInt small(123456789);
  const BigInt large = big("340282366920938463463374607431768211456");  // 2^128
  EXPECT_FALSE(large.is_inline());
  const BigInt product = small * large;
  EXPECT_EQ(product.to_string(),
            "42010168373378879565782048137661639978630774784");
  EXPECT_EQ(large * small, product);      // commutes across representations
  EXPECT_EQ(product / large, small);      // large / small dispatching
  EXPECT_EQ(product / small, large);
  EXPECT_TRUE((product % small).is_zero());
}

TEST(BigIntSmall, NegationAndCompareAcrossRepresentations) {
  const BigInt small(42);
  const BigInt large = BigInt(1) << 100;
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(large.is_inline());
  EXPECT_LT(small, large);
  EXPECT_GT(large, small);
  EXPECT_LT(-large, small);
  EXPECT_LT(-large, -small);
  EXPECT_GT(small, -large);
  // Negation keeps each representation and flips only the ordering.
  BigInt negated_large = large;
  negated_large.negate();
  EXPECT_FALSE(negated_large.is_inline());
  EXPECT_EQ(negated_large.compare(large), -1);
  EXPECT_EQ((-small).compare(small), -1);
  EXPECT_EQ((-(-large)), large);
  // Equality never holds across the 2^62 frontier.
  EXPECT_NE(small, large);
  EXPECT_NE(BigInt((std::int64_t{1} << 62) - 1), BigInt(std::int64_t{1} << 62));
}

TEST(BigIntSmall, ShiftsCrossTheBoundaryBothWays) {
  const BigInt x(3);
  const BigInt wide = x << 100;
  EXPECT_FALSE(wide.is_inline());
  const BigInt narrow = wide >> 100;
  EXPECT_TRUE(narrow.is_inline());
  EXPECT_EQ(narrow, x);
  // Magnitude-shift semantics match on both representations.
  EXPECT_EQ((BigInt(-5) >> 1).to_int64(), -2);
  EXPECT_EQ(((BigInt(-5) << 80) >> 81).to_int64(), -2);
}

TEST(BigIntSmall, RandomizedEquivalenceAgainstLimbVectorPath) {
  // Force the same arithmetic through the limb-vector path by scaling the
  // operands by 2^64 (which leaves the inline range) and compare against
  // the inline result:  (a*K) op (b*K) relates to (a op b) by exact
  // identities for K = 2^64.
  std::mt19937_64 rng(20260730);
  for (int iter = 0; iter < 500; ++iter) {
    const std::int64_t bound = (std::int64_t{1} << 62) - 1;
    auto draw = [&]() {
      std::int64_t v = static_cast<std::int64_t>(
          rng() & ((std::uint64_t{1} << 62) - 1));
      if (rng() & 1) v = -v;
      return v;
    };
    const std::int64_t a = draw() % bound;
    std::int64_t b = draw() % bound;
    if (b == 0) b = 1;
    const BigInt sa(a), sb(b);
    ASSERT_TRUE(sa.is_inline());
    ASSERT_TRUE(sb.is_inline());
    const BigInt wa = sa << 64;
    const BigInt wb = sb << 64;
    ASSERT_TRUE(a == 0 || !wa.is_inline());

    EXPECT_EQ((wa + wb) >> 64, sa + sb) << a << " + " << b;
    EXPECT_EQ((wa - wb) >> 64, sa - sb) << a << " - " << b;
    EXPECT_EQ((wa * wb) >> 128, sa * sb) << a << " * " << b;
    EXPECT_EQ(wa / wb, sa / sb) << a << " / " << b;
    EXPECT_EQ((wa % wb) >> 64, sa % sb) << a << " % " << b;
    EXPECT_EQ(wa.compare(wb), sa.compare(sb)) << a << " <=> " << b;
    EXPECT_EQ(BigInt::gcd(wa, wb) >> 64, BigInt::gcd(sa, sb))
        << "gcd(" << a << ", " << b << ")";
    EXPECT_EQ(BigInt::from_string(sa.to_string()), sa);
  }
}

// -------------------------------------------------- randomized properties --

/// A uniformly random value of exactly `words` random 64-bit words (zero for
/// none), negated with probability one half.
BigInt random_words(std::mt19937_64& rng, int words) {
  BigInt x;
  for (int i = 0; i < words; ++i) {
    x <<= 64;
    x += BigInt(static_cast<std::uint64_t>(rng()));
  }
  if (rng() & 1) x.negate();
  return x;
}

class BigIntRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntRandomized, DivmodReconstructsDividend) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    // Random widths exercise every limb-count combination of 1-8 limbs.
    const BigInt u = random_words(rng, static_cast<int>(rng() % 8) + 1);
    BigInt v = random_words(rng, static_cast<int>(rng() % 8) + 1);
    if (v.is_zero()) v = BigInt(1);
    BigInt q;
    BigInt r;
    BigInt::divmod(u, v, q, r);
    EXPECT_EQ(q * v + r, u);
    EXPECT_LT(r.abs(), v.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), u.sign());
    }
  }
}

TEST_P(BigIntRandomized, RingAxiomsHold) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  auto draw = [&] { return random_words(rng, static_cast<int>(rng() % 8) + 1); };
  for (int iter = 0; iter < 60; ++iter) {
    const BigInt a = draw();
    const BigInt b = draw();
    const BigInt c = draw();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(BigIntRandomized, StringRoundTrip) {
  std::mt19937_64 rng(GetParam() ^ 0x1111);
  for (int iter = 0; iter < 40; ++iter) {
    const BigInt x = random_words(rng, static_cast<int>(rng() % 8) + 1);
    EXPECT_EQ(BigInt::from_string(x.to_string()), x);
  }
}

TEST_P(BigIntRandomized, WideProductsExpandBinomially) {
  // (a + b)^2 == a^2 + 2ab + b^2 on operands of 20 and 19 limbs, well past
  // any width the exact LPs reach.
  std::mt19937_64 rng(GetParam() ^ 0x2222);
  const BigInt a = random_words(rng, 20).abs();
  const BigInt b = random_words(rng, 19).abs();
  const BigInt lhs = (a + b) * (a + b);
  const BigInt rhs = a * a + BigInt(2) * a * b + b * b;
  EXPECT_EQ(lhs, rhs);
}

TEST_P(BigIntRandomized, AgreesWithNativeInt64Arithmetic) {
  // Differential fuzzing against the hardware: on values that fit in
  // 32 bits every operation must match int64 arithmetic exactly.
  std::mt19937_64 rng(GetParam() ^ 0x3333);
  for (int iter = 0; iter < 300; ++iter) {
    const std::int64_t a =
        static_cast<std::int64_t>(rng() % 0xffffffffULL) - 0x7fffffff;
    const std::int64_t b =
        static_cast<std::int64_t>(rng() % 0xffffffffULL) - 0x7fffffff;
    const BigInt ba(a);
    const BigInt bb(b);
    EXPECT_EQ((ba + bb).to_int64(), a + b);
    EXPECT_EQ((ba - bb).to_int64(), a - b);
    // 32-bit operands: |a * b| < 2^62 fits comfortably in int64.
    EXPECT_EQ((ba * bb).to_int64(), a * b);
    if (b != 0) {
      EXPECT_EQ((ba / bb).to_int64(), a / b);
      EXPECT_EQ((ba % bb).to_int64(), a % b);
    }
    EXPECT_EQ(ba < bb, a < b);
    EXPECT_EQ(ba == bb, a == b);
  }
}

// ------------------------------------------- fraction-free pivot update --

/// The representation boundaries: the inline limit 2^62 and the limb edges
/// 2^64 and 2^128, each with both signs.
std::vector<BigInt> boundary_values() {
  const BigInt limit = BigInt(1) << 62;
  std::vector<BigInt> out;
  for (const BigInt& v :
       {limit - BigInt(1), limit, BigInt(1) << 64, BigInt(1) << 128}) {
    out.push_back(v);
    out.push_back(-v);
  }
  return out;
}

TEST_P(BigIntRandomized, FractionFreeUpdateMatchesTheOperators) {
  std::mt19937_64 rng(GetParam() ^ 0x4444);
  const std::vector<BigInt> boundary = boundary_values();
  // 0-8 random words, or now and then a boundary value.
  auto draw = [&] {
    if (rng() % 4 == 0) return boundary[rng() % boundary.size()];
    return random_words(rng, static_cast<int>(rng() % 9));
  };
  for (int iter = 0; iter < 40; ++iter) {
    BigInt den;
    switch (rng() % 3) {
      case 0:
        den = BigInt(1);
        break;
      case 1:  // one word
        den = BigInt(static_cast<std::uint64_t>(rng() | 1ULL));
        break;
      default:
        den = random_words(rng, static_cast<int>(rng() % 8) + 1).abs();
    }
    if (den.is_zero()) den = BigInt(3);
    BigInt cell = draw();
    BigInt p = draw();
    BigInt f = draw();
    BigInt g = draw();
    // den divides one factor of each product, so the quotient is exact.
    (rng() & 1 ? cell : p) *= den;
    (rng() & 1 ? f : g) *= den;
    if (rng() % 5 == 0) (rng() & 1 ? f : g) = BigInt(0);
    for (unsigned signs = 0; signs < 32; ++signs) {
      auto signed_copy = [&](const BigInt& v, unsigned bit) {
        return (signs >> bit & 1U) != 0 ? -v : v;
      };
      const BigInt c = signed_copy(cell, 0);
      const BigInt pp = signed_copy(p, 1);
      const BigInt ff = signed_copy(f, 2);
      const BigInt gg = signed_copy(g, 3);
      const BigInt dd = signed_copy(den, 4);
      const BigInt expected = (c * pp - ff * gg) / dd;
      BigInt updated = c;
      BigInt::fraction_free_update(updated, pp, ff, gg, dd);
      ASSERT_EQ(updated, expected)
          << "(" << c << " * " << pp << " - " << ff << " * " << gg << ") / "
          << dd;
      EXPECT_EQ(updated.is_inline(), expected.is_inline());
    }
  }
}

TEST(BigIntFractionFree, InexactQuotientThrows) {
  const BigInt wide = (BigInt(1) << 130) + BigInt(7);
  for (const BigInt& den :
       {BigInt(3), BigInt(-3), (BigInt(1) << 64) + BigInt(1), wide, -wide}) {
    const BigInt multiple = den * ((BigInt(1) << 100) + BigInt(5));
    BigInt cell = multiple + BigInt(1);
    EXPECT_THROW(
        BigInt::fraction_free_update(cell, BigInt(1), BigInt(0), BigInt(5), den),
        dlsched::Error);
    cell = multiple;
    EXPECT_THROW(
        BigInt::fraction_free_update(cell, BigInt(1), BigInt(1), BigInt(1), den),
        dlsched::Error);
  }
  BigInt cell(6);
  EXPECT_THROW(
      BigInt::fraction_free_update(cell, BigInt(1), BigInt(1), BigInt(1), BigInt(0)),
      dlsched::Error);
}

TEST(BigIntFractionFree, ArgumentsMayAlias) {
  const BigInt x = (BigInt(1) << 150) + BigInt(12345);
  const BigInt y = (BigInt(1) << 70) + BigInt(3);
  BigInt a = x;
  BigInt::fraction_free_update(a, a, a, a, a);  // (x*x - x*x) / x
  EXPECT_TRUE(a.is_zero());
  BigInt b = x;
  BigInt::fraction_free_update(b, b, b, y, b);  // (x*x - x*y) / x
  EXPECT_EQ(b, x - y);
  BigInt c = x;
  BigInt::fraction_free_update(c, y, c, c, c);  // (x*y - x*x) / x
  EXPECT_EQ(c, y - x);
}

// ------------------------------------------------------------------ gcd --

/// Reference: Euclid's algorithm over divmod, one division per step.
BigInt euclid_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt q;
    BigInt r;
    BigInt::divmod(a, b, q, r);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

void expect_gcd(const BigInt& a, const BigInt& b) {
  const BigInt g = BigInt::gcd(a, b);
  ASSERT_EQ(g, euclid_gcd(a, b)) << "gcd(" << a << ", " << b << ")";
  EXPECT_EQ(BigInt::gcd(b, a), g);
  EXPECT_EQ(BigInt::gcd(-a, b), g);
  if (!g.is_zero()) {
    EXPECT_TRUE(BigInt::gcd(a / g, b / g).is_one())
        << "gcd(" << a << ", " << b << ") = " << g;
  }
}

TEST_P(BigIntRandomized, GcdMatchesEuclid) {
  std::mt19937_64 rng(GetParam() ^ 0x5555);
  for (int iter = 0; iter < 60; ++iter) {
    // A shared factor of 0-4 words keeps the gcd from being 1.
    BigInt common = random_words(rng, static_cast<int>(rng() % 5));
    if (common.is_zero()) common = BigInt(1);
    const BigInt a = common * random_words(rng, static_cast<int>(rng() % 7));
    const BigInt b = common * random_words(rng, static_cast<int>(rng() % 7));
    expect_gcd(a, b);
  }
}

TEST(BigIntGcd, ZeroEqualNegativeAndPowerOfTwoOperands) {
  const BigInt x = (BigInt(1) << 190) + BigInt(977);
  const BigInt y = BigInt(3).pow(90);
  expect_gcd(BigInt(0), BigInt(0));
  EXPECT_TRUE(BigInt::gcd(BigInt(0), BigInt(0)).is_zero());
  expect_gcd(BigInt(0), x);
  EXPECT_EQ(BigInt::gcd(-x, BigInt(0)), x);
  expect_gcd(x, x);
  EXPECT_EQ(BigInt::gcd(x, -x), x);
  expect_gcd(-x, -y);
  expect_gcd(BigInt(1) << 200, BigInt(1) << 130);
  EXPECT_EQ(BigInt::gcd(BigInt(1) << 200, BigInt(1) << 130), BigInt(1) << 130);
  expect_gcd((BigInt(1) << 200) * y, (BigInt(1) << 90) * BigInt(5).pow(40));
  expect_gcd(BigInt(1) << 64, BigInt(6));
  expect_gcd(x * BigInt(12), BigInt(18));
}

TEST(BigIntGcd, StepsCrossBelowTheInlineLimit) {
  // Consecutive Fibonacci numbers are Euclid's worst case: every quotient
  // is 1, so the remainders pass through every width down to one word.
  BigInt lo(1);
  BigInt hi(1);
  for (int i = 0; i < 400; ++i) {
    BigInt next = lo + hi;
    lo = std::move(hi);
    hi = std::move(next);
  }
  expect_gcd(hi, lo);
  EXPECT_TRUE(BigInt::gcd(hi, lo).is_one());
  const BigInt common = (BigInt(1) << 40) + BigInt(15);
  expect_gcd(common * hi, common * lo);
  EXPECT_EQ(BigInt::gcd(common * hi, common * lo), common);
  const BigInt near_limit = (BigInt(1) << 62) - BigInt(1);
  expect_gcd(near_limit * hi, near_limit * lo);
  expect_gcd((BigInt(1) << 62) * hi, (BigInt(1) << 61) * lo);
}

// ---------------------------------------------------- pinned conversions --

// Decimal strings and to_double() bit patterns pinned from the base-2^32
// implementation.  to_double() rounds after each of the top four 32-bit
// digits, and the answer digests hash its results, so these must not move:
// 2^160 + 2^107 + 1 rounds to 2^160 here (the ignored low digit would
// round a correct conversion up).
TEST(BigIntPinned, ConversionsMatchThePinnedTable) {
  auto pow2 = [](unsigned k) { return BigInt(1) << k; };
  struct Pin {
    BigInt value;
    const char* decimal;
    std::uint64_t double_bits;
  };
  const Pin pins[] = {
      {pow2(64) - 1,
       "18446744073709551615",
       0x43f0000000000000ULL},
      {pow2(64),
       "18446744073709551616",
       0x43f0000000000000ULL},
      {pow2(64) + 1,
       "18446744073709551617",
       0x43f0000000000000ULL},
      {pow2(128) - 1,
       "340282366920938463463374607431768211455",
       0x47f0000000000000ULL},
      {pow2(128),
       "340282366920938463463374607431768211456",
       0x47f0000000000000ULL},
      {pow2(128) + 1,
       "340282366920938463463374607431768211457",
       0x47f0000000000000ULL},
      {-(pow2(64) + 1),
       "-18446744073709551617",
       0xc3f0000000000000ULL},
      {-(pow2(128) - 1),
       "-340282366920938463463374607431768211455",
       0xc7f0000000000000ULL},
      {pow2(62),
       "4611686018427387904",
       0x43d0000000000000ULL},
      {pow2(63) + 1,
       "9223372036854775809",
       0x43e0000000000000ULL},
      {pow2(96) - 1,
       "79228162514264337593543950335",
       0x45f0000000000000ULL},
      {pow2(160) + pow2(107) + 1,
       "1461501637330903080462961661929646411233942831105",
       0x49f0000000000000ULL},
      {pow2(160) + pow2(107),
       "1461501637330903080462961661929646411233942831104",
       0x49f0000000000000ULL},
      {pow2(192) - 1,
       "6277101735386680763835789423207666416102355444464034512895",
       0x4bf0000000000000ULL},
      {pow2(200) + pow2(147) + pow2(40),
       "1606938044258990453947923680586147734807949174970784394772480",
       0x4c70000000000000ULL},
      {-(pow2(140) + pow2(87) + pow2(3)),
       "-1393796574908164101088487302713056956514312",
       0xc8b0000000000000ULL},
      {BigInt(3) * pow2(100) + 5,
       "3802951800684688204490109616133",
       0x4648000000000000ULL},
      {BigInt(3).pow(100),
       "515377520732011331036461129765621272702107522001",
       0x49d69194f299cddaULL},
      {-BigInt(7).pow(77),
       "-118181386580595879976868414312001964434038548836769923458287039207",
       0xcd71f487519cdcc1ULL},
      {BigInt(10).pow(40) - 1,
       "9999999999999999999999999999999999999999",
       0x483d6329f1c35ca5ULL},
      {BigInt(3).pow(200),
       "265613988875874769338781322035779626829233452653394495974574961739092490901302182994384699044001",
       0x53bfd5863c3eb047ULL},
      {pow2(1100) + 1,
       "13582985290493858492773514283592667786034938469317445497485196697278130927542418487205392083207560592298578262953847383475038725543234929971155548342800628721885763499406390331782864144164680730766837160526223176512798435772129956553355286032203080380775759732320198985094884004069116123084147875437183658467465148948790552744165377",
       0x7ff0000000000000ULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.value.to_string(), pin.decimal);
    EXPECT_EQ(BigInt::from_string(pin.decimal), pin.value) << pin.decimal;
    const double converted = pin.value.to_double();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &converted, sizeof bits);
    EXPECT_EQ(bits, pin.double_bits) << pin.decimal;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomized,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dlsched::numeric
