#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "numeric/rational.hpp"
#include "util/error.hpp"

namespace dlsched::numeric {
namespace {

Rational rat(std::int64_t n, std::int64_t d) { return Rational(n, d); }

// ---------------------------------------------------------- normalization --

TEST(Rational, DefaultIsZero) {
  Rational z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.den(), BigInt(1));
}

TEST(Rational, ReducesToLowestTerms) {
  const Rational r = rat(6, 8);
  EXPECT_EQ(r.num(), BigInt(3));
  EXPECT_EQ(r.den(), BigInt(4));
}

TEST(Rational, DenominatorAlwaysPositive) {
  const Rational r = rat(3, -4);
  EXPECT_EQ(r.num(), BigInt(-3));
  EXPECT_EQ(r.den(), BigInt(4));
  EXPECT_TRUE(r.is_negative());
}

TEST(Rational, ZeroNormalizesToCanonicalForm) {
  const Rational r = rat(0, -17);
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.den(), BigInt(1));
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(rat(1, 0), dlsched::Error);
}

// ------------------------------------------------------------- arithmetic --

TEST(Rational, AdditionWithCommonFactors) {
  EXPECT_EQ(rat(1, 6) + rat(1, 3), rat(1, 2));
  EXPECT_EQ(rat(1, 2) + rat(-1, 2), Rational(0));
}

TEST(Rational, SubtractionKnownValues) {
  EXPECT_EQ(rat(3, 4) - rat(1, 4), rat(1, 2));
  EXPECT_EQ(rat(1, 4) - rat(3, 4), rat(-1, 2));
}

TEST(Rational, MultiplicationAndDivision) {
  EXPECT_EQ(rat(2, 3) * rat(3, 4), rat(1, 2));
  EXPECT_EQ(rat(2, 3) / rat(4, 3), rat(1, 2));
  EXPECT_THROW(rat(1, 2) / Rational(0), dlsched::Error);
}

TEST(Rational, InverseFlipsFraction) {
  EXPECT_EQ(rat(3, 7).inverse(), rat(7, 3));
  EXPECT_EQ(rat(-3, 7).inverse(), rat(-7, 3));
  EXPECT_THROW(Rational(0).inverse(), dlsched::Error);
}

TEST(Rational, NegationAndAbs) {
  EXPECT_EQ(-rat(3, 5), rat(-3, 5));
  EXPECT_EQ(rat(-3, 5).abs(), rat(3, 5));
  EXPECT_EQ(rat(3, 5).abs(), rat(3, 5));
}

// ------------------------------------------------------------- comparison --

TEST(Rational, CompareByCrossMultiplication) {
  EXPECT_LT(rat(1, 3), rat(1, 2));
  EXPECT_LT(rat(-1, 2), rat(-1, 3));
  EXPECT_LT(rat(-1, 2), rat(1, 1000000));
  EXPECT_LE(rat(2, 4), rat(1, 2));
  EXPECT_GE(rat(2, 4), rat(1, 2));
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(min(rat(1, 3), rat(1, 2)), rat(1, 3));
  EXPECT_EQ(max(rat(1, 3), rat(1, 2)), rat(1, 2));
}

// -------------------------------------------------------------- conversion --

TEST(Rational, FromDoubleIsExactForBinaryFractions) {
  EXPECT_EQ(Rational::from_double(0.5), rat(1, 2));
  EXPECT_EQ(Rational::from_double(0.375), rat(3, 8));
  EXPECT_EQ(Rational::from_double(-2.25), rat(-9, 4));
  EXPECT_EQ(Rational::from_double(3.0), Rational(3));
  EXPECT_EQ(Rational::from_double(0.0), Rational(0));
}

TEST(Rational, FromDoubleRoundTripsThroughToDouble) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int i = 0; i < 200; ++i) {
    const double x = dist(rng);
    EXPECT_DOUBLE_EQ(Rational::from_double(x).to_double(), x);
  }
}

TEST(Rational, FromDoubleRejectsNonFinite) {
  EXPECT_THROW(Rational::from_double(std::nan("")), dlsched::Error);
  EXPECT_THROW(Rational::from_double(-std::nan("")), dlsched::Error);
  EXPECT_THROW(Rational::from_double(INFINITY), dlsched::Error);
  EXPECT_THROW(Rational::from_double(-INFINITY), dlsched::Error);
}

/// The frexp loop `from_double` ran before it read the IEEE-754 bits:
/// scale the mantissa up to an odd integer, then reduce through the
/// normalizing constructor.  The reference the bit-level version must
/// reproduce value for value and representation for representation.
Rational frexp_from_double(double value) {
  if (value == 0.0) return Rational();
  int exp = 0;
  double mantissa = std::frexp(value, &exp);
  for (int i = 0; i < 53 && mantissa != std::trunc(mantissa); ++i) {
    mantissa *= 2.0;
    --exp;
  }
  BigInt num(static_cast<std::int64_t>(mantissa));
  BigInt den(std::int64_t{1});
  if (exp >= 0) {
    num <<= static_cast<std::size_t>(exp);
  } else {
    den <<= static_cast<std::size_t>(-exp);
  }
  return Rational(std::move(num), std::move(den));
}

void expect_frexp_value(double x) {
  const Rational got = Rational::from_double(x);
  const Rational want = frexp_from_double(x);
  EXPECT_EQ(got.num(), want.num()) << std::hexfloat << x;
  EXPECT_EQ(got.den(), want.den()) << std::hexfloat << x;
  EXPECT_EQ(got.num().is_inline(), want.num().is_inline()) << std::hexfloat
                                                           << x;
  EXPECT_EQ(got.den().is_inline(), want.den().is_inline()) << std::hexfloat
                                                           << x;
}

TEST(Rational, FromDoubleMatchesTheFrexpLoopOnEveryKindOfDouble) {
  // Random bit patterns: every exponent, sign and fraction shape.
  std::mt19937_64 rng(0x19);
  for (int checked = 0; checked < 20000;) {
    const double x = std::bit_cast<double>(rng());
    if (!std::isfinite(x)) continue;
    expect_frexp_value(x);
    ++checked;
  }
  // Every power of two, subnormal to the top binade, both signs.
  for (int k = -1074; k <= 1023; ++k) {
    expect_frexp_value(std::ldexp(1.0, k));
    expect_frexp_value(-std::ldexp(1.0, k));
  }
  // Subnormals: extremes and random fractions under a zero exponent.
  expect_frexp_value(std::numeric_limits<double>::denorm_min());
  expect_frexp_value(DBL_MIN - std::numeric_limits<double>::denorm_min());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t fraction = rng() & ((std::uint64_t{1} << 52) - 1);
    expect_frexp_value(std::bit_cast<double>(fraction | (rng() << 63)));
  }
  // The top of the range, and integers from 2^53 up (even significands
  // shift into the numerator, not the denominator).
  for (const double x :
       {DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, 0x1p53, 0x1p53 + 2.0,
        0x1.fffffffffffffp+62, 0x1p63, 0x1.0000000000001p+64, 1e300,
        -12345678901234567890.0, 0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0}) {
    expect_frexp_value(x);
  }
  for (int i = 0; i < 2000; ++i) {
    const int shift = 53 + static_cast<int>(rng() % 970);
    expect_frexp_value(std::ldexp(
        static_cast<double>(rng() >> 11 | std::uint64_t{1} << 52), shift - 52));
  }
}

TEST(Rational, ToDoubleOfHugeOperandsMatchesThePinnedBits) {
  // Numerators and denominators past 2^1024 take to_double()'s shift
  // branch; the bit patterns are pinned from the base-2^32 BigInt, and
  // the answer digests hash these doubles.
  auto pow2 = [](unsigned k) { return BigInt(1) << k; };
  struct Pin {
    Rational value;
    std::uint64_t double_bits;
  };
  const Pin pins[] = {
      {Rational(pow2(1100) + 1, pow2(1090) + 3), 0x4090000000000000ULL},
      {Rational(BigInt(3).pow(700), pow2(1100) + 7), 0x4086382d2c2ff804ULL},
      {Rational(-BigInt(7).pow(400), BigInt(3).pow(650)), 0xc5ba49c75a75ca23ULL},
      {Rational(BigInt(5).pow(460) + 1, BigInt(5).pow(459)), 0x4014000000000000ULL},
  };
  for (const Pin& pin : pins) {
    ASSERT_FALSE(std::isfinite(pin.value.num().to_double()) &&
                 std::isfinite(pin.value.den().to_double()));
    const double converted = pin.value.to_double();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &converted, sizeof bits);
    EXPECT_EQ(bits, pin.double_bits) << pin.value;
  }
}

void expect_round_trip(double x) {
  // The Rational has no negative zero; every other double comes back as
  // itself, bit for bit.
  const double want = x == 0.0 ? 0.0 : x;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Rational::from_double(x).to_double()),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << x;
}

TEST(Rational, ToDoubleReturnsEveryDoubleFromDouble) {
  // Below about 2^-970 the reduced denominator passes 2^1023 while the
  // numerator stays small; to_double once divided by an infinite
  // denominator there and returned 0.
  expect_round_trip(0x1.0000000000001p-1000);
  for (int k = -1074; k <= 1023; ++k) {
    expect_round_trip(std::ldexp(1.0, k));
    expect_round_trip(-std::ldexp(1.0, k));
  }
  std::mt19937_64 rng(0x20);
  expect_round_trip(std::numeric_limits<double>::denorm_min());
  expect_round_trip(DBL_MIN - std::numeric_limits<double>::denorm_min());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t fraction = rng() & ((std::uint64_t{1} << 52) - 1);
    expect_round_trip(std::bit_cast<double>(fraction | (rng() << 63)));
  }
  for (int checked = 0; checked < 20000;) {
    const double x = std::bit_cast<double>(rng());
    if (!std::isfinite(x)) continue;
    expect_round_trip(x);
    ++checked;
  }
}

TEST(Rational, ToDoubleScalesWhenOnlyOneOperandOverflows) {
  // A small numerator over a huge odd denominator, and a huge numerator
  // over a small one: finite quotients, no longer 0 and inf.
  auto pow2 = [](unsigned k) { return BigInt(1) << k; };
  EXPECT_EQ(Rational(BigInt(3), pow2(1030) + 1).to_double(),
            std::ldexp(3.0, -1030));
  EXPECT_EQ(Rational(-BigInt(5), pow2(1060) - 1).to_double(),
            -std::ldexp(5.0, -1060));
  EXPECT_DOUBLE_EQ(Rational(pow2(1030) + 1, BigInt(3) << 10).to_double(),
                   std::ldexp(1.0 / 3.0, 1020));
  EXPECT_EQ(Rational(pow2(1100), BigInt(7)).to_double(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Rational(BigInt(1), pow2(1200)).to_double(), 0.0);
}

TEST(Rational, FromStringForms) {
  EXPECT_EQ(Rational::from_string("3/4"), rat(3, 4));
  EXPECT_EQ(Rational::from_string("-6/8"), rat(-3, 4));
  EXPECT_EQ(Rational::from_string("5"), Rational(5));
  EXPECT_EQ(Rational::from_string("1.25"), rat(5, 4));
  EXPECT_EQ(Rational::from_string(" 0.5 "), rat(1, 2));
}

TEST(Rational, ToStringForms) {
  EXPECT_EQ(rat(1, 2).to_string(), "1/2");
  EXPECT_EQ(rat(4, 2).to_string(), "2");
  EXPECT_EQ(rat(-1, 3).to_string(), "-1/3");
}

TEST(Rational, FloorAndCeil) {
  EXPECT_EQ(rat(7, 2).floor(), BigInt(3));
  EXPECT_EQ(rat(7, 2).ceil(), BigInt(4));
  EXPECT_EQ(rat(-7, 2).floor(), BigInt(-4));
  EXPECT_EQ(rat(-7, 2).ceil(), BigInt(-3));
  EXPECT_EQ(Rational(5).floor(), BigInt(5));
  EXPECT_EQ(Rational(5).ceil(), BigInt(5));
}

TEST(Rational, IsInteger) {
  EXPECT_TRUE(rat(4, 2).is_integer());
  EXPECT_FALSE(rat(1, 2).is_integer());
  EXPECT_TRUE(Rational(0).is_integer());
}

// ---------------------------------------------------- randomized properties --

class RationalRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RationalRandomized, FieldAxiomsHold) {
  std::mt19937_64 rng(GetParam());
  auto random_rat = [&] {
    const std::int64_t n = static_cast<std::int64_t>(rng() % 2001) - 1000;
    const std::int64_t d = static_cast<std::int64_t>(rng() % 1000) + 1;
    return rat(n, d);
  };
  for (int i = 0; i < 50; ++i) {
    const Rational a = random_rat();
    const Rational b = random_rat();
    const Rational c = random_rat();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!b.is_zero()) {
      EXPECT_EQ((a / b) * b, a);
    }
    EXPECT_EQ(a - a, Rational(0));
  }
}

TEST_P(RationalRandomized, OrderIsConsistentWithDoubles) {
  std::mt19937_64 rng(GetParam() ^ 0x5555);
  auto random_rat = [&] {
    const std::int64_t n = static_cast<std::int64_t>(rng() % 2001) - 1000;
    const std::int64_t d = static_cast<std::int64_t>(rng() % 1000) + 1;
    return rat(n, d);
  };
  for (int i = 0; i < 100; ++i) {
    const Rational a = random_rat();
    const Rational b = random_rat();
    const double da = a.to_double();
    const double db = b.to_double();
    if (std::fabs(da - db) > 1e-9) {
      EXPECT_EQ(a < b, da < db) << a << " vs " << b;
    }
  }
}

TEST_P(RationalRandomized, OperatorsStayFullyReduced) {
  // The cross-gcd operator paths must land on the same canonical form the
  // fully-normalizing constructor produces: operator== compares the raw
  // num/den fields, so any missed reduction would break equality.
  std::mt19937_64 rng(GetParam() ^ 0x7777);
  auto random_rat = [&] {
    const std::int64_t n = static_cast<std::int64_t>(rng() % 4001) - 2000;
    const std::int64_t d = static_cast<std::int64_t>(rng() % 2000) + 1;
    return rat(n, d);
  };
  for (int i = 0; i < 100; ++i) {
    const Rational a = random_rat();
    const Rational b = random_rat();
    for (const Rational& v : {a + b, a - b, a * b}) {
      const Rational rebuilt(v.num(), v.den());  // ctor normalizes fully
      EXPECT_EQ(v.num(), rebuilt.num()) << a << " op " << b;
      EXPECT_EQ(v.den(), rebuilt.den()) << a << " op " << b;
      EXPECT_FALSE(v.den().is_negative());
    }
    if (!b.is_zero()) {
      const Rational q = a / b;
      const Rational rebuilt(q.num(), q.den());
      EXPECT_EQ(q.num(), rebuilt.num());
      EXPECT_EQ(q.den(), rebuilt.den());
    }
    Rational self = a;
    self += self;
    EXPECT_EQ(self, a * Rational(2));
    self = a;
    self -= self;
    EXPECT_EQ(self, Rational(0));
    self = a;
    self *= self;
    EXPECT_EQ(self, a * a);
    if (!a.is_zero()) {
      self = a;
      self /= self;
      EXPECT_EQ(self, Rational(1));
    }
  }
}

TEST_P(RationalRandomized, SubMulMatchesSeparateOps) {
  std::mt19937_64 rng(GetParam() ^ 0x9999);
  auto random_rat = [&] {
    const std::int64_t n = static_cast<std::int64_t>(rng() % 4001) - 2000;
    const std::int64_t d = static_cast<std::int64_t>(rng() % 2000) + 1;
    return rat(n, d);
  };
  for (int i = 0; i < 100; ++i) {
    const Rational target = random_rat();
    const Rational a = random_rat();
    const Rational b = random_rat();
    Rational fused = target;
    fused.sub_mul(a, b);
    EXPECT_EQ(fused, target - a * b) << target << " -= " << a << "*" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalRandomized,
                         ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace dlsched::numeric
