#include "numeric/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <utility>

#include "numeric/limb_arena.hpp"
#include "util/error.hpp"

namespace dlsched::numeric {

namespace {

using Limb = std::uint64_t;
using Wide = unsigned __int128;
using Span = std::span<const Limb>;

constexpr unsigned kLimbBits = 64;

/// Per-thread working storage of the multi-limb operations.  Each buffer
/// keeps its capacity, so once a thread has seen its widest operands no
/// operation allocates here.  divmod_span() owns `un` and `vn`; each public
/// entry point uses `x`, `y`, `z` and `w` as it likes, and none of them
/// calls another, so no two live uses of a buffer ever overlap.
struct Workspace {
  std::vector<Limb> x, y, z, w;
  std::vector<Limb> un, vn;
};

Workspace& workspace() noexcept {
  thread_local Workspace instance;
  return instance;
}

Span trimmed(Span limbs) noexcept {
  std::size_t n = limbs.size();
  while (n != 0 && limbs[n - 1] == 0) --n;
  return limbs.first(n);
}

void trim(std::vector<Limb>& limbs) noexcept {
  limbs.resize(trimmed(limbs).size());
}

int compare_magnitude(Span a, Span b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// out = |a| + |b|, trimmed.  `out` must not be either operand's storage.
void add_magnitude(Span a, Span b, std::vector<Limb>& out) {
  if (a.size() < b.size()) std::swap(a, b);
  out.resize(a.size() + 1);
  Limb carry = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Wide total =
        static_cast<Wide>(a[i]) + (i < b.size() ? b[i] : 0) + carry;
    out[i] = static_cast<Limb>(total);
    carry = static_cast<Limb>(total >> kLimbBits);
  }
  out[a.size()] = carry;
  trim(out);
}

/// out = |a| - |b| for |a| >= |b|, trimmed.  `out` must not be either
/// operand's storage.
void sub_magnitude(Span a, Span b, std::vector<Limb>& out) {
  out.resize(a.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb diff = a[i] - bi - borrow;
    borrow = (a[i] < bi || (a[i] == bi && borrow != 0)) ? 1 : 0;
    out[i] = diff;
  }
  trim(out);
}

/// sign * |out| = sa * |a| + sb * |b|; returns sign (0 for zero).  `out`
/// must not be either operand's storage.
int signed_sum(Span a, int sa, Span b, int sb, std::vector<Limb>& out) {
  if (b.empty()) sb = 0;
  if (a.empty()) sa = 0;
  if (sb == 0 || sa == sb) {
    add_magnitude(a, b, out);
    return out.empty() ? 0 : (sa != 0 ? sa : sb);
  }
  if (sa == 0) {
    out.assign(b.begin(), b.end());
    return sb;
  }
  const int cmp = compare_magnitude(a, b);
  if (cmp == 0) {
    out.clear();
    return 0;
  }
  if (cmp > 0) {
    sub_magnitude(a, b, out);
    return sa;
  }
  sub_magnitude(b, a, out);
  return sb;
}

/// out = |a| * |b| (schoolbook), trimmed.  `out` must not be either
/// operand's storage.
void mul_magnitude(Span a, Span b, std::vector<Limb>& out) {
  out.assign(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Wide ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      // (2^64-1)^2 + 2 * (2^64-1) == 2^128 - 1: never overflows.
      const Wide total = ai * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(total);
      carry = static_cast<Limb>(total >> kLimbBits);
    }
    // Row i - 1 wrote up to index i - 1 + |b|, so this slot is still zero.
    out[i + b.size()] = carry;
  }
  trim(out);
}

/// Knuth TAOCP vol. 2, algorithm 4.3.1-D on 64-bit limbs with 128-bit
/// intermediates: u / v for trimmed u and non-empty trimmed v.  Writes the
/// trimmed quotient and remainder; neither may be an operand's storage.
void divmod_span(Span u_in, Span v_in, std::vector<Limb>& quotient,
                 std::vector<Limb>& remainder) {
  if (compare_magnitude(u_in, v_in) < 0) {
    quotient.clear();
    remainder.assign(u_in.begin(), u_in.end());
    return;
  }
  if (v_in.size() == 1) {
    // Single-limb divisor: one 128-by-64 division per limb.
    const Limb divisor = v_in[0];
    quotient.resize(u_in.size());
    Limb rem = 0;
    for (std::size_t i = u_in.size(); i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << kLimbBits) | u_in[i];
      quotient[i] = static_cast<Limb>(cur / divisor);
      rem = static_cast<Limb>(cur % divisor);
    }
    trim(quotient);
    remainder.clear();
    if (rem != 0) remainder.push_back(rem);
    return;
  }

  // D1: normalize so that the divisor's top limb has its high bit set.
  const unsigned shift = static_cast<unsigned>(std::countl_zero(v_in.back()));
  const std::size_t n = v_in.size();
  const std::size_t m = u_in.size() - n;
  Workspace& ws = workspace();
  std::vector<Limb>& v = ws.vn;
  v.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    Limb val = v_in[i] << shift;
    if (shift != 0 && i > 0) val |= v_in[i - 1] >> (kLimbBits - shift);
    v[i] = val;
  }
  std::vector<Limb>& u = ws.un;
  u.resize(u_in.size() + 1);
  u[u_in.size()] = shift != 0 ? u_in.back() >> (kLimbBits - shift) : 0;
  for (std::size_t i = u_in.size(); i-- > 0;) {
    Limb val = u_in[i] << shift;
    if (shift != 0 && i > 0) val |= u_in[i - 1] >> (kLimbBits - shift);
    u[i] = val;
  }

  quotient.resize(m + 1);
  const Wide base = static_cast<Wide>(1) << kLimbBits;
  // D2..D7: main loop over quotient digits, most significant first.
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat from the top two limbs of the current remainder.
    const Wide numerator =
        (static_cast<Wide>(u[j + n]) << kLimbBits) | u[j + n - 1];
    Wide q_hat = numerator / v[n - 1];
    Wide r_hat = numerator % v[n - 1];
    while (q_hat >= base ||
           q_hat * v[n - 2] > ((r_hat << kLimbBits) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if (r_hat >= base) break;
    }
    // D4: multiply and subtract u[j..j+n] -= q_hat * v.
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide product = q_hat * v[i] + carry;
      carry = static_cast<Limb>(product >> kLimbBits);
      const Limb low = static_cast<Limb>(product);
      const Limb ui = u[i + j];
      u[i + j] = ui - low - borrow;
      borrow = (ui < low || (ui == low && borrow != 0)) ? 1 : 0;
    }
    __int128 top = static_cast<__int128>(u[j + n]) -
                   static_cast<__int128>(carry) - borrow;
    // D5/D6: if the subtraction went negative the estimate was one too big;
    // add the divisor back.
    if (top < 0) {
      --q_hat;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide total = static_cast<Wide>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<Limb>(total);
        add_carry = static_cast<Limb>(total >> kLimbBits);
      }
      top += add_carry;
    }
    u[j + n] = static_cast<Limb>(top);
    quotient[j] = static_cast<Limb>(q_hat);
  }

  // D8: denormalize the remainder.
  remainder.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Limb val = u[i] >> shift;
    if (shift != 0) val |= u[i + 1] << (kLimbBits - shift);
    remainder[i] = val;
  }
  trim(quotient);
  trim(remainder);
}

/// Single-word binary (Stein) gcd: shifts and subtractions only.
std::uint64_t binary_gcd(std::uint64_t x, std::uint64_t y) noexcept {
  if (x == 0) return y;
  if (y == 0) return x;
  const int common_twos = std::countr_zero(x | y);
  x >>= std::countr_zero(x);
  do {
    y >>= std::countr_zero(y);
    if (x > y) std::swap(x, y);
    y -= x;
  } while (y != 0);
  return x << common_twos;
}

/// Lehmer's single-precision word width: leading parts and cofactors stay
/// below 2^62, so every sum and product of Algorithm L fits in an int64.
constexpr unsigned kLehmerBits = 62;

/// floor(|x| / 2^shift) for a result known to be below 2^64.
Limb bits_from(Span x, std::size_t shift) noexcept {
  const std::size_t index = shift / kLimbBits;
  const unsigned offset = static_cast<unsigned>(shift % kLimbBits);
  if (index >= x.size()) return 0;
  Limb val = x[index] >> offset;
  if (offset != 0 && index + 1 < x.size()) {
    val |= x[index + 1] << (kLimbBits - offset);
  }
  return val;
}

/// out = a * u + b * v over u's width (v no wider than u), for cofactors
/// of opposite sign (or zero) whose combination is known to be
/// non-negative, as Algorithm L's are.  Each step's sum stays below 2^127
/// in magnitude.  `out` must not be either operand's storage.
void combine(Span u, std::int64_t a, Span v, std::int64_t b,
             std::vector<Limb>& out) {
  out.resize(u.size());
  __int128 carry = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    __int128 total = static_cast<__int128>(a) * u[i] + carry;
    if (i < v.size()) total += static_cast<__int128>(b) * v[i];
    out[i] = static_cast<Limb>(total);
    carry = total >> kLimbBits;  // arithmetic shift: a signed borrow
  }
  trim(out);
}

}  // namespace

BigInt::BigInt(std::int64_t value) {
  if (value > -kSmallLimit && value < kSmallLimit) {
    small_ = value;
    return;
  }
  // Avoid UB on INT64_MIN: negate in unsigned space.
  assign(value < 0 ? ~static_cast<std::uint64_t>(value) + 1ULL
                   : static_cast<std::uint64_t>(value),
         value < 0 ? -1 : 1);
}

BigInt::BigInt(std::uint64_t value) {
  if (value < static_cast<std::uint64_t>(kSmallLimit)) {
    small_ = static_cast<std::int64_t>(value);
    return;
  }
  assign(value, 1);
}

std::span<const Limb> BigInt::magnitude(const BigInt& x, Limb& word) noexcept {
  if (!x.is_small_) return x.limbs_;
  word = x.small_magnitude();
  return Span(&word, word != 0 ? 1 : 0);
}

void BigInt::assign(std::span<const Limb> magnitude, int sign) {
  if (magnitude.empty() ||
      (magnitude.size() == 1 &&
       magnitude[0] < static_cast<std::uint64_t>(kSmallLimit))) {
    const std::int64_t value =
        magnitude.empty() ? 0 : static_cast<std::int64_t>(magnitude[0]);
    small_ = sign < 0 ? -value : value;
    is_small_ = true;
    sign_ = 0;
    LimbArena::local().release(limbs_);
    return;
  }
  LimbArena::local().acquire(limbs_);
  limbs_.assign(magnitude.begin(), magnitude.end());
  small_ = 0;
  sign_ = sign;
  is_small_ = false;
}

void BigInt::assign(unsigned __int128 magnitude, int sign) {
  const Limb parts[2] = {static_cast<Limb>(magnitude),
                         static_cast<Limb>(magnitude >> kLimbBits)};
  assign(trimmed(parts), sign);
}

BigInt BigInt::from_string(std::string_view text) {
  DLSCHED_EXPECT(!text.empty(), "BigInt::from_string: empty input");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  DLSCHED_EXPECT(pos < text.size(), "BigInt::from_string: sign only");
  BigInt result;
  // Consume 9 decimal digits at a time: result = result * 10^9 + chunk.
  while (pos < text.size()) {
    const std::size_t take = std::min<std::size_t>(9, text.size() - pos);
    std::uint64_t chunk = 0;
    std::uint64_t scale = 1;
    for (std::size_t i = 0; i < take; ++i) {
      const char ch = text[pos + i];
      DLSCHED_EXPECT(ch >= '0' && ch <= '9',
                     "BigInt::from_string: non-digit character");
      chunk = chunk * 10 + static_cast<std::uint64_t>(ch - '0');
      scale *= 10;
    }
    result *= BigInt(scale);
    result += BigInt(chunk);
    pos += take;
  }
  if (negative) result.negate();
  return result;
}

std::size_t BigInt::bit_length() const noexcept {
  if (is_small_) {
    return static_cast<std::size_t>(std::bit_width(small_magnitude()));
  }
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  if (result.is_negative()) result.negate();
  return result;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (is_small_ && rhs.is_small_) {
    // |a|, |b| < 2^62, so the int64 sum cannot overflow.
    const std::int64_t sum = small_ + rhs.small_;
    if (sum > -kSmallLimit && sum < kSmallLimit) {
      small_ = sum;
    } else {
      *this = BigInt(sum);
    }
    return *this;
  }
  Limb lw = 0;
  Limb rw = 0;
  std::vector<Limb>& out = workspace().x;
  const int sign = signed_sum(magnitude(*this, lw), this->sign(),
                              magnitude(rhs, rw), rhs.sign(), out);
  assign(out, sign);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  if (is_small_ && rhs.is_small_) {
    const std::int64_t diff = small_ - rhs.small_;
    if (diff > -kSmallLimit && diff < kSmallLimit) {
      small_ = diff;
    } else {
      *this = BigInt(diff);
    }
    return *this;
  }
  Limb lw = 0;
  Limb rw = 0;
  std::vector<Limb>& out = workspace().x;
  const int sign = signed_sum(magnitude(*this, lw), this->sign(),
                              magnitude(rhs, rw), -rhs.sign(), out);
  assign(out, sign);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (is_small_ && rhs.is_small_) {
    std::int64_t product = 0;
    if (!__builtin_mul_overflow(small_, rhs.small_, &product)) {
      if (product > -kSmallLimit && product < kSmallLimit) {
        small_ = product;
        return *this;
      }
    }
    // Inline overflow: |a|, |b| < 2^62 keeps |a*b| under 124 bits, so the
    // limb form can be assembled directly from a 128-bit product.
    const int sign = (small_ < 0) != (rhs.small_ < 0) ? -1 : 1;
    assign(static_cast<unsigned __int128>(small_magnitude()) *
               rhs.small_magnitude(),
           sign);
    return *this;
  }
  Limb lw = 0;
  Limb rw = 0;
  std::vector<Limb>& out = workspace().x;
  mul_magnitude(magnitude(*this, lw), magnitude(rhs, rw), out);
  assign(out, sign() * rhs.sign());
  return *this;
}

void BigInt::divmod(const BigInt& numerator, const BigInt& denominator,
                    BigInt& quotient, BigInt& remainder) {
  DLSCHED_EXPECT(!denominator.is_zero(), "BigInt division by zero");
  if (numerator.is_small_ && denominator.is_small_) {
    // |numerator| < 2^62 rules out the INT64_MIN / -1 overflow case, and
    // C++ native division already has the required truncation semantics.
    const std::int64_t q = numerator.small_ / denominator.small_;
    const std::int64_t r = numerator.small_ % denominator.small_;
    quotient = BigInt(q);
    remainder = BigInt(r);
    return;
  }
  const int num_sign = numerator.sign();
  const int den_sign = denominator.sign();
  Limb nw = 0;
  Limb dw = 0;
  Workspace& ws = workspace();
  divmod_span(magnitude(numerator, nw), magnitude(denominator, dw), ws.x,
              ws.y);
  quotient.assign(ws.x, num_sign * den_sign);
  remainder.assign(ws.y, num_sign);
}

void BigInt::fraction_free_update(BigInt& cell, const BigInt& p,
                                  const BigInt& f, const BigInt& g,
                                  const BigInt& den) {
  DLSCHED_EXPECT(!den.is_zero(), "BigInt division by zero");
  Workspace& ws = workspace();
  Limb cw = 0;
  Limb pw = 0;
  Limb fw = 0;
  Limb gw = 0;
  Limb dw = 0;
  mul_magnitude(magnitude(cell, cw), magnitude(p, pw), ws.x);
  mul_magnitude(magnitude(f, fw), magnitude(g, gw), ws.y);
  const int sign = signed_sum(ws.x, cell.sign() * p.sign(), ws.y,
                              -(f.sign() * g.sign()), ws.z);
  if (den.is_one()) {
    cell.assign(ws.z, sign);
    return;
  }
  divmod_span(ws.z, magnitude(den, dw), ws.x, ws.y);
  DLSCHED_EXPECT(ws.y.empty(), "bareiss: fraction-free division not exact");
  cell.assign(ws.x, sign * den.sign());
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  BigInt remainder;
  divmod(*this, rhs, *this, remainder);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  BigInt quotient;
  divmod(*this, rhs, quotient, *this);
  return *this;
}

BigInt& BigInt::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  if (is_small_) {
    const std::uint64_t mag = small_magnitude();
    const std::size_t width = static_cast<std::size_t>(std::bit_width(mag));
    if (bits <= 62 && width + bits <= 62) {
      const std::uint64_t shifted = mag << bits;
      small_ = small_ < 0 ? -static_cast<std::int64_t>(shifted)
                          : static_cast<std::int64_t>(shifted);
      return *this;
    }
  }
  Limb word = 0;
  const Span mag = magnitude(*this, word);
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  std::vector<Limb>& out = workspace().x;
  out.assign(mag.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const Wide val = static_cast<Wide>(mag[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<Limb>(val);
    out[i + limb_shift + 1] |= static_cast<Limb>(val >> kLimbBits);
  }
  trim(out);
  assign(out, sign());
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  if (is_small_) {
    // Magnitude shift, matching the limb-form semantics: -5 >> 1 == -2.
    const std::uint64_t mag = small_magnitude();
    const std::uint64_t shifted = bits >= 64 ? 0 : mag >> bits;
    small_ = small_ < 0 ? -static_cast<std::int64_t>(shifted)
                        : static_cast<std::int64_t>(shifted);
    return *this;
  }
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  std::vector<Limb>& out = workspace().x;
  out.assign(limbs_.size() > limb_shift ? limbs_.size() - limb_shift : 0, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Limb val = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      val |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out[i] = val;
  }
  trim(out);
  assign(out, sign_);
  return *this;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.negate();
  return result;
}

int BigInt::compare(const BigInt& rhs) const noexcept {
  if (is_small_ && rhs.is_small_) {
    return (small_ > rhs.small_) - (small_ < rhs.small_);
  }
  const int ls = sign();
  const int rs = rhs.sign();
  if (ls != rs) return ls < rs ? -1 : 1;
  if (is_small_ != rhs.is_small_) {
    // The limb form always holds magnitude >= 2^62 and the inline form
    // < 2^62, so the representation alone decides the magnitude order.
    const int mag = is_small_ ? -1 : 1;
    return ls > 0 ? mag : -mag;
  }
  const int mag = compare_magnitude(limbs_, rhs.limbs_);
  return ls > 0 ? mag : -mag;
}

// Lehmer's algorithm (Knuth TAOCP vol. 2, 4.5.2, Algorithm L).  While the
// smaller operand v has two or more limbs, the leading 62 bits of u and the
// same bits of v drive single-precision Euclid steps for as long as the
// quotient is certain, and one multi-precision step then applies all of
// them at once: (u, v) <- (A u + B v, C u + D v).  When no quotient is
// certain, a Knuth-D division step runs instead.  The tail, with v down
// to one limb, is one single-limb remainder and the binary gcd.
BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  if (a.is_small_ && b.is_small_) {
    // The hot path of every Rational reduction: no division at all.
    return BigInt(binary_gcd(a.small_magnitude(), b.small_magnitude()));
  }
  Workspace& ws = workspace();
  Limb aw = 0;
  Limb bw = 0;
  Span am = magnitude(a, aw);
  Span bm = magnitude(b, bw);
  if (compare_magnitude(am, bm) < 0) std::swap(am, bm);
  std::vector<Limb>& u = ws.x;
  std::vector<Limb>& v = ws.y;
  u.assign(am.begin(), am.end());
  v.assign(bm.begin(), bm.end());
  while (v.size() >= 2) {
    // L1: u >= v >= 2^64, so u has more than 62 bits.  ca, cb, cc, cd
    // are Knuth's cofactors A, B, C, D.
    const std::size_t shift = (u.size() - 1) * kLimbBits +
                              std::bit_width(u.back()) - kLehmerBits;
    auto uh = static_cast<std::int64_t>(bits_from(u, shift));
    auto vh = static_cast<std::int64_t>(bits_from(v, shift));
    std::int64_t ca = 1;
    std::int64_t cb = 0;
    std::int64_t cc = 0;
    std::int64_t cd = 1;
    // L2/L3: emulate Euclid on the leading parts while the quotient is
    // the same at both ends of its uncertainty interval.
    while (vh + cc != 0 && vh + cd != 0) {
      const std::int64_t q = (uh + ca) / (vh + cc);
      if (q != (uh + cb) / (vh + cd)) break;
      std::int64_t t = ca - q * cc;
      ca = cc;
      cc = t;
      t = cb - q * cd;
      cb = cd;
      cd = t;
      t = uh - q * vh;
      uh = vh;
      vh = t;
    }
    // L4: one multi-precision step.
    if (cb == 0) {
      divmod_span(u, v, ws.z, ws.w);  // w = u mod v
      std::swap(u, v);
      std::swap(v, ws.w);
    } else {
      combine(u, ca, v, cb, ws.z);
      combine(u, cc, v, cd, ws.w);
      std::swap(u, ws.z);
      std::swap(v, ws.w);
    }
  }
  BigInt result;
  if (v.empty()) {
    result.assign(u, 1);
    return result;
  }
  Limb rem = 0;
  for (std::size_t i = u.size(); i-- > 0;) {
    rem = static_cast<Limb>(((static_cast<Wide>(rem) << kLimbBits) | u[i]) %
                            v[0]);
  }
  return BigInt(binary_gcd(v[0], rem));
}

BigInt BigInt::pow(std::uint64_t exponent) const {
  const bool negative_result = sign() < 0 && (exponent & 1ULL) != 0;
  BigInt base = this->abs();
  BigInt result(std::int64_t{1});
  while (exponent != 0) {
    if (exponent & 1ULL) result *= base;
    base *= base;
    exponent >>= 1;
  }
  if (negative_result) result.negate();
  return result;
}

std::string BigInt::to_string() const {
  if (is_small_) return std::to_string(small_);
  // Peel 18 decimal digits at a time via single-limb division by 10^18.
  constexpr Limb kChunk = 1000000000000000000ULL;
  constexpr std::size_t kChunkDigits = 18;
  std::vector<Limb> chunks;
  std::vector<Limb> value = limbs_;
  while (!value.empty()) {
    Limb rem = 0;
    for (std::size_t i = value.size(); i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << kLimbBits) | value[i];
      value[i] = static_cast<Limb>(cur / kChunk);
      rem = static_cast<Limb>(cur % kChunk);
    }
    trim(value);
    chunks.push_back(rem);
  }
  std::string text = sign_ < 0 ? "-" : "";
  text += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    const std::string part = std::to_string(chunks[i]);
    text += std::string(kChunkDigits - part.size(), '0') + part;
  }
  return text;
}

double BigInt::to_double() const noexcept {
  if (is_small_) return static_cast<double>(small_);
  // The top four 32-bit digits, most significant first, rounding after
  // each step (see the file comment of bigint.hpp).
  constexpr unsigned kDigitBits = 32;
  const std::size_t digits =
      2 * limbs_.size() - ((limbs_.back() >> kDigitBits) == 0 ? 1 : 0);
  const std::size_t start = digits > 4 ? digits - 4 : 0;
  double value = 0.0;
  for (std::size_t i = digits; i-- > start;) {
    const auto digit =
        static_cast<std::uint32_t>(limbs_[i / 2] >> (kDigitBits * (i % 2)));
    value = value * 4294967296.0 + static_cast<double>(digit);
  }
  value = std::ldexp(value, static_cast<int>(start * kDigitBits));
  return sign_ < 0 ? -value : value;
}

bool BigInt::fits_int64() const noexcept {
  if (is_small_) return true;
  if (limbs_.size() > 1) return false;
  const std::uint64_t limit = static_cast<std::uint64_t>(INT64_MAX);
  return limbs_[0] <= (sign_ > 0 ? limit : limit + 1ULL);
}

std::int64_t BigInt::to_int64() const {
  if (is_small_) return small_;
  DLSCHED_EXPECT(fits_int64(), "BigInt does not fit in int64");
  // Negate in unsigned space: the magnitude may be 2^63 (INT64_MIN), whose
  // signed negation would overflow.
  const std::uint64_t mag = limbs_[0];
  if (sign_ < 0) return static_cast<std::int64_t>(~mag + 1ULL);
  return static_cast<std::int64_t>(mag);
}

std::ostream& operator<<(std::ostream& out, const BigInt& value) {
  return out << value.to_string();
}

}  // namespace dlsched::numeric
