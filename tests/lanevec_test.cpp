// Unit tests for LaneVec (warp registers) and Mask helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "sim/lanevec.hpp"

namespace {

using namespace vgpu;

TEST(Mask, LaneHelpers) {
  EXPECT_TRUE(lane_in(0b101, 0));
  EXPECT_FALSE(lane_in(0b101, 1));
  EXPECT_TRUE(lane_in(0b101, 2));
  EXPECT_EQ(popcount(kFullMask), 32);
  EXPECT_EQ(popcount(0u), 0);
  EXPECT_EQ(lane_bit(5), 0b100000u);
}

TEST(Mask, FirstLanes) {
  EXPECT_EQ(first_lanes(0), 0u);
  EXPECT_EQ(first_lanes(1), 1u);
  EXPECT_EQ(first_lanes(8), 0xffu);
  EXPECT_EQ(first_lanes(32), kFullMask);
  EXPECT_EQ(first_lanes(40), kFullMask);
}

TEST(LaneVec, SplatAndIndex) {
  LaneVec<int> v(7);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(v[i], 7);
  v[3] = 9;
  EXPECT_EQ(v[3], 9);
  EXPECT_EQ(v[4], 7);
}

TEST(LaneVec, Iota) {
  LaneI v = LaneI::iota(10, 3);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(v[i], 10 + 3 * i);
}

TEST(LaneVec, DefaultIsZero) {
  LaneVec<float> v;
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST(LaneVec, ElementwiseArithmetic) {
  LaneI a = LaneI::iota();
  LaneI b = LaneI::iota(0, 2);
  LaneI sum = a + b;
  LaneI diff = b - a;
  LaneI prod = a * LaneI(3);
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(sum[i], 3 * i);
    EXPECT_EQ(diff[i], i);
    EXPECT_EQ(prod[i], 3 * i);
  }
}

TEST(LaneVec, ScalarOperandsBothSides) {
  LaneI a = LaneI::iota();
  LaneI l = 10 + a;
  LaneI r = a + 10;
  LaneI d = 100 - a;
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(l[i], 10 + i);
    EXPECT_EQ(r[i], 10 + i);
    EXPECT_EQ(d[i], 100 - i);
  }
}

TEST(LaneVec, DivisionAndModulo) {
  LaneI a = LaneI::iota();
  LaneI q = a / 4;
  LaneI m = a % 4;
  for (int i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(q[i], i / 4);
    EXPECT_EQ(m[i], i % 4);
  }
}

TEST(LaneVec, CompoundAssign) {
  LaneI a = LaneI::iota();
  a += LaneI(1);
  a *= LaneI(2);
  a -= LaneI(2);
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(a[i], 2 * (i + 1) - 2);
}

TEST(LaneVec, ComparisonsProduceMasks) {
  LaneI a = LaneI::iota();
  EXPECT_EQ(a < 4, 0b1111u);
  EXPECT_EQ(a <= 3, 0b1111u);
  EXPECT_EQ(a == 5, lane_bit(5));
  EXPECT_EQ(a != 5, kFullMask ^ lane_bit(5));
  EXPECT_EQ(a >= 30, lane_bit(30) | lane_bit(31));
  EXPECT_EQ(a > 31, 0u);
}

TEST(LaneVec, VectorVectorComparison) {
  LaneI a = LaneI::iota();
  LaneI b = LaneI::iota(31, -1);  // Reversed.
  Mask lt = a < b;
  EXPECT_EQ(popcount(lt), 16);  // Lower half.
  EXPECT_TRUE(lane_in(lt, 0));
  EXPECT_FALSE(lane_in(lt, 16));
}

TEST(LaneVec, Select) {
  LaneI a(1), b(2);
  LaneI r = select(0x0000ffffu, a, b);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r[i], 1);
  for (int i = 16; i < 32; ++i) EXPECT_EQ(r[i], 2);
}

TEST(LaneVec, MapAndCast) {
  LaneI a = LaneI::iota();
  auto sq = a.map([](int x) { return x * x; });
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(sq[i], i * i);
  LaneVec<float> f = a.cast<float>();
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(f[i], static_cast<float>(i));
}

TEST(LaneVec, FloatArithmeticMatchesScalar) {
  LaneVec<float> x = LaneI::iota(1).cast<float>();
  LaneVec<float> y = 2.0f * x + 0.5f;
  for (int i = 0; i < kWarpSize; ++i)
    EXPECT_EQ(y[i], 2.0f * static_cast<float>(i + 1) + 0.5f);
}

// Property sweep: iota/arithmetic identities over several strides.
class LaneVecProperty : public ::testing::TestWithParam<int> {};

TEST_P(LaneVecProperty, IotaLinearity) {
  int step = GetParam();
  LaneI v = LaneI::iota(0, step);
  LaneI w = LaneI::iota() * step;
  for (int i = 0; i < kWarpSize; ++i) EXPECT_EQ(v[i], w[i]);
}

TEST_P(LaneVecProperty, SelectPartition) {
  int step = GetParam();
  Mask m = LaneI::iota() % (step + 1) == 0;
  LaneI a(1), b(0);
  LaneI r = select(m, a, b);
  int count = 0;
  for (int i = 0; i < kWarpSize; ++i) count += r[i];
  EXPECT_EQ(count, popcount(m));
}

INSTANTIATE_TEST_SUITE_P(Steps, LaneVecProperty, ::testing::Values(1, 2, 3, 5, 7, 16));

// Compares and select against a per-lane scalar reference, per element type.
// The lane values mix edge cases (NaN, -0.0, infinities, extreme integers)
// with seeded random draws, so equal, ordered and unordered pairs all occur.
template <typename T>
std::vector<T> edge_values() {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_floating_point_v<T>) {
    return {T(0), -T(0), T(1), T(-1), L::quiet_NaN(), -L::quiet_NaN(), L::infinity(),
            -L::infinity(), L::max(), L::lowest(), L::denorm_min(), T(0.5)};
  } else {
    return {T(0), T(1), T(2), L::max(), L::min(), static_cast<T>(L::max() - 1),
            static_cast<T>(L::min() + 1), static_cast<T>(-1)};
  }
}

template <typename T>
LaneVec<T> random_lanes(std::mt19937_64& rng) {
  const std::vector<T> edges = edge_values<T>();
  LaneVec<T> v;
  for (int i = 0; i < kWarpSize; ++i) {
    std::uint64_t r = rng();
    if (r % 2 == 0) {
      v[i] = edges[(r >> 8) % edges.size()];
    } else if constexpr (std::is_floating_point_v<T>) {
      v[i] = static_cast<T>(static_cast<int>((r >> 8) % 9) - 4) * T(0.5);
    } else {
      v[i] = static_cast<T>((r >> 8) % 5);
    }
  }
  return v;
}

/// Bitwise lane equality, so NaN payloads and the sign of zero count.
template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
class LaneVecTyped : public ::testing::Test {};
using LaneTypes = ::testing::Types<float, double, int, std::uint64_t>;
TYPED_TEST_SUITE(LaneVecTyped, LaneTypes);

template <typename T, typename Op>
Mask scalar_mask(const LaneVec<T>& a, const LaneVec<T>& b, Op op) {
  Mask m = 0;
  for (int i = 0; i < kWarpSize; ++i)
    if (op(a[i], b[i])) m |= lane_bit(i);
  return m;
}

TYPED_TEST(LaneVecTyped, ComparesMatchScalarReference) {
  using T = TypeParam;
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 64; ++round) {
    const LaneVec<T> a = random_lanes<T>(rng);
    // Every third round compares a with itself, so equal lanes (and NaN
    // against NaN) appear in bulk.
    const LaneVec<T> b = round % 3 == 0 ? a : random_lanes<T>(rng);
    const T s = b[round % kWarpSize];
    const LaneVec<T> splat(s);
    EXPECT_EQ(a < b, scalar_mask(a, b, [](T x, T y) { return x < y; }));
    EXPECT_EQ(a <= b, scalar_mask(a, b, [](T x, T y) { return x <= y; }));
    EXPECT_EQ(a > b, scalar_mask(a, b, [](T x, T y) { return x > y; }));
    EXPECT_EQ(a >= b, scalar_mask(a, b, [](T x, T y) { return x >= y; }));
    EXPECT_EQ(a == b, scalar_mask(a, b, [](T x, T y) { return x == y; }));
    EXPECT_EQ(a != b, scalar_mask(a, b, [](T x, T y) { return x != y; }));
    EXPECT_EQ(a < s, scalar_mask(a, splat, [](T x, T y) { return x < y; }));
    EXPECT_EQ(a <= s, scalar_mask(a, splat, [](T x, T y) { return x <= y; }));
    EXPECT_EQ(a > s, scalar_mask(a, splat, [](T x, T y) { return x > y; }));
    EXPECT_EQ(a >= s, scalar_mask(a, splat, [](T x, T y) { return x >= y; }));
    EXPECT_EQ(a == s, scalar_mask(a, splat, [](T x, T y) { return x == y; }));
    EXPECT_EQ(a != s, scalar_mask(a, splat, [](T x, T y) { return x != y; }));
  }
}

TYPED_TEST(LaneVecTyped, NaNAndSignedZeroCompareLikeScalars) {
  using T = TypeParam;
  if constexpr (std::is_floating_point_v<T>) {
    LaneVec<T> a(std::numeric_limits<T>::quiet_NaN());
    a[1] = -T(0);
    LaneVec<T> b(T(0));
    const Mask rest = kFullMask & ~lane_bit(1);
    EXPECT_EQ(a == b, lane_bit(1));  // -0.0 == 0.0; NaN equals nothing.
    EXPECT_EQ(a != b, rest);
    EXPECT_EQ(a < b, 0u);
    EXPECT_EQ(a <= b, lane_bit(1));
    EXPECT_EQ(a > b, 0u);
    EXPECT_EQ(a >= b, lane_bit(1));
    EXPECT_EQ(a == a, lane_bit(1));
    EXPECT_EQ(a != a, rest);
  }
}

TYPED_TEST(LaneVecTyped, SelectMatchesScalarReference) {
  using T = TypeParam;
  std::mt19937_64 rng(0xbead);
  std::vector<Mask> masks = {0u, kFullMask};
  for (int i = 0; i < kWarpSize; ++i) {
    masks.push_back(lane_bit(i));
    masks.push_back(kFullMask ^ lane_bit(i));
  }
  for (int i = 0; i < 32; ++i) masks.push_back(static_cast<Mask>(rng()));
  for (Mask m : masks) {
    const LaneVec<T> a = random_lanes<T>(rng);
    const LaneVec<T> b = random_lanes<T>(rng);
    const LaneVec<T> r = select(m, a, b);
    for (int i = 0; i < kWarpSize; ++i)
      EXPECT_TRUE(same_bits(r[i], lane_in(m, i) ? a[i] : b[i]))
          << "mask " << m << " lane " << i;
  }
}

}  // namespace
