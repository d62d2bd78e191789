#pragma once

// 32-lane warp-register values and active masks.
//
// A LaneVec<T> is the simulator's model of one warp register: one value of T
// per lane. All arithmetic is elementwise across the 32 lanes, mirroring the
// lock-step SIMT execution the paper's section II-A describes. Comparison
// operators produce a Mask (bit i set = lane i true), which is the currency
// of predication, divergence handling and warp-vote intrinsics.
//
// The storage is a flat SoA-style array. A result that writes every lane
// (arithmetic, select, map/cast, iota, generate) is built without first
// zero-filling it, and every lane loop is branch-free: select reads both
// operands and tests a constant lane-bit table, and a comparison ORs
// `kLaneBits[i] & (0 - (a op b))`. Written this way the arithmetic,
// compare and select loops vectorize at the project's -O2 on baseline
// x86-64 — see DESIGN.md section 11 and the VGPU_VEC_REPORT CMake option
// for the -fopt-info-vec spot check.

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace vgpu {

inline constexpr int kWarpSize = 32;

/// One bit per lane; bit i corresponds to lane i.
using Mask = std::uint32_t;
inline constexpr Mask kFullMask = 0xffffffffu;

constexpr bool lane_in(Mask m, int lane) { return (m >> lane) & 1u; }
constexpr int popcount(Mask m) { return std::popcount(m); }
constexpr Mask lane_bit(int lane) { return 1u << lane; }

/// Mask with the first n lanes active (n in [0, 32]).
constexpr Mask first_lanes(int n) {
  return n >= kWarpSize ? kFullMask : ((1u << n) - 1u);
}

/// kLaneBits[i] == lane_bit(i): a constant table the vectorizer can load,
/// where a variable shift `m >> i` would keep a lane loop scalar.
inline constexpr auto kLaneBits = [] {
  std::array<Mask, kWarpSize> bits{};
  for (int i = 0; i < kWarpSize; ++i) bits[static_cast<std::size_t>(i)] = lane_bit(i);
  return bits;
}();

template <typename T>
class LaneVec {
 public:
  /// Every lane 0: WarpCtx loads leave their inactive lanes at this value.
  LaneVec() : v_{} {}
  /// Broadcast: every lane holds `splat`.
  explicit LaneVec(T splat) { v_.fill(splat); }

  /// Lane i holds f(i). The only construction that skips the zero-fill,
  /// which is safe because the loop writes every lane.
  template <typename F>
  static LaneVec generate(F&& f) {
    LaneVec r{NoFill{}};
    for (int i = 0; i < kWarpSize; ++i) r.v_[i] = f(i);
    return r;
  }

  /// Lane i holds start + i * step.
  static LaneVec iota(T start = T{0}, T step = T{1}) {
    return generate([=](int i) { return static_cast<T>(start + step * static_cast<T>(i)); });
  }

  T& operator[](int lane) { return v_[static_cast<std::size_t>(lane)]; }
  const T& operator[](int lane) const { return v_[static_cast<std::size_t>(lane)]; }

  /// Contiguous lane storage (SoA view for vectorized consumers).
  T* data() { return v_.data(); }
  const T* data() const { return v_.data(); }

  /// Elementwise transform.
  template <typename F>
  auto map(F&& f) const -> LaneVec<std::invoke_result_t<F, T>> {
    return LaneVec<std::invoke_result_t<F, T>>::generate([&](int i) { return f(v_[i]); });
  }

  template <typename U>
  LaneVec<U> cast() const {
    return map([](T x) { return static_cast<U>(x); });
  }

#define VGPU_LANEVEC_BINOP(op)                                                  \
  friend LaneVec operator op(const LaneVec& a, const LaneVec& b) {              \
    return generate([&](int i) { return static_cast<T>(a.v_[i] op b.v_[i]); }); \
  }                                                                             \
  friend LaneVec operator op(const LaneVec& a, T b) {                           \
    return generate([&](int i) { return static_cast<T>(a.v_[i] op b); });       \
  }                                                                             \
  friend LaneVec operator op(T a, const LaneVec& b) {                           \
    return generate([&](int i) { return static_cast<T>(a op b.v_[i]); });       \
  }

  VGPU_LANEVEC_BINOP(+)
  VGPU_LANEVEC_BINOP(-)
  VGPU_LANEVEC_BINOP(*)
  VGPU_LANEVEC_BINOP(/)
#undef VGPU_LANEVEC_BINOP

  friend LaneVec operator%(const LaneVec& a, T b) requires std::is_integral_v<T> {
    return generate([&](int i) { return static_cast<T>(a.v_[i] % b); });
  }

  LaneVec& operator+=(const LaneVec& o) { return *this = *this + o; }
  LaneVec& operator-=(const LaneVec& o) { return *this = *this - o; }
  LaneVec& operator*=(const LaneVec& o) { return *this = *this * o; }

  // Branch-free OR-reduction: `0 - bool` is all-ones or zero, so lane i
  // contributes kLaneBits[i] or nothing. (A `bool << i` fold does not
  // vectorize: the shift count varies per lane.)
#define VGPU_LANEVEC_CMP(op)                                               \
  friend Mask operator op(const LaneVec& a, const LaneVec& b) {            \
    Mask m = 0;                                                            \
    for (int i = 0; i < kWarpSize; ++i)                                    \
      m |= kLaneBits[i] & (0u - static_cast<Mask>(a.v_[i] op b.v_[i]));    \
    return m;                                                              \
  }                                                                        \
  friend Mask operator op(const LaneVec& a, T b) {                         \
    Mask m = 0;                                                            \
    for (int i = 0; i < kWarpSize; ++i)                                    \
      m |= kLaneBits[i] & (0u - static_cast<Mask>(a.v_[i] op b));          \
    return m;                                                              \
  }

  VGPU_LANEVEC_CMP(<)
  VGPU_LANEVEC_CMP(<=)
  VGPU_LANEVEC_CMP(>)
  VGPU_LANEVEC_CMP(>=)
  VGPU_LANEVEC_CMP(==)
  VGPU_LANEVEC_CMP(!=)
#undef VGPU_LANEVEC_CMP

  /// Lane-conditional select: lane i gets (m bit i ? a[i] : b[i]). Both
  /// lanes are read unconditionally so the loop lowers to a blend.
  friend LaneVec select(Mask m, const LaneVec& a, const LaneVec& b) {
    return generate([&](int i) {
      const T x = a.v_[i];
      const T y = b.v_[i];
      return (m & kLaneBits[i]) != 0 ? x : y;
    });
  }

 private:
  struct NoFill {};
  explicit LaneVec(NoFill) {}

  std::array<T, kWarpSize> v_;
};

using LaneF = LaneVec<float>;
using LaneD = LaneVec<double>;
using LaneI = LaneVec<int>;
using LaneU = LaneVec<std::uint32_t>;
using LaneL = LaneVec<std::int64_t>;

}  // namespace vgpu
