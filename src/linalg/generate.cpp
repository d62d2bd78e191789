#include "linalg/generate.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <stdexcept>
#include <type_traits>

namespace cumb {

namespace {

// MT19937-64 with std::mt19937_64's parameters and seeding. The state is
// twisted one 312-word block at a time; the block's outputs are then
// temper(state[k]) in order, as std::mt19937_64 returns them.
constexpr int kMtN = 312;
constexpr int kMtM = 156;
constexpr std::uint64_t kMtUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kMtLower = ~kMtUpper;

void mt_seed(std::uint64_t* mt, std::uint64_t seed) {
  mt[0] = seed;
  for (int i = 1; i < kMtN; ++i)
    mt[i] = 6364136223846793005ULL * (mt[i - 1] ^ (mt[i - 1] >> 62)) +
            static_cast<std::uint64_t>(i);
}

/// One twisted word: `hi`'s upper 33 bits and `lo`'s lower 31, xor'd into
/// `far`. The matrix term is masked in, not branched on.
inline std::uint64_t mt_mix(std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
  std::uint64_t y = (hi & kMtUpper) | (lo & kMtLower);
  return far ^ (y >> 1) ^ (0xB5026F5AA96619E9ULL & (0 - (y & 1)));
}

/// Twist a block in place. mt[kMtN] holds a copy of the new mt[0], which the
/// last word mixes in, so both loops run a whole number of vector steps.
void mt_twist(std::uint64_t* mt) {
  for (int k = 0; k < kMtN - kMtM; ++k) mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + kMtM]);
  mt[kMtN] = mt[0];
  for (int k = kMtN - kMtM; k < kMtN; ++k)
    mt[k] = mt_mix(mt[k], mt[k + 1], mt[k + kMtM - kMtN]);
}

inline std::uint64_t mt_temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

/// libstdc++'s generate_canonical<float, 24> of one 64-bit draw: the
/// round-to-nearest float(z) / 2^64, clamped to the largest float below 1.
/// A z at or above 2^63 converts as (z >> 1) with its dropped bit kept
/// sticky, which rounds identically, and is scaled by 2^-63 instead.
inline float canonical(std::uint64_t z) {
  std::uint64_t top = z >> 63;
  std::uint64_t half = (z >> 1) | (z & 1);
  auto v = static_cast<std::int64_t>(z ^ ((z ^ half) & (0 - top)));  // top ? half : z
  // 0x1F800000 is 2^-64; one more in the exponent field makes 2^-63.
  float scale = std::bit_cast<float>(0x1F800000u + (static_cast<std::uint32_t>(top) << 23));
  return std::min(static_cast<float>(v) * scale, 0x1.fffffep-1f);
}

}  // namespace

std::vector<Real> random_vector(std::size_t n, std::uint64_t seed, Real lo, Real hi) {
  static_assert(std::is_same_v<Real, float>, "canonical() draws floats");
  std::vector<Real> v(n);
  std::uint64_t mt[kMtN + 1] = {};
  std::uint64_t out[kMtN] = {};
  mt_seed(mt, seed);
  const Real range = hi - lo;
  for (std::size_t i = 0; i < n; i += kMtN) {
    mt_twist(mt);
    for (int k = 0; k < kMtN; ++k) out[k] = mt_temper(mt[k]);
    const std::size_t m = std::min<std::size_t>(kMtN, n - i);
    for (std::size_t k = 0; k < m; ++k) v[i + k] = canonical(out[k]) * range + lo;
  }
  return v;
}

std::vector<Real> random_sparse_dense(int rows, int cols, long long nnz,
                                      std::uint64_t seed) {
  long long total = static_cast<long long>(rows) * cols;
  if (nnz < 0 || nnz > total)
    throw std::invalid_argument("random_sparse_dense: bad nnz");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> dist(Real{0.5}, Real{1.5});
  std::vector<Real> m(static_cast<std::size_t>(total), Real{0});
  // Floyd's algorithm: sample nnz distinct positions without building a
  // permutation of the whole matrix. A non-zero value marks "already chosen".
  for (long long j = total - nnz; j < total; ++j) {
    long long t = std::uniform_int_distribution<long long>(0, j)(rng);
    bool seen = m[static_cast<std::size_t>(t)] != Real{0};
    long long pos = seen ? j : t;
    m[static_cast<std::size_t>(pos)] = dist(rng);
  }
  return m;
}

std::vector<int> random_permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(p.begin(), p.end(), rng);
  return p;
}

}  // namespace cumb
