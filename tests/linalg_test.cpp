// Linear-algebra substrate tests: references, sparse formats, generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>

#include "linalg/dense.hpp"
#include "linalg/generate.hpp"
#include "linalg/sparse.hpp"

namespace {

using namespace cumb;

TEST(Dense, AxpyRef) {
  std::vector<Real> x{1, 2, 3};
  std::vector<Real> y{10, 20, 30};
  axpy_ref(x, y, 2);
  EXPECT_EQ(y, (std::vector<Real>{12, 24, 36}));
  std::vector<Real> bad{1};
  EXPECT_THROW(axpy_ref(x, std::span<Real>(bad), 1), std::invalid_argument);
}

TEST(Dense, MatmulRefIdentity) {
  int n = 4;
  std::vector<Real> eye(16, 0);
  for (int i = 0; i < n; ++i) eye[static_cast<std::size_t>(i) * n + i] = 1;
  auto a = random_vector(16, 7);
  auto c = matmul_ref(a, eye, n);
  EXPECT_EQ(max_abs_diff(a, c), 0.0);
}

TEST(Dense, MatmulRefKnownProduct) {
  std::vector<Real> a{1, 2, 3, 4};
  std::vector<Real> b{5, 6, 7, 8};
  auto c = matmul_ref(a, b, 2);
  EXPECT_EQ(c, (std::vector<Real>{19, 22, 43, 50}));
}

TEST(Dense, MatAddAndSum) {
  std::vector<Real> a{1, 2}, b{3, 4};
  EXPECT_EQ(matadd_ref(a, b), (std::vector<Real>{4, 6}));
  EXPECT_DOUBLE_EQ(sum_ref(a), 3.0);
}

TEST(Dense, MaxAbsDiff) {
  std::vector<Real> a{1, 2, 3}, b{1, 2.5, 3};
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-7);
  std::vector<Real> c{1};
  EXPECT_TRUE(max_abs_diff(a, c) > 1e30);  // Size mismatch sentinel.
}

TEST(Sparse, DenseToCsrDropsZeros) {
  std::vector<Real> d{1, 0, 2,
                      0, 0, 0,
                      3, 4, 0};
  Csr m = dense_to_csr(d, 3, 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.row_ptr, (std::vector<int>{0, 2, 2, 4}));
  EXPECT_EQ(m.col_idx, (std::vector<int>{0, 2, 0, 1}));
  EXPECT_EQ(m.vals, (std::vector<Real>{1, 2, 3, 4}));
}

TEST(Sparse, CsrDenseRoundTrip) {
  auto d = random_sparse_dense(13, 17, 40, 99);
  Csr m = dense_to_csr(d, 13, 17);
  EXPECT_EQ(csr_to_dense(m), d);
}

TEST(Sparse, CsrCscRoundTrip) {
  auto d = random_sparse_dense(9, 11, 30, 5);
  Csr m = dense_to_csr(d, 9, 11);
  Csr back = csc_to_csr(csr_to_csc(m));
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.vals, m.vals);
}

TEST(Sparse, SpmvMatchesDense) {
  auto d = random_sparse_dense(16, 16, 60, 42);
  Csr m = dense_to_csr(d, 16, 16);
  auto x = random_vector(16, 43);
  auto y_sparse = spmv_ref(m, x);
  auto y_dense = spmv_dense_ref(d, 16, 16, x);
  EXPECT_LT(max_abs_diff(y_sparse, y_dense), 1e-4);
}

TEST(Sparse, TransferBytes) {
  auto d = random_sparse_dense(8, 8, 10, 1);
  Csr m = dense_to_csr(d, 8, 8);
  EXPECT_EQ(m.transfer_bytes(), 9 * sizeof(int) + 10 * sizeof(int) + 10 * sizeof(Real));
}

TEST(Sparse, EmptyMatrix) {
  std::vector<Real> d(16, 0);
  Csr m = dense_to_csr(d, 4, 4);
  EXPECT_EQ(m.nnz(), 0);
  auto y = spmv_ref(m, std::vector<Real>(4, 1.0f));
  for (Real v : y) EXPECT_EQ(v, 0.0f);
}

TEST(Generate, VectorDeterministicAndInRange) {
  auto a = random_vector(100, 7, 2.0f, 3.0f);
  auto b = random_vector(100, 7, 2.0f, 3.0f);
  EXPECT_EQ(a, b);
  for (Real v : a) {
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 3.0f);
  }
  EXPECT_NE(a, random_vector(100, 8, 2.0f, 3.0f));
}

TEST(Generate, VectorIsByteIdenticalToStdMt19937_64) {
  // The inputs of every pair, and so every golden, were drawn with the
  // standard library; the block-twisting generator must reproduce them.
  for (std::size_t n : {0u, 1u, 311u, 312u, 313u, 624u, 625u, 1u << 16}) {
    for (std::uint64_t seed : {11ull, 21ull, 121ull, (1ull << 63) + 5}) {
      for (auto [lo, hi] : {std::pair{0.0f, 1.0f}, std::pair{-1.0f, 1.0f},
                            std::pair{2.0f, 3.0f}}) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<Real> dist(lo, hi);
        std::vector<Real> want(n);
        for (Real& x : want) x = dist(rng);
        std::vector<Real> got = random_vector(n, seed, lo, hi);
        ASSERT_EQ(got.size(), n);
        EXPECT_TRUE(n == 0 || std::memcmp(got.data(), want.data(), n * sizeof(Real)) == 0)
            << "n " << n << " seed " << seed << " range [" << lo << ", " << hi << ")";
      }
    }
  }
}

TEST(Generate, SparseHasExactNnz) {
  for (long long nnz : {0LL, 1LL, 37LL, 100LL}) {
    auto d = random_sparse_dense(10, 10, nnz, 11);
    long long count = std::count_if(d.begin(), d.end(),
                                    [](Real v) { return v != Real{0}; });
    EXPECT_EQ(count, nnz);
  }
}

TEST(Generate, SparseNnzValidation) {
  EXPECT_THROW(random_sparse_dense(4, 4, 17, 1), std::invalid_argument);
  EXPECT_THROW(random_sparse_dense(4, 4, -1, 1), std::invalid_argument);
}

TEST(Generate, PermutationIsBijective) {
  auto p = random_permutation(257, 3);
  std::vector<bool> seen(257, false);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 257);
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

}  // namespace
