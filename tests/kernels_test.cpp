// Functional unit tests of the individual benchmark kernels, independent of
// their drivers: each kernel checked against a hand-computed or host
// reference at small sizes.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/comem.hpp"
#include "core/dynparallel.hpp"
#include "core/minitransfer.hpp"
#include "core/readonly.hpp"
#include "core/shmem_mm.hpp"
#include "core/unimem.hpp"
#include "core/warpdiv.hpp"
#include "linalg/generate.hpp"

namespace {

using namespace cumb;
using vgpu::DeviceProfile;
using vgpu::Dim3;

class KernelFixture : public ::testing::Test {
 protected:
  Runtime rt{DeviceProfile::test_tiny()};

  DevSpan<Real> upload(const std::vector<Real>& h) {
    auto d = rt.malloc<Real>(h.size());
    rt.memcpy_h2d(d, std::span<const Real>(h));
    return d;
  }
  std::vector<Real> download(DevSpan<Real> d) {
    std::vector<Real> h(d.n);
    rt.memcpy_d2h(std::span<Real>(h), d);
    return h;
  }
};

TEST_F(KernelFixture, WdAndNowdMatchTheirReferences) {
  const int n = 4096;
  auto hx = random_vector(n, 1);
  auto hy = random_vector(n, 2);
  auto x = upload(hx);
  auto y = upload(hy);
  auto z = rt.malloc<Real>(n);
  std::vector<Real> want(n);

  rt.launch({Dim3{n / 256}, Dim3{256}, "wd"},
            [=](WarpCtx& w) { return wd_kernel(w, x, y, z, n); });
  wd_ref(hx, hy, want);
  EXPECT_EQ(max_abs_diff(download(z), want), 0.0);

  rt.launch({Dim3{n / 256}, Dim3{256}, "nowd"},
            [=](WarpCtx& w) { return nowd_kernel(w, x, y, z, n); });
  nowd_ref(hx, hy, want);
  EXPECT_EQ(max_abs_diff(download(z), want), 0.0);
}

TEST_F(KernelFixture, ThreeAxpyVariantsAgree) {
  const int n = 1 << 14;
  const Real a = Real{1.5};
  auto hx = random_vector(n, 3);
  auto hy = random_vector(n, 4);
  std::vector<Real> want = hy;
  axpy_ref(hx, want, a);
  auto x = upload(hx);

  auto run_and_check = [&](const char* name, auto kernel_maker, Dim3 grid,
                           Dim3 block) {
    auto y = upload(hy);
    rt.launch({grid, block, name}, kernel_maker(y));
    EXPECT_EQ(max_abs_diff(download(y), want), 0.0) << name;
  };

  run_and_check("1per", [&](DevSpan<Real> y) {
    return [=](WarpCtx& w) { return axpy_1per_thread(w, x, y, n, a); };
  }, Dim3{n / 256}, Dim3{256});
  run_and_check("block", [&](DevSpan<Real> y) {
    return [=](WarpCtx& w) { return axpy_block(w, x, y, n, a); };
  }, Dim3{8}, Dim3{256});
  run_and_check("cyclic", [&](DevSpan<Real> y) {
    return [=](WarpCtx& w) { return axpy_cyclic(w, x, y, n, a); };
  }, Dim3{8}, Dim3{256});
}

TEST_F(KernelFixture, GatherAxpyAppliesPermutation) {
  const int n = 1024;
  const Real a = Real{2};
  auto hx = random_vector(n, 5);
  auto hy = random_vector(n, 6);
  auto perm = random_permutation(n, 7);
  auto x = upload(hx);
  auto y = upload(hy);
  auto p = rt.malloc<int>(n);
  rt.memcpy_h2d(p, std::span<const int>(perm));

  rt.launch({Dim3{2}, Dim3{256}, "gather"},
            [=](WarpCtx& w) { return axpy_gather(w, x, y, p, n, a); });
  auto got = download(y);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(got[i], hy[i] + a * hx[static_cast<std::size_t>(perm[i])]) << i;
}

TEST_F(KernelFixture, MatmulKernelsMatchReference) {
  const int n = 64;
  auto ha = random_vector(static_cast<std::size_t>(n) * n, 8);
  auto hb = random_vector(static_cast<std::size_t>(n) * n, 9);
  auto want = matmul_ref(ha, hb, n);
  auto a = upload(ha);
  auto b = upload(hb);
  auto c = rt.malloc<Real>(static_cast<std::size_t>(n) * n);

  rt.launch({Dim3{n / 16, n / 16}, Dim3{16, 16}, "mmg"},
            [=](WarpCtx& w) { return mm_global_kernel(w, a, b, c, n); });
  EXPECT_LT(max_abs_diff(download(c), want), 1e-3);

  rt.launch({Dim3{n / 16, n / 16}, Dim3{16, 16}, "mms"},
            [=](WarpCtx& w) { return mm_shared_kernel(w, a, b, c, n); });
  EXPECT_LT(max_abs_diff(download(c), want), 1e-3);
}

TEST_F(KernelFixture, StridedAxpyTouchesOnlyStridedElements) {
  const int n = 4096, stride = 16, m = n / stride;
  const Real a = Real{3};
  auto hx = random_vector(n, 10);
  auto hy = random_vector(n, 11);
  auto x = upload(hx);
  auto y = upload(hy);
  rt.launch({Dim3{1}, Dim3{256}, "strided"},
            [=](WarpCtx& w) { return axpy_strided_kernel(w, x, y, m, stride, a); });
  auto got = download(y);
  for (int i = 0; i < n; ++i) {
    Real want = hy[static_cast<std::size_t>(i)];
    if (i % stride == 0) want += a * hx[static_cast<std::size_t>(i)];
    EXPECT_EQ(got[i], want) << i;
  }
}

TEST_F(KernelFixture, SpmvKernelsMatchReference) {
  const int n = 128;
  auto dense = random_sparse_dense(n, n, 500, 12);
  Csr csr = dense_to_csr(dense, n, n);
  auto hx = random_vector(n, 13);
  auto want = spmv_ref(csr, hx);

  auto a = upload(dense);
  auto x = upload(hx);
  auto y = rt.malloc<Real>(n);
  rt.launch({Dim3{1}, Dim3{128}, "dense"},
            [=](WarpCtx& w) { return spmv_dense_kernel(w, a, x, y, n, n); });
  EXPECT_EQ(max_abs_diff(download(y), want), 0.0);

  auto rp = rt.malloc<int>(csr.row_ptr.size());
  auto ci = rt.malloc<int>(csr.col_idx.size());
  auto va = upload(csr.vals);
  rt.memcpy_h2d(rp, std::span<const int>(csr.row_ptr));
  rt.memcpy_h2d(ci, std::span<const int>(csr.col_idx));
  auto y2 = rt.malloc<Real>(n);
  rt.launch({Dim3{1}, Dim3{128}, "csr"},
            [=](WarpCtx& w) { return spmv_csr_kernel(w, rp, ci, va, x, y2, n); });
  EXPECT_EQ(max_abs_diff(download(y2), want), 0.0);
}

TEST_F(KernelFixture, PolynomialKernelsMatchHorner) {
  const int n = 2048, terms = 5;
  auto hx = random_vector(n, 14, Real{-1}, Real{1});
  auto hc = random_vector(terms, 15);
  auto x = upload(hx);
  auto cg = upload(hc);
  auto cc = rt.const_upload(std::span<const Real>(hc));
  auto y = rt.malloc<Real>(n);

  std::vector<Real> want(n);
  for (int i = 0; i < n; ++i) {
    Real acc = 0, pw = 1;
    for (int k = 0; k < terms; ++k) {
      acc += hc[static_cast<std::size_t>(k)] * pw;
      pw *= hx[static_cast<std::size_t>(i)];
    }
    want[static_cast<std::size_t>(i)] = acc;
  }

  rt.launch({Dim3{n / 256}, Dim3{256}, "pg"},
            [=](WarpCtx& w) { return poly_global_kernel(w, cg, terms, x, y, n); });
  EXPECT_EQ(max_abs_diff(download(y), want), 0.0);
  rt.launch({Dim3{n / 256}, Dim3{256}, "pc"},
            [=](WarpCtx& w) { return poly_const_kernel(w, cc, terms, x, y, n); });
  EXPECT_EQ(max_abs_diff(download(y), want), 0.0);
}

TEST_F(KernelFixture, SpmvCscMatchesCsrAndCostsMoreToScatter) {
  const int n = 128;
  auto dense = random_sparse_dense(n, n, 500, 19);
  Csr csr = dense_to_csr(dense, n, n);
  Csc csc = csr_to_csc(csr);
  auto hx = random_vector(n, 20);
  auto want = spmv_ref(csr, hx);

  auto x = upload(hx);
  auto cp = rt.malloc<int>(csc.col_ptr.size());
  auto ri = rt.malloc<int>(csc.row_idx.size());
  auto va = upload(csc.vals);
  rt.memcpy_h2d(cp, std::span<const int>(csc.col_ptr));
  rt.memcpy_h2d(ri, std::span<const int>(csc.row_idx));
  auto y = rt.malloc<Real>(n);
  rt.memset(y, Real{0});
  auto csc_info = rt.launch({Dim3{1}, Dim3{128}, "csc"}, [=](WarpCtx& w) {
    return spmv_csc_kernel(w, cp, ri, va, x, y, n);
  });
  // Scatter order differs from the reference's row order: tolerance.
  EXPECT_LT(max_abs_diff(download(y), want), 1e-3);
  EXPECT_GT(csc_info.stats.atomic_ops, 0u);

  auto rp = rt.malloc<int>(csr.row_ptr.size());
  auto ci = rt.malloc<int>(csr.col_idx.size());
  auto vr = upload(csr.vals);
  rt.memcpy_h2d(rp, std::span<const int>(csr.row_ptr));
  rt.memcpy_h2d(ci, std::span<const int>(csr.col_idx));
  auto y2 = rt.malloc<Real>(n);
  auto csr_info = rt.launch({Dim3{1}, Dim3{128}, "csr"}, [=](WarpCtx& w) {
    return spmv_csr_kernel(w, rp, ci, vr, x, y2, n);
  });
  // For y = A*x the gather (CSR) formulation avoids the scatter atomics:
  // the "right combination" point of section IV-B.
  EXPECT_EQ(csr_info.stats.atomic_ops, 0u);
  EXPECT_GT(csc_info.duration_us(), csr_info.duration_us() * 0.9);
}

TEST(MandelKernel, EscapeMatchesHostReference) {
  Runtime rt(DeviceProfile::test_tiny());
  const int size = 64, max_iter = 64;
  MandelFrame f;
  f.scale = 3.0f / size;
  auto dwell = rt.malloc<int>(static_cast<std::size_t>(size) * size);
  rt.launch({Dim3{size / 16, size / 16}, Dim3{16, 16}, "esc"},
            [=](WarpCtx& w) {
              return mandel_escape_kernel(w, dwell, size, size, f, max_iter);
            });
  std::vector<int> got(static_cast<std::size_t>(size) * size);
  rt.memcpy_d2h(std::span<int>(got), dwell);
  EXPECT_EQ(got, mandel_ref(size, size, f, max_iter));
}

/// The per-pixel escape loop the batched host reference must reproduce.
std::vector<int> scalar_mandel(int width, int height, MandelFrame f, int max_iter) {
  std::vector<int> out;
  for (int py = 0; py < height; ++py) {
    for (int px = 0; px < width; ++px) {
      float cx = static_cast<float>(px) * f.scale + f.x0;
      float cy = static_cast<float>(py) * f.scale + f.y0;
      float zx = 0, zy = 0;
      int it = 0;
      while (zx * zx + zy * zy < 4.0f && it < max_iter) {
        float t = zx * zx - zy * zy + cx;
        zy = 2.0f * (zx * zy) + cy;
        zx = t;
        ++it;
      }
      out.push_back(it);
    }
  }
  return out;
}

TEST(MandelRef, BatchedEqualsScalarEscapeLoop) {
  // Widths that leave a partial 32-pixel batch at the end of every row.
  for (auto [width, height] : {std::pair{200, 131}, std::pair{33, 7}}) {
    MandelFrame f;
    f.scale = 3.0f / static_cast<float>(width);
    EXPECT_EQ(mandel_ref(width, height, f, 256), scalar_mandel(width, height, f, 256))
        << width << "x" << height;
  }
  // A crop on the set's boundary, where neighbouring lanes escape at very
  // different iterations, down to a batch of one iteration.
  MandelFrame crop;
  crop.x0 = -0.77f;
  crop.y0 = 0.08f;
  crop.scale = 0.0005f;
  for (int max_iter : {1, 64, 1024})
    EXPECT_EQ(mandel_ref(100, 45, crop, max_iter), scalar_mandel(100, 45, crop, max_iter))
        << "max_iter " << max_iter;
}

TEST(MandelKernel, MarianiSilverEqualsEscapeExactly) {
  Runtime rt(DeviceProfile::test_tiny());
  auto r = run_dynparallel(rt, 128, 128);
  EXPECT_EQ(r.mismatched_pixels, 0);
  EXPECT_TRUE(r.results_match);
}

}  // namespace
