#include "core/readonly.hpp"

#include <stdexcept>
#include <vector>

#include "linalg/generate.hpp"

namespace cumb {

namespace {

LaneI pixel_index(WarpCtx& w, int width, LaneI& px, LaneI& py) {
  px = w.block_idx().x * w.block_dim().x + w.thread_x();
  py = w.block_idx().y * w.block_dim().y + w.thread_y();
  return py * width + px;
}

}  // namespace

WarpTask matadd_global_kernel(WarpCtx& w, DevSpan<Real> a, DevSpan<Real> b,
                              DevSpan<Real> c, int width, int height) {
  LaneI px, py;
  LaneI idx = pixel_index(w, width, px, py);
  w.branch((px < width) & (py < height), [&] {
    LaneVec<Real> av = w.load(a, idx);
    LaneVec<Real> bv = w.load(b, idx);
    w.alu(1);
    w.store(c, idx, av + bv);
  });
  co_return;
}

WarpTask matadd_tex1d_kernel(WarpCtx& w, Texture<Real> a, Texture<Real> b,
                             DevSpan<Real> c, int width, int height) {
  LaneI px, py;
  LaneI idx = pixel_index(w, width, px, py);
  w.branch((px < width) & (py < height), [&] {
    LaneVec<Real> av = w.tex1d(a, idx);
    LaneVec<Real> bv = w.tex1d(b, idx);
    w.alu(1);
    w.store(c, idx, av + bv);
  });
  co_return;
}

WarpTask matadd_tex2d_kernel(WarpCtx& w, Texture<Real> a, Texture<Real> b,
                             DevSpan<Real> c, int width, int height) {
  LaneI px, py;
  LaneI idx = pixel_index(w, width, px, py);
  w.branch((px < width) & (py < height), [&] {
    LaneVec<Real> av = w.tex2d(a, px, py);
    LaneVec<Real> bv = w.tex2d(b, px, py);
    w.alu(1);
    w.store(c, idx, av + bv);
  });
  co_return;
}

WarpTask poly_const_kernel(WarpCtx& w, ConstSpan<Real> coeffs, int terms,
                           DevSpan<Real> x, DevSpan<Real> y, int n) {
  LaneI i = w.global_tid_x();
  w.branch(i < n, [&] {
    LaneVec<Real> xv = w.load(x, i);
    LaneVec<Real> acc(Real{0});
    LaneVec<Real> pw(Real{1});
    for (int k = 0; k < terms; ++k) {
      LaneVec<Real> ck = w.cload(coeffs, LaneI(k));  // Uniform -> broadcast.
      w.alu(2);
      acc += ck * pw;
      pw *= xv;
    }
    w.store(y, i, acc);
  });
  co_return;
}

WarpTask poly_global_kernel(WarpCtx& w, DevSpan<Real> coeffs, int terms,
                            DevSpan<Real> x, DevSpan<Real> y, int n) {
  LaneI i = w.global_tid_x();
  w.branch(i < n, [&] {
    LaneVec<Real> xv = w.load(x, i);
    LaneVec<Real> acc(Real{0});
    LaneVec<Real> pw(Real{1});
    for (int k = 0; k < terms; ++k) {
      LaneVec<Real> ck = w.load(coeffs, LaneI(k));
      w.alu(2);
      acc += ck * pw;
      pw *= xv;
    }
    w.store(y, i, acc);
  });
  co_return;
}

ReadOnlyResult run_readonly(Runtime& rt, int n) {
  if (n % 16 != 0) throw std::invalid_argument("run_readonly: n % 16 != 0");
  std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  auto [ha, hb] = random_vectors(rt, nn, {111, 112});
  std::vector<Real> want = matadd_ref(ha, hb);

  DevSpan<Real> a = rt.malloc<Real>(nn);
  DevSpan<Real> b = rt.malloc<Real>(nn);
  DevSpan<Real> c = rt.malloc<Real>(nn);
  rt.memcpy_h2d(a, std::span<const Real>(ha));
  rt.memcpy_h2d(b, std::span<const Real>(hb));
  Texture<Real> ta = rt.texture2d(std::span<const Real>(ha), n, n);
  Texture<Real> tb = rt.texture2d(std::span<const Real>(hb), n, n);
  Texture<Real> la = rt.texture1d(std::span<const Real>(ha));  // Linear view.
  Texture<Real> lb = rt.texture1d(std::span<const Real>(hb));

  // 32x8 blocks: each warp covers one full 128-byte row segment, the
  // canonical coalesced shape for row-major image kernels.
  LaunchConfig cfg{Dim3{n / 32, n / 8}, Dim3{32, 8}, "matadd_global"};

  ReadOnlyResult res;
  res.name = "ReadOnlyMem";
  std::vector<Real> got(nn);
  bool ok = true;

  rt.advise_phase("readonly.naive");
  auto glob = rt.launch(cfg, [=](WarpCtx& w) {
    return matadd_global_kernel(w, a, b, c, n, n);
  });
  rt.memcpy_d2h(std::span<Real>(got), c);
  ok = ok && max_abs_diff(got, want) == 0;

  cfg.name = "matadd_tex1d";
  rt.advise_phase("readonly.optimized");
  auto t1 = rt.launch(cfg, [=](WarpCtx& w) {
    return matadd_tex1d_kernel(w, la, lb, c, n, n);
  });
  rt.memcpy_d2h(std::span<Real>(got), c);
  ok = ok && max_abs_diff(got, want) == 0;

  cfg.name = "matadd_tex2d";
  auto t2 = rt.launch(cfg, [=](WarpCtx& w) {
    return matadd_tex2d_kernel(w, ta, tb, c, n, n);
  });
  rt.memcpy_d2h(std::span<Real>(got), c);
  ok = ok && max_abs_diff(got, want) == 0;

  res.results_match = ok;
  res.global_us = glob.duration_us();
  res.tex1d_us = t1.duration_us();
  res.tex2d_us = t2.duration_us();
  res.naive_us = res.global_us;
  res.optimized_us = res.tex2d_us;
  res.naive_stats = glob.stats;
  res.optimized_stats = t2.stats;
  return res;
}

PairResult run_const_poly(Runtime& rt, int n, int terms) {
  constexpr int kTpb = 256;
  auto hx = random_vector(static_cast<std::size_t>(n), 113, Real{-1}, Real{1});
  auto hc = random_vector(static_cast<std::size_t>(terms), 114);

  DevSpan<Real> x = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> y = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> cg = rt.malloc<Real>(static_cast<std::size_t>(terms));
  rt.memcpy_h2d(x, std::span<const Real>(hx));
  rt.memcpy_h2d(cg, std::span<const Real>(hc));
  ConstSpan<Real> cc = rt.const_upload(std::span<const Real>(hc));

  std::vector<Real> want(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Real acc = 0, pw = 1;
    for (int k = 0; k < terms; ++k) {
      acc += hc[static_cast<std::size_t>(k)] * pw;
      pw *= hx[static_cast<std::size_t>(i)];
    }
    want[static_cast<std::size_t>(i)] = acc;
  }

  LaunchConfig cfg{Dim3{blocks_for(n, kTpb)}, Dim3{kTpb}, "poly_global"};

  PairResult res;
  res.name = "ConstPoly";
  std::vector<Real> got(static_cast<std::size_t>(n));

  rt.advise_phase("constpoly.naive");
  auto glob = rt.launch(cfg, [=](WarpCtx& w) {
    return poly_global_kernel(w, cg, terms, x, y, n);
  });
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool ok1 = max_abs_diff(got, want) == 0;

  cfg.name = "poly_const";
  rt.advise_phase("constpoly.optimized");
  auto cst = rt.launch(cfg, [=](WarpCtx& w) {
    return poly_const_kernel(w, cc, terms, x, y, n);
  });
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool ok2 = max_abs_diff(got, want) == 0;

  res.results_match = ok1 && ok2;
  res.naive_us = glob.duration_us();
  res.optimized_us = cst.duration_us();
  res.naive_stats = glob.stats;
  res.optimized_stats = cst.stats;
  return res;
}

}  // namespace cumb
