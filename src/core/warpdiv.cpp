#include "core/warpdiv.hpp"

#include <algorithm>
#include <vector>

namespace cumb {

namespace {

/// The divergent region's body: z[i] = c0*x + c1*y (the compiler hoists the
/// two loads, which both branch arms share, out of the if — so only the
/// FMA pair and the store live inside the divergent region, as in the SASS
/// the paper profiled).
void axpby_arm(WarpCtx& w, const LaneF& xv, const LaneF& yv, const DevSpan<Real>& z,
               const LaneI& i, Real c0, Real c1) {
  w.alu(2);  // Two FMA-class ops.
  w.store(z, i, Real(c0) * xv + Real(c1) * yv);
}

}  // namespace

WarpTask wd_kernel(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, DevSpan<Real> z,
                   int n) {
  LaneI tid = w.global_tid_x();
  w.branch(tid < n, [&] {
    LaneF xv = w.load(x, tid);
    LaneF yv = w.load(y, tid);
    w.branch(
        tid % 2 == 0,
        [&] { axpby_arm(w, xv, yv, z, tid, 2, 3); },
        [&] { axpby_arm(w, xv, yv, z, tid, 3, 2); });
  });
  co_return;
}

WarpTask nowd_kernel(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, DevSpan<Real> z,
                     int n) {
  LaneI tid = w.global_tid_x();
  w.branch(tid < n, [&] {
    LaneF xv = w.load(x, tid);
    LaneF yv = w.load(y, tid);
    LaneI warp = tid / vgpu::kWarpSize;
    w.branch(
        warp % 2 == 0,
        [&] { axpby_arm(w, xv, yv, z, tid, 2, 3); },
        [&] { axpby_arm(w, xv, yv, z, tid, 3, 2); });
  });
  co_return;
}

void wd_ref(std::span<const Real> x, std::span<const Real> y, std::span<Real> z) {
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] = (i % 2 == 0) ? 2 * x[i] + 3 * y[i] : 3 * x[i] + 2 * y[i];
}

void nowd_ref(std::span<const Real> x, std::span<const Real> y, std::span<Real> z) {
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] = ((i / 32) % 2 == 0) ? 2 * x[i] + 3 * y[i] : 3 * x[i] + 2 * y[i];
}

WarpDivResult run_warpdiv(Runtime& rt, int n) {
  constexpr int kTpb = 256;
  auto [hx, hy] = random_vectors(rt, static_cast<std::size_t>(n), {11, 12});

  DevSpan<Real> x = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> y = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> z = rt.malloc<Real>(static_cast<std::size_t>(n));
  rt.memcpy_h2d(x, std::span<const Real>(hx));
  rt.memcpy_h2d(y, std::span<const Real>(hy));

  LaunchConfig cfg{Dim3{blocks_for(n, kTpb)}, Dim3{kTpb}, "warpdiv"};

  WarpDivResult r;
  r.name = "WarpDivRedux";

  rt.advise_phase("warpdiv.naive");
  auto wd = rt.launch(cfg, [=](WarpCtx& w) { return wd_kernel(w, x, y, z, n); });
  std::vector<Real> got(static_cast<std::size_t>(n));
  rt.memcpy_d2h(std::span<Real>(got), z);
  std::vector<Real> want(static_cast<std::size_t>(n));
  wd_ref(hx, hy, want);
  r.max_error = max_abs_diff(got, want);
  bool wd_ok = r.max_error == 0;

  rt.advise_phase("warpdiv.optimized");
  auto nowd = rt.launch(cfg, [=](WarpCtx& w) { return nowd_kernel(w, x, y, z, n); });
  rt.memcpy_d2h(std::span<Real>(got), z);
  nowd_ref(hx, hy, want);
  double err2 = max_abs_diff(got, want);
  r.max_error = std::max(r.max_error, err2);
  r.results_match = wd_ok && err2 == 0;

  r.naive_us = wd.duration_us();
  r.optimized_us = nowd.duration_us();
  r.naive_stats = wd.stats;
  r.optimized_stats = nowd.stats;
  r.wd_efficiency_pct = wd.stats.warp_execution_efficiency();
  r.nowd_efficiency_pct = nowd.stats.warp_execution_efficiency();
  return r;
}

}  // namespace cumb
