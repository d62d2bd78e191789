#include "core/memalign.hpp"

#include <vector>

namespace cumb {

WarpTask axpy_aligned(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int n, Real a) {
  LaneI i = w.global_tid_x();
  w.branch((i > 0) & (i < n), [&] {
    LaneF xv = w.load(x, i);
    LaneF yv = w.load(y, i);
    w.alu(1);
    w.store(y, i, yv + a * xv);
  });
  co_return;
}

WarpTask axpy_misaligned(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int n, Real a) {
  LaneI i = w.global_tid_x() + 1;
  w.branch(i < n, [&] {
    LaneF xv = w.load(x, i);
    LaneF yv = w.load(y, i);
    w.alu(1);
    w.store(y, i, yv + a * xv);
  });
  co_return;
}

MemAlignResult run_memalign(Runtime& rt, int n) {
  constexpr int kTpb = 256;
  const Real a = Real{1.5};
  auto [hx, hy0] = random_vectors(rt, static_cast<std::size_t>(n), {31, 32});

  DevSpan<Real> x = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> y = rt.malloc<Real>(static_cast<std::size_t>(n));
  rt.memcpy_h2d(x, std::span<const Real>(hx));

  // Both kernels compute y[i] += a*x[i] for i in [1, n).
  std::vector<Real> want = hy0;
  for (std::size_t i = 1; i < want.size(); ++i) want[i] += a * hx[i];

  LaunchConfig cfg{Dim3{blocks_for(n, kTpb)}, Dim3{kTpb}, "axpy_misaligned"};

  MemAlignResult r;
  r.name = "MemAlign";

  rt.memcpy_h2d(y, std::span<const Real>(hy0));
  rt.advise_phase("memalign.naive");  // After setup copies: advise on the kernel.
  auto mis = rt.launch(cfg, [=](WarpCtx& w) { return axpy_misaligned(w, x, y, n, a); });
  std::vector<Real> got(static_cast<std::size_t>(n));
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool mis_ok = max_abs_diff(got, want) == 0;

  cfg.name = "axpy_aligned";
  rt.advise_phase("");  // Keep the reset copy out of the naive phase.
  rt.memcpy_h2d(y, std::span<const Real>(hy0));
  rt.advise_phase("memalign.optimized");
  auto ali = rt.launch(cfg, [=](WarpCtx& w) { return axpy_aligned(w, x, y, n, a); });
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool ali_ok = max_abs_diff(got, want) == 0;

  r.naive_us = mis.duration_us();
  r.optimized_us = ali.duration_us();
  r.results_match = mis_ok && ali_ok;
  r.naive_stats = mis.stats;
  r.optimized_stats = ali.stats;
  r.aligned_transactions = ali.stats.gld_transactions;
  r.misaligned_transactions = mis.stats.gld_transactions;
  return r;
}

}  // namespace cumb
