#include "core/conkernels.hpp"

#include <cmath>

#include "linalg/generate.hpp"

namespace cumb {

namespace {
constexpr int kTpb = 256;
constexpr Real kMul = Real{1.0000001};
constexpr Real kAdd = Real{0.0000001};
}  // namespace

WarpTask burn_kernel(WarpCtx& w, DevSpan<Real> buf, int n, int iters) {
  LaneI i = w.global_tid_x();
  w.branch(i < n, [&] {
    LaneVec<Real> v = w.load(buf, i);
    Mask m = w.active();
    for (int k = 0; k < iters; ++k) {
      w.alu(4);  // Four dependent FMA-class instructions per iteration.
      v = select(m, ((v * kMul + kAdd) * kMul + kAdd) * kMul + kAdd, v);
    }
    w.store(buf, i, v);
  });
  co_return;
}

ConKernelsResult run_conkernels(Runtime& rt, int kernels, int iters) {
  ConKernelsResult res;
  res.name = "Conkernels";
  res.kernels = kernels;

  auto h0 = random_vector(kTpb, 81);
  // Iterations outermost: each value still sees the kernel's exact sequence
  // of operations, and the 256 independent chains run side by side.
  std::vector<Real> want = h0;
  for (int k = 0; k < iters; ++k)
    for (std::size_t i = 0; i < kTpb; ++i)
      want[i] = ((want[i] * kMul + kAdd) * kMul + kAdd) * kMul + kAdd;

  std::vector<DevSpan<Real>> bufs;
  for (int i = 0; i < kernels; ++i) {
    bufs.push_back(rt.malloc<Real>(kTpb));
    rt.memcpy_h2d(bufs.back(), std::span<const Real>(h0));
  }

  LaunchConfig cfg{Dim3{1}, Dim3{kTpb}, "burn"};

  // Serial: every kernel on the default stream.
  rt.advise_phase("conkernels.naive");
  rt.synchronize();
  double t0 = rt.now_us();
  KernelStats serial_stats;
  for (int i = 0; i < kernels; ++i) {
    DevSpan<Real> b = bufs[static_cast<std::size_t>(i)];
    auto info = rt.launch(cfg, [=](WarpCtx& w) { return burn_kernel(w, b, kTpb, iters); });
    serial_stats += info.stats;
  }
  rt.synchronize();
  res.serial_us = rt.now_us() - t0;

  bool ok = true;
  std::vector<Real> got(kTpb);
  for (auto& b : bufs) {
    rt.memcpy_d2h(std::span<Real>(got), b);
    ok = ok && max_abs_diff(got, want) == 0;
    rt.memcpy_h2d(b, std::span<const Real>(h0));  // Reset for the concurrent pass.
  }

  // Concurrent: one stream per kernel.
  rt.advise_phase("conkernels.optimized");
  std::vector<Stream*> streams;
  for (int i = 0; i < kernels; ++i) streams.push_back(&rt.create_stream());
  rt.synchronize();
  t0 = rt.now_us();
  KernelStats conc_stats;
  for (int i = 0; i < kernels; ++i) {
    DevSpan<Real> b = bufs[static_cast<std::size_t>(i)];
    auto info = rt.launch(*streams[static_cast<std::size_t>(i)], cfg,
                          [=](WarpCtx& w) { return burn_kernel(w, b, kTpb, iters); });
    conc_stats += info.stats;
  }
  rt.synchronize();
  res.concurrent_us = rt.now_us() - t0;

  for (auto& b : bufs) {
    rt.memcpy_d2h(std::span<Real>(got), b);
    ok = ok && max_abs_diff(got, want) == 0;
  }

  res.results_match = ok;
  res.naive_us = res.serial_us;
  res.optimized_us = res.concurrent_us;
  res.naive_stats = serial_stats;
  res.optimized_stats = conc_stats;
  return res;
}

}  // namespace cumb
