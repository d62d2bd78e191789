#include "core/unimem.hpp"

#include <stdexcept>
#include <vector>

namespace cumb {

WarpTask axpy_strided_kernel(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int m,
                             int stride, Real a) {
  LaneI i = w.global_tid_x();
  w.branch(i < m, [&] {
    LaneI idx = i * stride;
    w.alu(1);
    LaneVec<Real> xv = w.load(x, idx);
    LaneVec<Real> yv = w.load(y, idx);
    w.alu(1);
    w.store(y, idx, yv + a * xv);
  });
  co_return;
}

UniMemResult run_unimem(Runtime& rt, int n, int stride) {
  constexpr int kTpb = 256;
  const Real a = Real{1.25};
  if (stride < 1 || n % stride != 0)
    throw std::invalid_argument("run_unimem: stride must divide n");
  int m = n / stride;

  auto [hx, hy0] = random_vectors(rt, static_cast<std::size_t>(n), {121, 122});
  std::vector<Real> want = hy0;
  for (int i = 0; i < m; ++i)
    want[static_cast<std::size_t>(i) * stride] += a * hx[static_cast<std::size_t>(i) * stride];

  LaunchConfig cfg{Dim3{blocks_for(m, kTpb)}, Dim3{kTpb}, "axpy_strided"};

  UniMemResult res;
  res.name = "UniMem";
  res.stride = stride;
  std::vector<Real> got(static_cast<std::size_t>(n));

  // --- Explicit offload: whole arrays both ways. ---
  rt.advise_phase("unimem.naive");
  DevSpan<Real> xe = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> ye = rt.malloc<Real>(static_cast<std::size_t>(n));
  rt.synchronize();
  double t0 = rt.now_us();
  rt.memcpy_h2d(xe, std::span<const Real>(hx));
  rt.memcpy_h2d(ye, std::span<const Real>(hy0));
  auto einfo = rt.launch(cfg, [=](WarpCtx& w) {
    return axpy_strided_kernel(w, xe, ye, m, stride, a);
  });
  rt.memcpy_d2h(std::span<Real>(got), ye);
  rt.synchronize();
  res.naive_us = rt.now_us() - t0;
  bool eok = max_abs_diff(got, want) == 0;
  res.explicit_bytes = 3u * static_cast<std::uint64_t>(n) * sizeof(Real);

  // --- Unified memory: pages move on demand. ---
  rt.advise_phase("unimem.optimized");
  DevSpan<Real> xm = rt.malloc_managed<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> ym = rt.malloc_managed<Real>(static_cast<std::size_t>(n));
  rt.managed_write(xm, std::span<const Real>(hx));
  rt.managed_write(ym, std::span<const Real>(hy0));
  rt.synchronize();
  t0 = rt.now_us();
  auto minfo = rt.launch(cfg, [=](WarpCtx& w) {
    return axpy_strided_kernel(w, xm, ym, m, stride, a);
  });
  rt.synchronize();
  // The host consumes exactly the elements the kernel produced; only their
  // pages fault back (the explicit path had to ship the whole array).
  rt.managed_host_touch(ym, static_cast<std::size_t>(stride),
                        static_cast<std::size_t>(m));
  res.optimized_us = rt.now_us() - t0;
  rt.peek(std::span<Real>(got), ym);
  bool mok = max_abs_diff(got, want) == 0;
  res.migrated_bytes = minfo.stats.um_migrated_bytes;
  res.page_faults = minfo.stats.um_page_faults;

  // --- Extension: managed + whole-range prefetch (paper's future work). ---
  rt.advise_phase("unimem.prefetch");
  DevSpan<Real> xp = rt.malloc_managed<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> yp = rt.malloc_managed<Real>(static_cast<std::size_t>(n));
  rt.managed_write(xp, std::span<const Real>(hx));
  rt.managed_write(yp, std::span<const Real>(hy0));
  rt.synchronize();
  t0 = rt.now_us();
  rt.prefetch_to_device(rt.default_stream(), xp);
  rt.prefetch_to_device(rt.default_stream(), yp);
  rt.launch(cfg, [=](WarpCtx& w) {
    return axpy_strided_kernel(w, xp, yp, m, stride, a);
  });
  rt.synchronize();
  rt.managed_host_touch(yp, static_cast<std::size_t>(stride),
                        static_cast<std::size_t>(m));
  res.prefetch_us = rt.now_us() - t0;
  rt.peek(std::span<Real>(got), yp);
  bool pok = max_abs_diff(got, want) == 0;

  res.results_match = eok && mok && pok;
  res.naive_stats = einfo.stats;
  res.optimized_stats = minfo.stats;
  return res;
}

}  // namespace cumb
