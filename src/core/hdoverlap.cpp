#include "core/hdoverlap.hpp"

#include <stdexcept>
#include <vector>

#include "core/comem.hpp"

namespace cumb {

HdOverlapResult run_hdoverlap(Runtime& rt, int n, int chunks, int streams) {
  constexpr int kTpb = 256;
  const Real a = Real{3.0};
  if (chunks < 1 || n % (chunks * kTpb) != 0)
    throw std::invalid_argument("run_hdoverlap: n must be a multiple of chunks*256");
  int chunk_n = n / chunks;

  auto [hx, hy0] = random_vectors(rt, static_cast<std::size_t>(n), {101, 102});
  std::vector<Real> want = hy0;
  axpy_ref(hx, want, a);

  DevSpan<Real> x = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> y = rt.malloc<Real>(static_cast<std::size_t>(n));

  HdOverlapResult res;
  res.name = "HDOverlap";
  res.chunks = chunks;
  res.streams = streams;

  // --- Synchronous offload. ---
  rt.advise_phase("hdoverlap.naive");
  rt.synchronize();
  double t0 = rt.now_us();
  rt.memcpy_h2d(x, std::span<const Real>(hx));
  rt.memcpy_h2d(y, std::span<const Real>(hy0));
  LaunchConfig cfg{Dim3{blocks_for(n, kTpb)}, Dim3{kTpb}, "axpy_sync"};
  auto sync_info =
      rt.launch(cfg, [=](WarpCtx& w) { return axpy_1per_thread(w, x, y, n, a); });
  std::vector<Real> got(static_cast<std::size_t>(n));
  rt.memcpy_d2h(std::span<Real>(got), y);
  rt.synchronize();
  res.naive_us = rt.now_us() - t0;
  bool sync_ok = max_abs_diff(got, want) == 0;

  // --- Pipelined offload: chunked copies + kernels across streams. ---
  rt.advise_phase("hdoverlap.optimized");
  std::vector<Stream*> ss;
  for (int i = 0; i < streams; ++i) ss.push_back(&rt.create_stream());

  rt.synchronize();
  t0 = rt.now_us();
  KernelStats async_stats;
  for (int c = 0; c < chunks; ++c) {
    Stream& s = *ss[static_cast<std::size_t>(c % streams)];
    std::size_t off = static_cast<std::size_t>(c) * static_cast<std::size_t>(chunk_n);
    DevSpan<Real> xc = x.subspan(off, static_cast<std::size_t>(chunk_n));
    DevSpan<Real> yc = y.subspan(off, static_cast<std::size_t>(chunk_n));
    rt.memcpy_h2d_async(s, xc, std::span<const Real>(hx).subspan(off, chunk_n));
    rt.memcpy_h2d_async(s, yc, std::span<const Real>(hy0).subspan(off, chunk_n));
    LaunchConfig ck{Dim3{blocks_for(chunk_n, kTpb)}, Dim3{kTpb}, "axpy_chunk"};
    auto info = rt.launch(
        s, ck, [=](WarpCtx& w) { return axpy_1per_thread(w, xc, yc, chunk_n, a); });
    async_stats += info.stats;
    rt.memcpy_d2h_async(s, std::span<Real>(got).subspan(off, chunk_n), yc);
  }
  rt.synchronize();
  res.optimized_us = rt.now_us() - t0;
  bool async_ok = max_abs_diff(got, want) == 0;

  res.results_match = sync_ok && async_ok;
  res.naive_stats = sync_info.stats;
  res.optimized_stats = async_stats;
  return res;
}

}  // namespace cumb
