#include "core/comem.hpp"

#include <stdexcept>
#include <vector>

#include "linalg/generate.hpp"

namespace cumb {

WarpTask axpy_1per_thread(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int n,
                          Real a) {
  LaneI i = w.global_tid_x();
  w.branch(i < n, [&] {
    LaneF xv = w.load(x, i);
    LaneF yv = w.load(y, i);
    w.alu(1);
    w.store(y, i, yv + a * xv);
  });
  co_return;
}

WarpTask axpy_block(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int n, Real a) {
  LaneI i = w.global_tid_x();
  int total_threads = w.total_threads_x();
  int block_size = n / total_threads;
  LaneI start = i * block_size;
  LaneI stop = start + block_size;
  LaneI j = start;
  w.alu(3);
  w.loop_while([&] { return (j < stop) & (j < n); },
               [&] {
                 LaneF xv = w.load(x, j);
                 LaneF yv = w.load(y, j);
                 w.alu(1);
                 w.store(y, j, yv + a * xv);
                 j += LaneI(1);
               });
  co_return;
}

WarpTask axpy_cyclic(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, int n, Real a) {
  LaneI j = w.global_tid_x();
  int total_threads = w.total_threads_x();
  w.loop_while([&] { return j < n; },
               [&] {
                 LaneF xv = w.load(x, j);
                 LaneF yv = w.load(y, j);
                 w.alu(1);
                 w.store(y, j, yv + a * xv);
                 j += LaneI(total_threads);
               });
  co_return;
}

WarpTask axpy_gather(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y, DevSpan<int> perm,
                     int n, Real a) {
  LaneI j = w.global_tid_x();
  int total_threads = w.total_threads_x();
  w.loop_while([&] { return j < n; },
               [&] {
                 LaneI p = w.load(perm, j);
                 LaneF xv = w.load(x, p);
                 LaneF yv = w.load(y, j);
                 w.alu(1);
                 w.store(y, j, yv + a * xv);
                 j += LaneI(total_threads);
               });
  co_return;
}

CoMemResult run_comem(Runtime& rt, int n, int grid_blocks) {
  constexpr int kTpb = 256;
  const Real a = Real{2.5};
  if (n % (grid_blocks * kTpb) != 0)
    throw std::invalid_argument("run_comem: n must be a multiple of grid*block");

  // The permutation, the slowest draw, runs beside the two vectors.
  std::vector<int> perm;
  auto [hx, hy0] = random_vectors(rt, static_cast<std::size_t>(n), {21, 22},
                                  [&] { perm = random_permutation(n, 23); });

  DevSpan<Real> x = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<Real> y = rt.malloc<Real>(static_cast<std::size_t>(n));
  DevSpan<int> p = rt.malloc<int>(static_cast<std::size_t>(n));
  rt.memcpy_h2d(x, std::span<const Real>(hx));
  rt.memcpy_h2d(p, std::span<const int>(perm));

  LaunchConfig cfg{Dim3{grid_blocks}, Dim3{kTpb}, "axpy"};

  // Host reference.
  std::vector<Real> want = hy0;
  axpy_ref(hx, want, a);

  CoMemResult r;
  r.name = "CoMem";

  auto run_variant = [&](const char* name, const char* phase, auto&& fn) {
    // Close the previous variant's phase before the reset copy so each advice
    // phase sees exactly one kernel (and its result copy), nothing else's setup.
    rt.advise_phase("");
    rt.memcpy_h2d(y, std::span<const Real>(hy0));
    rt.advise_phase(phase);
    LaunchConfig c = cfg;
    c.name = name;
    return rt.launch(c, fn);
  };

  auto blk = run_variant("axpy_block", "comem.naive",
                         [=](WarpCtx& w) { return axpy_block(w, x, y, n, a); });
  std::vector<Real> got(static_cast<std::size_t>(n));
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool blk_ok = max_abs_diff(got, want) == 0;

  auto cyc = run_variant("axpy_cyclic", "comem.optimized",
                         [=](WarpCtx& w) { return axpy_cyclic(w, x, y, n, a); });
  rt.memcpy_d2h(std::span<Real>(got), y);
  bool cyc_ok = max_abs_diff(got, want) == 0;

  auto gat = run_variant("axpy_gather", "comem.gather", [=](WarpCtx& w) {
    return axpy_gather(w, x, y, p, n, a);
  });

  r.naive_us = blk.duration_us();
  r.optimized_us = cyc.duration_us();
  r.gather_us = gat.duration_us();
  r.results_match = blk_ok && cyc_ok;
  r.naive_stats = blk.stats;
  r.optimized_stats = cyc.stats;
  r.block_transactions = blk.stats.gld_transactions;
  r.cyclic_transactions = cyc.stats.gld_transactions;
  return r;
}

}  // namespace cumb
