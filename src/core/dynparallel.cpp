#include "core/dynparallel.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "linalg/generate.hpp"

namespace cumb {

namespace {

/// Escape-time dwell of the active lanes' points, SIMT-style: lanes drop out
/// of the loop as they escape. Inactive lanes return 0.
LaneI mandel_dwell(WarpCtx& w, const LaneVec<float>& cx, const LaneVec<float>& cy,
                   int max_iter) {
  LaneVec<float> zx(0.0f);
  LaneVec<float> zy(0.0f);
  LaneI it(0);
  w.loop_while(
      [&] {
        w.alu(3);
        return ((zx * zx + zy * zy) < 4.0f) & (it < max_iter);
      },
      [&] {
        w.alu(6);
        Mask m = w.active();
        LaneVec<float> t = zx * zx - zy * zy + cx;
        LaneVec<float> ny = 2.0f * (zx * zy) + cy;
        zx = select(m, t, zx);
        zy = select(m, ny, zy);
        it = select(m, it + 1, it);
      });
  return it;
}

/// Complex-plane coordinates of integer pixel vectors.
void pixel_coords(const MandelFrame& f, const LaneI& px, const LaneI& py,
                  LaneVec<float>& cx, LaneVec<float>& cy) {
  cx = px.cast<float>() * f.scale + f.x0;
  cy = py.cast<float>() * f.scale + f.y0;
}

/// `a` where `m` is all ones, `b` where it is zero. Bitwise, so both values
/// are always computed and the lane loop below stays branch-free.
inline float pick(std::int32_t m, float a, float b) {
  return std::bit_cast<float>((std::bit_cast<std::int32_t>(a) & m) |
                              (std::bit_cast<std::int32_t>(b) & ~m));
}

/// Dwells of pixel row `py` into `row` (width entries), 32 pixels at a
/// time. Each lane runs its pixel's escape loop in the scalar float
/// expression order and freezes when it escapes; lanes past `width` start
/// dead. The batch ends when no lane is live.
void mandel_ref_row(int* row, int py, int width, MandelFrame f, int max_iter) {
  constexpr int kLanes = 32;
  const float cy = static_cast<float>(py) * f.scale + f.y0;
  for (int base = 0; base < width; base += kLanes) {
    float cx[kLanes] = {}, zx[kLanes] = {}, zy[kLanes] = {};
    std::int32_t it[kLanes] = {}, live[kLanes] = {};  // live: all ones or zero.
    for (int l = 0; l < kLanes; ++l) {
      cx[l] = static_cast<float>(base + l) * f.scale + f.x0;
      live[l] = -static_cast<std::int32_t>(base + l < width);
    }
    for (std::int32_t any = -1; any != 0;) {
      any = 0;
      for (int l = 0; l < kLanes; ++l) {
        const float x = zx[l], y = zy[l];
        std::int32_t go = live[l] & -((x * x + y * y < 4.0f) & (it[l] < max_iter));
        zx[l] = pick(go, x * x - y * y + cx[l], x);
        zy[l] = pick(go, 2.0f * (x * y) + cy, y);
        it[l] -= go;
        live[l] = go;
        any |= go;
      }
    }
    for (int l = 0; l < kLanes && base + l < width; ++l) row[base + l] = it[l];
  }
}

}  // namespace

WarpTask mandel_escape_kernel(WarpCtx& w, DevSpan<int> dwell, int width, int height,
                              MandelFrame f, int max_iter) {
  LaneI px = w.block_idx().x * w.block_dim().x + w.thread_x();
  LaneI py = w.block_idx().y * w.block_dim().y + w.thread_y();
  w.branch((px < width) & (py < height), [&] {
    LaneVec<float> cx, cy;
    pixel_coords(f, px, py, cx, cy);
    w.alu(4);
    LaneI d = mandel_dwell(w, cx, cy, max_iter);
    w.store(dwell, py * width + px, d);
  });
  co_return;
}

WarpTask mandel_ms_kernel(WarpCtx& w, DevSpan<int> dwell, int width, MandelFrame f,
                          int max_iter, int x0, int y0, int size) {
  constexpr int kWarps = kMsTpb / vgpu::kWarpSize;
  auto flags = w.shared_array<int>(kWarps);
  const int rx = x0 + w.block_idx().x * size;
  const int ry = y0 + w.block_idx().y * size;
  const int border = 4 * size;
  const int wid = w.warp_in_block();

  // Phase 1: warps split the border; each computes and stores its pixels'
  // dwells and tracks whether they all equal its first pixel's dwell.
  bool my_common = true;
  int my_d0 = -1;
  for (int base = wid * vgpu::kWarpSize; base < border; base += kMsTpb) {
    LaneI px, py;
    for (int l = 0; l < vgpu::kWarpSize; ++l) {
      int b = base + l;
      int x, y;
      if (b < size) {                       // Top edge.
        x = rx + b;
        y = ry;
      } else if (b < 2 * size) {            // Bottom edge.
        x = rx + (b - size);
        y = ry + size - 1;
      } else if (b < 3 * size) {            // Left edge.
        x = rx;
        y = ry + (b - 2 * size);
      } else {                              // Right edge.
        x = rx + size - 1;
        y = ry + (b - 3 * size);
      }
      px[l] = x;
      py[l] = y;
    }
    w.alu(6);  // Border-index arithmetic.
    LaneVec<float> cx, cy;
    pixel_coords(f, px, py, cx, cy);
    w.alu(4);
    LaneI d = mandel_dwell(w, cx, cy, max_iter);
    w.store(dwell, py * width + px, d);

    if (my_d0 < 0) my_d0 = w.shfl_idx(d, LaneI(0))[0];  // Broadcast lane 0.
    Mask eq = w.ballot(d == my_d0);
    if (eq != w.active()) my_common = false;
  }

  // Publish the warp verdict: -1 = no border work, -2 = divergent, else d0.
  int verdict = my_d0 < 0 ? -1 : (my_common ? my_d0 : -2);
  w.branch(w.thread_linear() % vgpu::kWarpSize == 0,
           [&] { w.sh_store(flags, LaneI(wid), LaneVec<int>(verdict)); });
  co_await w.syncthreads();

  // Every warp reads all verdicts and reaches the same block-wide decision.
  LaneI fl = w.sh_load(flags, LaneI::iota() % kWarps);
  int d0 = -3;
  bool common = true;
  for (int i = 0; i < kWarps && common; ++i) {
    int v = fl[i];
    if (v == -1) continue;
    if (v == -2) {
      common = false;
    } else if (d0 == -3) {
      d0 = v;
    } else if (d0 != v) {
      common = false;
    }
  }
  if (d0 == -3) common = false;

  if (common) {
    // Phase 2a: uniform border -> fill the rectangle with d0, all warps.
    LaneI fill(d0);
    for (int base = wid * vgpu::kWarpSize; base < size * size; base += kMsTpb) {
      LaneI idx = LaneI::iota(base);
      LaneI px = rx + idx % size;
      LaneI py = ry + idx / size;
      w.alu(3);
      w.store(dwell, py * width + px, fill);
    }
  } else if (size <= kMsMinSize) {
    // Phase 2b: small enough -> solve per pixel, all warps.
    for (int base = wid * vgpu::kWarpSize; base < size * size; base += kMsTpb) {
      LaneI idx = LaneI::iota(base);
      LaneI px = rx + idx % size;
      LaneI py = ry + idx / size;
      w.alu(3);
      LaneVec<float> cx, cy;
      pixel_coords(f, px, py, cx, cy);
      w.alu(4);
      LaneI d = mandel_dwell(w, cx, cy, max_iter);
      w.store(dwell, py * width + px, d);
    }
  } else if (wid == 0) {
    // Phase 2c: subdivide into four child rectangles, launched from the GPU.
    w.launch_device(Dim3{2, 2}, Dim3{kMsTpb},
                    [=](WarpCtx& cw) {
                      return mandel_ms_kernel(cw, dwell, width, f, max_iter, rx, ry,
                                              size / 2);
                    },
                    "mandel_ms_child");
  }
  co_return;
}

std::vector<int> mandel_ref(int width, int height, MandelFrame f, int max_iter) {
  std::vector<int> out(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
  for (int py = 0; py < height; ++py)
    mandel_ref_row(out.data() + static_cast<std::size_t>(py) * width, py, width, f,
                   max_iter);
  return out;
}

std::vector<int> mandel_ref(Runtime& rt, int width, int height, MandelFrame f,
                            int max_iter) {
  std::vector<int> out(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
  rt.gpu().parallel_for(height, [&](long long py) {
    mandel_ref_row(out.data() + static_cast<std::size_t>(py) * width,
                   static_cast<int>(py), width, f, max_iter);
  });
  return out;
}

DynParallelResult run_dynparallel(Runtime& rt, int size, int max_iter) {
  if (size < 4 * kMsMinSize || (size & (size - 1)) != 0)
    throw std::invalid_argument("run_dynparallel: size must be a power of two >= 128");

  MandelFrame f;
  f.scale = 3.0f / static_cast<float>(size);

  std::size_t pixels = static_cast<std::size_t>(size) * static_cast<std::size_t>(size);
  DevSpan<int> dwell = rt.malloc<int>(pixels);

  DynParallelResult res;
  res.name = "DynParallel";

  // Baseline: escape time, one thread per pixel, 16x16 blocks.
  rt.advise_phase("dynparallel.naive");
  LaunchConfig esc_cfg{Dim3{size / 16, size / 16}, Dim3{16, 16}, "mandel_escape"};
  auto esc = rt.launch(esc_cfg, [=](WarpCtx& w) {
    return mandel_escape_kernel(w, dwell, size, size, f, max_iter);
  });
  std::vector<int> escape_out(pixels);
  rt.memcpy_d2h(std::span<int>(escape_out), dwell);

  // Mariani-Silver with dynamic parallelism.
  rt.advise_phase("dynparallel.optimized");
  int init_size = size / kMsInitDiv;
  LaunchConfig ms_cfg{Dim3{kMsInitDiv, kMsInitDiv}, Dim3{kMsTpb}, "mandel_ms"};
  auto ms = rt.launch(ms_cfg, [=](WarpCtx& w) {
    return mandel_ms_kernel(w, dwell, size, f, max_iter, 0, 0, init_size);
  });
  std::vector<int> ms_out(pixels);
  rt.memcpy_d2h(std::span<int>(ms_out), dwell);

  std::vector<int> want = mandel_ref(rt, size, size, f, max_iter);
  long long esc_bad = 0;
  for (std::size_t i = 0; i < pixels; ++i)
    if (escape_out[i] != want[i]) ++esc_bad;
  res.mismatched_pixels = 0;
  for (std::size_t i = 0; i < pixels; ++i)
    if (ms_out[i] != escape_out[i]) ++res.mismatched_pixels;
  res.results_match = esc_bad == 0 && res.mismatched_pixels == 0;

  res.naive_us = esc.duration_us();
  res.optimized_us = ms.duration_us();
  res.naive_stats = esc.stats;
  res.optimized_stats = ms.stats;
  res.device_launches = ms.stats.device_launches;
  return res;
}

}  // namespace cumb
