#pragma once

// DynParallel: dynamic parallelism via the Mariani-Silver Mandelbrot
// algorithm (paper section III-B, Figs. 4-5).
//
// The baseline escape-time kernel computes the dwell (escape iteration) of
// every pixel. The Mariani-Silver kernel processes a rectangle per block:
// it computes only the rectangle's border; if the whole border shares one
// dwell the interior is filled with plain stores (dwell level sets are
// connected, so this is exact), otherwise the block either solves the
// rectangle per-pixel (when small) or launches four child rectangles from
// the device — the recursive subdivision of Fig. 4. Device-side launches pay
// the cheaper device_launch_us, but at small images that overhead exceeds
// the saved computation, reproducing the crossover of Fig. 5.

#include <vector>

#include "core/common.hpp"

namespace cumb {

/// Mapping from pixel coordinates to the complex plane: c = (x0 + px*scale,
/// y0 + py*scale).
struct MandelFrame {
  float x0 = -2.0f;
  float y0 = -1.5f;
  float scale = 0;  ///< Set to 3.0/size for the standard view.
};

/// Rectangles at or below this edge length are solved per-pixel (16x16 with
/// a 256-thread block = exactly one pixel per thread, like the baseline).
inline constexpr int kMsMinSize = 16;
/// Initial host-side subdivision (grid of kMsInitDiv x kMsInitDiv rects).
inline constexpr int kMsInitDiv = 2;

/// Baseline: one thread per pixel, full escape-time loop.
WarpTask mandel_escape_kernel(WarpCtx& w, DevSpan<int> dwell, int width, int height,
                              MandelFrame f, int max_iter);

/// Threads per Mariani-Silver block (8 warps cooperate on one rectangle).
inline constexpr int kMsTpb = 256;

/// Mariani-Silver: one block per rectangle. The block's warps split the
/// border, publish per-warp uniformity verdicts in shared memory, agree
/// after a barrier, then either fill, solve per-pixel, or have warp 0 launch
/// four child rectangles from the device.
WarpTask mandel_ms_kernel(WarpCtx& w, DevSpan<int> dwell, int width, MandelFrame f,
                          int max_iter, int x0, int y0, int size);

/// Host reference (identical float arithmetic order as the kernels).
std::vector<int> mandel_ref(int width, int height, MandelFrame f, int max_iter);
/// The same image, its rows computed on `rt`'s simulation pool
/// (GpuExec::parallel_for); each pixel's float sequence is unchanged.
std::vector<int> mandel_ref(Runtime& rt, int width, int height, MandelFrame f,
                            int max_iter);

struct DynParallelResult : PairResult {
  std::uint64_t device_launches = 0;
  long long mismatched_pixels = 0;  ///< Mariani-Silver vs escape-time output.
};

/// size must be a power of two >= 128 (so the subdivision reaches kMsMinSize).
DynParallelResult run_dynparallel(Runtime& rt, int size, int max_iter = 256);

}  // namespace cumb
