// Determinism of the parallel grid engine (DESIGN.md, "Host-side
// parallelization"): for representative workloads — tiled matmul (shared
// memory + barriers), shuffle reduction (warp intrinsics), histogram
// (integer atomics), a floating-point atomic accumulation (commit-queue
// ordering) and Mariani-Silver Mandelbrot (dynamic parallelism) — a run at
// VGPU_THREADS=4 must be *bitwise* identical to the serial run: functional
// outputs, every KernelStats counter, the per-block cycle vectors of every
// dynamic-parallelism level, and the vgpu-san CheckReport. A seeded fuzz
// loop widens the coverage to randomized kernel shapes.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/dynparallel.hpp"
#include "core/histogram.hpp"
#include "core/shmem_mm.hpp"
#include "core/shuffle_reduce.hpp"
#include <vgpu.hpp>

namespace {

using namespace vgpu;

/// Everything observable from one kernel execution.
struct Capture {
  std::vector<std::vector<double>> level_cycles;
  KernelStats stats;
  CheckReport check;          ///< vgpu-san diagnostics (exact-compared).
  std::vector<float> floats;  ///< Functional output (bitwise-compared).
  std::vector<int> ints;
};

void expect_bitwise_equal(const Capture& serial, const Capture& parallel) {
  // Floats compare as bit patterns: FP atomics and reductions must replay
  // the serial rounding sequence exactly, not merely land close.
  ASSERT_EQ(serial.floats.size(), parallel.floats.size());
  for (std::size_t i = 0; i < serial.floats.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &serial.floats[i], sizeof(a));
    std::memcpy(&b, &parallel.floats[i], sizeof(b));
    EXPECT_EQ(a, b) << "float output " << i << " differs: " << serial.floats[i]
                    << " vs " << parallel.floats[i];
  }
  EXPECT_EQ(serial.ints, parallel.ints);
  EXPECT_TRUE(serial.stats == parallel.stats) << "KernelStats diverged";
  EXPECT_TRUE(serial.check == parallel.check) << "CheckReport diverged";
  ASSERT_EQ(serial.level_cycles.size(), parallel.level_cycles.size());
  for (std::size_t l = 0; l < serial.level_cycles.size(); ++l)
    EXPECT_EQ(serial.level_cycles[l], parallel.level_cycles[l])
        << "block cycle vector diverged at level " << l;
}

/// Run `scenario` serially and at 4 threads on fresh, identical Runtimes.
template <typename Scenario>
void check_determinism(Scenario&& scenario) {
  Runtime serial_rt;
  serial_rt.set_sim_threads(1);
  Capture serial = scenario(serial_rt);
  ASSERT_EQ(serial_rt.sim_threads(), 1);

  Runtime parallel_rt;
  parallel_rt.set_sim_threads(4);
  Capture parallel = scenario(parallel_rt);

  expect_bitwise_equal(serial, parallel);
}

Capture capture_kernel(Runtime& rt, const LaunchConfig& cfg, const KernelFn& fn) {
  Capture c;
  KernelRun run = rt.gpu().run_kernel(cfg, fn);
  c.level_cycles = run.level_block_cycles;
  c.stats = run.stats;
  c.check = run.check;
  return c;
}

TEST(ParallelExec, TiledMatmulSharedMemoryAndBarriers) {
  check_determinism([](Runtime& rt) {
    const int n = 64;  // 4x4 grid of 16x16 blocks, 8 warps each.
    auto a = rt.malloc<cumb::Real>(n * n);
    auto b = rt.malloc<cumb::Real>(n * n);
    auto c = rt.malloc<cumb::Real>(n * n);
    std::vector<cumb::Real> ha(n * n), hb(n * n);
    for (int i = 0; i < n * n; ++i) {
      ha[i] = 0.25f * static_cast<float>(i % 13) - 1.0f;
      hb[i] = 0.125f * static_cast<float>(i % 7) + 0.5f;
    }
    rt.memcpy_h2d(a, std::span<const cumb::Real>(ha));
    rt.memcpy_h2d(b, std::span<const cumb::Real>(hb));

    LaunchConfig cfg{Dim3{n / cumb::kTile, n / cumb::kTile},
                     Dim3{cumb::kTile, cumb::kTile}, "mm_shared"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) {
      return cumb::mm_shared_kernel(w, a, b, c, n);
    });
    cap.floats.resize(n * n);
    rt.peek(std::span<float>(cap.floats), c);
    return cap;
  });
}

TEST(ParallelExec, ShuffleReductionAcrossBlocks) {
  check_determinism([](Runtime& rt) {
    const int n = 256 * 24;
    const int blocks = n / 256;
    auto x = rt.malloc<cumb::Real>(n);
    auto r = rt.malloc<cumb::Real>(blocks);
    std::vector<cumb::Real> hx(n);
    for (int i = 0; i < n; ++i)
      hx[i] = 0.001f * static_cast<float>(i % 101) - 0.03f;
    rt.memcpy_h2d(x, std::span<const cumb::Real>(hx));

    LaunchConfig cfg{Dim3{blocks}, Dim3{256}, "reduce_shuffle"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) {
      return cumb::reduce_shuffle_kernel(w, x, r, n);
    });
    cap.floats.resize(blocks);
    rt.peek(std::span<float>(cap.floats), r);
    return cap;
  });
}

TEST(ParallelExec, HistogramIntegerAtomics) {
  check_determinism([](Runtime& rt) {
    const int n = 256 * 20;
    const int num_bins = 64;
    auto bins_in = rt.malloc<int>(n);
    auto hist = rt.malloc<int>(num_bins);
    std::vector<int> h(n);
    for (int i = 0; i < n; ++i) h[i] = (i * 7 + i / 3) % num_bins;
    rt.memcpy_h2d(bins_in, std::span<const int>(h));
    rt.memset(hist, 0);

    LaunchConfig cfg{Dim3{n / 256}, Dim3{256}, "hist_global"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) {
      return cumb::hist_global_kernel(w, bins_in, hist, n);
    });
    cap.ints.resize(num_bins);
    rt.peek(std::span<int>(cap.ints), hist);
    return cap;
  });
}

TEST(ParallelExec, FloatingPointAtomicsReplaySerialRoundingOrder) {
  check_determinism([](Runtime& rt) {
    // 32 blocks all atomically accumulate distinct float terms into one
    // cell. FP addition is non-associative, so any cross-block reordering
    // of the adds would change the result's bit pattern.
    const int blocks = 32;
    auto acc = rt.malloc<float>(1);
    rt.memset(acc, 0.0f);

    LaunchConfig cfg{Dim3{blocks}, Dim3{64}, "fp_atomic"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) -> WarpTask {
      LaneI tid = w.global_tid_x();
      LaneVec<float> v;
      for (int l = 0; l < kWarpSize; ++l)
        v[l] = 0.1f * static_cast<float>((tid[l] % 17) + 1) + 1e-5f;
      w.atomic_add(acc, LaneI(0), v);
      co_return;
    });
    cap.floats.resize(1);
    rt.peek(std::span<float>(cap.floats), acc);
    return cap;
  });
}

TEST(ParallelExec, DynamicParallelismChildLevels) {
  check_determinism([](Runtime& rt) {
    const int size = 128;
    cumb::MandelFrame f;
    f.scale = 3.0f / static_cast<float>(size);
    auto dwell = rt.malloc<int>(size * size);
    rt.memset(dwell, -1);

    const int init_size = size / cumb::kMsInitDiv;
    LaunchConfig cfg{Dim3{cumb::kMsInitDiv, cumb::kMsInitDiv},
                     Dim3{cumb::kMsTpb}, "mandel_ms"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) {
      return cumb::mandel_ms_kernel(w, dwell, size, f, 64, 0, 0, init_size);
    });
    EXPECT_GT(cap.level_cycles.size(), 1u) << "expected child launches";
    EXPECT_GT(cap.stats.device_launches, 0u);
    cap.ints.resize(size * size);
    rt.peek(std::span<int>(cap.ints), dwell);
    return cap;
  });
}

// Property fuzz: randomized kernel shapes (seeded, so reproducible) mixing
// predicated strided loads, shared staging across a barrier, an integer
// histogram and one FP atomic accumulator — all under full vgpu-san
// checking. Serial and 4-thread runs must agree bitwise on outputs, stats
// and the (clean) CheckReport for every sampled shape.
TEST(ParallelExec, FuzzRandomShapesSerialVsParallel) {
  std::mt19937 rng(0xc0ffee42u);
  for (int iter = 0; iter < 8; ++iter) {
    const int warps = 1 + static_cast<int>(rng() % 8);
    const int tpb = kWarpSize * warps;
    const int blocks = 1 + static_cast<int>(rng() % 6);
    const int ragged = static_cast<int>(rng() % static_cast<unsigned>(tpb));
    const int n = std::max(1, blocks * tpb - ragged);
    const int stride = 1 << (rng() % 3);
    const int bins = 8 << (rng() % 3);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " tpb=" + std::to_string(tpb) +
                 " blocks=" + std::to_string(blocks) + " n=" + std::to_string(n) +
                 " stride=" + std::to_string(stride));

    check_determinism([=](Runtime& rt) {
      rt.set_check_mode(CheckMode::kFull);
      auto x = rt.malloc<float>(n);
      auto out = rt.malloc<float>(n);
      auto hist = rt.malloc<int>(bins);
      auto acc = rt.malloc<float>(1);
      std::vector<float> hx(n);
      for (int i = 0; i < n; ++i)
        hx[i] = 0.01f * static_cast<float>((i * 31 + iter) % 257) - 1.0f;
      rt.memcpy_h2d(x, std::span<const float>(hx));
      rt.memset(hist, 0);
      rt.memset(acc, 0.0f);

      LaunchConfig cfg{Dim3{blocks}, Dim3{tpb}, "fuzz"};
      Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) -> WarpTask {
        auto sh = w.shared_array<float>(static_cast<std::size_t>(tpb));
        LaneI tid = w.global_tid_x();
        LaneI lin = w.thread_linear();
        Mask in = tid < n;
        w.branch(in, [&] {
          LaneVec<float> v = w.load(x, (tid * stride) % n);
          w.sh_store(sh, lin, v);
        });
        co_await w.syncthreads();
        // Neighbour read across the barrier: cross-warp but a new epoch.
        LaneVec<float> nb = w.sh_load(sh, (lin + 1) % tpb);
        w.branch(in, [&] {
          w.store(out, tid, nb + LaneVec<float>(0.5f));
          w.atomic_add(hist, tid % bins, LaneVec<int>(1));
        });
        LaneVec<float> term;
        for (int l = 0; l < kWarpSize; ++l)
          term[l] = 1e-3f * static_cast<float>((tid[l] % 29) + 1);
        w.atomic_add(acc, LaneI(0), term);
        co_return;
      });
      EXPECT_TRUE(cap.check.clean()) << cap.check.to_string();
      cap.floats.resize(static_cast<std::size_t>(n) + 1);
      rt.peek(std::span<float>(cap.floats.data(), n), out);
      rt.peek(std::span<float>(cap.floats.data() + n, 1), acc);
      cap.ints.resize(bins);
      rt.peek(std::span<int>(cap.ints), hist);
      return cap;
    });
  }
}

// Hazard reports are themselves deterministic: blocks 4..7 store past the
// end of a half-sized buffer, and the merged CheckReport (counts *and* the
// identity of the first-16 diagnostics) must not depend on which worker ran
// which block.
TEST(ParallelExec, CheckReportsAreDeterministicAcrossThreads) {
  check_determinism([](Runtime& rt) {
    rt.set_check_mode(CheckMode::kFull);
    const int blocks = 8, tpb = 64;
    auto x = rt.malloc<int>(blocks * tpb / 2);
    LaunchConfig cfg{Dim3{blocks}, Dim3{tpb}, "oob-blocks"};
    Capture cap = capture_kernel(rt, cfg, [=](WarpCtx& w) -> WarpTask {
      LaneI tid = w.global_tid_x();
      w.store(x, tid, tid);
      co_return;
    });
    EXPECT_EQ(cap.check.count(CheckKind::kOutOfBounds),
              static_cast<std::uint64_t>(blocks * tpb / 2));
    EXPECT_EQ(cap.check.diags.size(), CheckReport::kMaxDiags);
    cap.ints.resize(blocks * tpb / 2);
    rt.peek(std::span<int>(cap.ints), x);
    return cap;
  });
}

TEST(ParallelExec, ThreadCountKnobClampsAndSticks) {
  Runtime rt;
  rt.set_sim_threads(7);
  EXPECT_EQ(rt.sim_threads(), 7);
  rt.set_sim_threads(0);  // 0 means hardware concurrency, never rejected.
  EXPECT_EQ(rt.sim_threads(), WorkerPool::default_thread_count());
  rt.set_sim_threads(100000);
  EXPECT_EQ(rt.sim_threads(), 256);
}

TEST(ParallelExec, EnvVariableSeedsDefaultThreadCount) {
  // The default came from VGPU_THREADS / hardware concurrency at construction;
  // whatever it is, it must be a sane positive count.
  Runtime rt;
  EXPECT_GE(rt.sim_threads(), 1);
  EXPECT_LE(rt.sim_threads(), 256);
}

}  // namespace
