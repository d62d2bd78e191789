// VGPU_FIDELITY contract (DESIGN.md section 11):
//
//   exact - the default - is *bit-identical* to the goldens at any
//   VGPU_THREADS: functional outputs, every KernelStats counter, per-block
//   cycle vectors and vgpu-san reports all match the serial run.
//
//   fast samples the cache replay for speed. Functional results stay
//   identical — memory contents, error codes, san findings, and every
//   issue-side counter (instructions, requests, transactions, atomics,
//   branches) — while replay-derived stats (cache hits, DRAM bytes) and
//   timing may differ.
//
// Also fuzzes the coalesce memo (mem/coalesce.hpp) against the uncached
// reference analysis: for any address pattern, cached and uncached paths
// must produce the same transaction count and the same line set.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "core/shmem_mm.hpp"
#include "mem/coalesce.hpp"
#include <vgpu.hpp>

namespace {

using namespace vgpu;

TEST(Fidelity, ParsesNamesAndRejectsTypos) {
  EXPECT_EQ(fidelity_from_string("exact"), Fidelity::kExact);
  EXPECT_EQ(fidelity_from_string("fast"), Fidelity::kFast);
  EXPECT_THROW(fidelity_from_string("fasst"), std::invalid_argument);
  EXPECT_THROW(fidelity_from_string(""), std::invalid_argument);
  EXPECT_STREQ(fidelity_name(Fidelity::kExact), "exact");
  EXPECT_STREQ(fidelity_name(Fidelity::kFast), "fast");
}

TEST(Fidelity, RuntimeKnobSticks) {
  Runtime rt;
  rt.set_fidelity(Fidelity::kFast);
  EXPECT_EQ(rt.fidelity(), Fidelity::kFast);
  rt.set_fidelity(Fidelity::kExact);
  EXPECT_EQ(rt.fidelity(), Fidelity::kExact);
}

/// Everything observable from one kernel execution.
struct Capture {
  std::vector<std::vector<double>> level_cycles;
  KernelStats stats;
  CheckReport check;
  std::vector<float> floats;
  std::vector<int> ints;
  ErrorCode error = ErrorCode::kSuccess;
};

/// Tiled matmul + histogram back to back: shared memory, barriers, strided
/// and unit-stride global traffic, integer atomics.
Capture run_workload(Runtime& rt) {
  Capture cap;
  const int n = 64;
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
  KernelRun mm = rt.gpu().run_kernel(
      {Dim3{n / cumb::kTile, n / cumb::kTile}, Dim3{cumb::kTile, cumb::kTile},
       "mm_shared"},
      [=](WarpCtx& w) { return cumb::mm_shared_kernel(w, a, b, c, n); });

  const int hn = 256 * 16;
  const int bins = 64;
  auto bins_in = rt.malloc<int>(hn);
  auto hist = rt.malloc<int>(bins);
  std::vector<int> h(hn);
  for (int i = 0; i < hn; ++i) h[i] = (i * 7 + i / 3) % bins;
  rt.memcpy_h2d(bins_in, std::span<const int>(h));
  rt.memset(hist, 0);
  KernelRun hg = rt.gpu().run_kernel(
      {Dim3{hn / 256}, Dim3{256}, "hist_global"},
      [=](WarpCtx& w) { return cumb::hist_global_kernel(w, bins_in, hist, hn); });

  cap.level_cycles = mm.level_block_cycles;
  cap.stats = mm.stats;
  cap.stats += hg.stats;
  cap.check = mm.check;
  cap.check += hg.check;
  cap.floats.resize(n * n);
  rt.peek(std::span<float>(cap.floats), c);
  cap.ints.resize(bins);
  rt.peek(std::span<int>(cap.ints), hist);
  return cap;
}

void expect_bitwise_equal(const Capture& want, const Capture& got) {
  ASSERT_EQ(want.floats.size(), got.floats.size());
  for (std::size_t i = 0; i < want.floats.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &want.floats[i], sizeof(a));
    std::memcpy(&b, &got.floats[i], sizeof(b));
    EXPECT_EQ(a, b) << "float output " << i << " differs";
  }
  EXPECT_EQ(want.ints, got.ints);
  EXPECT_TRUE(want.stats == got.stats) << "KernelStats diverged";
  EXPECT_TRUE(want.check == got.check) << "CheckReport diverged";
  ASSERT_EQ(want.level_cycles.size(), got.level_cycles.size());
  for (std::size_t l = 0; l < want.level_cycles.size(); ++l)
    EXPECT_EQ(want.level_cycles[l], got.level_cycles[l])
        << "cycle vector diverged at level " << l;
}

TEST(Fidelity, ExactIsBitIdenticalAcrossThreadCounts) {
  Runtime base_rt;
  base_rt.set_sim_threads(1);
  base_rt.set_fidelity(Fidelity::kExact);
  Capture base = run_workload(base_rt);

  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Runtime rt;
    rt.set_sim_threads(threads);
    rt.set_fidelity(Fidelity::kExact);
    Capture got = run_workload(rt);
    expect_bitwise_equal(base, got);
  }
}

/// Issue-side counters are recorded when an instruction executes, before the
/// sampled replay, so fast mode must reproduce them exactly. Replay-derived
/// counters (cache hits/misses, DRAM/tex bytes) are the sampled ones.
void expect_issue_side_equal(const KernelStats& exact, const KernelStats& fast) {
  KernelStats a = exact, b = fast;
  for (auto* s : {&a, &b}) {
    s->l1_hits = s->l1_misses = 0;
    s->l2_hits = s->l2_misses = 0;
    s->dram_read_bytes = s->dram_write_bytes = 0;
    s->tex_hits = s->tex_misses = s->tex_dram_bytes = 0;
  }
  KernelStats::for_each_field(a, [&](const char* name, std::uint64_t va) {
    KernelStats::for_each_field(b, [&](const char* name2, std::uint64_t vb) {
      if (std::string_view(name) == std::string_view(name2)) {
        EXPECT_EQ(va, vb) << "issue-side counter " << name << " diverged";
      }
    });
  });
}

TEST(Fidelity, FastKeepsFunctionalResultsIdentical) {
  Runtime exact_rt;
  exact_rt.set_sim_threads(1);
  exact_rt.set_fidelity(Fidelity::kExact);
  Capture exact = run_workload(exact_rt);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Runtime rt;
    rt.set_sim_threads(threads);
    rt.set_fidelity(Fidelity::kFast);
    Capture fast = run_workload(rt);

    // Functional results: memory contents are bitwise identical.
    ASSERT_EQ(exact.floats.size(), fast.floats.size());
    for (std::size_t i = 0; i < exact.floats.size(); ++i) {
      std::uint32_t x = 0, y = 0;
      std::memcpy(&x, &exact.floats[i], sizeof(x));
      std::memcpy(&y, &fast.floats[i], sizeof(y));
      EXPECT_EQ(x, y) << "float output " << i << " differs under fast";
    }
    EXPECT_EQ(exact.ints, fast.ints);
    expect_issue_side_equal(exact.stats, fast.stats);
  }
}

TEST(Fidelity, FastKeepsSanFindingsIdentical) {
  auto run = [](Fidelity fid) {
    Runtime rt;
    rt.set_sim_threads(1);
    rt.set_fidelity(fid);
    rt.set_check_mode(CheckMode::kFull);
    const int blocks = 4, tpb = 64;
    auto x = rt.malloc<int>(blocks * tpb / 2);  // Half-sized: blocks 2..3 OOB.
    KernelRun run = rt.gpu().run_kernel(
        {Dim3{blocks}, Dim3{tpb}, "oob"}, [=](WarpCtx& w) -> WarpTask {
          LaneI tid = w.global_tid_x();
          w.store(x, tid, tid);
          co_return;
        });
    return run.check;
  };
  CheckReport exact = run(Fidelity::kExact);
  CheckReport fast = run(Fidelity::kFast);
  EXPECT_GT(exact.count(CheckKind::kOutOfBounds), 0u);
  EXPECT_TRUE(exact == fast) << "san findings diverged under fast";
}

TEST(Fidelity, FastKeepsErrorCodesIdentical) {
  // vgpu-san escalation: an OOB store poisons the context with a sticky
  // cudaErrorIllegalAddress at the next sync. Fast mode must surface the
  // exact same code (the checkers run at issue time, not during replay).
  auto run = [](Fidelity fid) {
    Runtime rt;
    rt.set_fidelity(fid);
    rt.set_check_mode(CheckMode::kFull | CheckMode::kEscalate);
    auto x = rt.malloc<int>(16);
    rt.launch({Dim3{1}, Dim3{64}, "oob"}, [=](WarpCtx& w) -> WarpTask {
      LaneI tid = w.global_tid_x();
      w.store(x, tid, tid);
      co_return;
    });
    rt.synchronize();
    return rt.get_last_error();
  };
  ErrorCode exact = run(Fidelity::kExact);
  ErrorCode fast = run(Fidelity::kFast);
  EXPECT_NE(exact, ErrorCode::kSuccess);
  EXPECT_EQ(exact, fast);
}

// --- Coalesce memo vs uncached reference ------------------------------------

void expect_memo_matches_reference(CoalesceCache& memo,
                                   const LaneVec<std::uint64_t>& addrs,
                                   Mask active, std::size_t elem) {
  CoalesceResult ref = coalesce(addrs, active, elem);
  AccessShape shape = access_shape(addrs, active);
  std::vector<std::uint64_t> got;
  int txns = memo.lines(addrs, active, elem, shape, got);
  ASSERT_EQ(txns, ref.transactions());
  ASSERT_EQ(got.size(), ref.lines.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], ref.lines[i] * kLineBytes) << "line " << i << " differs";
}

TEST(CoalesceMemo, FuzzAgainstUncachedReference) {
  std::mt19937_64 rng(0xfeedbeefu);
  CoalesceCache memo;  // One cache across all iterations: exercises hits.
  const std::int64_t strides[] = {0,  1,  -1,  4,   -4,   8,    12,  16,
                                  32, 64, 128, 256, 4096, -128, 31};
  const std::size_t elems[] = {1, 2, 4, 8, 16};
  for (int iter = 0; iter < 4000; ++iter) {
    Mask active = static_cast<Mask>(rng());
    if (iter % 7 == 0) active = kFullMask;
    std::size_t elem = elems[rng() % 5];
    LaneVec<std::uint64_t> addrs{};
    if (iter % 5 == 4) {
      // Fully random (non-affine) pattern; memo must bypass and still match.
      for (int l = 0; l < kWarpSize; ++l) addrs[l] = rng() % (1u << 20);
    } else {
      // Affine walk, with bases both small (underflow guard for negative
      // strides) and huge (overflow guard near 2^64).
      std::uint64_t base = rng() % (1u << 16);
      const bool huge = iter % 11 == 0;
      if (huge) base = ~std::uint64_t{0} - (rng() % 4096);
      std::int64_t stride = strides[rng() % std::size(strides)];
      auto fill = [&](std::uint64_t b) {
        int k = 0;
        for (int l = 0; l < kWarpSize; ++l) {
          if ((active >> l) & 1u) {
            addrs[l] = b + static_cast<std::uint64_t>(k) *
                               static_cast<std::uint64_t>(stride);
            ++k;
          } else {
            addrs[l] = rng();  // Inactive lanes carry garbage, as in real runs.
          }
        }
      };
      fill(base);
      SCOPED_TRACE("iter=" + std::to_string(iter));
      expect_memo_matches_reference(memo, addrs, active, elem);
      if (!huge) {
        // Replay the same shape at a line-shifted base: same memo key, so a
        // hit must reconstruct the shifted line set exactly (the warp-hot
        // pattern — one warp repeating one access shape across a loop).
        fill(base + kLineBytes * (1 + rng() % 64));
        expect_memo_matches_reference(memo, addrs, active, elem);
      }
      continue;
    }
    SCOPED_TRACE("iter=" + std::to_string(iter));
    expect_memo_matches_reference(memo, addrs, active, elem);
  }
  // The affine repertoire repeats, so the memo must actually be hitting.
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_GT(memo.misses(), 0u);
}

TEST(CoalesceMemo, ClearInvalidatesAndCountersDrain) {
  CoalesceCache memo;
  LaneVec<std::uint64_t> addrs{};
  for (int l = 0; l < kWarpSize; ++l) addrs[l] = 1024 + 4u * static_cast<unsigned>(l);
  AccessShape shape = access_shape(addrs, kFullMask);
  std::vector<std::uint64_t> out;
  memo.lines(addrs, kFullMask, 4, shape, out);
  out.clear();
  memo.lines(addrs, kFullMask, 4, shape, out);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);

  memo.clear();  // New block: first access must miss again.
  out.clear();
  memo.lines(addrs, kFullMask, 4, shape, out);
  EXPECT_EQ(memo.misses(), 2u);

  std::uint64_t h = 0, m = 0;
  memo.take_counters(h, m);
  EXPECT_EQ(h, 1u);
  EXPECT_EQ(m, 2u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
}

}  // namespace
