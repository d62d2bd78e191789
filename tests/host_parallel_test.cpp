// Host work on the simulation pool (GpuExec::parallel_for): the index
// contract (each index once, lowest-index exception, inline at one thread),
// and the drivers that use it — their PairResults must be bit-identical at
// 1 and 4 sim threads, the pooled Mandelbrot reference must equal the
// serial one, and random_vectors must equal its serial draws.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/comem.hpp"
#include "core/common.hpp"
#include "core/dynparallel.hpp"
#include "core/unimem.hpp"
#include "linalg/generate.hpp"
#include <vgpu.hpp>

namespace {

using namespace vgpu;

TEST(HostParallelFor, EveryIndexRunsExactlyOnce) {
  DeviceProfile p = DeviceProfile::test_tiny();
  GpuExec gpu(p, 4);
  for (long long count : {0LL, 1LL, 2LL, 3LL, 1000LL}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    gpu.parallel_for(count, [&](long long j) {
      hits[static_cast<std::size_t>(j)].fetch_add(1, std::memory_order_relaxed);
    });
    for (long long j = 0; j < count; ++j)
      EXPECT_EQ(hits[static_cast<std::size_t>(j)].load(), 1)
          << "index " << j << " of " << count;
  }
}

TEST(HostParallelFor, LowestIndexExceptionIsRethrownAfterEveryIndexRan) {
  DeviceProfile p = DeviceProfile::test_tiny();
  for (int threads : {1, 4}) {
    GpuExec gpu(p, threads);
    // Repeated: which worker reaches a throwing index first varies by run.
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> hits(64);
      try {
        gpu.parallel_for(64, [&](long long j) {
          hits[static_cast<std::size_t>(j)].fetch_add(1, std::memory_order_relaxed);
          if (j >= 5 && j % 3 == 2) throw std::runtime_error(std::to_string(j));
        });
        ADD_FAILURE() << "nothing was rethrown";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "5") << "threads " << threads;
      }
      // The serial loop stops at the first throw; the pool finishes the rest.
      if (threads > 1) {
        for (auto& h : hits) EXPECT_EQ(h.load(), 1);
      }
    }
  }
}

TEST(HostParallelFor, RunsInlineAtOneSimThreadOrOneIndex) {
  DeviceProfile p = DeviceProfile::test_tiny();
  const std::thread::id caller = std::this_thread::get_id();
  GpuExec serial(p, 1);
  std::vector<std::thread::id> ids(16);
  serial.parallel_for(16, [&](long long j) {
    ids[static_cast<std::size_t>(j)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ids) EXPECT_EQ(id, caller);

  GpuExec pooled(p, 4);
  std::thread::id one;
  pooled.parallel_for(1, [&](long long) { one = std::this_thread::get_id(); });
  EXPECT_EQ(one, caller);
}

TEST(HostParallelFor, PooledMandelRefMatchesSerial) {
  cumb::MandelFrame f;
  f.scale = 3.0f / 256.0f;
  RuntimeOptions o = RuntimeOptions::defaults();
  o.sim_threads = 4;
  Runtime rt(o);
  EXPECT_EQ(cumb::mandel_ref(rt, 256, 256, f, 256), cumb::mandel_ref(256, 256, f, 256));
  // Non-square, so a row/column mix-up cannot hide.
  EXPECT_EQ(cumb::mandel_ref(rt, 200, 131, f, 64), cumb::mandel_ref(200, 131, f, 64));
}

TEST(HostParallelFor, RandomVectorsEqualTheirSerialDraws) {
  for (int threads : {1, 4}) {
    RuntimeOptions o = RuntimeOptions::defaults();
    o.sim_threads = threads;
    Runtime rt(o);
    std::vector<int> perm;
    auto [x, y] = cumb::random_vectors(rt, 1000, {5, 6},
                                       [&] { perm = cumb::random_permutation(100, 7); });
    EXPECT_EQ(x, cumb::random_vector(1000, 5)) << "threads " << threads;
    EXPECT_EQ(y, cumb::random_vector(1000, 6)) << "threads " << threads;
    EXPECT_EQ(perm, cumb::random_permutation(100, 7)) << "threads " << threads;
  }
}

void expect_same_pair(const cumb::PairResult& a, const cumb::PairResult& b) {
  EXPECT_EQ(a.naive_us, b.naive_us) << a.name;
  EXPECT_EQ(a.optimized_us, b.optimized_us) << a.name;
  EXPECT_EQ(a.results_match, b.results_match) << a.name;
  EXPECT_TRUE(a.results_match) << a.name;
  EXPECT_EQ(a.max_error, b.max_error) << a.name;
  EXPECT_TRUE(a.naive_stats == b.naive_stats) << a.name << " naive KernelStats";
  EXPECT_TRUE(a.optimized_stats == b.optimized_stats) << a.name << " optimized KernelStats";
}

/// Run `pair` on fresh Runtimes at 1 and at 4 sim threads.
template <typename Pair>
void at_one_and_four_threads(DeviceProfile profile, Pair&& pair) {
  RuntimeOptions o = RuntimeOptions::defaults(profile);
  o.sim_threads = 1;
  Runtime serial(o);
  o.sim_threads = 4;
  Runtime pooled(o);
  pair(serial, pooled);
}

TEST(HostParallelDrivers, DynParallelIdenticalAtOneAndFourThreads) {
  at_one_and_four_threads(DeviceProfile::rtx3080_scaled(), [](Runtime& s, Runtime& p) {
    cumb::DynParallelResult a = cumb::run_dynparallel(s, 256, 256);
    cumb::DynParallelResult b = cumb::run_dynparallel(p, 256, 256);
    expect_same_pair(a, b);
    EXPECT_EQ(a.mismatched_pixels, 0);
    EXPECT_EQ(a.mismatched_pixels, b.mismatched_pixels);
    EXPECT_EQ(a.device_launches, b.device_launches);
  });
}

TEST(HostParallelDrivers, CoMemIdenticalAtOneAndFourThreads) {
  at_one_and_four_threads(DeviceProfile::v100(), [](Runtime& s, Runtime& p) {
    cumb::CoMemResult a = cumb::run_comem(s, 1 << 15, 16);
    cumb::CoMemResult b = cumb::run_comem(p, 1 << 15, 16);
    expect_same_pair(a, b);
    EXPECT_EQ(a.gather_us, b.gather_us);
    EXPECT_EQ(a.block_transactions, b.block_transactions);
    EXPECT_EQ(a.cyclic_transactions, b.cyclic_transactions);
  });
}

TEST(HostParallelDrivers, UniMemIdenticalAtOneAndFourThreads) {
  at_one_and_four_threads(DeviceProfile::v100(), [](Runtime& s, Runtime& p) {
    cumb::UniMemResult a = cumb::run_unimem(s, 1 << 16, 256);
    cumb::UniMemResult b = cumb::run_unimem(p, 1 << 16, 256);
    expect_same_pair(a, b);
    EXPECT_EQ(a.prefetch_us, b.prefetch_us);
    EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
    EXPECT_EQ(a.page_faults, b.page_faults);
  });
}

}  // namespace
