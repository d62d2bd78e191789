// Tests for the extension features: trace recording, pinned vs pageable
// copies, and the AoS-vs-SoA layout benchmark.

#include <gtest/gtest.h>

#include <vector>

#include "core/layout.hpp"
#include <vgpu.hpp>

namespace {

using namespace vgpu;

TEST(Trace, RecordsKernelAndCopyOps) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  std::vector<float> h(1024);
  auto d = rt.malloc<float>(1024);
  rt.memcpy_h2d(d, std::span<const float>(h));
  rt.launch({Dim3{1}, Dim3{256}, "mykernel"}, [](WarpCtx&) -> WarpTask { co_return; });
  rt.memcpy_d2h(std::span<float>(h), d);
  rt.synchronize();

  const auto& ops = rt.profiler()->records();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, ActivityRecord::Kind::kMemcpyH2D);
  EXPECT_EQ(ops[1].kind, ActivityRecord::Kind::kKernel);
  EXPECT_EQ(ops[1].name, "mykernel");
  EXPECT_EQ(ops[2].kind, ActivityRecord::Kind::kMemcpyD2H);
  for (const ActivityRecord& op : ops) EXPECT_LE(op.start_us, op.end_us);
}

TEST(Trace, GanttRendersOneRowPerStream) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  Stream& s1 = rt.create_stream();
  Stream& s2 = rt.create_stream();
  auto noop = [](WarpCtx&) -> WarpTask { co_return; };
  rt.launch(s1, {Dim3{1}, Dim3{32}, "a"}, noop);
  rt.launch(s2, {Dim3{1}, Dim3{32}, "b"}, noop);
  std::string g = rt.profiler()->gantt(40);
  EXPECT_NE(g.find("stream  1"), std::string::npos);
  EXPECT_NE(g.find("stream  2"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
}

TEST(Trace, EmptyTraceRenders) {
  Profiler prof;
  EXPECT_EQ(prof.gantt(), "(empty trace)\n");
}

TEST(Trace, ConcurrentKernelsOverlapInTrace) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  Stream& s1 = rt.create_stream();
  Stream& s2 = rt.create_stream();
  auto burn = [](WarpCtx& w) -> WarpTask {
    w.alu(100000);
    co_return;
  };
  rt.launch(s1, {Dim3{1}, Dim3{256}, "k1"}, burn);
  rt.launch(s2, {Dim3{1}, Dim3{256}, "k2"}, burn);
  rt.synchronize();
  const auto& ops = rt.profiler()->records();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_LT(ops[1].start_us, ops[0].end_us);  // Overlap on disjoint SMs.
}

TEST(Pinned, PageableCopiesAreSlower) {
  Runtime rt(DeviceProfile::v100());
  std::vector<float> h(1 << 20);
  auto d = rt.malloc<float>(h.size());
  auto pinned = rt.memcpy_h2d(d, std::span<const float>(h), HostMem::kPinned);
  auto pageable = rt.memcpy_h2d(d, std::span<const float>(h), HostMem::kPageable);
  EXPECT_GT(pageable.duration(), pinned.duration() * 1.5);
}

TEST(Pinned, AsyncPageableCopySynchronizesHost) {
  Runtime rt(DeviceProfile::v100());
  std::vector<float> h(1 << 20);
  auto d = rt.malloc<float>(h.size());
  Stream& s = rt.create_stream();
  auto span = rt.memcpy_h2d_async(s, d, std::span<const float>(h), HostMem::kPageable);
  EXPECT_GE(rt.now_us(), span.end);  // Host waited despite "async".
  auto span2 = rt.memcpy_h2d_async(s, d, std::span<const float>(h), HostMem::kPinned);
  EXPECT_LT(rt.now_us(), span2.end);  // Truly asynchronous.
}

TEST(Layout, SoAOffloadWinsAndVerifies) {
  cumb::Runtime rt(DeviceProfile::v100());
  auto r = cumb::run_layout(rt, 1 << 18);
  EXPECT_TRUE(r.results_match);
  EXPECT_GT(r.speedup(), 2.0);  // 4x fewer bytes + coalesced access.
  EXPECT_LT(r.speedup(), 12.0);
  EXPECT_EQ(r.aos_bytes, 4u * r.soa_bytes);
  EXPECT_GT(r.naive_stats.gld_transactions, r.optimized_stats.gld_transactions);
}

TEST(Layout, KernelsAgreeAtOddSizes) {
  cumb::Runtime rt(DeviceProfile::test_tiny());
  auto r = cumb::run_layout(rt, 1000);  // Not a multiple of the block size.
  EXPECT_TRUE(r.results_match);
}

}  // namespace
