// Runtime facade tests: the CUDA-shaped API surface end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include <vgpu.hpp>

namespace {

using namespace vgpu;

TEST(Runtime, MallocAlignmentAndMisalignment) {
  Runtime rt(DeviceProfile::test_tiny());
  auto a = rt.malloc<float>(100);
  EXPECT_EQ(a.addr % 256, 0u);
  auto m = rt.malloc_offset<float>(100, 4);
  EXPECT_EQ(m.addr % 256, 4u);
}

TEST(Runtime, MemcpyRoundTripAdvancesClock) {
  Runtime rt(DeviceProfile::test_tiny());
  std::vector<float> h(1000);
  std::iota(h.begin(), h.end(), 0.0f);
  auto d = rt.malloc<float>(1000);
  double t0 = rt.now_us();
  rt.memcpy_h2d(d, std::span<const float>(h));
  EXPECT_GT(rt.now_us(), t0);
  std::vector<float> back(1000);
  rt.memcpy_d2h(std::span<float>(back), d);
  EXPECT_EQ(h, back);
}

TEST(Runtime, EventsMeasureElapsedTime) {
  Runtime rt(DeviceProfile::test_tiny());
  Stream& s = rt.default_stream();
  Event start = rt.record_event(s);
  std::vector<float> h(1 << 18);
  auto d = rt.malloc<float>(h.size());
  rt.memcpy_h2d_async(s, d, std::span<const float>(h));
  Event stop = rt.record_event(s);
  EXPECT_GT(rt.elapsed_ms(start, stop), 0.0);
}

TEST(Runtime, StreamsAreStableAcrossCreation) {
  Runtime rt(DeviceProfile::test_tiny());
  Stream& s1 = rt.create_stream();
  Stream* p1 = &s1;
  for (int i = 0; i < 50; ++i) rt.create_stream();
  EXPECT_EQ(p1, &s1);
  EXPECT_EQ(s1.id(), 1);
}

TEST(Runtime, LaunchReturnsStatsAndSpan) {
  Runtime rt(DeviceProfile::test_tiny());
  auto d = rt.malloc<float>(256);
  auto info = rt.launch({Dim3{1}, Dim3{256}, "t"}, [=](WarpCtx& w) -> WarpTask {
    w.store(d, w.thread_linear(), LaneVec<float>(1.0f));
    co_return;
  });
  EXPECT_GT(info.duration_us(), 0.0);
  EXPECT_EQ(info.stats.gst_requests, 8u);
  EXPECT_EQ(info.stats.warps, 8u);
}

TEST(Runtime, AsyncLaunchOverlapsHost) {
  Runtime rt(DeviceProfile::test_tiny());
  auto d = rt.malloc<float>(1 << 16);
  Stream& s = rt.create_stream();
  auto info = rt.launch(s, {Dim3{64}, Dim3{256}, "t"}, [=](WarpCtx& w) -> WarpTask {
    LaneI i = w.global_tid_x();
    w.store(d, i, LaneVec<float>(2.0f));
    co_return;
  });
  EXPECT_LT(rt.now_us(), info.span.end);  // Host returned before completion.
  rt.synchronize();
  EXPECT_GE(rt.now_us(), info.span.end);
}

TEST(Runtime, ManagedWriteReadRoundTrip) {
  Runtime rt(DeviceProfile::test_tiny());
  auto m = rt.malloc_managed<int>(2000);
  std::vector<int> h(2000);
  std::iota(h.begin(), h.end(), 0);
  rt.managed_write(m, std::span<const int>(h));
  std::vector<int> back(2000);
  rt.managed_read(std::span<int>(back), m);
  EXPECT_EQ(h, back);
}

TEST(Runtime, ManagedKernelAccessFaultsPagesOnce) {
  Runtime rt(DeviceProfile::test_tiny());
  std::size_t n = rt.profile().um_page_bytes / sizeof(float) * 4;  // 4 pages.
  auto m = rt.malloc_managed<float>(n);
  std::vector<float> h(n, 1.0f);
  rt.managed_write(m, std::span<const float>(h));
  auto fn = [=](WarpCtx& w) -> WarpTask {
    LaneI i = w.global_tid_x();
    w.branch(i < static_cast<int>(n), [&] {
      LaneVec<float> v = w.load(m, i);
      w.store(m, i, v + 1.0f);
    });
    co_return;
  };
  LaunchConfig cfg{Dim3{static_cast<int>(n) / 256}, Dim3{256}, "inc"};
  auto first = rt.launch(cfg, fn);
  EXPECT_EQ(first.stats.um_page_faults, 4u);
  auto second = rt.launch(cfg, fn);  // Pages now device-resident.
  EXPECT_EQ(second.stats.um_page_faults, 0u);
  EXPECT_GT(first.duration_us(), second.duration_us());
}

TEST(Runtime, PrefetchEliminatesKernelFaults) {
  Runtime rt(DeviceProfile::test_tiny());
  std::size_t n = rt.profile().um_page_bytes / sizeof(float) * 4;
  auto m = rt.malloc_managed<float>(n);
  std::vector<float> h(n, 1.0f);
  rt.managed_write(m, std::span<const float>(h));
  rt.prefetch_to_device(rt.default_stream(), m);
  auto info = rt.launch({Dim3{static_cast<int>(n) / 256}, Dim3{256}, "t"},
                        [=](WarpCtx& w) -> WarpTask {
                          LaneI i = w.global_tid_x();
                          w.branch(i < static_cast<int>(n),
                                   [&] { (void)w.load(m, i); });
                          co_return;
                        });
  EXPECT_EQ(info.stats.um_page_faults, 0u);
}

TEST(Runtime, PeekDoesNotAdvanceClock) {
  Runtime rt(DeviceProfile::test_tiny());
  auto d = rt.malloc<int>(16);
  std::vector<int> h(16, 3);
  rt.memcpy_h2d(d, std::span<const int>(h));
  double t = rt.now_us();
  std::vector<int> out(16);
  rt.peek(std::span<int>(out), d);
  EXPECT_EQ(rt.now_us(), t);
  EXPECT_EQ(out, h);
}

TEST(Runtime, ProfilePresetsAreDistinct) {
  EXPECT_TRUE(DeviceProfile::v100().l1_enabled_for_global);
  EXPECT_FALSE(DeviceProfile::k80().l1_enabled_for_global);
  EXPECT_TRUE(DeviceProfile::rtx3080().supports_memcpy_async);
  EXPECT_FALSE(DeviceProfile::v100().supports_memcpy_async);
  EXPECT_GT(DeviceProfile::k80().tex_bw_factor, 1.0);
  EXPECT_EQ(DeviceProfile::rtx3080_scaled().sm_count, 12);
}

TEST(Runtime, MallocOfWrappingByteSizeFailsAndConsumesNothing) {
  Runtime rt(DeviceProfile::test_tiny());
  DevSpan<float> a = rt.malloc<float>(16);
  ASSERT_NE(a.addr, 0u);
  const std::size_t in_use = rt.gpu().heap().bytes_in_use();
  // SIZE_MAX/4 + 2 floats is 4 bytes once the byte count wraps.
  const std::size_t n = SIZE_MAX / 4 + 2;
  EXPECT_EQ(rt.malloc<float>(n).addr, 0u);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kMemoryAllocation);
  EXPECT_EQ(rt.malloc_offset<float>(n, 4).addr, 0u);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kMemoryAllocation);
  EXPECT_EQ(rt.malloc_managed<float>(n).addr, 0u);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kMemoryAllocation);
  EXPECT_EQ(rt.gpu().heap().bytes_in_use(), in_use);
  DevSpan<float> b = rt.malloc<float>(16);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kSuccess);
  EXPECT_EQ(b.addr, a.addr + 256);
}

}  // namespace
