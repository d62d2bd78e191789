// Tests for the CUDA-spelled shim (<vgpu/cuda_names.hpp>): round-trips,
// stream/event forwarding, and exact stats parity between a shim-driven
// host program and the native Runtime calls it forwards to.

#include <gtest/gtest.h>

#include <vector>

#include <vgpu.hpp>
#include <vgpu/cuda_names.hpp>

#include "core/comem.hpp"
#include "linalg/generate.hpp"

namespace {

using namespace vgpu;
using namespace vgpu::cuda;

WarpTask scale2(WarpCtx& w, DevSpan<float> x, int n) {
  LaneI i = w.global_tid_x();
  w.branch(i < n, [&] {
    w.alu(1);
    w.store(x, i, w.load(x, i) * 2.0f);
  });
  co_return;
}

TEST(CudaNames, RequiresAContext) {
  EXPECT_THROW(cudaDeviceSynchronize(), std::logic_error);
}

TEST(CudaNames, MallocMemcpyRoundTrip) {
  Runtime runtime(DeviceProfile::test_tiny());
  CudaContext ctx(runtime);
  const int n = 256;
  std::vector<float> host(n, 3.0f), back(n, 0.0f);

  DevSpan<float> d;
  EXPECT_EQ(cudaMalloc(&d, n * sizeof(float)), cudaSuccess);
  EXPECT_EQ(d.n, static_cast<std::size_t>(n));
  cudaMemcpy(d, host.data(), n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(back.data(), d, n * sizeof(float), cudaMemcpyDeviceToHost);
  EXPECT_EQ(back, host);
  cudaFree(d);
}

TEST(CudaNames, StreamsEventsAndElapsedTime) {
  Runtime runtime(DeviceProfile::test_tiny());
  CudaContext ctx(runtime);
  const int n = 1 << 12;
  std::vector<float> host(n, 1.0f);

  DevSpan<float> d;
  cudaMalloc(&d, n * sizeof(float));
  cudaStream_t s = nullptr;
  cudaStreamCreate(&s);
  ASSERT_NE(s, nullptr);

  cudaEvent_t start, stop;
  cudaEventCreate(&start);
  cudaEventCreate(&stop);
  cudaEventRecord(start, s);
  cudaMemcpyAsync(d, host.data(), n * sizeof(float), cudaMemcpyHostToDevice, s);
  CUDA_KERNEL_LAUNCH(scale2, 16, 256, s, d, n);
  cudaEventRecord(stop, s);
  cudaStreamSynchronize(s);

  float ms = -1;
  cudaEventElapsedTime(&ms, start, stop);
  EXPECT_GT(ms, 0.0f);

  std::vector<float> back(n);
  cudaMemcpy(back.data(), d, n * sizeof(float), cudaMemcpyDeviceToHost);
  for (float v : back) ASSERT_EQ(v, 2.0f);
}

TEST(CudaNames, ShimLaunchMatchesNativeLaunchExactly) {
  // The same kernel driven through the shim and through Runtime::launch must
  // produce identical KernelStats — the shim is spelling, not semantics.
  const int n = 1 << 12;
  auto hx = cumb::random_vector(n, 7);

  Runtime native(DeviceProfile::test_tiny());
  auto xn = native.malloc<cumb::Real>(n);
  native.memcpy_h2d(xn, std::span<const cumb::Real>(hx));
  auto native_info = native.launch(
      {Dim3{16}, Dim3{256}, "axpy_cyclic"},
      [=](WarpCtx& w) { return cumb::axpy_cyclic(w, xn, xn, n, 2.0f); });

  Runtime shimmed(DeviceProfile::test_tiny());
  CudaContext ctx(shimmed);
  DevSpan<cumb::Real> xs;
  cudaMalloc(&xs, n * sizeof(cumb::Real));
  cudaMemcpy(xs, hx.data(), n * sizeof(cumb::Real), cudaMemcpyHostToDevice);
  using cumb::axpy_cyclic;
  CUDA_KERNEL_LAUNCH(axpy_cyclic, 16, 256, nullptr, xs, xs, n, 2.0f);

  EXPECT_EQ(last_launch().stats, native_info.stats);
  EXPECT_EQ(last_launch().span.start, native_info.span.start);
  EXPECT_EQ(last_launch().span.end, native_info.span.end);
}

TEST(CudaNames, ManagedAndPrefetch) {
  Runtime runtime(DeviceProfile::test_tiny());
  CudaContext ctx(runtime);
  const int n = 2048;
  DevSpan<float> m;
  cudaMallocManaged(&m, n * sizeof(float));
  cudaMemPrefetchAsync(m, n * sizeof(float));
  cudaDeviceSynchronize();
  EXPECT_EQ(runtime.managed().device_resident_bytes(m.addr), m.bytes());
}

TEST(CudaNames, OccupancyMaxActiveBlocksMatchesScheduler) {
  // The shim must report exactly the residency the timing model schedules
  // with (max_resident_blocks_per_sm) for every block shape.
  Runtime runtime(DeviceProfile::v100());
  CudaContext ctx(runtime);
  const DeviceProfile& p = runtime.profile();
  for (int block : {32, 64, 96, 128, 256, 512, 1024}) {
    for (std::size_t smem : {std::size_t{0}, std::size_t{4} << 10,
                             std::size_t{32} << 10, std::size_t{48} << 10}) {
      int num = -1;
      EXPECT_EQ(cudaOccupancyMaxActiveBlocksPerMultiprocessor(&num, scale2,
                                                              block, smem),
                cudaSuccess);
      EXPECT_EQ(num, max_resident_blocks_per_sm(p, block, smem))
          << "block=" << block << " smem=" << smem;
    }
  }
}

TEST(CudaNames, OccupancyMaxActiveBlocksSharedLimited) {
  // 48 KiB of dynamic shared on a 96 KiB SM: two resident blocks, even
  // though the thread budget alone would allow 32 blocks of 64 threads.
  Runtime runtime(DeviceProfile::v100());
  CudaContext ctx(runtime);
  int num = 0;
  cudaOccupancyMaxActiveBlocksPerMultiprocessor(&num, scale2, 64,
                                                std::size_t{48} << 10);
  EXPECT_EQ(num, 2);
}

TEST(CudaNames, OccupancyMaxPotentialBlockSizeMatchesCalculator) {
  Runtime runtime(DeviceProfile::v100());
  CudaContext ctx(runtime);
  OccupancyCalculator calc(runtime.profile());
  for (std::size_t smem : {std::size_t{0}, std::size_t{16} << 10,
                           std::size_t{48} << 10}) {
    for (int limit : {0, 128, 256}) {
      int min_grid = -1, block = -1;
      EXPECT_EQ(cudaOccupancyMaxPotentialBlockSize(&min_grid, &block, scale2,
                                                   smem, limit),
                cudaSuccess);
      OccupancyCalculator::BlockSuggestion sug =
          calc.max_potential_block_size(smem, limit);
      EXPECT_EQ(block, sug.block) << "smem=" << smem << " limit=" << limit;
      EXPECT_EQ(min_grid, sug.min_grid) << "smem=" << smem << " limit=" << limit;
      EXPECT_GT(block, 0);
      EXPECT_EQ(block % kWarpSize, 0);
      if (limit > 0) {
        EXPECT_LE(block, limit);
      }
    }
  }
}

TEST(CudaNames, OccupancyMaxPotentialBlockSizeUnconstrained) {
  // With no shared pressure the fattest block wins the tie (2048 resident
  // threads either way on a V100 SM) and min_grid fills the whole device.
  Runtime runtime(DeviceProfile::v100());
  CudaContext ctx(runtime);
  int min_grid = 0, block = 0;
  cudaOccupancyMaxPotentialBlockSize(&min_grid, &block, scale2);
  const DeviceProfile& p = runtime.profile();
  EXPECT_EQ(block, 1024);
  EXPECT_EQ(min_grid,
            p.sm_count * max_resident_blocks_per_sm(p, block, 0));
}

TEST(CudaNames, OccupancyRejectsBadArguments) {
  Runtime runtime(DeviceProfile::v100());
  CudaContext ctx(runtime);
  int out = 0;
  EXPECT_THROW(
      cudaOccupancyMaxActiveBlocksPerMultiprocessor(&out, scale2, 0),
      std::invalid_argument);
  EXPECT_THROW(cudaOccupancyMaxActiveBlocksPerMultiprocessor(
                   static_cast<int*>(nullptr), scale2, 256),
               std::invalid_argument);
  EXPECT_THROW(cudaOccupancyMaxPotentialBlockSize(
                   static_cast<int*>(nullptr), &out, scale2),
               std::invalid_argument);
}

TEST(CudaNames, ErrorNameAndStringForEveryCode) {
  // Every ErrorCode the simulator can surface must carry the exact CUDA
  // spelling through both shim entry points.
  struct Expected {
    cudaError_t code;
    const char* name;
    const char* string;
  };
  const Expected table[] = {
      {cudaSuccess, "cudaSuccess", "no error"},
      {cudaErrorInvalidValue, "cudaErrorInvalidValue", "invalid argument"},
      {cudaErrorMemoryAllocation, "cudaErrorMemoryAllocation", "out of memory"},
      {cudaErrorInvalidDevicePointer, "cudaErrorInvalidDevicePointer",
       "invalid device pointer"},
      {cudaErrorLaunchOutOfResources, "cudaErrorLaunchOutOfResources",
       "too many resources requested for launch"},
      {cudaErrorIllegalAddress, "cudaErrorIllegalAddress",
       "an illegal memory access was encountered"},
      {cudaErrorLaunchFailure, "cudaErrorLaunchFailure",
       "unspecified launch failure"},
      {cudaErrorUnknown, "cudaErrorUnknown", "unknown error"},
      {cudaErrorInvalidDevice, "cudaErrorInvalidDevice",
       "invalid device ordinal"},
      {cudaErrorPeerAccessAlreadyEnabled, "cudaErrorPeerAccessAlreadyEnabled",
       "peer access is already enabled"},
      {cudaErrorPeerAccessNotEnabled, "cudaErrorPeerAccessNotEnabled",
       "peer access has not been enabled"},
  };
  for (const Expected& e : table) {
    EXPECT_STREQ(cudaGetErrorName(e.code), e.name);
    EXPECT_STREQ(cudaGetErrorString(e.code), e.string);
  }
}

TEST(CudaNames, PeekAtLastErrorDoesNotClear) {
  Runtime runtime(DeviceProfile::test_tiny());
  CudaContext ctx(runtime);
  runtime.set_fault_spec("oom:nth=1");

  DevSpan<float> d;
  EXPECT_EQ(cudaMalloc(&d, 256 * sizeof(float)), cudaErrorMemoryAllocation);
  // Peek reports without consuming; get consumes (CUDA semantics).
  EXPECT_EQ(cudaPeekAtLastError(), cudaErrorMemoryAllocation);
  EXPECT_EQ(cudaPeekAtLastError(), cudaErrorMemoryAllocation);
  EXPECT_EQ(cudaGetLastError(), cudaErrorMemoryAllocation);
  EXPECT_EQ(cudaPeekAtLastError(), cudaSuccess);
  EXPECT_EQ(cudaGetLastError(), cudaSuccess);
}

TEST(CudaNames, ContextRestoresPreviousRuntime) {
  Runtime a(DeviceProfile::test_tiny());
  Runtime b(DeviceProfile::test_tiny());
  CudaContext outer(a);
  EXPECT_EQ(current_runtime(), &a);
  {
    CudaContext inner(b);
    EXPECT_EQ(current_runtime(), &b);
  }
  EXPECT_EQ(current_runtime(), &a);
}

// --- PR-8 binding redesign ---------------------------------------------------

TEST(CudaNames, ExplicitBindParityWithScopedGuard) {
  Runtime a(DeviceProfile::test_tiny());
  Runtime b(DeviceProfile::test_tiny());
  // The explicit API and the RAII guard are two spellings of one binding.
  Runtime* prev = cuda_bind_runtime(a);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(&rt(), &a);
  {
    CudaContext guard(b);
    EXPECT_EQ(&rt(), &b);
  }
  EXPECT_EQ(&rt(), &a);  // Guard restored the explicit binding.
  cuda_unbind_runtime();
  EXPECT_EQ(current_runtime(), nullptr);
}

TEST(CudaNames, SingleRuntimeNeedsNoBindingAtAll) {
  Runtime only(DeviceProfile::test_tiny());
  // No CudaContext anywhere: the shim finds the sole live Runtime.
  DevSpan<float> d;
  EXPECT_EQ(cudaMalloc(&d, 64 * sizeof(float)), cudaSuccess);
  EXPECT_EQ(&rt(), &only);
  EXPECT_EQ(cudaDeviceSynchronize(), cudaSuccess);
}

TEST(CudaNames, SeveralRuntimesUnboundIsAProgrammingError) {
  Runtime a(DeviceProfile::test_tiny());
  Runtime b(DeviceProfile::test_tiny());
  EXPECT_THROW(rt(), std::logic_error);  // Ambiguous target.
  cuda_bind_runtime(b);
  EXPECT_EQ(&rt(), &b);  // Explicit binding resolves the ambiguity.
  cuda_unbind_runtime();
}

TEST(CudaNames, ShimCallsFollowTheExplicitBinding) {
  Runtime a(DeviceProfile::test_tiny());
  Runtime b(DeviceProfile::test_tiny());
  std::size_t a_before = a.gpu().heap().bytes_in_use();
  std::size_t b_before = b.gpu().heap().bytes_in_use();
  cuda_bind_runtime(a);
  DevSpan<int> da;
  EXPECT_EQ(cudaMalloc(&da, 128 * sizeof(int)), cudaSuccess);
  // Only the bound runtime's heap grew.
  EXPECT_GT(a.gpu().heap().bytes_in_use(), a_before);
  EXPECT_EQ(b.gpu().heap().bytes_in_use(), b_before);
  cuda_bind_runtime(b);
  DevSpan<int> db;
  std::size_t a_mid = a.gpu().heap().bytes_in_use();
  EXPECT_EQ(cudaMalloc(&db, 128 * sizeof(int)), cudaSuccess);
  EXPECT_EQ(a.gpu().heap().bytes_in_use(), a_mid);
  EXPECT_GT(b.gpu().heap().bytes_in_use(), b_before);
  cuda_unbind_runtime();
}

}  // namespace
