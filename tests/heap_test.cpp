// Device heap and DevSpan tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/heap.hpp"

namespace {

using namespace vgpu;

TEST(Heap, AllocationsAre256ByteAligned) {
  DeviceHeap h;
  for (int i = 0; i < 5; ++i) {
    DevAddr a = h.alloc(100 + i);
    EXPECT_EQ(a.v % 256, 0u);
  }
}

TEST(Heap, AddressZeroIsNull) {
  DeviceHeap h;
  DevAddr a = h.alloc(16);
  EXPECT_NE(a.v, 0u);
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(DevAddr{}));
}

TEST(Heap, OffsetAllocationMisaligns) {
  DeviceHeap h;
  DevAddr a = h.alloc_offset(64, 4, 256);
  EXPECT_EQ(a.v % 256, 4u);
}

TEST(Heap, OffsetValidation) {
  DeviceHeap h;
  EXPECT_THROW(h.alloc_offset(16, 300, 256), std::invalid_argument);
  EXPECT_THROW(h.alloc(16, 100), std::invalid_argument);  // Not a power of two.
}

TEST(Heap, AllocationsDoNotOverlap) {
  DeviceHeap h;
  DevAddr a = h.alloc(1000);
  DevAddr b = h.alloc(1000);
  EXPECT_GE(b.v, a.v + 1000);
}

TEST(Heap, ScalarRoundTrip) {
  DeviceHeap h;
  DevAddr a = h.alloc(64);
  h.store<double>(a.v + 8, 2.25);
  EXPECT_EQ(h.load<double>(a.v + 8), 2.25);
}

TEST(Heap, SpanCopyInOut) {
  DeviceHeap h;
  DevSpan<int> s = h.alloc_span<int>(10);
  std::vector<int> in{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  h.copy_in(s, std::span<const int>(in));
  std::vector<int> out(10);
  h.copy_out(std::span<int>(out), s);
  EXPECT_EQ(in, out);
}

TEST(Heap, OutOfRangeAccessThrows) {
  DeviceHeap h;
  DevSpan<int> s = h.alloc_span<int>(4);
  EXPECT_THROW(h.load<int>(s.addr_of(4)), std::out_of_range);
  EXPECT_THROW(h.load<int>(0), std::out_of_range);  // Reserved null page.
}

TEST(Heap, CopySizeValidation) {
  DeviceHeap h;
  DevSpan<int> s = h.alloc_span<int>(4);
  std::vector<int> big(5);
  EXPECT_THROW(h.copy_in(s, std::span<const int>(big)), std::out_of_range);
  EXPECT_THROW(h.copy_out(std::span<int>(big), s), std::out_of_range);
}

TEST(DevSpan, SubspanAddressing) {
  DeviceHeap h;
  DevSpan<float> s = h.alloc_span<float>(100);
  DevSpan<float> sub = s.subspan(10, 20);
  EXPECT_EQ(sub.addr, s.addr + 10 * sizeof(float));
  EXPECT_EQ(sub.n, 20u);
  EXPECT_EQ(sub.addr_of(0), s.addr_of(10));
  EXPECT_THROW(s.subspan(90, 20), std::out_of_range);
}

TEST(DevSpan, SubspanRangeCheckDoesNotWrap) {
  const DevSpan<int> s{256, 4};
  // offset + count wraps to 1 here; the check must still see offset > n.
  EXPECT_THROW(s.subspan(SIZE_MAX, 2), std::out_of_range);
  EXPECT_THROW(s.subspan(2, SIZE_MAX), std::out_of_range);
  EXPECT_THROW(s.subspan(5, 0), std::out_of_range);
  EXPECT_EQ(s.subspan(4, 0).n, 0u);
  EXPECT_EQ(s.subspan(1, 3).addr, 256u + sizeof(int));
}

TEST(Heap, GrowsBeyondInitialReservation) {
  DeviceHeap h;
  DevSpan<char> s = h.alloc_span<char>(1 << 22);  // 4 MiB.
  h.store<char>(s.addr_of((1 << 22) - 1), 'x');
  EXPECT_EQ(h.load<char>(s.addr_of((1 << 22) - 1)), 'x');
}

// --- The reserve-once arena --------------------------------------------------

TEST(Heap, NewAllocationReadsZeroAfterNeighboursWereWritten) {
  DeviceHeap h;
  DevSpan<std::uint8_t> a = h.alloc_span<std::uint8_t>(5000);
  std::vector<std::uint8_t> ones(5000, 0xff);
  h.copy_in(a, std::span<const std::uint8_t>(ones));
  DevSpan<std::uint8_t> b = h.alloc_span<std::uint8_t>(5000);
  std::vector<std::uint8_t> got(5000, 0x55);
  h.copy_out(std::span<std::uint8_t>(got), b);
  EXPECT_EQ(got, std::vector<std::uint8_t>(5000, 0));
  // The padding between a and b reads zero too (the arena is one zeroed
  // range, not per-allocation storage).
  for (std::uint64_t addr = a.addr + a.n; addr < b.addr; ++addr)
    EXPECT_EQ(h.load<std::uint8_t>(addr), 0) << addr;
}

TEST(Heap, DataSurvivesLaterLargeAllocations) {
  DeviceHeap h;
  DevSpan<int> small = h.alloc_span<int>(1000);
  std::vector<int> in(1000);
  for (int i = 0; i < 1000; ++i) in[static_cast<std::size_t>(i)] = i * 7 - 3;
  h.copy_in(small, std::span<const int>(in));
  std::vector<DevSpan<char>> big;
  for (int i = 0; i < 6; ++i) {
    big.push_back(h.alloc_span<char>(std::size_t{16} << 20));  // 16 MiB each.
    ASSERT_NE(big.back().addr, 0u);
    h.store<char>(big.back().addr_of(big.back().n - 1), static_cast<char>('a' + i));
  }
  std::vector<int> out(1000);
  h.copy_out(std::span<int>(out), small);
  EXPECT_EQ(in, out);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(h.load<char>(big[static_cast<std::size_t>(i)].addr_of((std::size_t{16} << 20) - 1)),
              static_cast<char>('a' + i));
}

TEST(Heap, AllocationPastCapacityFailsAndConsumesNothing) {
  DeviceHeap h(1 << 20);  // 1 MiB device.
  EXPECT_EQ(h.capacity(), std::size_t{1} << 20);
  DevAddr a = h.alloc(1000);
  ASSERT_TRUE(a);
  const std::size_t in_use = h.bytes_in_use();
  const std::size_t count = h.allocations().size();
  EXPECT_FALSE(h.alloc(1 << 20));
  EXPECT_FALSE(h.alloc_offset((1 << 20) - 1024, 4));
  EXPECT_EQ(h.bytes_in_use(), in_use);
  EXPECT_EQ(h.allocations().size(), count);
  // Exactly filling the device still works.
  DevAddr rest = h.alloc((std::size_t{1} << 20) - 1280);
  EXPECT_EQ(rest.v, 1280u);
  EXPECT_EQ(h.bytes_in_use(), std::size_t{1} << 20);
  EXPECT_FALSE(h.alloc(1, 1));
}

TEST(Heap, AddressesMatchPinnedBumpAllocatorTable) {
  // Addresses of the growable-vector arena this one replaced: the bump
  // arithmetic is unchanged, so every DevAddr (and therefore every
  // coalescing and cache result) is too.
  struct Row {
    std::size_t bytes, align, offset;
    std::uint64_t addr;
  };
  const Row rows[] = {
      {1, 256, 0, 256},           {100, 256, 0, 512},
      {4096, 4096, 0, 4096},      {64, 256, 4, 8196},
      {3, 8, 0, 8264},            {1000, 128, 64, 8384},
      {1048576, 2097152, 0, 2097152}, {17, 256, 255, 3145983},
      {0, 256, 0, 3146240},       {12, 64, 0, 3146240},
      {5000, 256, 1, 3146497},    {4194311, 256, 0, 3151616},
      {64, 1, 0, 7345927},        {33, 32, 16, 7346032},
  };
  DeviceHeap h;
  for (const Row& r : rows)
    EXPECT_EQ(h.alloc_offset(r.bytes, r.offset, r.align).v, r.addr)
        << r.bytes << " bytes, align " << r.align << ", offset " << r.offset;
  EXPECT_EQ(h.bytes_in_use(), 7346065u);
}

TEST(Heap, OversizedAllocationFailsInsteadOfWrapping) {
  DeviceHeap h;
  DevAddr a = h.alloc(16);
  ASSERT_EQ(a.v, 256u);
  const std::size_t in_use = h.bytes_in_use();
  EXPECT_FALSE(h.alloc(SIZE_MAX - 100));
  EXPECT_FALSE(h.alloc(SIZE_MAX));
  EXPECT_FALSE(h.alloc_offset(SIZE_MAX - 2, 4));
  EXPECT_FALSE(h.alloc(16, std::size_t{1} << 63));  // Padding alone overflows.
  EXPECT_EQ(h.alloc_span<double>(SIZE_MAX / 4).addr, 0u);  // n * 8 wraps.
  EXPECT_EQ(h.alloc_span<float>(SIZE_MAX / 4 + 2).addr, 0u);  // n * 4 wraps to 4.
  EXPECT_EQ(h.bytes_in_use(), in_use);
  EXPECT_EQ(h.allocations().size(), 1u);
  // The next allocation lands after the first, not on top of it.
  EXPECT_EQ(h.alloc(64).v, 512u);
}

TEST(Heap, AccessCheckDoesNotWrap) {
  DeviceHeap h;
  DevSpan<int> s = h.alloc_span<int>(16);
  EXPECT_THROW(h.load<int>(UINT64_MAX - 1), std::out_of_range);
  EXPECT_THROW(h.load<int>(UINT64_MAX - 3), std::out_of_range);
  EXPECT_THROW(h.store<int>(UINT64_MAX - 1, 7), std::out_of_range);
  int sink = 0;
  EXPECT_THROW(h.read(s.addr, &sink, SIZE_MAX - 100), std::out_of_range);
  EXPECT_THROW(h.atomic_fetch_add<std::uint32_t>(UINT64_MAX - 3, 1u), std::out_of_range);
  EXPECT_EQ(h.load<int>(s.addr_of(15)), 0);  // The last valid element still reads.
}

}  // namespace
