#include "mem/heap.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace vgpu {

namespace {

// NORESERVE: only the pages a workload touches are ever backed, so a 40 GiB
// device costs address space, not RAM or swap.
std::byte* reserve(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

}  // namespace

DeviceHeap::DeviceHeap(std::size_t capacity)
    : capacity_(std::max(capacity != 0 ? capacity : kDefaultCapacity, kReserved)),
      mem_(reserve(capacity_)) {}

DeviceHeap::~DeviceHeap() { ::munmap(mem_, capacity_); }

DevAddr DeviceHeap::alloc(std::size_t bytes, std::size_t align) {
  return alloc_offset(bytes, 0, align);
}

DevAddr DeviceHeap::alloc_offset(std::size_t bytes, std::size_t offset, std::size_t align) {
  if (align == 0 || (align & (align - 1)) != 0)
    throw std::invalid_argument("alignment must be a power of two");
  if (offset >= align) throw std::invalid_argument("offset must be < align");
  // Padding, offset and size are checked against the room left one at a
  // time, so an oversized request fails (device OOM) instead of wrapping.
  const std::size_t room = capacity_ - top_;
  const std::size_t pad = (align - top_ % align) % align;
  if (pad > room || offset > room - pad || bytes > room - pad - offset)
    return DevAddr{0};
  const std::size_t addr = top_ + pad + offset;
  top_ = addr + bytes;
  allocs_.push_back(HeapAlloc{addr, bytes, /*live=*/true});
  return DevAddr{addr};
}

FreeResult DeviceHeap::free(std::uint64_t addr) {
  auto it = std::lower_bound(
      allocs_.begin(), allocs_.end(), addr,
      [](const HeapAlloc& a, std::uint64_t v) { return a.addr < v; });
  if (it == allocs_.end() || it->addr != addr) return FreeResult::kNotABase;
  if (!it->live) return FreeResult::kDoubleFree;
  it->live = false;
  return FreeResult::kOk;
}

AddrClass DeviceHeap::classify(std::uint64_t addr, std::size_t bytes,
                               const HeapAlloc** alloc_out) const {
  if (alloc_out != nullptr) *alloc_out = nullptr;
  auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), addr,
      [](std::uint64_t v, const HeapAlloc& a) { return v < a.addr; });
  if (it == allocs_.begin()) return AddrClass::kOutOfBounds;
  --it;
  if (alloc_out != nullptr) *alloc_out = &*it;
  if (addr + bytes > it->addr + it->bytes) return AddrClass::kOutOfBounds;
  return it->live ? AddrClass::kValid : AddrClass::kFreed;
}

}  // namespace vgpu
