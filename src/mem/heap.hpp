#pragma once

// Simulated device memory arena.
//
// Device "global memory" is a flat byte-addressed arena. Addresses handed to
// kernels are offsets into this arena, so the coalescing and cache models can
// do real address arithmetic (alignment, 32-byte sectors, 128-byte lines)
// against them. Allocations are 256-byte aligned by default, matching
// cudaMalloc's guarantee; alloc_offset() deliberately mis-aligns a block for
// the MemAlign benchmark.
//
// The arena is one anonymous mapping reserved at construction for the whole
// device capacity. The operating system supplies zeroed pages on first
// touch, so an allocation costs no zero-fill or copy, untouched capacity
// costs no host RAM, and the host pointer behind an address never moves.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace vgpu {

/// Raw device address (byte offset into the arena). Address 0 is reserved so
/// a zero DevAddr can act as "null".
struct DevAddr {
  std::uint64_t v = 0;
  explicit operator bool() const { return v != 0; }
};

/// Typed, sized view of device memory: the handle kernels index into.
template <typename T>
struct DevSpan {
  std::uint64_t addr = 0;   ///< Byte address of element 0.
  std::size_t n = 0;        ///< Element count.

  std::size_t size() const { return n; }
  std::size_t bytes() const { return n * sizeof(T); }
  bool empty() const { return n == 0; }

  /// Byte address of element i (no bounds check; kernels predicate instead).
  std::uint64_t addr_of(std::size_t i) const { return addr + i * sizeof(T); }

  DevSpan subspan(std::size_t offset, std::size_t count) const {
    if (offset > n || count > n - offset) throw std::out_of_range("DevSpan::subspan");
    return DevSpan{addr + offset * sizeof(T), count};
  }
};

/// Metadata for one arena allocation, kept for vgpu-san's memcheck: every
/// device access can be classified against its owning allocation.
struct HeapAlloc {
  std::uint64_t addr = 0;   ///< First byte (includes any deliberate offset).
  std::uint64_t bytes = 0;
  bool live = true;         ///< Cleared by free(); the arena never recycles.
};

/// Classification of a device access against the allocation registry.
enum class AddrClass : std::uint8_t { kValid, kOutOfBounds, kFreed };

/// How a free() went. The heap reports misuse instead of throwing so the
/// Runtime can surface it as a recorded cudaError_t, the way cudaFree does.
enum class FreeResult : std::uint8_t { kOk, kNotABase, kDoubleFree };

/// Bump arena backing all simulated device allocations.
class DeviceHeap {
 public:
  /// Capacity of a heap built without one (tests poking the raw heap).
  static constexpr std::size_t kDefaultCapacity = std::size_t{16} << 30;

  /// Reserves `capacity` bytes of device memory (cudaMalloc fails beyond
  /// it); 0 selects kDefaultCapacity. Throws std::bad_alloc when the host
  /// cannot reserve the address range.
  explicit DeviceHeap(std::size_t capacity = 0);
  ~DeviceHeap();

  DeviceHeap(const DeviceHeap&) = delete;
  DeviceHeap& operator=(const DeviceHeap&) = delete;

  /// Allocate `bytes` with the given alignment; returns the byte address,
  /// or null when the allocation would exceed the device capacity (the
  /// cudaErrorMemoryAllocation path). A failed allocation consumes nothing.
  DevAddr alloc(std::size_t bytes, std::size_t align = 256);

  /// Allocate with a deliberate byte offset past an aligned boundary, for
  /// misalignment experiments. offset must be < align.
  DevAddr alloc_offset(std::size_t bytes, std::size_t offset, std::size_t align = 256);

  std::size_t capacity() const { return capacity_; }

  /// n * sizeof(T), saturated at SIZE_MAX so that an element count whose
  /// byte size wraps fails to allocate instead of getting a tiny block.
  template <typename T>
  static std::size_t span_bytes(std::size_t n) {
    return n > SIZE_MAX / sizeof(T) ? SIZE_MAX : n * sizeof(T);
  }

  template <typename T>
  DevSpan<T> alloc_span(std::size_t n, std::size_t align = 256) {
    return DevSpan<T>{alloc(span_bytes<T>(n), align).v, n};
  }

  std::size_t bytes_in_use() const { return top_; }

  /// cudaFree equivalent: marks the allocation starting at `addr` dead.
  /// The bump arena never recycles storage, so stale handles stay
  /// memory-safe on the host side — but vgpu-san's memcheck reports any
  /// device access to the range as a use-after-free. Reports (instead of
  /// throwing) when `addr` is not the base of a live allocation, so the
  /// Runtime can record cudaFree's invalid-pointer error.
  [[nodiscard]] FreeResult free(std::uint64_t addr);

  /// Classify [addr, addr+bytes) against the allocation registry. When the
  /// access is invalid, `alloc_out` (if non-null) receives the nearest
  /// preceding allocation for diagnostics, or nullptr if there is none.
  ///
  /// Allocations only happen between kernels on the host thread; during a
  /// grid the registry is read-only, so the parallel grid engine's workers
  /// may call this concurrently without synchronization.
  AddrClass classify(std::uint64_t addr, std::size_t bytes,
                     const HeapAlloc** alloc_out = nullptr) const;

  const std::vector<HeapAlloc>& allocations() const { return allocs_; }

  // Functional accessors. All sizes in bytes.
  void read(std::uint64_t addr, void* dst, std::size_t bytes) const {
    check(addr, bytes);
    std::memcpy(dst, mem_ + addr, bytes);
  }
  void write(std::uint64_t addr, const void* src, std::size_t bytes) {
    check(addr, bytes);
    std::memcpy(mem_ + addr, src, bytes);
  }

  template <typename T>
  T load(std::uint64_t addr) const {
    T t;
    read(addr, &t, sizeof(T));
    return t;
  }
  template <typename T>
  void store(std::uint64_t addr, const T& t) {
    write(addr, &t, sizeof(T));
  }

  /// Atomic read-modify-write on arena bytes, for global integer atomics
  /// under concurrent blocks (parallel grid engine). Integer addition is
  /// associative, so the final memory state matches the serial run whatever
  /// the interleaving; floating-point atomics go through the block-ordered
  /// commit queue instead (see sim/block.hpp).
  template <typename T>
  T atomic_fetch_add(std::uint64_t addr, T v) {
    static_assert(std::is_integral_v<T>, "FP atomics use the commit queue");
    check(addr, sizeof(T));
    if (addr % alignof(T) != 0)
      throw std::runtime_error("atomic on misaligned device address");
    std::atomic_ref<T> ref(*reinterpret_cast<T*>(mem_ + addr));
    return ref.fetch_add(v, std::memory_order_relaxed);
  }

  template <typename T>
  void copy_in(DevSpan<T> dst, std::span<const T> src) {
    if (src.size() > dst.n) throw std::out_of_range("DeviceHeap::copy_in");
    write(dst.addr, src.data(), src.size_bytes());
  }
  template <typename T>
  void copy_out(std::span<T> dst, DevSpan<T> src) const {
    if (dst.size() > src.n) throw std::out_of_range("DeviceHeap::copy_out");
    read(src.addr, dst.data(), dst.size() * sizeof(T));
  }

 private:
  static constexpr std::size_t kReserved = 256;  // Keeps address 0 unused.

  // Written so that no sum can wrap: [addr, addr+bytes) must lie in
  // [kReserved, top_).
  void check(std::uint64_t addr, std::size_t bytes) const {
    if (addr < kReserved || bytes > top_ || addr > top_ - bytes)
      throw std::out_of_range("device address out of range");
  }

  std::size_t capacity_;           // Bytes reserved at mem_.
  std::byte* mem_;                 // Host view of device address 0.
  std::size_t top_ = kReserved;
  std::vector<HeapAlloc> allocs_;  // Sorted by addr (bump allocation order).
};

}  // namespace vgpu
