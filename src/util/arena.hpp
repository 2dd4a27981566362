// MonotonicArena: a chunked bump allocator for short-lived, densely packed
// scratch data — the sharded simulator's structure-of-arrays epoch buffers
// (sim/sharded.cpp). allocate<T>() hands out aligned, contiguous storage
// with no per-allocation bookkeeping; reset() reclaims everything at once
// while keeping the largest chunk, so a buffer that is filled, consumed and
// reset every epoch converges to zero allocator traffic in steady state.
//
// Only trivially destructible element types are accepted: the arena never
// runs destructors (reset() just rewinds the bump pointer).
//
// Not thread-safe: an arena belongs to one writer at a time. The epoch
// pipeline hands a filled arena to worker threads read-only and only
// resets it after the last reader is done (the shard queues' mutexes
// order the hand-over, the buffer's release countdown the return).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace cdbp {

class MonotonicArena {
 public:
  /// `chunkBytes` is the granularity of the backing allocations; requests
  /// larger than it get a dedicated chunk of exactly their size.
  explicit MonotonicArena(std::size_t chunkBytes = 1 << 16)
      : chunkBytes_(chunkBytes > 0 ? chunkBytes : 1) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Uninitialized storage for `count` elements of T, aligned to alignof(T).
  /// count == 0 returns a non-null, unusable pointer (like an empty span).
  template <typename T>
  T* allocate(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "MonotonicArena never runs destructors");
    return static_cast<T*>(allocateBytes(count * sizeof(T), alignof(T)));
  }

  /// Rewinds the arena: all prior allocations are invalidated. The largest
  /// chunk is kept (a steady-state epoch reuses it allocation-free);
  /// smaller overflow chunks are released.
  void reset() {
    if (chunks_.empty()) return;
    std::size_t largest = 0;
    for (std::size_t i = 1; i < chunks_.size(); ++i) {
      if (chunks_[i].size > chunks_[largest].size) largest = i;
    }
    if (largest != 0) std::swap(chunks_[0], chunks_[largest]);
    chunks_.resize(1);
    used_ = 0;
    totalUsed_ = 0;
  }

  /// Bytes handed out since the last reset (before alignment padding of
  /// the next request).
  std::size_t bytesUsed() const { return totalUsed_; }

  /// Bytes of backing storage currently held.
  std::size_t bytesReserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocateBytes(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    std::size_t offset = alignUp(used_, align);
    if (chunks_.empty() || offset + bytes > chunks_[0].size) {
      // The bump chunk is chunks_[0]; a request that does not fit opens a
      // fresh bump chunk (overflow chunks keep their contents until
      // reset()).
      std::size_t size = bytes > chunkBytes_ ? bytes : chunkBytes_;
      Chunk fresh{std::make_unique<std::byte[]>(size), size};
      chunks_.insert(chunks_.begin(), std::move(fresh));
      offset = 0;
    }
    used_ = offset + bytes;
    totalUsed_ += bytes;
    return chunks_[0].data.get() + offset;
  }

  static std::size_t alignUp(std::size_t value, std::size_t align) {
    return (value + align - 1) & ~(align - 1);
  }

  std::size_t chunkBytes_;
  std::vector<Chunk> chunks_;  // chunks_[0] is the active bump chunk
  std::size_t used_ = 0;       // bump offset within chunks_[0]
  std::size_t totalUsed_ = 0;  // across all chunks since reset()
};

}  // namespace cdbp
