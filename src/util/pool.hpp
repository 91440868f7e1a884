#pragma once

// BlockPool: size-class free lists over an arena, for the simulator's
// fixed-rhythm allocations — coroutine frames, RPC payload boxes, OneShot
// states. A block is carved from the process-global Arena the first time its
// size class is empty and recycled through the free list forever after, so a
// steady-state simulation (same frames, same messages, over and over)
// performs zero global-allocator calls on these paths.
//
// Blocks above kMaxPooled bytes fall through to operator new/delete: pooling
// is an optimisation, never a size limit. Memory is returned to the OS only
// at process exit, which is the right trade for bounded-lifetime simulation
// processes.
//
// The simulator is single-threaded, so each pool is one process-wide free
// list with no locking.
//
// VectorPool<T> recycles whole std::vector<T> objects (capacity and all) for
// the store's reply buffers — member lists and op batches that are built on
// a server, shipped through a Payload, and drained on the client.

#include <cstddef>
#include <vector>

#include "util/arena.hpp"

namespace weakset {

class BlockPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;  // pooled sizes: 64 B .. 2 KiB
  static constexpr std::size_t kMaxPooled = kGranule * kClasses;

  static void* allocate(std::size_t size) {
    const std::size_t cls = class_of(size);
    if (cls >= kClasses) return ::operator new(size);
    State& state = instance();
    void*& head = state.free_heads[cls];
    if (head != nullptr) {
      void* block = head;
      head = *static_cast<void**>(block);
      return block;
    }
    return state.arena.allocate((cls + 1) * kGranule,
                                alignof(std::max_align_t));
  }

  static void deallocate(void* block, std::size_t size) noexcept {
    if (block == nullptr) return;
    const std::size_t cls = class_of(size);
    if (cls >= kClasses) {
      ::operator delete(block);
      return;
    }
    State& state = instance();
    *static_cast<void**>(block) = state.free_heads[cls];
    state.free_heads[cls] = block;
  }

  /// Arena bytes handed out so far by the pool (diagnostics/tests).
  static std::size_t arena_bytes() {
    return instance().arena.bytes_allocated();
  }

 private:
  struct State {
    Arena arena;
    void* free_heads[kClasses] = {};
  };

  static std::size_t class_of(std::size_t size) noexcept {
    // size 0..64 -> class 0, 65..128 -> 1, ...; sizes > kMaxPooled map past
    // the last class and take the operator-new path.
    return size == 0 ? 0 : (size - 1) / kGranule;
  }

  static State& instance() {
    // Leaked on purpose (never destroyed): pooled blocks can be freed from
    // other static-duration objects' destructors, which must not race the
    // pool's own teardown.
    static State* const state = new State;
    return *state;
  }
};

/// std::allocator-compatible adapter over BlockPool, for allocate_shared of
/// hot-path control blocks (e.g. OneShot state).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(BlockPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BlockPool::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

/// Free list of whole vectors: acquire() hands back a cleared vector with
/// its old capacity intact, release() parks it for the next acquirer. The
/// list is bounded — beyond kMaxParked vectors are simply destroyed.
template <typename T>
class VectorPool {
 public:
  static std::vector<T> acquire() {
    auto& parked = freelist();
    if (parked.empty()) return {};
    std::vector<T> v = std::move(parked.back());
    parked.pop_back();
    v.clear();
    return v;
  }

  static void release(std::vector<T> v) {
    auto& parked = freelist();
    if (parked.size() < kMaxParked) {
      v.clear();
      parked.push_back(std::move(v));
    }
  }

 private:
  static constexpr std::size_t kMaxParked = 64;
  static std::vector<std::vector<T>>& freelist() {
    // Leaked like BlockPool::instance(): release() must stay callable from
    // static-duration destructors in any order.
    static auto* const parked = new std::vector<std::vector<T>>;
    return *parked;
  }
};

}  // namespace weakset
