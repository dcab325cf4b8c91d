// Single-producer / single-consumer message ring, used for the serving
// ingress's per-core request rings. FIFO order is exact.
//
// A bounded power-of-two ring carries the common case without allocation;
// its head/tail atomics publish entries wait-free from producer to consumer.
// Bursts beyond the ring capacity spill into a producer-side overflow deque.
// Once a message has spilled, later pushes spill too (preserving FIFO) until
// the consumer has drained both, so order never interleaves between the two
// stores. The spill path is not synchronised: while it is in use, producer
// and consumer must not run concurrently. The serving ingress drives both
// ends from the one simulation thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ndp::sim {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity_pow2 = 1024)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {
    NDP_CHECK_MSG((capacity_pow2 & mask_) == 0 && capacity_pow2 >= 2,
                  "SPSC capacity must be a power of two");
  }
  NDP_DISALLOW_COPY_AND_ASSIGN(SpscQueue);

  /// Producer side. Never blocks: a full ring diverts to the spill deque.
  void Push(T value) {
    size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (spilling_ || head - tail >= slots_.size()) {
      spilling_ = true;
      spill_.push_back(std::move(value));
      return;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
  }

  /// Bounded producer side, for callers that must shed rather than buffer:
  /// refuses (returns false) when the ring is full or a spill is in progress,
  /// never touching the overflow deque. The serving ingress uses this so a
  /// traffic burst hits a hard ring boundary instead of growing the heap.
  bool TryPush(T value) {
    size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (spilling_ || head - tail >= slots_.size()) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops in FIFO order (ring first, then the spill, which by
  /// construction holds only messages pushed after the ring filled). Returns
  /// false when the edge is empty.
  bool Pop(T* out) {
    size_t tail = tail_.load(std::memory_order_relaxed);
    size_t head = head_.load(std::memory_order_acquire);
    if (tail != head) {
      *out = std::move(slots_[tail & mask_]);
      tail_.store(tail + 1, std::memory_order_release);
      return true;
    }
    if (!spill_.empty()) {
      *out = std::move(spill_.front());
      spill_.pop_front();
      if (spill_.empty()) spilling_ = false;  // producer quiescent here
      return true;
    }
    return false;
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire) &&
           spill_.empty();
  }

 private:
  std::vector<T> slots_;
  const size_t mask_;
  std::atomic<size_t> head_{0};  ///< producer cursor
  std::atomic<size_t> tail_{0};  ///< consumer cursor
  bool spilling_ = false;        ///< producer-owned; consumer resets at drain
  std::deque<T> spill_;          ///< overflow; not synchronised
};

}  // namespace ndp::sim
