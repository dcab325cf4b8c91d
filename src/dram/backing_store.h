// Functional contents of physical memory, kept separate from the timing
// model: the timing simulator decides *when* a burst completes, the backing
// store says *what bytes* it carried. Sparse 4 KB pages so a simulated 2 GB /
// 1 TB address space costs only what is actually touched.
//
// The page table is a lock-free two-level radix tree of atomic pointers, so
// threads may touch disjoint regions of one store concurrently: first-touch
// page installation races resolve by compare-and-swap (the loser frees its
// page), and every published page is fully zeroed before the release store,
// so contents are deterministic no matter which thread installs it. The
// simulator itself drives each store from one thread; concurrent accesses
// to the *same byte range* would remain the caller's responsibility.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/macros.h"

namespace ndp::dram {

/// \brief Sparse byte-addressable physical memory. Untouched bytes read as 0.
class BackingStore {
 public:
  static constexpr size_t kPageSize = 4096;

  explicit BackingStore(uint64_t capacity_bytes)
      : capacity_(capacity_bytes), root_(NumLeaves(capacity_bytes)) {}
  ~BackingStore() {
    for (auto& slot : root_) {
      Leaf* leaf = slot.load(std::memory_order_relaxed);
      if (leaf == nullptr) continue;
      for (auto& page : leaf->pages) {
        delete[] page.load(std::memory_order_relaxed);
      }
      delete leaf;
    }
  }
  NDP_DISALLOW_COPY_AND_ASSIGN(BackingStore);

  uint64_t capacity() const { return capacity_; }

  void Write(uint64_t addr, const void* src, size_t n) {
    NDP_CHECK_MSG(addr + n <= capacity_, "backing store write out of range");
    const uint8_t* p = static_cast<const uint8_t*>(src);
    while (n > 0) {
      uint64_t page = addr / kPageSize;
      size_t off = addr % kPageSize;
      size_t chunk = std::min(n, kPageSize - off);
      std::memcpy(GetPage(page) + off, p, chunk);
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }

  void Read(uint64_t addr, void* dst, size_t n) const {
    NDP_CHECK_MSG(addr + n <= capacity_, "backing store read out of range");
    uint8_t* p = static_cast<uint8_t*>(dst);
    while (n > 0) {
      uint64_t page = addr / kPageSize;
      size_t off = addr % kPageSize;
      size_t chunk = std::min(n, kPageSize - off);
      const uint8_t* data = PageIfPresent(page);
      if (data == nullptr) {
        std::memset(p, 0, chunk);
      } else {
        std::memcpy(p, data + off, chunk);
      }
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }

  uint64_t Read64(uint64_t addr) const {
    uint64_t v;
    Read(addr, &v, 8);
    return v;
  }
  void Write64(uint64_t addr, uint64_t v) { Write(addr, &v, 8); }

  size_t resident_pages() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kLeafBits = 12;  ///< 4096 pages (16 MB) per leaf
  static constexpr size_t kLeafSlots = size_t{1} << kLeafBits;

  struct Leaf {
    std::atomic<uint8_t*> pages[kLeafSlots] = {};
  };

  static size_t NumLeaves(uint64_t capacity_bytes) {
    uint64_t pages = (capacity_bytes + kPageSize - 1) / kPageSize;
    return static_cast<size_t>((pages + kLeafSlots - 1) / kLeafSlots);
  }

  const uint8_t* PageIfPresent(uint64_t page) const {
    const Leaf* leaf = root_[page >> kLeafBits].load(std::memory_order_acquire);
    if (leaf == nullptr) return nullptr;
    return leaf->pages[page & (kLeafSlots - 1)].load(std::memory_order_acquire);
  }

  uint8_t* GetPage(uint64_t page) {
    std::atomic<Leaf*>& rslot = root_[page >> kLeafBits];
    Leaf* leaf = rslot.load(std::memory_order_acquire);
    if (leaf == nullptr) {
      Leaf* fresh = new Leaf();
      if (rslot.compare_exchange_strong(leaf, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        leaf = fresh;
      } else {
        delete fresh;  // another thread installed it first
      }
    }
    std::atomic<uint8_t*>& pslot = leaf->pages[page & (kLeafSlots - 1)];
    uint8_t* data = pslot.load(std::memory_order_acquire);
    if (data == nullptr) {
      uint8_t* fresh = new uint8_t[kPageSize]();
      if (pslot.compare_exchange_strong(data, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        data = fresh;
        resident_.fetch_add(1, std::memory_order_relaxed);
      } else {
        delete[] fresh;
      }
    }
    return data;
  }

  uint64_t capacity_;
  std::vector<std::atomic<Leaf*>> root_;
  std::atomic<size_t> resident_{0};
};

}  // namespace ndp::dram
