// Timing-side memory interface between pipeline, caches, and DRAM port.
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "util/inline_function.h"

namespace ndp::cpu {

/// \brief A sink for memory accesses with backpressure.
///
/// TryAccess returns false when the component cannot accept the request this
/// cycle (MSHRs or queues full); the caller retries on a later cycle. The
/// callback fires when the access completes (for writes it may be null).
/// Completions are InlineFunctions, so a request carries its continuation
/// through every level without a heap allocation.
class MemSink {
 public:
  using Completion = InlineFunction<void(sim::Tick)>;

  virtual ~MemSink() = default;
  virtual bool TryAccess(uint64_t addr, bool is_write,
                         Completion on_complete) = 0;
};

}  // namespace ndp::cpu
