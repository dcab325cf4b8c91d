// Memory requests as seen by the controller: one BL8 burst (<= 64 B) per
// request, the granularity of both CPU cache-line fills and JAFAR bursts.
#pragma once

#include <cstdint>

#include "dram/address.h"
#include "sim/time.h"
#include "util/inline_function.h"

namespace ndp::dram {

/// Identifies the agent that generated a request (for attribution in stats).
enum class RequesterId : uint8_t { kCpu = 0, kJafar = 1, kOther = 2 };

/// \brief One burst-sized memory request.
struct Request {
  uint64_t addr = 0;
  bool is_write = false;
  RequesterId requester = RequesterId::kCpu;
  /// Invoked when the last data beat of the burst completes, with that tick.
  /// Inline (no allocation); may be empty.
  InlineFunction<void(sim::Tick)> on_complete;
};

}  // namespace ndp::dram
