// Adapter from the cache hierarchy's MemSink interface to the DRAM system:
// aligns accesses to burst (cache line) granularity and applies a fixed
// front-side latency representing interconnect + controller pipeline.
#pragma once

#include <cstdint>

#include "cpu/mem_if.h"
#include "dram/dram_system.h"

namespace ndp::cpu {

/// \brief Last-level-cache-to-memory port.
class DramPort : public MemSink {
 public:
  /// `frontside_ps`: one-way interconnect latency added to each request
  /// before it reaches the controller queues (and not on the return path,
  /// where it is folded into the same constant for simplicity).
  DramPort(dram::DramSystem* dram, sim::Tick frontside_ps,
           dram::RequesterId requester = dram::RequesterId::kCpu)
      : dram_(dram), frontside_ps_(frontside_ps), requester_(requester) {}

  bool TryAccess(uint64_t addr, bool is_write,
                 Completion on_complete) override {
    dram::Request req;
    req.addr = addr & ~uint64_t{63};
    req.is_write = is_write;
    req.requester = requester_;
    req.on_complete = on_complete;
    // Decoded once, here; an address beyond the installed capacity aborts
    // rather than reading as backpressure that the caches retry forever.
    const dram::DramLocation loc = dram_->Locate(req.addr);
    if (!dram_->CanAccept(loc, is_write)) return false;
    if (frontside_ps_ == 0) {
      return dram_->EnqueueRequest(req, loc).ok();
    }
    // The queue had room when checked; a race with other agents in the same
    // window can overflow it, in which case we retry every 1 ns.
    dram_->event_queue()->ScheduleAfter(
        frontside_ps_, [this, req, loc] { RetryEnqueue(req, loc); });
    return true;
  }

 private:
  void RetryEnqueue(const dram::Request& req, const dram::DramLocation& loc) {
    if (dram_->EnqueueRequest(req, loc).ok()) return;
    dram_->event_queue()->ScheduleAfter(
        1000, [this, req, loc] { RetryEnqueue(req, loc); });
  }

  dram::DramSystem* dram_;
  sim::Tick frontside_ps_;
  dram::RequesterId requester_;
};

}  // namespace ndp::cpu
