// Micro-op vocabulary consumed by the core model, and the lazy trace
// generator interface that supplies it. Kernels (select loops, aggregation
// loops, replayed database operator traces) are expressed as µop streams so
// the core never materializes billions of instructions.
#pragma once

#include <cstdint>

namespace ndp::cpu {

enum class UopType : uint8_t {
  kAlu,     ///< integer ALU op (latency configurable, default 1)
  kLoad,    ///< memory read through the cache hierarchy
  kStore,   ///< memory write (retires via store buffer)
  kBranch,  ///< conditional branch, subject to prediction
  kNop,     ///< structural filler (fetch bandwidth only)
};

struct Uop {
  UopType type = UopType::kAlu;
  uint64_t addr = 0;      ///< effective address for kLoad/kStore
  uint64_t pc = 0;        ///< identifies the branch site for the predictor
  bool taken = false;     ///< actual branch outcome
  uint8_t latency = 1;    ///< execution latency in cycles (ALU)
  /// Data dependence: this µop cannot complete before the µop `dep_distance`
  /// positions earlier in program order has completed (0 = independent).
  uint8_t dep_distance = 0;
};

/// \brief Lazy µop stream.
class UopStream {
 public:
  virtual ~UopStream() = default;
  /// Produces the next µop. Returns false at end of stream.
  virtual bool Next(Uop* uop) = 0;
  /// Hands over up to `max` µops in one call, all of them exactly `Uop{}`
  /// (independent 1-cycle ALU ops), and returns how many. Returning n
  /// promises that the next n Next() calls would have produced `Uop{}`; those
  /// µops are consumed. The core dispatches them without a per-µop Next().
  /// Default: no run.
  virtual uint64_t TakeAluRun(uint64_t /*max*/) { return 0; }
};

}  // namespace ndp::cpu
