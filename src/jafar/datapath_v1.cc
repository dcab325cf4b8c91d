// Generation v1_rank_io: the source paper's datapath. One comparator stream
// sits at the DIMM IO buffer and consumes ordinary rank reads over the shared
// IO bus — one burst at a time, paced by tCCD and by the engine's
// words-per-cycle rate. This is the pre-refactor Device sequencer moved
// behind the DatapathModel interface, preserved step-for-step: with
// generation v1_rank_io the refactor is observationally a no-op (byte-
// identical stats dumps), which makes v1 the oracle for v2.
#include <algorithm>

#include "jafar/datapath_impl.h"
#include "sim/event_queue.h"

namespace ndp::jafar {

namespace {

class V1RankIoDatapath final : public DatapathModel {
 public:
  using DatapathModel::DatapathModel;

  DeviceGeneration generation() const override {
    return DeviceGeneration::kV1RankIo;
  }

  void BeginScan() override { SelectStep(); }

 private:
  void SelectStep();
  void EvaluateBurst(sim::Tick data_done);
  void ContinueScanWhenEngineReady();

  // The burst in flight, staged by SelectStep for EvaluateBurst.
  uint64_t burst_addr_ = 0;
  uint64_t rows_here_ = 0;
};

void V1RankIoDatapath::SelectStep() {
  const bool is_rs = is_rowstore();
  const bool probe = is_probe();
  const uint64_t total_rows = is_rs      ? rowstore_job().num_tuples
                              : probe    ? probe_job().num_rows
                                         : select_job().num_rows;
  if (cursor_rows() >= total_rows) {
    // Final (possibly partial) bitmap flush, then done.
    FlushBitmap([this](sim::Tick) { FinishJob(); });
    return;
  }
  const uint32_t row_bytes =
      is_rs ? rowstore_job().tuple_bytes : config().elem_bytes;
  const uint64_t base = is_rs      ? rowstore_job().tuple_base
                        : probe    ? probe_job().col_base
                                   : select_job().col_base;
  // The burst containing the next unprocessed row.
  uint64_t burst_addr = base + cursor_rows() * row_bytes;
  burst_addr -= burst_addr % kBurstBytes;
  // Rows whose data completes within this burst.
  uint64_t burst_end = burst_addr + kBurstBytes;
  uint64_t first = cursor_rows();
  uint64_t last = std::min<uint64_t>(
      total_rows, (burst_end - base + row_bytes - 1) / row_bytes);
  burst_addr_ = burst_addr;
  rows_here_ = last > first ? last - first : 0;
  lane().ReadBurst(burst_addr,
                   [this](sim::Tick data_done) { EvaluateBurst(data_done); });
}

void V1RankIoDatapath::EvaluateBurst(sim::Tick data_done) {
  if (DrawStallAtBurst()) {
    // Sequencer stall mid-scan: the partial bitmap may already be in DRAM,
    // but this burst's rows are never accumulated. The device stays busy
    // with no pending events until the driver watchdog aborts it.
    return;
  }
  const bool probe = is_probe();
  const uint64_t first = cursor_rows();
  // Functional evaluation against the backing store contents. Column rows
  // decode from one copy of the burst; row-store tuples may straddle bursts,
  // so they read each predicate's attribute where it lies.
  uint64_t matches_here = 0;
  if (is_rowstore()) {
    const RowStoreJob& job = rowstore_job();
    for (uint64_t r = first; r < first + rows_here_; ++r) {
      bool pass = EvalTuple(job.tuple_base + r * job.tuple_bytes);
      AppendBit(pass);
      if (pass) ++matches_here;
    }
  } else {
    unsigned char burst[kBurstBytes];
    ReadBurstBytes(burst_addr_, burst);
    const uint64_t base = probe ? probe_job().col_base : select_job().col_base;
    for (uint64_t r = first; r < first + rows_here_; ++r) {
      uint64_t offset = base + r * config().elem_bytes - burst_addr_;
      bool pass = EvalColumnValue(DecodeValue(burst + offset));
      AppendBit(pass);
      if (pass) ++matches_here;
    }
  }
  add_matches(matches_here);
  stats().rows_processed += rows_here_;
  set_cursor_rows(first + rows_here_);

  // Datapath timing: one word per II from the IO buffer. Probe jobs run
  // the hash-lane kernel's (slower) schedule instead of the comparator's.
  uint32_t words = kBurstBytes / 8;
  sim::Tick start = std::max(data_done, engine_ready_at());
  sim::Tick proc = probe ? config().ProbeBurstProcessingPs(words)
                         : config().BurstProcessingPs(words);
  set_engine_ready_at(start + proc);
  stats().engine_busy_ps += proc;
  stats().energy_fj += (probe ? config().probe_energy_per_word_fj
                              : config().energy_per_word_fj) *
                       words;

  if (pending_bit_count() >= config().output_buffer_bits) {
    FlushBitmap([this](sim::Tick) { ContinueScanWhenEngineReady(); });
  } else {
    ContinueScanWhenEngineReady();
  }
}

void V1RankIoDatapath::ContinueScanWhenEngineReady() {
  // Throttle command issue so a slow datapath (words_per_cycle < 1) does not
  // overrun its input FIFO: the next burst's data (which completes CL+tBURST
  // after its command) should not arrive before the engine can take it.
  sim::Tick pipe_ps = BusCycles(timing().cl + timing().tburst);
  sim::Tick earliest =
      engine_ready_at() > pipe_ps ? engine_ready_at() - pipe_ps : 0;
  if (earliest > eq()->Now()) {
    lane().ScheduleAt(earliest, [this](sim::Tick) { SelectStep(); });
  } else {
    SelectStep();
  }
}

}  // namespace

std::unique_ptr<DatapathModel> MakeV1RankIoDatapath(Device* dev) {
  return std::make_unique<V1RankIoDatapath>(dev);
}

}  // namespace ndp::jafar
