// Per-access latency attribution: where each demand access's cycles went.
//
// The paper explains latency by decomposing it along the access path — core
// issue, cache walk, iMC transit, read-after-persist stalls, on-DIMM buffer
// service, AIT translation, media port waits, WPQ acceptance — and so do the
// companion characterizations (Izraelevitz et al.; Yang et al., FAST '20).
// This module reproduces that decomposition in the model.
//
// Mechanics: the memory side of the path reports its components *in its
// result structs* (MemStageBreakdown rides DimmReadResult -> McReadResult ->
// HierAccessResult), so nothing on the hot path consults a collector — the
// components are plain field writes already computed by the timing code.
// ThreadContext is the single recording point: when a collector is installed
// (System::SetAttribution, the benches' --breakdown flag), each operation
// records its end-to-end latency and the reported stages; the unattributed
// remainder (issue costs, cache-walk latency, SMT scaling) lands in the
// `core` stage, so per-stage totals sum to end-to-end latency EXACTLY — the
// conservation identity tests/attribution_test.cc gates on. When no collector
// is installed the only cost is one pointer test per operation.
//
// Synchronous vs asynchronous: DDR-T persists are accepted long after the
// issuing store retires, so WPQ acceptance delay is *not* part of a store's
// end-to-end latency — it surfaces at fences (recorded as the wpq_wait stage
// of the fence op) and is additionally tracked per nt-store/flush in the
// async_accept histogram, which deliberately sits outside the conservation
// identity.

#ifndef SRC_TRACE_ATTRIBUTION_H_
#define SRC_TRACE_ATTRIBUTION_H_

#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace pmemsim {

class JsonWriter;

// Memory-side latency components of one demand access, threaded up through
// the result structs. Each producer guarantees the populated fields sum to
// the span it reports (DIMM: complete_at - now; iMC adds its transit), so a
// full cache miss's breakdown sums exactly to the memory access latency.
struct MemStageBreakdown {
  Cycles imc_transit = 0;  // iMC processing + interconnect hops
  Cycles rap_stall = 0;    // read-after-persist wait (write in flight)
  Cycles buffer = 0;       // on-DIMM buffer service (DDR-T round trip)
  Cycles ait = 0;          // address-indirection-table translation
  Cycles media = 0;        // 3D-Xpoint port wait + XPLine fetch
  Cycles dram = 0;         // conventional-DRAM service (DRAM-routed reads)
};

class AttributionCollector {
 public:
  enum Op : uint8_t { kLoad, kStore, kNtStore, kFlush, kFence, kOpCount };
  enum Stage : uint8_t {
    kCore,  // issue/retire costs, cache-walk latency, SMT scaling remainder
    kL1Hit,
    kL2Hit,
    kL3Hit,
    kImcTransit,
    kRapStall,
    kReadBuffer,
    kAitLookup,
    kMediaRead,
    kDram,
    kWpqWait,  // fence-time wait for outstanding persist acceptance
    kStageCount
  };

  static const char* OpName(Op op);
  static const char* StageName(Stage stage);
  // kL1Hit, kL2Hit or kL3Hit for a cache hit at `level` (1..3).
  static Stage HitStage(uint8_t level) { return static_cast<Stage>(kL1Hit + level - 1); }

  struct StageDurations {
    Cycles v[kStageCount] = {};
  };

  // Records one completed operation. Stages must not exceed `end_to_end`;
  // the difference is credited to kCore so conservation holds per access.
  // Only full cache misses spread over several stages; every other operation
  // records through RecordStage.
  void RecordAccess(Op op, Cycles end_to_end, const StageDurations& stages);

  // RecordAccess for an operation whose attributed cycles all lie in one
  // stage: `cycles` to `stage`, the remainder of `end_to_end` to kCore. Inline
  // because cache hits, hit stores, flushes and fences take this path, and an
  // L1 hit is most of a serve run's accesses.
  void RecordStage(Op op, Cycles end_to_end, Stage stage, Cycles cycles) {
    PMEMSIM_CHECK_MSG(cycles <= end_to_end, "attribution: stage sum exceeds end-to-end latency");
    ++access_count_;
    end_to_end_total_ += end_to_end;
    op_hist_[op].Add(end_to_end);
    if (stage == kCore) {
      AddStage(kCore, end_to_end);
      return;
    }
    AddStage(kCore, end_to_end - cycles);
    AddStage(stage, cycles);
  }

  // Records an asynchronous persist-acceptance delay (nt-store/flush issue to
  // WPQ acceptance). Outside the conservation identity by design.
  void RecordAsyncAccept(Cycles delay);

  uint64_t access_count() const { return access_count_; }
  uint64_t end_to_end_total() const { return end_to_end_total_; }
  uint64_t stage_total(Stage stage) const { return stage_total_[stage]; }
  // Marks stage time already recorded as overlapped: the loads of one
  // ThreadContext::LoadMulti group other than its slowest, which runs in
  // parallel with them. The totals above keep counting every load; this
  // side total appears in no report.
  void RecordOverlapped(const StageDurations& stages);
  // Stage total on the critical path: stage_total() minus the overlapped
  // loads. Per-request spans decompose service time with these, so a
  // parallel load group is charged once, as its slowest load.
  uint64_t critical_stage_total(Stage stage) const {
    return stage_total_[stage] - overlapped_total_[stage];
  }
  uint64_t StageTotalSum() const;
  const Histogram& op_hist(Op op) const { return op_hist_[op]; }
  const Histogram& stage_hist(Stage stage) const { return stage_hist_[stage]; }
  // Exact-rank tail extraction (Histogram::Quantile, q in [0,1]) over one op
  // class or stage — how the serving tier reads its per-shard memory-op and
  // wpq-wait tails out of the attribution layer.
  uint64_t OpQuantile(Op op, double q) const { return op_hist_[op].Quantile(q); }
  uint64_t StageQuantile(Stage stage, double q) const { return stage_hist_[stage].Quantile(q); }
  const Histogram& async_accept_hist() const { return async_accept_hist_; }

  // {"accesses":N,"end_to_end_total":..,"ops":{load:{hist}..},
  //  "stages":{core:{"total_cycles":..,"share":..,hist}..},
  //  "async":{"wpq_accept":{hist}}}
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

  // Human-readable critical-path table: one row per stage, sorted by total
  // cycles, with share-of-total and percentiles (pmemsim_watch/--breakdown).
  std::string CriticalPathTable() const;

 private:
  void AddStage(Stage stage, Cycles v) {
    if (v != 0) {
      stage_total_[stage] += v;
      stage_hist_[stage].Add(v);
    }
  }

  Histogram op_hist_[kOpCount];
  Histogram stage_hist_[kStageCount];
  Histogram async_accept_hist_;
  uint64_t stage_total_[kStageCount] = {};
  uint64_t overlapped_total_[kStageCount] = {};
  uint64_t end_to_end_total_ = 0;
  uint64_t access_count_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_ATTRIBUTION_H_
