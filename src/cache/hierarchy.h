// Per-thread cache hierarchy: private L1d + L2 over a shared L3, with the
// flush instruction semantics that drive the paper's G1/G2 differences and
// the prefetch engine attached to the demand stream.

#ifndef SRC_CACHE_HIERARCHY_H_
#define SRC_CACHE_HIERARCHY_H_

#include "src/cache/cache.h"
#include "src/cache/prefetcher.h"
#include "src/common/access_record.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/imc/memory_controller.h"
#include "src/trace/counters.h"

namespace pmemsim {

// The hierarchy's access result is the shared in-place record every memory
// layer writes into (see src/common/access_record.h for the field list).
using HierAccessResult = AccessRecord;

struct FlushResult {
  bool wrote = false;      // a write-back entered the WPQ
  Cycles accepted_at = 0;  // persist point, if wrote
  Cycles cost = 0;         // cycles charged to the issuing thread
};

class CacheHierarchy : public PrefetchSink {
 public:
  CacheHierarchy(const CacheConfig& config, SetAssocCache* shared_l3, MemoryController* mc,
                 Counters* counters, NodeId node, uint64_t rng_seed = 0xFEEDF00D);

  // Demand cacheline load/store (store = RFO + dirty mark, write-allocate).
  // `train` = false suppresses prefetcher training (AVX streaming path).
  // The in-place forms write into `out`, which must arrive value-initialized
  // (arena-allocated records are); the value forms wrap them.
  void Load(Addr addr, Cycles now, bool ordered, bool train, HierAccessResult* out);
  void Store(Addr addr, Cycles now, HierAccessResult* out);
  HierAccessResult Load(Addr addr, Cycles now, bool ordered, bool train = true) {
    HierAccessResult r;
    Load(addr, now, ordered, train, &r);
    return r;
  }
  HierAccessResult Store(Addr addr, Cycles now) {
    HierAccessResult r;
    Store(addr, now, &r);
    return r;
  }

  // clwb: writes back a dirty copy; G1 schedules invalidation after the
  // dispatch window, G2 retains the line clean.
  FlushResult Clwb(Addr addr, Cycles now);
  // clflushopt: writes back a dirty copy and invalidates (same lazy window).
  FlushResult Clflushopt(Addr addr, Cycles now);

  // Removes the line everywhere immediately (nt-store snoop-invalidate).
  void InvalidateAll(Addr addr);

  // Applies any scheduled invalidation for the line (mfence ordering).
  void ForcePendingInvalidate(Addr addr);

  bool ProbeAny(Addr addr, Cycles now) const;

  // Host-side hint that `addr` is about to be accessed: starts fetching the
  // L2/L3 set blocks and the target DIMM's translation state. No simulated
  // effect — callers that know their next address (trace replayers, benchmark
  // loops) issue this one operation ahead so the host DRAM fetches overlap
  // the current operation's simulation work.
  void HostPrefetchHint(Addr addr) const {
    const Addr line = CacheLineBase(addr);
    l2_.PrefetchSet(line);
    l3_->PrefetchSet(line);
    mc_->PrefetchRead(line);
    last_hint_line_ = line;
  }

  // PrefetchSink: fills a line into L2 (+L3), or L1 for the DCU streamer.
  // Never charged to the thread clock.
  void PrefetchFill(Addr line_addr, Cycles now, bool into_l1) override;

  PrefetchEngine& prefetch_engine() { return engine_; }
  SetAssocCache& l1() { return l1_; }
  SetAssocCache& l2() { return l2_; }
  SetAssocCache& shared_l3() { return *l3_; }

  // Drops private-cache state (benchmark warm-boundary helper).
  void ClearPrivate();

 private:
  void AccessInternal(Addr addr, Cycles now, bool is_store, bool ordered, bool train,
                      HierAccessResult* out);
  // Trains the prefetch engine on a demand access; with every prefetcher
  // disabled it collapses to the DCU step, which then only records the line.
  void TrainEngine(const PrefetchEngine::DemandInfo& info) {
    if (engine_.any_enabled()) {
      engine_.OnDemandAccess(info);
    } else {
      engine_.TrainDcu(info.line, info.now);
    }
  }
  // Inserts into a level, cascading dirty evictions downward.
  void FillInto(SetAssocCache& level, int level_idx, Addr line, Cycles now, bool dirty,
                bool prefetched, Cycles ready_at = 0);

  CacheConfig config_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache* l3_;
  MemoryController* mc_;
  Counters* counters_;
  NodeId node_;
  PrefetchEngine engine_;
  bool in_prefetch_fill_ = false;  // prefetch fills must not re-trigger training
  // Last line already warmed by an explicit HostPrefetchHint: the miss-path
  // fan-out skips re-issuing those fetches. Host-only state (mutable so the
  // const hint entry point can record it); never read by timing code.
  mutable Addr last_hint_line_ = ~Addr{0};
};

}  // namespace pmemsim

#endif  // SRC_CACHE_HIERARCHY_H_
