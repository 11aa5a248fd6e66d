// System: the top-level facade a pmemsim user interacts with.
//
// Owns the simulated machine — backing store, memory controller (Optane DIMMs
// + DRAM), the shared L3 — and hands out PmRegions (address ranges) and
// ThreadContexts (execution streams). See examples/quickstart.cc for usage.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <deque>
#include <memory>

#include "src/cache/cache.h"
#include "src/common/backing_store.h"
#include "src/common/config.h"
#include "src/common/types.h"
#include "src/cpu/thread_context.h"
#include "src/imc/memory_controller.h"
#include "src/trace/counters.h"
#include "src/trace/registry.h"
#include "src/trace/sampler.h"

namespace pmemsim {

// A reserved range of the simulated address space.
struct PmRegion {
  Addr base = 0;
  uint64_t size = 0;
  MemoryKind kind = MemoryKind::kOptane;

  Addr At(uint64_t offset) const { return base + offset; }
  Addr end() const { return base + size; }
};

class System {
 public:
  // `optane_dimm_count` overrides the platform preset when non-zero (the
  // paper measures both a single non-interleaved DIMM and 6 interleaved).
  explicit System(const PlatformConfig& config, uint32_t optane_dimm_count = 0);

  // Region allocation (bump allocator; regions are never freed).
  PmRegion AllocatePm(uint64_t bytes, uint64_t align = kXPLineSize);
  PmRegion AllocateDram(uint64_t bytes, uint64_t align = kCacheLineSize);

  // Creates an execution stream pinned to `node` (node 1 = remote socket).
  ThreadContext& CreateThread(NodeId node = 0);

  // Creates an execution stream on `sibling`'s other hyperthread: it shares
  // that thread's private caches and prefetch engine.
  ThreadContext& CreateSmtSibling(ThreadContext& sibling);

  const PlatformConfig& config() const { return config_; }
  // System-wide totals: a live aggregation over the per-DIMM/per-thread
  // scopes, re-materialized on every access (and by CounterDelta).
  Counters& counters() {
    counters_.Sync();
    return counters_;
  }
  const Counters& counters() const {
    counters_.Sync();
    return counters_;
  }
  // Per-writer scopes ("optane_dimmN", "dram", "imc", "threadN").
  const CounterRegistry& counter_registry() const { return registry_; }
  MemoryController& mc() { return *mc_; }
  SetAssocCache& shared_l3() { return *l3_; }
  BackingStore& backing() { return backing_; }

  // Drops all timing state (caches, buffers, queues, clocks) but keeps data
  // and counters. Used between benchmark configurations.
  void ResetMicroarchState();

  // Installs (or clears, with nullptr) a store/fence observer on every
  // existing thread and every thread created afterwards. Used by the
  // crash-consistency subsystem's PersistTracker.
  void SetPersistObserver(PersistObserver* observer);

  // Installs (or clears, with nullptr) the latency-attribution collector on
  // every existing thread and every thread created afterwards (--breakdown).
  void SetAttribution(AttributionCollector* collector);

  // Installs (or clears, with nullptr) the trace recorder on every existing
  // thread and every thread created afterwards. Trace thread ids follow
  // creation order, and each thread is declared to the recorder's thread
  // table together with its NUMA node so replay recreates the same topology.
  void SetTraceRecorder(TraceRecorder* recorder);

  // Instantaneous occupancy across the machine's Optane DIMMs and WPQs — the
  // gauge source for interval sampling (Sampler::SetGaugeSource). Fills no
  // serve_queue_depth: the serving engine adds its queues' occupancy in its
  // own gauge function.
  SampleGauges ReadGauges(Cycles now);

 private:
  PlatformConfig config_;
  CounterRegistry registry_;
  Counters counters_;  // aggregate view, bound to registry_
  BackingStore backing_;
  std::unique_ptr<MemoryController> mc_;
  std::unique_ptr<SetAssocCache> l3_;
  std::deque<std::unique_ptr<ThreadContext>> threads_;

  Addr pm_next_ = kPageSize;
  Addr dram_next_ = kDramAddressBase;
  uint64_t thread_seed_ = 0xA11CE;
  PersistObserver* persist_observer_ = nullptr;
  AttributionCollector* attribution_ = nullptr;
  TraceRecorder* trace_recorder_ = nullptr;
};

}  // namespace pmemsim

#endif  // SRC_CORE_SYSTEM_H_
