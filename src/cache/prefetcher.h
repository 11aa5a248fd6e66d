// CPU cache prefetchers (paper §3.4).
//
// The testbeds expose three BIOS-toggleable prefetchers; each is modeled as a
// simple trigger rule over the per-thread demand stream:
//
//  * adjacent-line ("spatial"): on an L2 demand miss or the first demand touch
//    of a prefetched L2 line, fetch the next cacheline into L2.
//  * DCU streamer (L1): on an ascending demand pair (line == prev + 64), fetch
//    the next cacheline into L1.
//  * L2 hardware stream: tracks per-4KB-page constant strides (any multiple of
//    64 B); after three consecutive matching strides the stream *locks* with a
//    configurable probability (real lock arbitration is fuzzy; stochastic
//    gating reproduces the modest waste of Fig. 6 b/f) and then prefetches
//    `degree` strides ahead on every subsequent match.
//
// All prefetch fills are marked so demand first-touches can be distinguished;
// fills are not charged to the thread clock but do consume DIMM bandwidth —
// exactly the waste mechanism the paper measures: a mispredicted cacheline
// costs 64 B at the iMC but a whole 256 B XPLine at the media.

#ifndef SRC_CACHE_PREFETCHER_H_
#define SRC_CACHE_PREFETCHER_H_

#include <array>
#include <cstdint>

#include "src/common/config.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace pmemsim {

// Where a prefetch engine deposits its fills (implemented by CacheHierarchy).
class PrefetchSink {
 public:
  virtual ~PrefetchSink() = default;
  virtual void PrefetchFill(Addr line_addr, Cycles now, bool into_l1) = 0;
};

class PrefetchEngine {
 public:
  PrefetchEngine(const CacheConfig& config, PrefetchSink* sink, uint64_t rng_seed = 0xFEEDF00D);

  struct DemandInfo {
    Addr line = 0;
    Cycles now = 0;
    bool l1_hit = false;
    bool l2_hit = false;
    bool first_touch_prefetched = false;  // first demand touch of a prefetched line
  };

  void OnDemandAccess(const DemandInfo& info);

  // The DCU detector's step of OnDemandAccess (`line` cacheline-aligned): it
  // fires on an ascending pair and records the line. It is the whole of
  // OnDemandAccess for an L1 hit that is not the first demand touch of a
  // prefetched line, which the adjacent-line and stream prefetchers ignore,
  // and for any access with every prefetcher off. Inline because L1 hits are
  // most of the demand stream.
  void TrainDcu(Addr line, Cycles now) {
    if (dcu_enabled_ && last_demand_line_ != ~0ull && line == last_demand_line_ + kCacheLineSize) {
      sink_->PrefetchFill(line + kCacheLineSize, now, /*into_l1=*/true);
    }
    last_demand_line_ = line;
  }

  void SetEnabled(bool adjacent, bool dcu, bool stream);
  bool any_enabled() const { return adjacent_enabled_ || dcu_enabled_ || stream_enabled_; }

  void Reset();

 private:
  struct StreamEntry {
    Addr page = 0;
    Addr last_line = 0;
    int64_t stride = 0;
    int steps = 0;
    bool locked = false;
    uint64_t lru = 0;
    bool valid = false;
  };

  void StreamTrain(Addr line, Cycles now);

  PrefetchSink* sink_;
  Rng rng_;
  bool adjacent_enabled_;
  bool dcu_enabled_;
  bool stream_enabled_;
  uint32_t stream_degree_;
  double stream_lock_probability_ = 0.4;

  Addr last_demand_line_ = ~0ull;  // DCU ascending-pair detector
  std::array<StreamEntry, 16> streams_{};
  uint64_t stream_tick_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_CACHE_PREFETCHER_H_
