#include "src/cpu/thread_context.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/trace/recorder.h"

namespace pmemsim {

ThreadContext::ThreadContext(const PlatformConfig& config, BackingStore* backing,
                             MemoryController* mc, SetAssocCache* shared_l3, Counters* counters,
                             NodeId node, uint64_t rng_seed)
    : cpu_(config.cpu),
      eadr_(config.eadr_enabled),
      backing_(backing),
      mc_(mc),
      counters_(counters),
      node_(node),
      own_hierarchy_(config.cache, shared_l3, mc, counters, node, rng_seed),
      hier_(&own_hierarchy_) {
  PMEMSIM_CHECK(backing != nullptr);
  PMEMSIM_CHECK(mc != nullptr);
  BindPlatformDispatch();
}

ThreadContext::ThreadContext(const PlatformConfig& config, BackingStore* backing,
                             MemoryController* mc, Counters* counters, ThreadContext* sibling)
    : cpu_(config.cpu),
      eadr_(config.eadr_enabled),
      backing_(backing),
      mc_(mc),
      counters_(counters),
      node_(sibling->node_),
      own_hierarchy_(config.cache, &sibling->hierarchy().shared_l3(), mc, counters,
                     sibling->node_, 0),
      hier_(&sibling->hierarchy()) {
  PMEMSIM_CHECK(backing != nullptr);
  PMEMSIM_CHECK(mc != nullptr);
  clock_ = sibling->clock_;
  BindPlatformDispatch();
}

void ThreadContext::BindPlatformDispatch() {
  // Resolve the per-platform flush paths once: eADR presets retire flushes as
  // cheap no-ops, ADR presets run the real write-back machinery.
  clwb_impl_ = eadr_ ? &ThreadContext::ClwbEadr : &ThreadContext::ClwbAdr;
  clflushopt_impl_ = eadr_ ? &ThreadContext::ClflushoptEadr : &ThreadContext::ClflushoptAdr;
  outstanding_.Init(cpu_.store_buffer_depth);
}

void ThreadContext::AdvanceTo(Cycles t) { clock_ = std::max(clock_, t); }

Cycles ThreadContext::ScaleCore(Cycles c) const {
  return smt_scale_ == 1.0 ? c : static_cast<Cycles>(static_cast<double>(c) * smt_scale_);
}

void ThreadContext::RecordLoadMiss(Cycles latency, const MemStageBreakdown& mem) {
  // The memory side reported where the span went; the fields sum exactly to
  // `latency`, so nothing lands in the core remainder.
  AttributionCollector::StageDurations stages;
  stages.v[AttributionCollector::kImcTransit] = mem.imc_transit;
  stages.v[AttributionCollector::kRapStall] = mem.rap_stall;
  stages.v[AttributionCollector::kReadBuffer] = mem.buffer;
  stages.v[AttributionCollector::kAitLookup] = mem.ait;
  stages.v[AttributionCollector::kMediaRead] = mem.media;
  stages.v[AttributionCollector::kDram] = mem.dram;
  attribution_->RecordAccess(AttributionCollector::kLoad, latency, stages);
}

void ThreadContext::RecordPersistOp(AttributionCollector::Op op, Cycles t0, Cycles wpq_wait,
                                    Cycles accepted_at) {
  attribution_->RecordStage(op, clock_ - t0, AttributionCollector::kWpqWait, wpq_wait);
  // The acceptance delay itself is asynchronous — it surfaces at the next
  // fence — so it is tracked outside the conservation identity.
  if (accepted_at > t0) {
    attribution_->RecordAsyncAccept(accepted_at - t0);
  }
}

uint64_t ThreadContext::LoadInternal(Addr addr, bool train) {
  // Every load ends with backing_->ReadU64(addr), so start the host fetch of
  // that page first: it overlaps the whole simulated walk. No simulated
  // effect (dependent-chase shapes cannot hint their next address early, so
  // this entry-point overlap is all the host parallelism they get). Skipped
  // when an explicit hint or the previous load already warmed the line.
  const Addr line = CacheLineBase(addr);
  if (line != hint_line_ && line != last_load_line_) {
    backing_->PrefetchRead(addr);
  }
  last_load_line_ = line;
  // Out-of-order early execution: an unordered load targeting a just-flushed
  // line can issue before the flush's invalidation retires and hit the cache.
  if (!loads_ordered_ && recent_flush_count_ != 0) {
    for (uint32_t i = 0; i < recent_flush_count_; ++i) {
      if (recent_flushes_[i] == line && hier_->ProbeAny(line, /*now=*/0)) {
        const Cycles latency = ScaleCore(hier_->l1().hit_latency());
        last_access_ = {1, latency, 0};
        clock_ += latency;
        if (attribution_ != nullptr) {
          attribution_->RecordStage(AttributionCollector::kLoad, latency,
                                    AttributionCollector::kL1Hit, latency);
        }
        return backing_->ReadU64(addr);
      }
    }
  }
  HierAccessResult& r = *arena_.Alloc();
  hier_->Load(addr, clock_, loads_ordered_, train, &r);
  Cycles latency = r.complete_at - clock_;
  if (r.hit_level >= 1) {
    latency = ScaleCore(latency);  // core-local: subject to SMT sharing
  }
  last_access_ = {r.hit_level, latency, r.stalled_for};
  clock_ += latency;
  if (attribution_ != nullptr) {
    if (r.hit_level >= 1) {
      attribution_->RecordStage(AttributionCollector::kLoad, latency,
                                AttributionCollector::HitStage(r.hit_level), latency);
    } else {
      RecordLoadMiss(latency, r.mem);
    }
  }
  return backing_->ReadU64(addr);
}

void ThreadContext::LoadMulti(const Addr* addrs, size_t count) {
  const Cycles start = clock_;
  Cycles latest = start;
  // Each load records its own stages; all but the group's slowest load are
  // hidden under it, and the collector is told so (critical_stage_total).
  AttributionCollector::StageDurations slowest, overlapped, delta;
  for (size_t i = 0; i < count; ++i) {
    clock_ = start;
    if (attribution_ != nullptr) {
      for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
        delta.v[s] = attribution_->stage_total(static_cast<AttributionCollector::Stage>(s));
      }
    }
    (void)LoadInternal(addrs[i], /*train=*/true);
    if (attribution_ != nullptr) {
      const bool slowest_so_far = i == 0 || clock_ > latest;
      for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
        delta.v[s] =
            attribution_->stage_total(static_cast<AttributionCollector::Stage>(s)) - delta.v[s];
        overlapped.v[s] += slowest_so_far ? std::exchange(slowest.v[s], delta.v[s]) : delta.v[s];
      }
    }
    latest = std::max(latest, clock_);
  }
  clock_ = latest;
  if (attribution_ != nullptr) {
    attribution_->RecordOverlapped(overlapped);
  }
  if (recorder_ != nullptr) {
    recorder_->RecordMulti(trace_tid_, addrs, count, clock_);
  }
}

uint64_t ThreadContext::Load64(Addr addr) {
  const uint64_t v = LoadInternal(addr, /*train=*/true);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoad64, addr, 0, clock_);
  }
  return v;
}

uint64_t ThreadContext::Load64NoPrefetch(Addr addr) {
  const uint64_t v = LoadInternal(addr, /*train=*/false);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoadNoPrefetch, addr, 0, clock_);
  }
  return v;
}

void ThreadContext::LoadLine(Addr addr) {
  (void)LoadInternal(addr, /*train=*/true);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kLoadLine, addr, 0, clock_);
  }
}

void ThreadContext::RecordCompute(Cycles c) {
  recorder_->Record(trace_tid_, TraceOp::kCompute, 0, c, clock_);
}

void ThreadContext::TraceMarker(uint32_t id) {
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kMarker, 0, id, clock_);
  }
}

void ThreadContext::StoreTimed(Addr addr) {
  const Cycles t0 = clock_;
  HierAccessResult& r = *arena_.Alloc();
  hier_->Store(addr, clock_, &r);
  Cycles latency;
  if (r.hit_level >= 1) {
    latency = ScaleCore(r.complete_at - clock_);
  } else {
    // Posted store: the RFO proceeds in the background (its bandwidth and
    // cache fills have been accounted); the pipeline pays a fixed cost.
    latency = ScaleCore(cpu_.store_miss_post_cost);
  }
  last_access_ = {r.hit_level, latency, r.stalled_for};
  clock_ += latency + ScaleCore(cpu_.store_issue_cost);
  if (attribution_ != nullptr) {
    // What a hit spends beyond its hit latency lands in core, and so does a
    // posted miss's whole pipeline cost: the RFO's memory latency is off the
    // critical path (the background traffic shows in the bandwidth counters).
    if (r.hit_level >= 1) {
      attribution_->RecordStage(AttributionCollector::kStore, clock_ - t0,
                                AttributionCollector::HitStage(r.hit_level), latency);
    } else {
      attribution_->RecordStage(AttributionCollector::kStore, clock_ - t0,
                                AttributionCollector::kCore, 0);
    }
  }
}

void ThreadContext::Store64(Addr addr, uint64_t value) {
  StoreTimed(addr);
  backing_->WriteU64(addr, value);
  if (observer_ != nullptr) {
    observer_->OnStore(addr, sizeof(value), clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStore64, addr, 0, clock_);
  }
}

void ThreadContext::StoreLine(Addr addr) {
  StoreTimed(addr);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStoreLine, addr, 0, clock_);
  }
}

void ThreadContext::Read(Addr addr, void* out, size_t len) {
  // Touch each covered cacheline once for timing, then copy the bytes.
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    (void)LoadInternal(line, /*train=*/true);
  }
  backing_->Read(addr, out, len);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kRead, addr, len, clock_);
  }
}

void ThreadContext::Write(Addr addr, const void* data, size_t len) {
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    StoreTimed(line);
  }
  backing_->Write(addr, data, len);
  if (observer_ != nullptr) {
    observer_->OnStore(addr, len, clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kWrite, addr, len, clock_);
  }
}

void ThreadContext::TrackPersist(Addr line, Cycles accepted_at, bool is_flush) {
  // Store-buffer back-pressure: too many unaccepted persists stall the core.
  if (outstanding_.size() >= cpu_.store_buffer_depth) {
    AdvanceTo(outstanding_.front().accepted_at);
    outstanding_.pop_front();
  }
  outstanding_.push_back({line, accepted_at, is_flush});
  DrainRetired();
}

void ThreadContext::DrainRetired() {
  while (!outstanding_.empty() && outstanding_.front().accepted_at <= clock_) {
    outstanding_.pop_front();
  }
}

void ThreadContext::NoteRecentFlush(Addr line) {
  for (uint32_t i = 0; i < recent_flush_count_; ++i) {
    if (recent_flushes_[i] == line) {
      return;
    }
  }
  if (recent_flush_count_ < recent_flushes_.size()) {
    recent_flushes_[recent_flush_count_++] = line;
  } else {
    // Keep the two newest lines, oldest first.
    recent_flushes_[0] = recent_flushes_[1];
    recent_flushes_[1] = line;
  }
}

void ThreadContext::ClwbEadr(Addr addr) {
  // eADR (paper §6): the CPU caches are inside the persistence domain —
  // stores are durable once globally visible, so clwb degenerates to a
  // cheap no-op and programs simply stop flushing.
  clock_ += 1;
  if (attribution_ != nullptr) {
    attribution_->RecordStage(AttributionCollector::kFlush, 1, AttributionCollector::kWpqWait, 0);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kClwb, addr, 0, clock_);
  }
}

void ThreadContext::ClflushoptEadr(Addr addr) {
  // Same as Clwb under eADR: the caches are already persistent, so the
  // flush (including its invalidation) buys nothing and retires as a
  // cheap no-op.
  clock_ += 1;
  if (attribution_ != nullptr) {
    attribution_->RecordStage(AttributionCollector::kFlush, 1, AttributionCollector::kWpqWait, 0);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kClflushopt, addr, 0, clock_);
  }
}

void ThreadContext::ClwbAdr(Addr addr) {
  const Cycles t0 = clock_;
  const FlushResult r = hier_->Clwb(addr, clock_);
  clock_ += std::max<Cycles>(r.cost, cpu_.flush_issue_cost);
  NoteRecentFlush(CacheLineBase(addr));
  const Cycles pre_track = clock_;
  if (r.wrote) {
    TrackPersist(CacheLineBase(addr), r.accepted_at, /*is_flush=*/true);
  }
  if (attribution_ != nullptr) {
    // Any clock advance inside TrackPersist is store-buffer back-pressure:
    // waiting on the oldest outstanding persist's WPQ acceptance.
    RecordPersistOp(AttributionCollector::kFlush, t0, clock_ - pre_track,
                    r.wrote ? r.accepted_at : 0);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kClwb, addr, 0, clock_);
  }
}

void ThreadContext::ClflushoptAdr(Addr addr) {
  const Cycles t0 = clock_;
  const FlushResult r = hier_->Clflushopt(addr, clock_);
  clock_ += std::max<Cycles>(r.cost, cpu_.flush_issue_cost);
  NoteRecentFlush(CacheLineBase(addr));
  const Cycles pre_track = clock_;
  if (r.wrote) {
    TrackPersist(CacheLineBase(addr), r.accepted_at, /*is_flush=*/true);
  }
  if (attribution_ != nullptr) {
    RecordPersistOp(AttributionCollector::kFlush, t0, clock_ - pre_track,
                    r.wrote ? r.accepted_at : 0);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kClflushopt, addr, 0, clock_);
  }
}

void ThreadContext::NtStoreLine(Addr addr, const void* data64) {
  // Data lands in the backing store before the iMC write so persist-path
  // observers (MemoryController::SetPersistWriteHook) capture the new bytes.
  const Addr line = CacheLineBase(addr);
  if (data64 != nullptr) {
    backing_->Write(line, data64, kCacheLineSize);
  }
  const Cycles t0 = clock_;
  hier_->InvalidateAll(line);
  const McWriteResult w = mc_->Write(line, clock_, node_);
  clock_ += cpu_.nt_store_issue_cost;
  const Cycles pre_track = clock_;
  TrackPersist(line, w.accepted_at, /*is_flush=*/false);
  if (attribution_ != nullptr) {
    RecordPersistOp(AttributionCollector::kNtStore, t0, clock_ - pre_track, w.accepted_at);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtStoreLine, addr, 0, clock_);
  }
}

void ThreadContext::NtStore64(Addr addr, uint64_t value) {
  // Timing is line-granular (write-combining buffers merge within the line).
  const Addr line = CacheLineBase(addr);
  backing_->WriteU64(addr, value);
  const Cycles t0 = clock_;
  hier_->InvalidateAll(line);
  const McWriteResult w = mc_->Write(line, clock_, node_);
  clock_ += cpu_.nt_store_issue_cost;
  const Cycles pre_track = clock_;
  TrackPersist(line, w.accepted_at, /*is_flush=*/false);
  if (attribution_ != nullptr) {
    RecordPersistOp(AttributionCollector::kNtStore, t0, clock_ - pre_track, w.accepted_at);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtStore64, addr, 0, clock_);
  }
}

void ThreadContext::NtWrite(Addr addr, const void* data, size_t len) {
  backing_->Write(addr, data, len);
  for (Addr line = CacheLineBase(addr); line < addr + len; line += kCacheLineSize) {
    const Cycles t0 = clock_;
    hier_->InvalidateAll(line);
    const McWriteResult w = mc_->Write(line, clock_, node_);
    clock_ += cpu_.nt_store_issue_cost;
    const Cycles pre_track = clock_;
    TrackPersist(line, w.accepted_at, /*is_flush=*/false);
    if (attribution_ != nullptr) {
      RecordPersistOp(AttributionCollector::kNtStore, t0, clock_ - pre_track, w.accepted_at);
    }
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kNtWrite, addr, len, clock_);
  }
}

void ThreadContext::FenceCommon(bool is_mfence) {
  const Cycles t0 = clock_;
  Cycles wait_until = clock_;
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    const Outstanding& o = outstanding_.at(i);
    wait_until = std::max(wait_until, o.accepted_at);
    if (is_mfence && o.is_flush) {
      // mfence orders younger loads after the flush's effects: any scheduled
      // invalidation becomes visible to them immediately.
      hier_->ForcePendingInvalidate(o.line);
    }
  }
  clock_ = wait_until + cpu_.fence_cost;
  outstanding_.clear();
  if (is_mfence) {
    recent_flush_count_ = 0;  // younger loads are ordered after the flushes
  }
  loads_ordered_ = is_mfence;
  if (attribution_ != nullptr) {
    // The wait for outstanding WPQ acceptances is where the asynchronous
    // persist delays become synchronous: the fence's wpq_wait stage.
    attribution_->RecordStage(AttributionCollector::kFence, clock_ - t0,
                              AttributionCollector::kWpqWait, wait_until - t0);
  }
  if (observer_ != nullptr) {
    observer_->OnFence(clock_);
  }
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, is_mfence ? TraceOp::kMfence : TraceOp::kSfence, 0, 0, clock_);
  }
}

void ThreadContext::Sfence() { FenceCommon(/*is_mfence=*/false); }

void ThreadContext::Mfence() { FenceCommon(/*is_mfence=*/true); }

void ThreadContext::StreamCopyXPLine(Addr pm_xpline, Addr dram_buffer) {
  const Addr base = XPLineBase(pm_xpline);
  uint8_t buf[kXPLineSize];
  for (uint64_t i = 0; i < kLinesPerXPLine; ++i) {
    // 512-bit load that bypasses prefetch training...
    (void)LoadInternal(base + i * kCacheLineSize, /*train=*/false);
    clock_ += cpu_.simd_copy_cost;
    // ...paired with a store into the DRAM-resident bounce buffer.
    const HierAccessResult r = hier_->Store(dram_buffer + i * kCacheLineSize, clock_);
    clock_ = r.complete_at;
  }
  backing_->Read(base, buf, kXPLineSize);
  backing_->Write(dram_buffer, buf, kXPLineSize);
  if (recorder_ != nullptr) {
    recorder_->Record(trace_tid_, TraceOp::kStreamCopy, pm_xpline, dram_buffer, clock_);
  }
}

void ThreadContext::ResetMicroarchState() {
  hier_->ClearPrivate();
  outstanding_.clear();
  recent_flush_count_ = 0;
  loads_ordered_ = false;
}

}  // namespace pmemsim
