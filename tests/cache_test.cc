// Tests for the CPU cache model: set-associative behavior, LRU, flush
// semantics (G1 invalidate vs G2 retain), timed pending invalidation,
// prefetch fill arrival, and the three prefetcher trigger rules.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache/cache.h"
#include "src/cache/hierarchy.h"
#include "src/cache/prefetcher.h"
#include "src/common/config.h"
#include "src/imc/memory_controller.h"

namespace pmemsim {
namespace {

CacheLevelConfig SmallCache() { return {KiB(4), 4, 4}; }  // 16 sets x 4 ways

TEST(SetAssocCacheTest, MissThenHit) {
  SetAssocCache cache(SmallCache());
  EXPECT_FALSE(cache.Access(0, 0, false));
  cache.Insert(0, 0, false, false);
  EXPECT_TRUE(cache.Access(0, 1, false));
}

TEST(SetAssocCacheTest, LruEvictionWithinSet) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;  // same set
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(i * stride, 0, false, false);
  }
  cache.Access(0, 10, false);  // refresh way 0
  const EvictedLine e = cache.Insert(4 * stride, 11, false, false);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.line, 1 * stride);  // LRU victim, not the refreshed one
  EXPECT_TRUE(cache.Probe(0, 12));
}

TEST(SetAssocCacheTest, DirtyEvictionReported) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;
  cache.Insert(0, 0, /*dirty=*/true, false);
  for (uint64_t i = 1; i <= 4; ++i) {
    const EvictedLine e = cache.Insert(i * stride, static_cast<Cycles>(i), false, false);
    if (e.valid && e.line == 0) {
      EXPECT_TRUE(e.dirty);
      return;
    }
  }
  FAIL() << "dirty line never evicted";
}

TEST(SetAssocCacheTest, InvalidateReturnsDirtiness) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, true, false);
  const auto r = cache.Invalidate(0);
  EXPECT_TRUE(r.was_present);
  EXPECT_TRUE(r.was_dirty);
  EXPECT_FALSE(cache.Probe(0, 1));
}

TEST(SetAssocCacheTest, WriteBackRetainKeepsLineClean) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, true, false);
  const auto r = cache.WriteBack(0, /*invalidate_at=*/1000, /*retain=*/true);
  EXPECT_TRUE(r.was_dirty);
  EXPECT_TRUE(cache.Probe(0, 100000));  // stays valid forever (G2 clwb)
  const auto r2 = cache.WriteBack(0, 2000, true);
  EXPECT_FALSE(r2.was_dirty);  // now clean
}

TEST(SetAssocCacheTest, TimedPendingInvalidation) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, true, false);
  cache.WriteBack(0, /*invalidate_at=*/1000, /*retain=*/false);
  EXPECT_TRUE(cache.Probe(0, 999));    // still visible inside the window
  EXPECT_FALSE(cache.Probe(0, 1000));  // gone at the deadline
}

TEST(SetAssocCacheTest, StoreCancelsPendingInvalidation) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, true, false);
  cache.WriteBack(0, 1000, false);
  EXPECT_TRUE(cache.Access(0, 500, /*mark_dirty=*/true));  // re-store
  EXPECT_TRUE(cache.Probe(0, 5000));                        // invalidation gone
}

TEST(SetAssocCacheTest, ApplyPendingInvalidateIsImmediate) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, true, false);
  cache.WriteBack(0, 100000, false);
  cache.ApplyPendingInvalidate(0);  // mfence ordering
  EXPECT_FALSE(cache.Probe(0, 1));
}

TEST(SetAssocCacheTest, PrefetchedFirstTouchFlag) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, false, /*prefetched=*/true);
  bool was_prefetched = false;
  EXPECT_TRUE(cache.Access(0, 1, false, &was_prefetched));
  EXPECT_TRUE(was_prefetched);
  EXPECT_TRUE(cache.Access(0, 2, false, &was_prefetched));
  EXPECT_FALSE(was_prefetched);  // cleared by the first touch
}

TEST(SetAssocCacheTest, FillReadyAtDelaysAvailability) {
  SetAssocCache cache(SmallCache());
  cache.Insert(0, 0, false, true, /*ready_at=*/500);
  Cycles avail = 0;
  EXPECT_TRUE(cache.Access(0, 100, false, nullptr, &avail));
  EXPECT_EQ(avail, 500u);
  // Ready time is consumed by the first access.
  EXPECT_TRUE(cache.Access(0, 600, false, nullptr, &avail));
  EXPECT_EQ(avail, 600u);
}

// Every probe and fill reads a set's hot block, so its size is a host-speed
// budget: a new per-way field must not silently grow it past these lines.
TEST(SetAssocCacheTest, HotBlockFitsHostLineBudget) {
  for (const PlatformConfig& p : {G1Platform(), G2Platform()}) {
    SCOPED_TRACE(p.name);
    EXPECT_LE(SetAssocCache(p.cache.l1).hot_bytes_per_set(), 128u);
    EXPECT_LE(SetAssocCache(p.cache.l2).hot_bytes_per_set(), 192u);
    EXPECT_LE(SetAssocCache(p.cache.l3).hot_bytes_per_set(), 128u);
  }
  // Whole host lines at any associativity.
  for (const uint32_t ways : {1u, 8u, 11u, 20u, 32u}) {
    EXPECT_EQ(SetAssocCache({64 * ways * kCacheLineSize, ways, 4}).hot_bytes_per_set() % 64, 0u);
  }
}

TEST(SetAssocCacheTest, ClearEmptiesEveryWayAndPendingTime) {
  SetAssocCache cache(SmallCache());
  const uint64_t stride = cache.sets() * kCacheLineSize;
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(i * stride, i, /*dirty=*/true, false, /*ready_at=*/1000);
  }
  cache.WriteBack(0, /*invalidate_at=*/50, /*retain=*/false);
  cache.Clear();
  EXPECT_FALSE(cache.Probe(0, 0));
  // After Clear the set fills its ways in order again with nothing to evict,
  // and no stale ready or invalidation time resurfaces.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(cache.Insert((i + 8) * stride, 100, false, false).valid);
  }
  Cycles avail = 0;
  EXPECT_TRUE(cache.Access(8 * stride, 200, false, nullptr, &avail));
  EXPECT_EQ(avail, 200u);
  EXPECT_TRUE(cache.Probe(8 * stride, 10000));
}

// ---------- Hierarchy + prefetchers ----------

struct HierFixture {
  Counters counters;
  PlatformConfig platform = G1Platform();
  std::unique_ptr<MemoryController> mc;
  std::unique_ptr<SetAssocCache> l3;
  std::unique_ptr<CacheHierarchy> hier;

  explicit HierFixture(bool g2 = false) {
    platform = g2 ? G2Platform() : G1Platform();
    mc = std::make_unique<MemoryController>(platform, &counters, 1);
    l3 = std::make_unique<SetAssocCache>(platform.cache.l3);
    hier = std::make_unique<CacheHierarchy>(platform.cache, l3.get(), mc.get(), &counters, 0);
    hier->prefetch_engine().SetEnabled(false, false, false);
  }
};

TEST(HierarchyTest, MissFillsAllLevels) {
  HierFixture f;
  const HierAccessResult r = f.hier->Load(0, 1000, false);
  EXPECT_EQ(r.hit_level, 0);
  EXPECT_TRUE(f.hier->l1().Probe(0, 2000));
  EXPECT_TRUE(f.hier->l2().Probe(0, 2000));
  EXPECT_TRUE(f.l3->Probe(0, 2000));
  const HierAccessResult r2 = f.hier->Load(0, 3000, false);
  EXPECT_EQ(r2.hit_level, 1);
  EXPECT_EQ(r2.complete_at, 3000 + f.platform.cache.l1.hit_latency);
}

TEST(HierarchyTest, StoreMakesDirtyAndClwbWritesBack) {
  HierFixture f;
  f.hier->Store(0, 1000);
  const FlushResult flush = f.hier->Clwb(0, 2000);
  EXPECT_TRUE(flush.wrote);
  EXPECT_GT(flush.accepted_at, 2000u);
  EXPECT_EQ(f.counters.imc_write_bytes, kCacheLineSize);
  // Second clwb: line now clean, nothing written.
  const FlushResult again = f.hier->Clwb(0, 3000);
  EXPECT_FALSE(again.wrote);
}

TEST(HierarchyTest, CleanFlushSendsNothing) {
  HierFixture f;
  f.hier->Load(0, 1000, false);
  EXPECT_FALSE(f.hier->Clflushopt(0, 2000).wrote);
  EXPECT_EQ(f.counters.imc_write_bytes, 0u);
}

TEST(HierarchyTest, G1ClwbEventuallyInvalidates) {
  HierFixture f;
  f.hier->Store(0, 1000);
  f.hier->Clwb(0, 2000);
  EXPECT_TRUE(f.hier->ProbeAny(0, 2100));  // within the dispatch window
  EXPECT_FALSE(f.hier->ProbeAny(0, 2000 + f.platform.cache.clwb_dispatch_delay));
}

TEST(HierarchyTest, G2ClwbRetains) {
  HierFixture f(/*g2=*/true);
  f.hier->Store(0, 1000);
  f.hier->Clwb(0, 2000);
  EXPECT_TRUE(f.hier->ProbeAny(0, 1000000));
}

TEST(HierarchyTest, DirtyL3EvictionEntersPersistPath) {
  HierFixture f;
  // Dirty a line, then force it out of all levels by filling its sets.
  f.hier->Store(0, 1000);
  const uint64_t l1_stride = f.hier->l1().sets() * kCacheLineSize;
  // Evict from L1/L2 by conflict; lines land dirty in lower levels and the
  // L3 eviction finally writes to the iMC. The stride aliases the same set at
  // every level, so enough fills push the dirty line all the way out.
  const uint64_t l3_stride = f.l3->sets() * kCacheLineSize;
  (void)l1_stride;
  for (uint64_t i = 1; i <= 3 * (f.platform.cache.l3.ways + f.platform.cache.l2.ways); ++i) {
    f.hier->Load(i * l3_stride, 1000 + i * 10, false);
  }
  EXPECT_GE(f.counters.imc_write_bytes, kCacheLineSize);
}

TEST(PrefetcherTest, AdjacentTriggersOnL2Miss) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.hier->Load(0, 1000, false);
  EXPECT_EQ(f.counters.prefetch_requests, 1u);
  EXPECT_TRUE(f.hier->l2().Probe(kCacheLineSize, 2000));
  EXPECT_FALSE(f.hier->l1().Probe(kCacheLineSize, 2000));  // L2 prefetcher
}

TEST(PrefetcherTest, AdjacentTriggersOnPrefetchedFirstTouch) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.hier->Load(0, 1000, false);          // prefetches line 1
  f.hier->Load(kCacheLineSize, 2000, false);  // first touch -> prefetches line 2
  EXPECT_EQ(f.counters.prefetch_requests, 2u);
  EXPECT_TRUE(f.hier->l2().Probe(2 * kCacheLineSize, 3000));
}

TEST(PrefetcherTest, DcuTriggersOnAscendingPair) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, true, false);
  f.hier->Load(0, 1000, false);
  EXPECT_EQ(f.counters.prefetch_requests, 0u);
  f.hier->Load(kCacheLineSize, 2000, false);  // ascending pair
  EXPECT_EQ(f.counters.prefetch_requests, 1u);
  EXPECT_TRUE(f.hier->l1().Probe(2 * kCacheLineSize, 3000));  // DCU fills L1
}

TEST(PrefetcherTest, DcuIgnoresNonAdjacent) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, true, false);
  f.hier->Load(0, 1000, false);
  f.hier->Load(10 * kCacheLineSize, 2000, false);
  EXPECT_EQ(f.counters.prefetch_requests, 0u);
}

TEST(PrefetcherTest, StreamLocksOnConstantStride) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, false, true);
  // Long 256 B-stride run: the stochastic lock arbitration must engage well
  // within 64 in-stride accesses (P(miss) ~ 0.6^20).
  for (uint64_t i = 0; i < 64; ++i) {
    f.hier->Load(i * kXPLineSize, 1000 + i * 100, false);
  }
  EXPECT_GT(f.counters.prefetch_requests, 0u);
}

TEST(PrefetcherTest, StreamIgnoresRandomAccesses) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(false, false, true);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    f.hier->Load(rng.NextBelow(1u << 20) * kCacheLineSize * 7, 1000 + i * 100, false);
  }
  EXPECT_EQ(f.counters.prefetch_requests, 0u);
}

TEST(PrefetcherTest, PrefetchFillsDoNotCascade) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, true, true);
  f.hier->Load(0, 1000, false);
  // Bounded prefetching from a single demand access.
  EXPECT_LE(f.counters.prefetch_requests, 3u);
}

TEST(PrefetcherTest, PrefetchedLineArrivesLater) {
  HierFixture f;
  f.hier->prefetch_engine().SetEnabled(true, false, false);
  f.hier->Load(0, 1000, false);  // issues prefetch of line 1 at ~1000
  // An immediate demand hit on the prefetched line waits for its fill.
  const HierAccessResult r = f.hier->Load(kCacheLineSize, 1001, false);
  EXPECT_EQ(r.hit_level, 2);
  EXPECT_GT(r.complete_at, 1001 + f.platform.cache.l2.hit_latency);
}

}  // namespace
}  // namespace pmemsim
