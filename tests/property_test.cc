// Heavier randomized property suites: reference-model equivalence for the
// cache and backing store, whole-system determinism, and crash-point fuzzing
// of the redo log's atomicity contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>

#include "src/cache/cache.h"
#include "src/common/backing_store.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/datastores/cceh.h"
#include "src/persist/redo_log.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

// ---------- SetAssocCache vs a reference LRU model ----------

class ReferenceLru {
 public:
  ReferenceLru(size_t sets, size_t ways) : sets_(sets), ways_(ways), lists_(sets) {}

  bool Access(Addr line) {
    auto& lru = lists_[Index(line)];
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (*it == line) {
        lru.erase(it);
        lru.push_front(line);
        return true;
      }
    }
    return false;
  }

  void Insert(Addr line) {
    auto& lru = lists_[Index(line)];
    if (Access(line)) {
      return;
    }
    if (lru.size() >= ways_) {
      lru.pop_back();
    }
    lru.push_front(line);
  }

  void Invalidate(Addr line) {
    auto& lru = lists_[Index(line)];
    lru.remove(line);
  }

 private:
  size_t Index(Addr line) const { return static_cast<size_t>((line / kCacheLineSize) % sets_); }

  size_t sets_, ways_;
  std::vector<std::list<Addr>> lists_;
};

class CacheEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheEquivalence, MatchesReferenceLru) {
  const CacheLevelConfig cfg{KiB(8), 4, 4};  // 32 sets x 4 ways
  SetAssocCache cache(cfg);
  ReferenceLru ref(cache.sets(), cfg.ways);
  Rng rng(GetParam());
  Cycles now = 0;
  for (int i = 0; i < 50000; ++i) {
    const Addr line = rng.NextBelow(512) * kCacheLineSize;
    ++now;
    switch (rng.NextBelow(3)) {
      case 0: {
        const bool hit = cache.Access(line, now, false);
        ASSERT_EQ(hit, ref.Access(line)) << "op " << i;
        break;
      }
      case 1:
        cache.Insert(line, now, rng.NextBelow(2) == 0, false);
        ref.Insert(line);
        break;
      default:
        cache.Invalidate(line);
        ref.Invalidate(line);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalence, ::testing::Values(101u, 202u, 303u));

// ---------- SetAssocCache vs a timestamped array-of-structs model ----------
//
// The full contract: LRU by unique touch ticks (victim = first way with the
// smallest tick), fill-ready times, lazy clwb invalidation that takes effect
// at the first probe at or after its time, prefetched first-touch flags,
// dirty-victim reports and Clear(). Every field is stored per way, so this is
// the straightforward implementation the packed cache must equal bit for bit.

class ReferenceCache {
 public:
  ReferenceCache(size_t sets, uint32_t ways) : sets_(sets), ways_(ways), lines_(sets * ways) {}

  bool Access(Addr line, Cycles now, bool mark_dirty, bool* was_prefetched,
              Cycles* available_at) {
    Way* w = Find(line, now);
    if (w == nullptr) {
      *was_prefetched = false;
      return false;
    }
    w->lru = ++tick_;
    if (mark_dirty) {
      w->dirty = true;
      w->pending = false;
    }
    *was_prefetched = w->prefetched;
    *available_at = w->has_ready && w->ready_at > now ? w->ready_at : now;
    w->prefetched = false;
    w->has_ready = false;
    return true;
  }

  bool Probe(Addr line, Cycles now) const {
    for (const Way& w : Set(line)) {
      if (w.valid && w.tag == line) {
        return !(w.pending && now >= w.pending_at);
      }
    }
    return false;
  }

  EvictedLine Insert(Addr line, Cycles now, bool dirty, bool prefetched, Cycles ready_at) {
    std::span<Way> set = Set(line);
    for (Way& w : set) {
      if (w.valid && w.tag == line) {
        w.lru = ++tick_;
        w.dirty |= dirty;
        w.prefetched &= prefetched;
        w.pending = false;
        return {};
      }
    }
    Way* victim = nullptr;
    for (Way& w : set) {
      if (!w.valid || (w.pending && now >= w.pending_at)) {
        victim = &w;
        w.valid = false;
        break;
      }
    }
    if (victim == nullptr) {
      victim = &set[0];
      for (Way& w : set) {
        if (w.lru < victim->lru) {
          victim = &w;
        }
      }
    }
    EvictedLine evicted;
    if (victim->valid) {
      evicted = {victim->tag, true, victim->dirty};
    }
    *victim = Way{line, ++tick_, ready_at, 0, true, dirty, prefetched, ready_at != 0, false};
    return evicted;
  }

  SetAssocCache::InvalidateResult Invalidate(Addr line) {
    for (Way& w : Set(line)) {
      if (w.valid && w.tag == line) {
        SetAssocCache::InvalidateResult r{true, w.dirty};
        w.valid = w.dirty = w.pending = false;
        return r;
      }
    }
    return {};
  }

  SetAssocCache::InvalidateResult WriteBack(Addr line, Cycles invalidate_at, bool retain) {
    for (Way& w : Set(line)) {
      if (w.valid && w.tag == line) {
        SetAssocCache::InvalidateResult r{true, w.dirty};
        w.dirty = false;
        if (!retain) {
          w.pending = invalidate_at != 0;
          w.pending_at = invalidate_at;
        }
        return r;
      }
    }
    return {};
  }

  bool ConsumePrefetchedFlag(Addr line, Cycles now) {
    Way* w = Find(line, now);
    if (w == nullptr || !w->prefetched) {
      return false;
    }
    w->prefetched = false;
    return true;
  }

  void ApplyPendingInvalidate(Addr line) {
    for (Way& w : Set(line)) {
      if (w.valid && w.pending && w.tag == line) {
        w.valid = w.dirty = w.pending = false;
        return;
      }
    }
  }

  void Clear() { lines_.assign(lines_.size(), Way{}); }  // the tick keeps counting

 private:
  struct Way {
    Addr tag = 0;
    uint64_t lru = 0;
    Cycles ready_at = 0;
    Cycles pending_at = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
    bool has_ready = false;
    bool pending = false;
  };

  std::span<Way> Set(Addr line) {
    return {lines_.data() + (line / kCacheLineSize) % sets_ * ways_, ways_};
  }
  std::span<const Way> Set(Addr line) const {
    return {lines_.data() + (line / kCacheLineSize) % sets_ * ways_, ways_};
  }

  // Applies a due pending invalidation, like every mutating probe does.
  Way* Find(Addr line, Cycles now) {
    for (Way& w : Set(line)) {
      if (w.valid && w.tag == line) {
        if (w.pending && now >= w.pending_at) {
          w.valid = false;
          return nullptr;
        }
        return &w;
      }
    }
    return nullptr;
  }

  size_t sets_;
  uint32_t ways_;
  std::vector<Way> lines_;
  uint64_t tick_ = 0;
};

struct CacheFuzzCase {
  const char* name;
  CacheLevelConfig config;
};

class CacheModelEquivalence
    : public ::testing::TestWithParam<std::tuple<CacheFuzzCase, uint64_t>> {};

TEST_P(CacheModelEquivalence, MatchesTimestampedModel) {
  const auto& [fuzz_case, seed] = GetParam();
  SetAssocCache cache(fuzz_case.config);
  const uint32_t ways = cache.ways();
  ReferenceCache ref(cache.sets(), ways);
  Rng rng(seed);

  // Lines crowd a few sets (about twice the associativity each) so the big
  // geometries evict too; the high tag bits exercise the non-power-of-two
  // set-index reduction far from zero.
  const uint64_t sets = cache.sets();
  const uint64_t hot_sets = std::min<uint64_t>(sets, 3);
  const uint64_t first_set = rng.NextBelow(sets);
  const uint64_t tag_base = rng.NextBelow(uint64_t{1} << 24);
  auto pick_line = [&]() -> Addr {
    const uint64_t set = (first_set + rng.NextBelow(hot_sets)) % sets;
    const uint64_t tag = tag_base + rng.NextBelow(2 * ways + 1);
    return (tag * sets + set) * kCacheLineSize;
  };

  Cycles now = 1000;
  for (int i = 0; i < 40000; ++i) {
    const Addr line = pick_line() + rng.NextBelow(kCacheLineSize);  // any byte of the line
    const Addr base = CacheLineBase(line);
    // Callers are threads with their own clocks: mostly forward, sometimes
    // a probe from behind.
    now += rng.NextBelow(40);
    const Cycles at = rng.NextBelow(8) == 0 ? now - std::min<Cycles>(now, rng.NextBelow(500)) : now;
    const uint64_t op = rng.NextBelow(100);
    if (op < 30) {
      const bool dirty = rng.NextBelow(4) == 0;
      bool pf = true;
      bool ref_pf = true;
      Cycles avail = 7;
      Cycles ref_avail = 7;
      const bool hit = cache.Access(line, at, dirty, &pf, &avail);
      ASSERT_EQ(hit, ref.Access(base, at, dirty, &ref_pf, &ref_avail)) << "op " << i;
      ASSERT_EQ(pf, ref_pf) << "op " << i;
      ASSERT_EQ(avail, ref_avail) << "op " << i;
    } else if (op < 38) {
      ASSERT_EQ(cache.Probe(line, at), ref.Probe(base, at)) << "op " << i;
    } else if (op < 68) {
      const bool dirty = rng.NextBelow(3) == 0;
      const bool prefetched = rng.NextBelow(3) == 0;
      const Cycles ready_at = rng.NextBelow(2) == 0 ? 0 : at + rng.NextBelow(600);
      const EvictedLine got = cache.Insert(line, at, dirty, prefetched, ready_at);
      const EvictedLine want = ref.Insert(base, at, dirty, prefetched, ready_at);
      ASSERT_EQ(got.valid, want.valid) << "op " << i;
      ASSERT_EQ(got.line, want.line) << "op " << i;
      ASSERT_EQ(got.dirty, want.dirty) << "op " << i;
    } else if (op < 74) {
      const auto got = cache.Invalidate(line);
      const auto want = ref.Invalidate(base);
      ASSERT_EQ(got.was_present, want.was_present) << "op " << i;
      ASSERT_EQ(got.was_dirty, want.was_dirty) << "op " << i;
    } else if (op < 88) {
      const bool retain = rng.NextBelow(3) == 0;
      const Cycles invalidate_at = rng.NextBelow(6) == 0 ? 0 : at + rng.NextBelow(400);
      const auto got = cache.WriteBack(line, invalidate_at, retain);
      const auto want = ref.WriteBack(base, invalidate_at, retain);
      ASSERT_EQ(got.was_present, want.was_present) << "op " << i;
      ASSERT_EQ(got.was_dirty, want.was_dirty) << "op " << i;
    } else if (op < 94) {
      ASSERT_EQ(cache.ConsumePrefetchedFlag(line, at), ref.ConsumePrefetchedFlag(base, at))
          << "op " << i;
    } else if (op < 99 || rng.NextBelow(20) != 0) {
      cache.ApplyPendingInvalidate(line);
      ref.ApplyPendingInvalidate(base);
    } else {
      cache.Clear();
      ref.Clear();
    }
  }
}

// The G1/G2 L1/L2/L3 presets (power-of-two and non-power-of-two set counts),
// plus small non-power-of-two geometries at the 11/12/16/20/32 way counts.
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelEquivalence,
    ::testing::Combine(
        ::testing::Values(CacheFuzzCase{"g1_l1", G1Platform().cache.l1},
                          CacheFuzzCase{"g1_l2", G1Platform().cache.l2},
                          CacheFuzzCase{"g1_l3", G1Platform().cache.l3},
                          CacheFuzzCase{"g2_l1", G2Platform().cache.l1},
                          CacheFuzzCase{"g2_l2", G2Platform().cache.l2},
                          CacheFuzzCase{"g2_l3", G2Platform().cache.l3},
                          CacheFuzzCase{"s7_w11", {7 * 11 * kCacheLineSize, 11, 4}},
                          CacheFuzzCase{"s5_w12", {5 * 12 * kCacheLineSize, 12, 4}},
                          CacheFuzzCase{"s3_w16", {3 * 16 * kCacheLineSize, 16, 4}},
                          CacheFuzzCase{"s6_w20", {6 * 20 * kCacheLineSize, 20, 4}},
                          CacheFuzzCase{"s3_w32", {3 * 32 * kCacheLineSize, 32, 4}},
                          CacheFuzzCase{"s1_w1", {kCacheLineSize, 1, 4}}),
        ::testing::Values(11u, 12u)),
    [](const ::testing::TestParamInfo<CacheModelEquivalence::ParamType>& p) {
      return std::string(std::get<0>(p.param).name) + "_seed" +
             std::to_string(std::get<1>(p.param));
    });

// ---------- BackingStore vs a reference byte map ----------

class BackingStoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackingStoreFuzz, MatchesReferenceBytes) {
  BackingStore bs;
  std::map<Addr, uint8_t> ref;
  Rng rng(GetParam());
  const Addr span = 4 * kPageSize;
  for (int i = 0; i < 4000; ++i) {
    const Addr addr = rng.NextBelow(span);
    const size_t len = 1 + rng.NextBelow(200);
    if (rng.NextBelow(3) != 0) {
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      bs.Write(addr, data.data(), len);
      for (size_t k = 0; k < len; ++k) {
        ref[addr + k] = data[k];
      }
    } else {
      std::vector<uint8_t> out(len);
      bs.Read(addr, out.data(), len);
      for (size_t k = 0; k < len; ++k) {
        const auto it = ref.find(addr + k);
        const uint8_t expected = it == ref.end() ? 0 : it->second;
        ASSERT_EQ(out[k], expected) << "addr " << addr + k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackingStoreFuzz, ::testing::Values(7u, 8u));

// ---------- Whole-system determinism ----------

TEST(Determinism, IdenticalRunsProduceIdenticalClocksAndCounters) {
  auto run = [] {
    auto system = MakeG1System(2);
    ThreadContext& ctx = system->CreateThread();
    Cceh table(system.get(), ctx, 4, MemoryKind::kOptane);
    const auto keys = MakeLoadKeys(20000, 1234);
    for (const uint64_t k : keys) {
      table.Insert(ctx, k, k);
    }
    return std::make_pair(ctx.clock(), system->counters().media_write_bytes);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------- RedoLog crash-point fuzz: group atomicity ----------

class RedoCrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedoCrashFuzz, GroupsAreAllOrNothing) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    auto system = MakeG1System(1);
    ThreadContext& ctx = system->CreateThread();
    const PmRegion data = system->AllocatePm(KiB(4));
    const PmRegion log_region = system->AllocatePm(KiB(4));

    // Each group writes a distinct marker value to a set of slots; a crash is
    // injected after a random number of protocol steps.
    const uint64_t groups = 1 + rng.NextBelow(5);
    const uint64_t crash_step = rng.NextBelow(groups * 3 + 1);
    std::vector<bool> committed(groups, false);
    uint64_t step = 0;
    bool crashed = false;
    {
      RedoLog log(system.get(), log_region);
      for (uint64_t g = 0; g < groups && !crashed; ++g) {
        const uint64_t slots = 1 + rng.NextBelow(4);
        for (uint64_t s2 = 0; s2 < slots && !crashed; ++s2) {
          const uint64_t value = (g + 1) * 1000 + s2;
          log.LogUpdate(ctx, data.base + (g * 8 + s2) * 64, &value, sizeof(value));
          crashed = ++step == crash_step;
        }
        if (crashed) {
          break;
        }
        log.Commit(ctx);
        committed[g] = true;
        crashed = ++step == crash_step;
        if (crashed) {
          break;
        }
        log.Apply(ctx);
        crashed = ++step == crash_step;
      }
    }

    RedoLog recovered(system.get(), log_region);
    recovered.Recover(ctx);
    for (uint64_t g = 0; g < groups; ++g) {
      const uint64_t first_slot_value = ctx.Load64(data.base + g * 8 * 64);
      if (committed[g]) {
        EXPECT_EQ(first_slot_value, (g + 1) * 1000) << "trial " << trial << " group " << g;
      } else {
        // Never committed: either untouched (0) — it must NOT be partially
        // applied with garbage (values always match the marker scheme if set).
        if (first_slot_value != 0) {
          EXPECT_EQ(first_slot_value, (g + 1) * 1000);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedoCrashFuzz, ::testing::Values(41u, 42u, 43u, 44u));

// ---------- CCEH under mixed insert/erase/get churn ----------

TEST(CcehChurn, StaysConsistentUnderMixedOps) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  Cceh table(system.get(), ctx, 4, MemoryKind::kOptane);
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(555);
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = 1 + rng.NextBelow(3000);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.Next() | 1;
        table.Insert(ctx, key, value);
        ref[key] = value;
        break;
      }
      case 2: {
        const bool erased = table.Erase(ctx, key);
        EXPECT_EQ(erased, ref.erase(key) > 0) << "key " << key;
        break;
      }
      default: {
        uint64_t v = 0;
        const bool found = table.Get(ctx, key, &v);
        const auto it = ref.find(key);
        ASSERT_EQ(found, it != ref.end()) << "key " << key;
        if (found) {
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(table.size(), ref.size());
}

}  // namespace
}  // namespace pmemsim
