// Set-associative write-back cache with LRU replacement and lazy, timed
// invalidation (used to model the window between a clwb retiring and its
// cache-side invalidation becoming visible to younger unordered loads on G1).
//
// Storage layout. Every simulated load probes (and every nt-store snoops)
// all ways of a set in each level, and most of those scans miss; at
// simulation scale the cost is host cache misses on the set state, not
// instructions. So each set is one contiguous 64 B-aligned hot block of
// whole host lines holding everything a probe, a touch and a fill read:
//
//   [valid | ready | pending]  three u32 way masks (bit i = way i)
//   [rank x ways]              one recency byte per way
//   [tag x ways]               u64: 64-aligned line tag | dirty/prefetched
//
// That is 128 B for the 11/12-way L3s and the 8/12-way L1s, and 192 B for
// the 16/20-way L2s (hot_bytes_per_set()). The valid mask drives every scan:
// probes, snoops and victim picks visit only occupied ways, and an nt-store
// stream snooping caches it never fills costs one mask load per level.
//
// Recency is exact LRU as a rank permutation: a touched way takes the top
// rank (ways - 1) and every way ranked above its old rank steps down one, so
// the least recently touched way holds rank 0. Ranks start at zero, and
// before every way has been touched the untouched ones share rank 0 below
// all touched ones — the victim, the first way of rank 0, is exactly the
// first way with the smallest touch tick of a timestamped LRU.
//
// Fill-ready times and scheduled invalidation times are cold: they live out
// of line, in per-set lists of pooled entries that exist exactly while the
// way's ready/pending bit is set. The demand path reads them only for those
// ways, and their size follows the live bits, not the way count. A way that
// drops out of the valid mask drops both bits with it.
//
// The block array is a fresh zero-filled anonymous mapping: sets a run never
// touches cost no memory, and Clear() hands every page back to the kernel.

#ifndef SRC_CACHE_CACHE_H_
#define SRC_CACHE_CACHE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/config.h"
#include "src/common/types.h"

namespace pmemsim {

struct EvictedLine {
  Addr line = 0;
  bool valid = false;
  bool dirty = false;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheLevelConfig& config);

  // Touches the line if present: updates LRU, optionally marks dirty.
  // Returns true on hit. Applies any due pending invalidation first.
  // `was_prefetched` (optional) reports whether this was the first demand
  // touch of a prefetched line (the flag is cleared by the touch).
  // `available_at` (optional) reports when the data is usable: an in-flight
  // prefetch fill hit is not ready before its memory access completes.
  bool Access(Addr line_addr, Cycles now, bool mark_dirty, bool* was_prefetched = nullptr,
              Cycles* available_at = nullptr);

  // Non-mutating presence check (honors pending invalidations).
  bool Probe(Addr line_addr, Cycles now) const;

  // Inserts the line, evicting the set's LRU way if needed. `ready_at` marks
  // when the fill's data arrives (prefetch fills are issued asynchronously).
  EvictedLine Insert(Addr line_addr, Cycles now, bool dirty, bool prefetched,
                     Cycles ready_at = 0);

  struct InvalidateResult {
    bool was_present = false;
    bool was_dirty = false;
  };

  // Immediate invalidation (clflush/clflushopt effect, nt-store snoop).
  InvalidateResult Invalidate(Addr line_addr);

  // clwb effect: clears dirty. If `retain` (G2) the line stays valid clean;
  // otherwise (G1) it is scheduled to invalidate at `invalidate_at`.
  InvalidateResult WriteBack(Addr line_addr, Cycles invalidate_at, bool retain);

  // If the line is present and was filled by a prefetch that has not been
  // demand-touched yet, clears the flag and returns true.
  bool ConsumePrefetchedFlag(Addr line_addr, Cycles now);

  // Applies a scheduled (pending) invalidation immediately, if one exists.
  // Used by mfence, which orders younger loads after the flush's effects.
  void ApplyPendingInvalidate(Addr line_addr);

  Cycles hit_latency() const { return config_.hit_latency; }
  size_t sets() const { return sets_; }
  uint32_t ways() const { return config_.ways; }
  // Host bytes of one set's hot block (masks, ranks, tags, padding).
  size_t hot_bytes_per_set() const { return stride_; }

  // Host-side hint: start fetching the set's hot block ahead of the
  // probe/insert that is about to scan it. No simulated effect — purely
  // overlaps the host memory latency of multi-level lookups.
  void PrefetchSet(Addr line_addr) const {
    const uint8_t* block = blocks_.get() + SetIndex(CacheLineBase(line_addr)) * stride_;
    for (size_t off = 0; off < stride_; off += 64) {
      __builtin_prefetch(block + off);
    }
  }

  void Clear();

 private:
  // Tag word: 64-aligned line tag | flags (line addresses leave the low 6
  // bits free). Validity lives in the set's valid mask only.
  static constexpr Addr kDirty = 1;
  static constexpr Addr kPrefetched = 2;
  static constexpr Addr kTagMask = ~Addr{63};

  static bool TagMatches(Addr tag, Addr line) { return (tag & kTagMask) == line; }

  // The head of a set's hot block; ranks follow it, then (8-aligned) tags.
  struct SetHead {
    uint32_t valid;    // way holds a line
    uint32_t ready;    // way has a fill-ready time in the set's cold list
    uint32_t pending;  // way has a scheduled invalidation in the cold list
  };

  size_t SetIndex(Addr line_addr) const {
    const uint64_t n = line_addr / kCacheLineSize;
    // Real set counts are usually powers of two; skip the hardware divide
    // when they are (it sits on every probe's address path otherwise).
    if (set_mask_ != 0) {
      return static_cast<size_t>(n & set_mask_);
    }
    // Non-pow2 (the G1/G2 L3s): division-free multiply-shift modulo.
    // With M = ceil(2^64 / d) precomputed, r = mulhi((M * n) mod 2^64, d)
    // equals n % d exactly while n < 2^64/d - d (proof sketch: write
    // n = q*d + r; then M*n mod 2^64 = q*e + M*r where e = M*d - 2^64 < d,
    // and mulhi of that by d is r + floor((q*e + r*e)/2^64)*... = r because
    // q*e + M*r stays below 2^64 under the bound). The constructor enforces
    // the bound for every address the simulator can produce.
    using U128 = unsigned __int128;
    const uint64_t frac = mod_mul_ * n;  // (M * n) mod 2^64
    return static_cast<size_t>(static_cast<uint64_t>((static_cast<U128>(frac) * sets_) >> 64));
  }

  SetHead& Head(size_t set) { return *reinterpret_cast<SetHead*>(blocks_.get() + set * stride_); }
  const SetHead& Head(size_t set) const {
    return *reinterpret_cast<const SetHead*>(blocks_.get() + set * stride_);
  }
  static uint8_t* Ranks(SetHead& h) { return reinterpret_cast<uint8_t*>(&h + 1); }
  static const uint8_t* Ranks(const SetHead& h) {
    return reinterpret_cast<const uint8_t*>(&h + 1);
  }
  Addr* Tags(SetHead& h) const {
    return reinterpret_cast<Addr*>(reinterpret_cast<uint8_t*>(&h) + tag_offset_);
  }
  const Addr* Tags(const SetHead& h) const {
    return reinterpret_cast<const Addr*>(reinterpret_cast<const uint8_t*>(&h) + tag_offset_);
  }

  // Rank bytes are updated eight at a time (SWAR); rank_lanes_[j] has 0x01
  // in each byte of word j that is a real way, so the padding and tag bytes
  // a word overlaps are read and written back unchanged.
  static constexpr uint64_t kByteOnes = 0x0101010101010101ull;
  static constexpr uint64_t kByteLow7 = 0x7f7f7f7f7f7f7f7full;

  // Makes `way` the most recently used.
  void Touch(SetHead& h, uint32_t way) const {
    uint8_t* rank = Ranks(h);
    const uint32_t r = rank[way];
    if (r == top_rank_) {
      return;
    }
    // Ranks are < 32, so (x | 0x80) - (r + 1) never borrows across bytes and
    // its byte high bits flag the ranks above r.
    const uint64_t above = kByteOnes * (r + 1);
    for (uint32_t j = 0; j < rank_words_; ++j) {
      uint64_t x;
      std::memcpy(&x, rank + 8 * j, 8);
      x -= (((x | (kByteOnes << 7)) - above) >> 7) & rank_lanes_[j];
      if (j == way / 8) {
        // The new top rank goes into the same 8-byte store: a byte store
        // here would stall the next touch's wide load of this word.
        const uint32_t shift = 8 * (way % 8);
        x = (x & ~(uint64_t{0xff} << shift)) | (uint64_t{top_rank_} << shift);
      }
      std::memcpy(rank + 8 * j, &x, 8);
    }
  }

  // The least recently used way: the first of rank 0 (the rank permutation
  // invariant guarantees one).
  uint32_t LruWay(const SetHead& h) const {
    const uint8_t* rank = Ranks(h);
    for (uint32_t j = 0; j < rank_words_; ++j) {
      uint64_t x;
      std::memcpy(&x, rank + 8 * j, 8);
      const uint64_t zero = ~(((x & kByteLow7) + kByteLow7) | x | kByteLow7);
      const uint64_t hit = zero & (rank_lanes_[j] << 7);
      if (hit != 0) {
        return 8 * j + static_cast<uint32_t>(std::countr_zero(hit)) / 8;
      }
    }
    PMEMSIM_DCHECK(false);
    return 0;
  }

  // Cold per-way times: one singly linked list per set, threaded through a
  // shared entry pool. An entry exists exactly while its way's ready/pending
  // bit is set and is recycled the moment the bit clears, so the pool tracks
  // the live bits and a set's list stays short. List heads are one u32 per
  // set in a lazily mapped array, read only when a bit is set.
  enum ColdKind : uint32_t { kReadyAt = 0, kPendingAt = 1 };
  struct ColdEntry {
    Cycles at;
    uint32_t next;  // pool index + 1 of the next entry; 0 ends the list
    uint32_t key;   // way << 1 | kind
  };
  Cycles ColdTime(size_t set, uint32_t way, ColdKind kind) const {
    const uint32_t key = way << 1 | kind;
    for (uint32_t e = cold_head_[set]; e != 0; e = cold_pool_[e - 1].next) {
      if (cold_pool_[e - 1].key == key) {
        return cold_pool_[e - 1].at;
      }
    }
    PMEMSIM_DCHECK(false);
    return 0;
  }
  // Ways whose scheduled invalidation has taken effect at `now`: one walk
  // of the set's list instead of one lookup per pending way.
  uint32_t DueWays(size_t set, Cycles now) const {
    uint32_t due = 0;
    for (uint32_t e = cold_head_[set]; e != 0; e = cold_pool_[e - 1].next) {
      const ColdEntry& c = cold_pool_[e - 1];
      if ((c.key & 1) == kPendingAt && now >= c.at) {
        due |= 1u << (c.key >> 1);
      }
    }
    return due;
  }
  // Sets the way's ready/pending bit (already set: overwrites the time).
  void SetColdTime(size_t set, SetHead& h, uint32_t way, ColdKind kind, Cycles at);
  // Clears the bit and recycles its entry; returns the time it held.
  Cycles DropColdTime(size_t set, SetHead& h, uint32_t way, ColdKind kind);
  void DropPending(size_t set, SetHead& h, uint32_t way) {
    if ((h.pending & (1u << way)) != 0) {
      DropColdTime(set, h, way, kPendingAt);
    }
  }
  void DropReady(size_t set, SetHead& h, uint32_t way) {
    if ((h.ready & (1u << way)) != 0) {
      DropColdTime(set, h, way, kReadyAt);
    }
  }
  // Empties the way; its cold times go with it.
  void DropWay(size_t set, SetHead& h, uint32_t way) {
    h.valid &= ~(1u << way);
    DropReady(set, h, way);
    DropPending(set, h, way);
  }
  // True iff the way (valid, pending) has reached its invalidation time.
  bool Expired(size_t set, const SetHead& h, uint32_t way, Cycles now) const {
    return (h.pending & (1u << way)) != 0 && now >= ColdTime(set, way, kPendingAt);
  }

  static constexpr uint32_t kNoWay = 32;
  // Returns the way holding the line or kNoWay, applying a due lazy
  // invalidation.
  uint32_t FindWay(size_t set, Addr line, Cycles now);
  uint32_t FindWayConst(size_t set, Addr line, Cycles now) const;

  struct Unmap {
    size_t bytes;
    void operator()(void* p) const;
  };

  CacheLevelConfig config_;
  size_t sets_;
  size_t stride_;        // hot block bytes per set: whole 64 B host lines
  size_t tag_offset_;    // tags' byte offset in the block
  uint64_t set_mask_;    // sets_ - 1 when sets_ is a power of two, else 0
  uint64_t mod_mul_;     // ceil(2^64 / sets_) when set_mask_ == 0, else 0
  uint32_t ways_mask_;   // low config_.ways bits set
  uint32_t top_rank_;    // config_.ways - 1
  uint32_t rank_words_;  // 8-byte words covering the rank bytes
  uint64_t rank_lanes_[4] = {};
  std::unique_ptr<uint8_t[], Unmap> blocks_;      // sets_ * stride_ bytes
  std::unique_ptr<uint32_t[], Unmap> cold_head_;  // per set: list head
  std::vector<ColdEntry> cold_pool_;
  uint32_t cold_free_ = 0;  // free-entry list through ColdEntry::next
};

// Inline definitions for the members on the per-access hot path (probe,
// touch, fill). They are called several times per simulated load — once per
// level — from other translation units; defining them here lets those call
// sites fold the set-index math and mask loads together instead of paying
// an opaque cross-TU call per level.

inline void SetAssocCache::SetColdTime(size_t set, SetHead& h, uint32_t way, ColdKind kind,
                                        Cycles at) {
  uint32_t& mask = kind == kReadyAt ? h.ready : h.pending;
  const uint32_t key = way << 1 | kind;
  if ((mask & (1u << way)) != 0) {
    for (uint32_t e = cold_head_[set];; e = cold_pool_[e - 1].next) {
      if (cold_pool_[e - 1].key == key) {
        cold_pool_[e - 1].at = at;
        return;
      }
    }
  }
  mask |= 1u << way;
  uint32_t e = cold_free_;
  if (e != 0) {
    cold_free_ = cold_pool_[e - 1].next;
  } else {
    cold_pool_.push_back({});
    e = static_cast<uint32_t>(cold_pool_.size());
  }
  cold_pool_[e - 1] = {at, cold_head_[set], key};
  cold_head_[set] = e;
}

inline Cycles SetAssocCache::DropColdTime(size_t set, SetHead& h, uint32_t way, ColdKind kind) {
  (kind == kReadyAt ? h.ready : h.pending) &= ~(1u << way);
  const uint32_t key = way << 1 | kind;
  for (uint32_t* link = &cold_head_[set]; *link != 0; link = &cold_pool_[*link - 1].next) {
    const uint32_t e = *link;
    if (cold_pool_[e - 1].key == key) {
      *link = cold_pool_[e - 1].next;
      cold_pool_[e - 1].next = cold_free_;
      cold_free_ = e;
      return cold_pool_[e - 1].at;
    }
  }
  PMEMSIM_DCHECK(false);
  return 0;
}

inline uint32_t SetAssocCache::FindWay(size_t set, Addr line, Cycles now) {
  SetHead& h = Head(set);
  const Addr* tags = Tags(h);
  for (uint32_t m = h.valid; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      if (Expired(set, h, i, now)) {
        DropWay(set, h, i);  // the scheduled invalidation has taken effect
        return kNoWay;
      }
      return i;
    }
  }
  return kNoWay;
}

inline uint32_t SetAssocCache::FindWayConst(size_t set, Addr line, Cycles now) const {
  const SetHead& h = Head(set);
  const Addr* tags = Tags(h);
  for (uint32_t m = h.valid; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      return Expired(set, h, i, now) ? kNoWay : i;
    }
  }
  return kNoWay;
}

inline bool SetAssocCache::Access(Addr line_addr, Cycles now, bool mark_dirty,
                                  bool* was_prefetched, Cycles* available_at) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const uint32_t i = FindWay(set, line, now);
  if (i == kNoWay) {
    if (was_prefetched != nullptr) {
      *was_prefetched = false;
    }
    return false;
  }
  SetHead& h = Head(set);
  Addr& tag = Tags(h)[i];
  Touch(h, i);
  if (mark_dirty) {
    tag |= kDirty;
    DropPending(set, h, i);  // a new store supersedes a scheduled clwb invalidation
  }
  if (was_prefetched != nullptr) {
    *was_prefetched = (tag & kPrefetched) != 0;
  }
  tag &= ~kPrefetched;
  Cycles ready = now;
  if ((h.ready & (1u << i)) != 0) {
    // Data is (or becomes) demand-visible now; the ready time is spent.
    ready = std::max(ready, DropColdTime(set, h, i, kReadyAt));
  }
  if (available_at != nullptr) {
    *available_at = ready;
  }
  return true;
}

inline bool SetAssocCache::Probe(Addr line_addr, Cycles now) const {
  const Addr line = CacheLineBase(line_addr);
  return FindWayConst(SetIndex(line), line, now) != kNoWay;
}

inline EvictedLine SetAssocCache::Insert(Addr line_addr, Cycles now, bool dirty, bool prefetched,
                                         Cycles ready_at) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  SetHead& h = Head(set);
  Addr* tags = Tags(h);

  // Already present: refresh in place.
  for (uint32_t m = h.valid; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      Touch(h, i);
      if (dirty) {
        tags[i] |= kDirty;
      }
      if (!prefetched) {
        tags[i] &= ~kPrefetched;
      }
      DropPending(set, h, i);
      return {};
    }
  }

  // Pick the first invalid-or-expired way in way order (expired pending
  // invalidations count as invalid and are dropped, not evicted), else the
  // LRU way.
  uint32_t free = ~h.valid & ways_mask_;
  if (h.pending != 0) {
    free |= DueWays(set, now);
  }
  EvictedLine evicted;
  uint32_t victim;
  if (free != 0) {
    victim = static_cast<uint32_t>(std::countr_zero(free));
  } else {
    victim = LruWay(h);
    evicted = {tags[victim] & kTagMask, true, (tags[victim] & kDirty) != 0};
  }
  DropWay(set, h, victim);

  tags[victim] = line | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0);
  h.valid |= 1u << victim;
  if (ready_at != 0) {
    SetColdTime(set, h, victim, kReadyAt, ready_at);
  }
  Touch(h, victim);
  return evicted;
}

}  // namespace pmemsim

#endif  // SRC_CACHE_CACHE_H_
