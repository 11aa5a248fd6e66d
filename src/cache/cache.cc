#include "src/cache/cache.h"

#include <sys/mman.h>

#include "src/common/check.h"

namespace pmemsim {

namespace {

// A fresh anonymous mapping reads as zeros and takes no memory until a page
// is first touched, so sets a run never touches cost nothing and no up-front
// fill is needed. It is shared (shmem-backed) rather than private because
// most pages are first touched by a probe's read: a private page would map
// the zero page on that read and fault a second time on the first write,
// while a shmem page is allocated once. Shared also means a forked child
// would see these pages; the simulator never forks.
uint8_t* MapZeroed(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  PMEMSIM_CHECK(p != MAP_FAILED);
  return static_cast<uint8_t*>(p);
}

}  // namespace

void SetAssocCache::Unmap::operator()(void* p) const { munmap(p, bytes); }

SetAssocCache::SetAssocCache(const CacheLevelConfig& config) : config_(config) {
  PMEMSIM_CHECK(config.ways > 0);
  PMEMSIM_CHECK(config.ways <= 32);  // valid/ready/pending masks: one bit per way
  PMEMSIM_CHECK(config.size_bytes >= kCacheLineSize * config.ways);
  sets_ = static_cast<size_t>(config.size_bytes / (kCacheLineSize * config.ways));
  PMEMSIM_CHECK(sets_ > 0);
  // Cold entries are indexed by u32: at most two per way.
  PMEMSIM_CHECK(sets_ * config.ways < (size_t{1} << 31));
  set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
  if (set_mask_ != 0) {
    mod_mul_ = 0;
  } else {
    // ceil(2^64 / sets_): sets_ does not divide 2^64 here (not a power of
    // two), so floor((2^64 - 1) / sets_) + 1 is the ceiling. The multiply-
    // shift modulo in SetIndex is exact while the line number stays below
    // 2^64/sets_ - sets_; line numbers are bounded by the DRAM address space
    // top (~2^47 / 64 = 2^41), so cap the non-pow2 set count well under
    // 2^64 / 2^41 = 2^23 to keep a wide safety margin.
    PMEMSIM_CHECK(sets_ < (size_t{1} << 20));
    mod_mul_ = ~uint64_t{0} / sets_ + 1;
  }
  const uint32_t ways = config.ways;
  ways_mask_ = ways == 32 ? ~0u : (1u << ways) - 1u;
  top_rank_ = ways - 1;
  rank_words_ = (ways + 7) / 8;
  for (uint32_t j = 0; j < rank_words_; ++j) {
    const uint32_t lanes = std::min(8u, ways - 8 * j);
    rank_lanes_[j] = lanes == 8 ? kByteOnes : kByteOnes & ((uint64_t{1} << (8 * lanes)) - 1);
  }
  tag_offset_ = (sizeof(SetHead) + ways + 7) & ~size_t{7};
  stride_ = (tag_offset_ + ways * sizeof(Addr) + 63) & ~size_t{63};
  Clear();
}

SetAssocCache::InvalidateResult SetAssocCache::Invalidate(Addr line_addr) {
  // Invalidation is unconditional: even lines with scheduled (not yet due)
  // invalidations are found by the valid-way scan.
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  SetHead& h = Head(set);
  const Addr* tags = Tags(h);
  for (uint32_t m = h.valid; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      const InvalidateResult r{true, (tags[i] & kDirty) != 0};
      DropWay(set, h, i);
      return r;
    }
  }
  return {};
}

SetAssocCache::InvalidateResult SetAssocCache::WriteBack(Addr line_addr, Cycles invalidate_at,
                                                         bool retain) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  SetHead& h = Head(set);
  Addr* tags = Tags(h);
  for (uint32_t m = h.valid; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      const InvalidateResult r{true, (tags[i] & kDirty) != 0};
      tags[i] &= ~kDirty;
      if (!retain) {
        if (invalidate_at != 0) {
          SetColdTime(set, h, i, kPendingAt, invalidate_at);
        } else {
          DropPending(set, h, i);
        }
      }
      return r;
    }
  }
  return {};
}

bool SetAssocCache::ConsumePrefetchedFlag(Addr line_addr, Cycles now) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  const uint32_t i = FindWay(set, line, now);
  if (i == kNoWay) {
    return false;
  }
  Addr& tag = Tags(Head(set))[i];
  if ((tag & kPrefetched) == 0) {
    return false;
  }
  tag &= ~kPrefetched;
  return true;
}

void SetAssocCache::ApplyPendingInvalidate(Addr line_addr) {
  const Addr line = CacheLineBase(line_addr);
  const size_t set = SetIndex(line);
  SetHead& h = Head(set);
  const Addr* tags = Tags(h);
  for (uint32_t m = h.valid & h.pending; m != 0; m &= m - 1) {
    const uint32_t i = static_cast<uint32_t>(std::countr_zero(m));
    if (TagMatches(tags[i], line)) {
      DropWay(set, h, i);
      return;
    }
  }
}

void SetAssocCache::Clear() {
  // Fresh mappings rather than fills: the old pages go back to the kernel
  // and the new ones read as zeros (all ways invalid, all ranks 0, all
  // cold lists empty).
  blocks_ = {MapZeroed(sets_ * stride_), Unmap{sets_ * stride_}};
  cold_head_ = {reinterpret_cast<uint32_t*>(MapZeroed(sets_ * sizeof(uint32_t))),
                Unmap{sets_ * sizeof(uint32_t)}};
  cold_pool_ = {};
  cold_free_ = 0;
}

}  // namespace pmemsim
