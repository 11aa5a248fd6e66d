// Tests for the speculative helper-thread prefetcher beyond the integration
// coverage: SMT scaling lifecycle, skip-ahead when the helper falls behind,
// and the end-to-end effect on a CCEH worker. Also pins the cache prefetch
// engine's inline L1-hit training to its general demand path.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/cache/prefetcher.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/datastores/cceh.h"
#include "src/prefetch/helper_thread.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

TEST(HelperThreadTest, SmtScaleAppliedWhileActiveAndRestored) {
  auto system = MakeG1System(1);
  ThreadContext& worker = system->CreateThread();
  ThreadContext& helper = system->CreateThread();
  size_t n = 0;
  SpeculativeHelperPair pair(
      &worker, &helper, 5, [&](ThreadContext& c, size_t) { c.AddCompute(10); ++n; },
      [](ThreadContext& c, size_t) { c.AddCompute(1); }, HelperConfig{2, 1.5});
  EXPECT_DOUBLE_EQ(worker.smt_scale(), 1.5);
  EXPECT_DOUBLE_EQ(helper.smt_scale(), 1.5);
  std::vector<SimJob> jobs;
  pair.AppendJobs(jobs);
  Scheduler::Run(jobs);
  EXPECT_EQ(n, 5u);
  EXPECT_DOUBLE_EQ(worker.smt_scale(), 1.0);  // restored at completion
  EXPECT_DOUBLE_EQ(helper.smt_scale(), 1.0);
}

TEST(HelperThreadTest, HelperSkipsAheadWhenBehind) {
  auto system = MakeG1System(1);
  ThreadContext& worker = system->CreateThread();
  ThreadContext& helper = system->CreateThread();
  std::vector<size_t> prefetched;
  // Helper far slower than the worker: it must skip stale indices rather
  // than prefetch keys the worker already passed.
  SpeculativeHelperPair pair(
      &worker, &helper, 50, [](ThreadContext& c, size_t) { c.AddCompute(10); },
      [&](ThreadContext& c, size_t i) {
        c.AddCompute(500);
        prefetched.push_back(i);
      },
      HelperConfig{4, 1.0});
  std::vector<SimJob> jobs;
  pair.AppendJobs(jobs);
  Scheduler::Run(jobs);
  for (size_t i = 1; i < prefetched.size(); ++i) {
    EXPECT_GT(prefetched[i], prefetched[i - 1]);  // strictly forward
  }
  EXPECT_LT(prefetched.size(), 50u);  // it skipped
}

TEST(HelperThreadTest, PrefetchingWarmsWorkerReads) {
  // End-to-end: with a helper replaying the CCEH probe path, the worker's
  // demand misses to memory drop substantially.
  auto run = [](bool with_helper) {
    PlatformConfig cfg = G1Platform();
    cfg.cache.l3.size_bytes = MiB(3);
    cfg.cache.l3.ways = 12;
    auto system = std::make_unique<System>(cfg, 1);
    ThreadContext& init = system->CreateThread();
    Cceh table(system.get(), init, 6, MemoryKind::kOptane);
    const auto keys = MakeLoadKeys(60000, 5);
    ThreadContext& worker = system->CreateThread();
    std::vector<SimJob> jobs;
    size_t cursor = 0;
    std::unique_ptr<SpeculativeHelperPair> pair;
    if (with_helper) {
      ThreadContext& helper = system->CreateThread();
      pair = std::make_unique<SpeculativeHelperPair>(
          &worker, &helper, keys.size(),
          [&](ThreadContext& c, size_t i) { table.Insert(c, keys[i], 1); },
          [&](ThreadContext& c, size_t i) { table.PrefetchProbePath(c, keys[i]); },
          HelperConfig{8, 1.3});
      pair->AppendJobs(jobs);
    } else {
      jobs.push_back({&worker, [&]() {
                        if (cursor >= keys.size()) {
                          return StepResult::kDone;
                        }
                        table.Insert(worker, keys[cursor++], 1);
                        return StepResult::kProgress;
                      }});
    }
    Scheduler::Run(jobs);
    return worker.clock();
  };
  const Cycles baseline = run(false);
  const Cycles with_helper = run(true);
  EXPECT_LT(with_helper, baseline);
}

// Logs every fill a prefetch engine asks for.
class RecordingSink : public PrefetchSink {
 public:
  void PrefetchFill(Addr line_addr, Cycles now, bool into_l1) override {
    fills.emplace_back(line_addr, now, into_l1);
  }
  std::vector<std::tuple<Addr, Cycles, bool>> fills;
};

// TrainDcu stands in for OnDemandAccess on an L1 hit that is not the first
// touch of a prefetched line. With all three prefetchers on, a random demand
// stream fed through both paths must issue the same fills in the same order
// and leave the same detector state (probed by a second, identical stream).
TEST(PrefetchEngineTest, InlineL1HitTrainingMatchesDemandPath) {
  CacheConfig config = G1Platform().cache;
  config.adjacent_line_prefetch = true;
  config.dcu_streamer_prefetch = true;
  config.l2_stream_prefetch = true;
  RecordingSink inline_sink, reference_sink;
  PrefetchEngine inline_engine(config, &inline_sink, /*rng_seed=*/7);
  PrefetchEngine reference(config, &reference_sink, /*rng_seed=*/7);

  Rng rng(0x9F1E7C);
  Addr line = 0;
  uint64_t l1_hits = 0;
  for (Cycles now = 0; now < 50000; ++now) {
    // Ascending runs (the DCU and stream triggers), strides, and jumps
    // within a few pages, so every detector both fires and resets.
    switch (rng.NextBelow(4)) {
      case 0:
        line = rng.NextBelow(4 * kPageSize / kCacheLineSize) * kCacheLineSize;
        break;
      case 1:
        line += kCacheLineSize * (1 + rng.NextBelow(3));
        break;
      default:
        line += kCacheLineSize;
        break;
    }
    PrefetchEngine::DemandInfo info;
    info.line = line;
    info.now = now;
    info.l1_hit = rng.NextBelow(4) != 0;
    info.l2_hit = !info.l1_hit && rng.NextBelow(2) == 0;
    info.first_touch_prefetched = rng.NextBelow(8) == 0;
    if (info.l1_hit && !info.first_touch_prefetched) {
      inline_engine.TrainDcu(line, now);
      ++l1_hits;
    } else {
      inline_engine.OnDemandAccess(info);
    }
    reference.OnDemandAccess(info);
  }
  EXPECT_GT(l1_hits, 20000u);
  EXPECT_GT(reference_sink.fills.size(), 1000u);
  EXPECT_EQ(inline_sink.fills, reference_sink.fills);

  // Same detector state: an ascending continuation of the last line fires the
  // DCU streamer at once, and L2 misses retrain the stream table.
  inline_sink.fills.clear();
  reference_sink.fills.clear();
  for (int i = 1; i <= 64; ++i) {
    PrefetchEngine::DemandInfo info;
    info.line = line + static_cast<Addr>(i) * kCacheLineSize;
    info.now = 60000 + static_cast<Cycles>(i);
    inline_engine.OnDemandAccess(info);
    reference.OnDemandAccess(info);
  }
  ASSERT_FALSE(reference_sink.fills.empty());
  EXPECT_EQ(reference_sink.fills.front(),
            std::make_tuple(line + 2 * kCacheLineSize, Cycles{60001}, true));
  EXPECT_EQ(inline_sink.fills, reference_sink.fills);
}

}  // namespace
}  // namespace pmemsim
