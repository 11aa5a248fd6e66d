// google-benchmark microbenchmarks of the simulator's own hot paths (real
// wall-clock cost per simulated operation, not simulated cycles). Useful as a
// performance-regression harness for the simulator: the figure benches above
// issue hundreds of millions of these ops.

#include <benchmark/benchmark.h>

#include "src/core/platform.h"
#include "src/datastores/cceh.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

void BM_CachedLoad(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(4));
  ctx.Load64(region.base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Load64(region.base));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedLoad);

void BM_RandomMediaLoad(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(MiB(256));
  Rng rng(1);
  const uint64_t lines = region.size / kCacheLineSize;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Load64(region.base + rng.NextBelow(lines) * kCacheLineSize));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomMediaLoad);

void BM_PersistBarrier(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(1));
  uint64_t i = 0;
  const uint64_t lines = region.size / kCacheLineSize;
  for (auto _ : state) {
    const Addr a = region.base + (i++ % lines) * kCacheLineSize;
    ctx.Store64(a, i);
    ctx.Clwb(a);
    ctx.Sfence();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PersistBarrier);

void BM_NtStoreFence(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(1));
  uint64_t i = 0;
  const uint64_t lines = region.size / kCacheLineSize;
  for (auto _ : state) {
    ctx.NtStore64(region.base + (i % lines) * kCacheLineSize, i);
    ++i;
    ctx.Sfence();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NtStoreFence);

void BM_StreamCopyXPLine(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(16), kXPLineSize);
  const PmRegion bounce = system->AllocateDram(kXPLineSize, kXPLineSize);
  Rng rng(2);
  const uint64_t xplines = region.size / kXPLineSize;
  for (auto _ : state) {
    ctx.StreamCopyXPLine(region.base + rng.NextBelow(xplines) * kXPLineSize, bounce.base);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamCopyXPLine);

void BM_CcehInsert(benchmark::State& state) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  Cceh table(system.get(), ctx, 8, MemoryKind::kOptane);
  uint64_t key = 0;
  for (auto _ : state) {
    ++key;
    table.Insert(ctx, key, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CcehInsert);

}  // namespace

BENCHMARK_MAIN();
