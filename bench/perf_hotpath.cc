// Engine-throughput harness (not a paper figure): measures how many simulated
// operations per wall-clock second the cycle-level engine sustains on the
// hot-path workload shapes — sequential loads, random loads over an
// AIT-overflowing working set, dependent pointer chasing, ntstore+fence
// streams, a mixed CCEH insert/lookup phase, and FAST&FAIR lookups recorded
// by a latency-attribution collector. The sweep scale of the figure grid is
// bounded by this number, so the harness writes a trajectory
// baseline (BENCH_hotpath.json at the repo root) that CI's perf-smoke job
// gates against scripts/check_perf.py with a generous regression margin.
//
// Output: CSV  workload,ops,wall_ms,sim_mops_per_sec,cycles_per_op
//
// Per-layer context goes into the JSON rows: simulated cycles, stall-cycle
// shares (RAP + WPQ), and the media/AIT traffic the ops generated — enough to
// see *where* simulated time and wall time go when the trajectory moves.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/datastores/cceh.h"
#include "src/datastores/chase_list.h"
#include "src/datastores/fast_fair.h"
#include "src/trace/attribution.h"
#include "src/trace/counters.h"

namespace {

using namespace pmemsim;

struct WorkloadResult {
  uint64_t ops = 0;
  double wall_sec = 0.0;
  Cycles sim_cycles = 0;
  Counters delta;
};

using WorkloadFn = std::function<WorkloadResult(uint64_t ops)>;

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sequential 64 B-strided loads over a read-buffer/L3-exceeding region.
WorkloadResult RunSeqLoad(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(16), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  for (uint64_t i = 0; i < ops; ++i) {
    ctx.Load64(region.base + (i % lines) * kCacheLineSize);
  }
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Uniform random loads over 64 MiB: past AIT coverage and L3, so nearly every
// op walks cache miss -> AIT -> media -> read-buffer fill.
WorkloadResult RunRandLoad(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(MiB(64), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;
  Rng rng(0x5EED0001);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  // Software-pipelined: the next address is known one op ahead (it only
  // depends on the RNG), so hint it before issuing the current load and the
  // host-side fetches of the next op's set blocks and page data overlap this
  // op's simulation work. The RNG sequence — and thus every simulated result
  // — is identical to the straight-line loop.
  Addr next = region.base + rng.NextBelow(lines) * kCacheLineSize;
  for (uint64_t i = 0; i < ops; ++i) {
    const Addr addr = next;
    next = region.base + rng.NextBelow(lines) * kCacheLineSize;
    ctx.HostPrefetchHint(next);
    ctx.Load64(addr);
  }
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Dependent pointer chase over a random-permutation circular list (Fig. 8's
// element shape): no MLP, every element is a full-latency round trip.
WorkloadResult RunChase(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  SetPrefetchers(ctx, false, false, false);
  const PmRegion region = system->AllocatePm(MiB(32), kXPLineSize);
  ChaseList list(system.get(), region, /*sequential=*/false, /*seed=*/0x5EED0002);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  list.TraverseRead(ctx, ops);
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Random partial nt-stores with an sfence every 4: the write-buffer /
// WPQ / media-write-port pipeline, WSS past the buffer knee.
WorkloadResult RunNtStore(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(MiB(1), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;
  Rng rng(0x5EED0003);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  for (uint64_t i = 0; i < ops; ++i) {
    ctx.NtStore64(region.base + rng.NextBelow(lines) * kCacheLineSize, i);
    if ((i & 3) == 3) {
      ctx.Sfence();
    }
  }
  ctx.Sfence();
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// Mixed CCEH phase: 1 insert : 3 lookups, uniform keys — the §4.1 index
// workload; exercises every layer at once (caches, buffers, AIT, WPQ).
WorkloadResult RunCcehMixed(uint64_t ops) {
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  Cceh table(system.get(), ctx, /*initial_depth=*/4, MemoryKind::kOptane);
  Rng rng(0x5EED0004);

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  uint64_t next_key = 1;
  for (uint64_t i = 0; i < ops; ++i) {
    if ((i & 3) == 0) {
      table.Insert(ctx, next_key++, i);
    } else {
      uint64_t value = 0;
      (void)table.Get(ctx, 1 + rng.NextBelow(next_key), &value);
    }
  }
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

// FAST&FAIR point lookups on a warm 20k-key tree with a latency-attribution
// collector installed, as every serve shard runs: nearly every load is an L1
// hit, so this floors the host cost of a recorded cache hit.
WorkloadResult RunTreeGet(uint64_t ops) {
  constexpr uint64_t kKeys = 20'000;
  auto system = MakeG1System(/*optane_dimm_count=*/1);
  ThreadContext& ctx = system->CreateThread();
  AttributionCollector attribution;
  system->SetAttribution(&attribution);
  FastFairTree tree(system.get(), ctx);
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    keys[k] = k + 1;
  }
  Rng rng(0x5EED0005);
  rng.Shuffle(keys);
  for (uint64_t k : keys) {
    tree.Insert(ctx, k, k * 3, BTreeUpdateMode::kInPlace);
  }
  uint64_t value = 0;
  for (uint64_t k : keys) {
    (void)tree.Get(ctx, k, &value);  // warm the caches
  }

  WorkloadResult r;
  CounterDelta delta(&system->counters());
  const Cycles start_cycles = ctx.clock();
  const double t0 = Now();
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t key = 1 + rng.NextBelow(kKeys);
    PMEMSIM_CHECK(tree.Get(ctx, key, &value) && value == key * 3);
  }
  r.wall_sec = Now() - t0;
  r.ops = ops;
  r.sim_cycles = ctx.clock() - start_cycles;
  r.delta = delta.Delta();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: perf_hotpath [--quick] [--ops_scale=<pct>] [--workload=<name>] [--reps=<n>]\n"
        "  --quick          1/16 of the default op counts (the CI perf-smoke mode)\n"
        "  --ops_scale=N    scale default op counts to N%% (overrides --quick)\n"
        "  --workload=name  run only one of: seq_load rand_load chase ntstore cceh_mixed\n"
        "                   tree_get\n"
        "  --reps=N         repetitions per workload (default 5), interleaved\n"
        "                   round-robin so ambient host load drifts across all\n"
        "                   workloads equally; reported throughput is the median\n"
        "  --stats_json defaults to BENCH_hotpath.json (pass --stats_json= to disable)\n%s",
        pmemsim_bench::kTelemetryFlagsHelp);
    return 0;
  }
  const bool quick = flags.Has("quick");
  const uint64_t ops_scale = flags.GetU64("ops_scale", quick ? 100 / 16 : 100);
  const uint64_t reps = std::max<uint64_t>(1, flags.GetU64("reps", 5));
  const std::string only = flags.Get("workload", "");
  pmemsim_bench::BenchReport report(flags, "perf_hotpath", "BENCH_hotpath.json");
  flags.RejectUnknown();

  struct Spec {
    const char* name;
    uint64_t default_ops;
    WorkloadFn fn;
  };
  const std::vector<Spec> specs = {
      {"seq_load", 4'000'000, RunSeqLoad},     {"rand_load", 2'000'000, RunRandLoad},
      {"chase", 1'000'000, RunChase},          {"ntstore", 2'000'000, RunNtStore},
      {"cceh_mixed", 1'000'000, RunCcehMixed}, {"tree_get", 1'000'000, RunTreeGet},
  };
  if (!only.empty()) {
    bool known = false;
    for (const Spec& s : specs) {
      known |= only == s.name;
    }
    if (!known) {
      pmemsim_bench::Flags::BadValue("workload", only, "a known workload name");
    }
  }

  pmemsim_bench::PrintHeader("perf_hotpath", "simulated-ops-per-wall-second engine throughput");
  std::printf("workload,ops,wall_ms,sim_mops_per_sec,cycles_per_op\n");
  int rc = 0;

  // Interleaved repetitions: run rep 0 of every workload, then rep 1, and so
  // on, so a host-load drift over the run biases every workload's sample set
  // the same way instead of landing wholly on the last workloads. Reported
  // wall time (and thus throughput) is the per-workload median; everything
  // simulated must be bit-identical across reps and is checked below.
  std::vector<std::vector<WorkloadResult>> samples(specs.size());
  for (uint64_t rep = 0; rep < reps; ++rep) {
    for (size_t si = 0; si < specs.size(); ++si) {
      if (!only.empty() && only != specs[si].name) {
        continue;
      }
      const uint64_t ops = std::max<uint64_t>(1, specs[si].default_ops * ops_scale / 100);
      samples[si].push_back(specs[si].fn(ops));
    }
  }

  for (size_t si = 0; si < specs.size(); ++si) {
    const Spec& spec = specs[si];
    if (samples[si].empty()) {
      continue;
    }
    const WorkloadResult& r = samples[si].front();
    bool bad = r.ops == 0;
    std::vector<double> walls;
    for (const WorkloadResult& s : samples[si]) {
      bad |= s.wall_sec <= 0.0;
      if (s.sim_cycles != r.sim_cycles) {
        std::fprintf(stderr, "error: workload %s is nondeterministic across reps (%llu vs %llu)\n",
                     spec.name, static_cast<unsigned long long>(s.sim_cycles),
                     static_cast<unsigned long long>(r.sim_cycles));
        bad = true;
      }
      walls.push_back(s.wall_sec);
    }
    if (bad) {
      std::fprintf(stderr, "error: workload %s measured nothing\n", spec.name);
      rc = 1;
      continue;
    }
    std::sort(walls.begin(), walls.end());
    const double wall_sec = walls.size() % 2 == 1
                                ? walls[walls.size() / 2]
                                : 0.5 * (walls[walls.size() / 2 - 1] + walls[walls.size() / 2]);
    const double mops = static_cast<double>(r.ops) / wall_sec / 1e6;
    const double cycles_per_op =
        static_cast<double>(r.sim_cycles) / static_cast<double>(r.ops);
    std::printf("%s,%llu,%.1f,%.3f,%.1f\n", spec.name, static_cast<unsigned long long>(r.ops),
                wall_sec * 1e3, mops, cycles_per_op);
    const double sim_cycles = static_cast<double>(r.sim_cycles);
    const double demand = static_cast<double>(r.delta.demand_loads + r.delta.demand_stores);
    report.AddRow()
        .Set("workload", spec.name)
        .Set("ops", r.ops)
        .Set("reps", reps)
        .Set("wall_ms", wall_sec * 1e3)
        .Set("sim_mops_per_sec", mops)
        .Set("sim_cycles", r.sim_cycles)
        .Set("cycles_per_op", cycles_per_op)
        .Set("rap_stall_share", sim_cycles > 0
                                    ? static_cast<double>(r.delta.rap_stall_cycles) / sim_cycles
                                    : 0.0)
        .Set("wpq_stall_share", sim_cycles > 0
                                    ? static_cast<double>(r.delta.wpq_stall_cycles) / sim_cycles
                                    : 0.0)
        .Set("loads_per_op", static_cast<double>(r.delta.demand_loads) / static_cast<double>(r.ops))
        .Set("l1_hit_ratio", demand > 0 ? static_cast<double>(r.delta.l1_hits) / demand : 0.0)
        .Set("media_read_bytes", r.delta.media_read_bytes)
        .Set("media_write_bytes", r.delta.media_write_bytes)
        .Set("ait_misses", r.delta.ait_misses)
        .Set("read_buffer_hit_ratio", r.delta.ReadBufferHitRatio())
        .Set("write_buffer_hit_ratio", r.delta.WriteBufferHitRatio());
  }
  const int finish_rc = report.Finish();
  return rc != 0 ? rc : finish_rc;
}
