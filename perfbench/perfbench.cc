// pmemsim_perfbench: runs one workload of the repository benchmark through
// pmemsim's public API and prints one JSON object describing every rep.
//
//   pmemsim_perfbench --workload=<media_read|kv_serve_shared|kv_serve_partitioned>
//                     --seed=<n> --seconds=<s> --trace=<0|1> [--scale=full|tiny]
//                     [--spans_out=<path>]
//
// A rep is one fixed, fully deterministic simulation (fresh System, fixed
// inputs); the process repeats reps until `--seconds` of host time have
// passed (at least kMinReps), so the simulated results of every rep must be
// identical and the host times form a sample. perfbench/run.py turns the
// reps into the benchmark's metrics and checks them against the goldens;
// perfbench/NOTES.md explains the workloads and the metrics.
//
// Host phases are timed with steady_clock. With --trace=1 the process also
// runs one traced rep and replays the workload's line streams into
// standalone instances of the layer classes, timing the calls from outside;
// spans (name, start, end, parent) are kept in memory and written to
// --spans_out when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "src/buffers/read_buffer.h"
#include "src/buffers/write_buffer.h"
#include "src/cache/cache.h"
#include "src/common/backing_store.h"
#include "src/common/config.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/core/platform.h"
#include "src/core/system.h"
#include "src/imc/wpq.h"
#include "src/media/ait.h"
#include "src/serve/domain_tier.h"
#include "src/serve/tier.h"
#include "src/trace/attribution.h"
#include "src/trace/counters.h"
#include "src/trace/json.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
// Calls per timed group in the layer replays: large enough that the two
// clock reads per group vanish against the calls they bracket.
constexpr size_t kReplayGroup = 4096;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pmemsim_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// In-memory span log: (name, start, end, parent) in seconds since the run
// began; written out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int Open(std::string name, int parent) {
    spans_.push_back({std::move(name), Now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

  bool WriteTo(const std::string& path) const {
    JsonWriter w;
    w.BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Key("id").Value(static_cast<uint64_t>(i));
      w.Key("name").Value(s.name);
      w.Key("start_s").Value(s.start);
      w.Key("end_s").Value(s.end);
      w.Key("parent").Value(s.parent);
      w.EndObject();
    }
    w.EndArray();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Closes its span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent)
      : log_(log), id_(log.Open(std::move(name), parent)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

// Workload sizes. `full` is the benchmark; `tiny` exists for the self-test.
struct Scale {
  uint64_t region_bytes;
  uint64_t warmup_loads;
  uint64_t timed_loads;
  uint64_t serve_keys;
  uint64_t shared_ops;
  uint64_t partitioned_ops;
};
constexpr Scale kFullScale{MiB(128), 1'000'000, 2'000'000, 20'000, 120'000, 50'000};
constexpr Scale kTinyScale{MiB(4), 5'000, 20'000, 500, 4'000, 4'000};

// One rep's host times and simulated identity.
struct Rep {
  double setup_s = 0.0;   // construction + warm-up / preload
  double timed_s = 0.0;   // the measured phase
  double wall_s = 0.0;    // setup + timed + report
  double report_s = 0.0;  // building the simulated report
  std::string digest;
  Cycles load_cycles = 0;       // serve: the full run's preload end
  Cycles twin_load_cycles = 0;  // serve: the preload-only twin's
  double twin_run_s = 0.0;      // serve: the twin's Run() (its preload)
  double full_run_s = 0.0;      // serve: the full run's Run()
};

// Simulated results; identical in every rep (the digest covers them).
struct Sim {
  uint64_t ops = 0;
  double cycles_per_op = 0.0;
  uint64_t sojourn_p50 = 0;
  uint64_t sojourn_p999 = 0;
  uint64_t samples = 0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t not_found = 0;
  // Every loaded word matched the data written, and every traced or extra
  // rep reproduced the measured reps' digest.
  bool outputs_ok = true;
};

using Layers = std::vector<std::pair<std::string, double>>;

// Everything one workload process reports.
struct Result {
  std::vector<Rep> reps;
  Sim sim;
  Layers layers;  // --trace=1 only
  double peak_rss_mb = 0.0;

  double MedianOf(double Rep::*field) const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(r.*field);
    }
    return Median(v);
  }
  // A traced or extra rep must reproduce the measured reps exactly.
  void CheckSameAsReps(const Rep& other) {
    if (other.digest != reps.front().digest) {
      std::fprintf(stderr, "rep diverged: digest %s vs %s\n", other.digest.c_str(),
                   reps.front().digest.c_str());
      sim.outputs_ok = false;
    }
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Work counts and ratios of one measured phase. `mem_cycles` is the phase's
// attributed memory-op time, the base of the stall shares.
void AddCounterLayers(const Counters& d, uint64_t ops, uint64_t mem_cycles, Layers* out) {
  const uint64_t lookups = d.l1_hits + d.l2_hits + d.l3_hits + d.cache_misses;
  out->emplace_back("cache.l1_hit_ratio", Ratio(d.l1_hits, lookups));
  out->emplace_back("cache.l2_hit_ratio", Ratio(d.l2_hits, lookups));
  out->emplace_back("cache.l3_hit_ratio", Ratio(d.l3_hits, lookups));
  out->emplace_back("cache.miss_ratio", Ratio(d.cache_misses, lookups));
  out->emplace_back("buffers.read_hit_ratio", d.ReadBufferHitRatio());
  out->emplace_back("buffers.write_hit_ratio", d.WriteBufferHitRatio());
  out->emplace_back("buffers.write_evictions_per_op", Ratio(d.write_buffer_evictions, ops));
  out->emplace_back("media.ait_miss_ratio", Ratio(d.ait_misses, d.ait_hits + d.ait_misses));
  out->emplace_back("media.read_amplification", d.ReadAmplification());
  out->emplace_back("media.write_amplification", d.WriteAmplification());
  out->emplace_back("imc.wpq_stall_share", Ratio(d.wpq_stall_cycles, mem_cycles));
  out->emplace_back("imc.rap_stall_share", Ratio(d.rap_stall_cycles, mem_cycles));
}

void AddAttributionLayers(const uint64_t (&stage_totals)[AttributionCollector::kStageCount],
                          Layers* out) {
  uint64_t sum = 0;
  for (const uint64_t t : stage_totals) {
    sum += t;
  }
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    const auto stage = static_cast<AttributionCollector::Stage>(s);
    out->emplace_back(std::string("attr.") + AttributionCollector::StageName(stage) + "_share",
                      Ratio(stage_totals[s], sum));
  }
}

// Times `n` calls of `call(i)` in groups of kReplayGroup, one span per group;
// returns the median host ns per call across groups.
template <typename Fn>
double TimeLayerCalls(SpanLog& spans, int parent, const std::string& name, size_t n, Fn&& call) {
  std::vector<double> per_call_ns;
  for (size_t begin = 0; begin < n; begin += kReplayGroup) {
    const size_t end = std::min(n, begin + kReplayGroup);
    const int id = spans.Open(name, parent);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      call(i);
    }
    const Clock::time_point t1 = Clock::now();
    spans.Close(id);
    per_call_ns.push_back(SecondsBetween(t0, t1) * 1e9 / static_cast<double>(end - begin));
  }
  return Median(per_call_ns);
}

// Runs reps until `seconds` have passed (at least `min_reps`). Returns the
// process's peak RSS in MiB after the first rep: later reps run on a heap
// the earlier ones fragmented, so only the first shows what one run needs.
double RepeatFor(double seconds, int min_reps, const std::function<void()>& rep) {
  const Clock::time_point start = Clock::now();
  double first_rep_peak_rss_mb = 0.0;
  for (int i = 0; i < kMaxReps; ++i) {
    if (i >= min_reps && SecondsBetween(start, Clock::now()) >= seconds) {
      break;
    }
    rep();
    if (i == 0) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      first_rep_peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
    }
  }
  return first_rep_peak_rss_mb;
}

// ---------------------------------------------------------------------------
// media_read: one thread, prefetchers off, uniform random Load64 over a
// region larger than the modelled L3 and the AIT coverage, after an untimed
// warm-up pass. The region holds a seeded word pattern, so every loaded value
// is checked.

// The word stored at byte offset `off` of the region.
uint64_t WordPattern(uint64_t off, uint64_t seed) {
  return Mix64(off ^ (seed * 0x9E3779B97F4A7C15ull));
}

void FillPattern(BackingStore& backing, Addr base, uint64_t bytes, uint64_t seed) {
  std::vector<uint64_t> page(kPageSize / sizeof(uint64_t));
  for (uint64_t off = 0; off < bytes; off += kPageSize) {
    for (size_t w = 0; w < page.size(); ++w) {
      page[w] = WordPattern(off + w * sizeof(uint64_t), seed);
    }
    backing.Write(base + off, page.data(), kPageSize);
  }
}

struct MediaInputs {
  std::vector<uint64_t> warmup;  // word offsets into the region
  std::vector<uint64_t> timed;
  uint64_t expected_sum = 0;  // sum of the words the timed loads must return
};

MediaInputs MakeMediaInputs(const Scale& scale, uint64_t seed) {
  MediaInputs in;
  Rng rng(seed);
  const uint64_t words = scale.region_bytes / sizeof(uint64_t);
  in.warmup.resize(scale.warmup_loads);
  for (uint64_t& off : in.warmup) {
    off = rng.NextBelow(words) * sizeof(uint64_t);
  }
  in.timed.resize(scale.timed_loads);
  for (uint64_t& off : in.timed) {
    off = rng.NextBelow(words) * sizeof(uint64_t);
    in.expected_sum += WordPattern(off, seed);
  }
  return in;
}

struct MediaRepOut {
  Rep rep;
  Sim sim;
  Addr base = 0;           // where the region landed
  Histogram host_load_ns;  // traced rep only
  Counters delta;
  uint64_t stage_totals[AttributionCollector::kStageCount] = {};
  uint64_t mem_cycles = 0;
};

MediaRepOut MediaRep(const Scale& scale, uint64_t seed, const MediaInputs& in, bool traced,
                     SpanLog& spans) {
  MediaRepOut out;
  const ScopedSpan rep_span(spans, traced ? "rep.traced" : "rep", -1);
  const Clock::time_point t0 = Clock::now();
  const int setup_span = spans.Open("setup", rep_span.id());
  auto system = std::make_unique<System>(G1Platform(), /*optane_dimm_count=*/1);
  const PmRegion region = system->AllocatePm(scale.region_bytes);
  out.base = region.base;
  FillPattern(system->backing(), region.base, scale.region_bytes, seed);
  ThreadContext& ctx = system->CreateThread(0);
  SetPrefetchers(ctx, false, false, false);
  for (const uint64_t off : in.warmup) {
    ctx.Load64(region.base + off);
  }
  AttributionCollector attribution;
  if (traced) {
    system->SetAttribution(&attribution);
  }
  CounterDelta delta(&system->counters());
  const Cycles c0 = ctx.clock();
  spans.Close(setup_span);

  const Clock::time_point t1 = Clock::now();
  const int timed_span = spans.Open("timed", rep_span.id());
  Histogram latency;
  uint64_t sum = 0;
  if (traced) {
    for (const uint64_t off : in.timed) {
      const Cycles before = ctx.clock();
      const Clock::time_point h0 = Clock::now();
      sum += ctx.Load64(region.base + off);
      const Clock::time_point h1 = Clock::now();
      latency.Add(ctx.clock() - before);
      out.host_load_ns.Add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(h1 - h0).count()));
    }
  } else {
    for (const uint64_t off : in.timed) {
      const Cycles before = ctx.clock();
      sum += ctx.Load64(region.base + off);
      latency.Add(ctx.clock() - before);
    }
  }
  spans.Close(timed_span);

  const Clock::time_point t2 = Clock::now();
  const int report_span = spans.Open("report", rep_span.id());
  const Cycles cycles = ctx.clock() - c0;
  out.delta = delta.Delta();
  const std::string report = out.delta.ToJson() + "|cycles=" + std::to_string(cycles) +
                             "|latency=" + latency.ToJson() + "|sum=" + std::to_string(sum);
  out.rep.digest = Hex(Fnv1a(report));
  spans.Close(report_span);
  const Clock::time_point t3 = Clock::now();

  system->SetAttribution(nullptr);
  out.rep.setup_s = SecondsBetween(t0, t1);
  out.rep.timed_s = SecondsBetween(t1, t2);
  out.rep.report_s = SecondsBetween(t2, t3);
  out.rep.wall_s = SecondsBetween(t0, t3);
  out.sim.ops = in.timed.size();
  out.sim.cycles_per_op = Ratio(cycles, in.timed.size());
  out.sim.sojourn_p50 = latency.Quantile(0.5);
  out.sim.sojourn_p999 = latency.Quantile(0.999);
  out.sim.samples = latency.count();
  out.sim.offered = in.timed.size();
  out.sim.completed = in.timed.size();
  out.sim.outputs_ok = sum == in.expected_sum;
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    out.stage_totals[s] = attribution.stage_total(static_cast<AttributionCollector::Stage>(s));
  }
  out.mem_cycles = attribution.end_to_end_total();
  return out;
}

// Replays the media_read line stream layer by layer into standalone
// instances: all lines into an L3, its misses into a read buffer, the
// read-buffer misses into an AIT, and every load's word into a backing store.
// Each instance is first warmed with the warm-up stream, untimed.
void MediaLayerReplay(const Scale& scale, uint64_t seed, const MediaInputs& in, Addr base,
                      SpanLog& spans, Layers* layers, bool* outputs_ok) {
  const ScopedSpan replay_span(spans, "layer_replay", -1);
  const int parent = replay_span.id();
  const PlatformConfig platform = G1Platform();
  Counters counters;
  auto line_of = [base](uint64_t off) { return CacheLineBase(base + off); };

  SetAssocCache l3(platform.cache.l3);
  Cycles now = 0;
  auto l3_probe_fill = [&](Addr line) {
    ++now;
    if (l3.Access(line, now, false)) {
      return true;
    }
    l3.Insert(line, now, false, false);
    return false;
  };
  for (const uint64_t off : in.warmup) {
    l3_probe_fill(line_of(off));
  }
  std::vector<Addr> l3_misses;
  layers->emplace_back(
      "cache.l3_probe_fill_ns",
      TimeLayerCalls(spans, parent, "cache.l3", in.timed.size(), [&](size_t i) {
        const Addr line = line_of(in.timed[i]);
        if (!l3_probe_fill(line)) {
          l3_misses.push_back(line);
        }
      }));

  ReadBuffer read_buffer(platform.optane.read_buffer_bytes, &counters);
  auto rb_probe_fill = [&read_buffer](Addr line) {
    if (read_buffer.ConsumeLine(line)) {
      return true;
    }
    read_buffer.FillForDelivery(line);
    return false;
  };
  for (const uint64_t off : in.warmup) {
    rb_probe_fill(line_of(off));
  }
  std::vector<Addr> rb_misses;
  layers->emplace_back(
      "buffers.read_probe_fill_ns",
      TimeLayerCalls(spans, parent, "buffers.read", l3_misses.size(), [&](size_t i) {
        if (!rb_probe_fill(l3_misses[i])) {
          rb_misses.push_back(l3_misses[i]);
        }
      }));

  Ait ait(platform.optane.ait_cache_coverage_bytes, platform.optane.ait_miss_penalty, &counters);
  for (const uint64_t off : in.warmup) {
    ait.Access(line_of(off));
  }
  layers->emplace_back("media.ait_access_ns",
                       TimeLayerCalls(spans, parent, "media.ait", rb_misses.size(),
                                      [&](size_t i) { ait.Access(rb_misses[i]); }));

  BackingStore backing;
  FillPattern(backing, base, scale.region_bytes, seed);
  uint64_t sum = 0;
  layers->emplace_back(
      "common.backing_read_ns",
      TimeLayerCalls(spans, parent, "common.backing", in.timed.size(),
                     [&](size_t i) { sum += backing.ReadU64(base + in.timed[i]); }));
  *outputs_ok = *outputs_ok && sum == in.expected_sum;
}

// With --trace=1 half the time budget goes to the untraced reps that the
// overhead ratio compares against.
double RepBudget(const Options& opt) { return opt.trace ? opt.seconds / 2 : opt.seconds; }

void RunMediaRead(const Options& opt, const Scale& scale, SpanLog& spans, Result* res) {
  MediaInputs in;
  {
    const ScopedSpan s(spans, "inputs", -1);
    in = MakeMediaInputs(scale, opt.seed);
  }
  res->peak_rss_mb = RepeatFor(RepBudget(opt), kMinReps, [&] {
    const MediaRepOut r = MediaRep(scale, opt.seed, in, false, spans);
    res->reps.push_back(r.rep);
    res->sim = r.sim;
  });
  if (!opt.trace) {
    return;
  }
  const MediaRepOut traced = MediaRep(scale, opt.seed, in, true, spans);
  res->CheckSameAsReps(traced.rep);
  Layers& layers = res->layers;
  layers.emplace_back("cpu.load_ns_p50", static_cast<double>(traced.host_load_ns.Quantile(0.5)));
  layers.emplace_back("cpu.load_ns_p999",
                      static_cast<double>(traced.host_load_ns.Quantile(0.999)));
  MediaLayerReplay(scale, opt.seed, in, traced.base, spans, &layers, &res->sim.outputs_ok);
  AddCounterLayers(traced.delta, traced.sim.ops, traced.mem_cycles, &layers);
  AddAttributionLayers(traced.stage_totals, &layers);
  layers.emplace_back("sim.latency_samples", static_cast<double>(traced.sim.samples));
  layers.emplace_back("trace.overhead_ratio", traced.rep.wall_s / res->MedianOf(&Rep::wall_s));
}

// ---------------------------------------------------------------------------
// Serve workloads. A rep runs a preload-only twin (the same config with one
// offered request per shard) and then the full config; the twin's Run() time
// is the preload, the full run's Run() time minus the twin's is serving.

struct PersistLine {
  Addr line;
  Cycles issue;
  Cycles drained;
};

struct ServeRun {
  double construct_s = 0.0;
  double run_s = 0.0;
  double report_s = 0.0;
  std::string report;
  Cycles load_end = 0;
  Cycles serve_start = 0;
  Cycles end_cycle = 0;
  ServiceStats stats;
  uint64_t max_occupancy = 0;
  uint64_t stage_totals[AttributionCollector::kStageCount] = {};
  uint64_t mem_cycles = 0;
  Counters counters;
};

// Fills the engine-independent parts of `out` from a run tier: Shards are
// ServiceTier's shards or DomainTier's domains (same accessor names).
template <typename Tier, typename Units>
void Summarize(Tier& tier, const Units& units, ServeRun* out) {
  out->load_end = tier.load_end();
  out->serve_start = tier.serve_start();
  out->end_cycle = tier.end_cycle();
  out->stats = tier.GlobalStats();
  for (const auto& unit : units) {
    out->max_occupancy = std::max<uint64_t>(out->max_occupancy, unit->queue().max_occupancy());
    const AttributionCollector& a = unit->attribution();
    for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
      out->stage_totals[s] += a.stage_total(static_cast<AttributionCollector::Stage>(s));
    }
    out->mem_cycles += a.end_to_end_total();
  }
}

ServeRun RunSharedTier(const ServeConfig& cfg, std::vector<PersistLine>* capture,
                       SpanLog& spans, int parent) {
  ServeRun out;
  const Clock::time_point t0 = Clock::now();
  const int construct_span = spans.Open("construct", parent);
  System system(G1Platform(), cfg.shards);
  ServiceTier tier(&system, cfg);
  if (capture != nullptr) {
    system.mc().SetPersistWriteHook([capture](Addr line, Cycles issue, Cycles, Cycles drained) {
      capture->push_back({line, issue, drained});
    });
  }
  spans.Close(construct_span);
  const Clock::time_point t1 = Clock::now();
  const int run_span = spans.Open("run", parent);
  tier.Run();
  spans.Close(run_span);
  const Clock::time_point t2 = Clock::now();
  const int report_span = spans.Open("report", parent);
  out.report = tier.ToJson();
  spans.Close(report_span);
  const Clock::time_point t3 = Clock::now();
  system.mc().SetPersistWriteHook({});
  out.construct_s = SecondsBetween(t0, t1);
  out.run_s = SecondsBetween(t1, t2);
  out.report_s = SecondsBetween(t2, t3);
  Summarize(tier, tier.shards(), &out);
  out.counters = system.counters();
  return out;
}

ServeRun RunPartitionedTier(const ServeConfig& cfg, SpanLog& spans, int parent) {
  ServeRun out;
  const Clock::time_point t0 = Clock::now();
  const int construct_span = spans.Open("construct", parent);
  DomainTier tier(G1Platform(), /*dimms_per_domain=*/1, cfg);
  spans.Close(construct_span);
  const Clock::time_point t1 = Clock::now();
  const int run_span = spans.Open("run", parent);
  tier.Run();
  spans.Close(run_span);
  const Clock::time_point t2 = Clock::now();
  const int report_span = spans.Open("report", parent);
  out.report = tier.ToJson();
  spans.Close(report_span);
  const Clock::time_point t3 = Clock::now();
  out.construct_s = SecondsBetween(t0, t1);
  out.run_s = SecondsBetween(t1, t2);
  out.report_s = SecondsBetween(t2, t3);
  Summarize(tier, tier.domains(), &out);
  for (const auto& domain : tier.domains()) {
    out.counters += domain->system().counters();
  }
  return out;
}

ServeConfig SharedConfig(const Scale& scale, uint64_t seed) {
  ServeConfig cfg;
  cfg.store = StoreKind::kCceh;
  cfg.loop = LoopMode::kClosed;
  cfg.mix_name = "a";
  cfg.mix = *MixByName("a");
  cfg.shards = 8;
  cfg.workers_per_shard = 2;
  cfg.clients = 32;
  cfg.keys = scale.serve_keys;
  cfg.ops = scale.shared_ops;
  cfg.seed = seed;
  return cfg;
}

ServeConfig PartitionedConfig(const Scale& scale, uint64_t seed, uint32_t engine_threads) {
  ServeConfig cfg;
  cfg.store = StoreKind::kFastFair;
  cfg.loop = LoopMode::kOpen;
  cfg.mix_name = "b";
  cfg.mix = *MixByName("b");
  cfg.shards = 8;
  cfg.workers_per_shard = 2;
  cfg.keys = scale.serve_keys;
  cfg.ops = scale.partitioned_ops;
  cfg.seed = seed;
  cfg.engine_threads = engine_threads;
  cfg.dispatch_latency = 2048;
  return cfg;
}

struct ServeRepOut {
  Rep rep;
  Sim sim;
  ServeRun full;
  ServeRun twin;
};

using ServeRunner = std::function<ServeRun(const ServeConfig&, int parent)>;

ServeRepOut ServeRep(const ServeConfig& cfg, const ServeRunner& run, const char* label,
                     SpanLog& spans) {
  ServeRepOut out;
  const ScopedSpan rep_span(spans, label, -1);
  ServeConfig twin_cfg = cfg;
  twin_cfg.ops = 1;
  {
    const ScopedSpan twin_span(spans, "twin", rep_span.id());
    out.twin = run(twin_cfg, twin_span.id());
  }
  {
    const ScopedSpan full_span(spans, "full", rep_span.id());
    out.full = run(cfg, full_span.id());
  }
  const ServeRun& f = out.full;
  out.rep.setup_s = out.twin.construct_s + out.twin.run_s;
  out.rep.timed_s = f.run_s - out.twin.run_s;
  out.rep.twin_run_s = out.twin.run_s;
  out.rep.full_run_s = f.run_s;
  out.rep.report_s = f.report_s;
  out.rep.wall_s = f.construct_s + f.run_s + f.report_s;
  out.rep.digest = Hex(Fnv1a(f.report));
  out.rep.load_cycles = f.load_end;
  out.rep.twin_load_cycles = out.twin.load_end;
  out.sim.ops = f.stats.completed;
  out.sim.cycles_per_op = Ratio(f.end_cycle - f.serve_start, f.stats.completed);
  out.sim.sojourn_p50 = f.stats.sojourn.Quantile(0.5);
  out.sim.sojourn_p999 = f.stats.sojourn.Quantile(0.999);
  out.sim.samples = f.stats.sojourn.count();
  out.sim.offered = f.stats.offered;
  out.sim.completed = f.stats.completed;
  out.sim.rejected = f.stats.rejected;
  out.sim.not_found = f.stats.not_found;
  return out;
}

// Serve-phase layers shared by both serve workloads: the full run's serve
// phase, with counters taken as full minus twin (the twin is the preload
// plus one request per shard).
void AddServeLayers(const ServeRepOut& r, Layers* layers) {
  const ServeRun& f = r.full;
  AddCounterLayers(f.counters - r.twin.counters, f.stats.completed, f.mem_cycles, layers);
  AddAttributionLayers(f.stage_totals, layers);
  layers->emplace_back("sim.latency_samples", static_cast<double>(r.sim.samples));
  layers->emplace_back("serve.report_s", f.report_s);
  layers->emplace_back("serve.queue_wait_p999_cycles",
                       static_cast<double>(f.stats.wait.Quantile(0.999)));
  layers->emplace_back("serve.service_p999_cycles",
                       static_cast<double>(f.stats.service.Quantile(0.999)));
  layers->emplace_back("serve.max_queue_occupancy", static_cast<double>(f.max_occupancy));
}

// Replays the captured persisted-line stream into standalone per-DIMM write
// buffers and WPQs, routed by the iMC's interleave.
void WriteLayerReplay(const std::vector<PersistLine>& lines, uint32_t dimms, SpanLog& spans,
                      Layers* layers) {
  const ScopedSpan replay_span(spans, "layer_replay", -1);
  const PlatformConfig platform = G1Platform();
  const OptaneDimmConfig& o = platform.optane;
  Counters counters;
  std::vector<std::unique_ptr<WriteBuffer>> buffers;
  std::vector<std::unique_ptr<Wpq>> wpqs;
  for (uint32_t d = 0; d < dimms; ++d) {
    buffers.push_back(std::make_unique<WriteBuffer>(
        WriteBufferConfig{
            .eviction = o.write_buffer_eviction == 0 ? WriteBufferEviction::kRandom
                                                     : WriteBufferEviction::kOldest,
            .capacity_bytes = o.write_buffer_bytes,
            .partial_reserve_entries = o.write_buffer_partial_reserve,
            .periodic_full_writeback = o.periodic_full_writeback,
            .full_writeback_period = o.full_writeback_period,
            .batch_evict = o.batch_evict,
            .batch_evict_keep_fraction = o.batch_evict_keep_fraction,
            .rng_seed = 0xD1337 + d * 0x9E37,
        },
        &counters));
    wpqs.push_back(std::make_unique<Wpq>(
        WpqConfig{platform.imc.wpq_entries, platform.imc.wpq_accept_latency,
                  platform.imc.wpq_drain_latency},
        &counters));
  }
  auto dimm_of = [&](Addr line) {
    return static_cast<size_t>((line / platform.imc.interleave_granularity) % dimms);
  };
  std::vector<WritebackRequest> scratch;
  layers->emplace_back(
      "buffers.write_ns",
      TimeLayerCalls(spans, replay_span.id(), "buffers.write", lines.size(), [&](size_t i) {
        const PersistLine& p = lines[i];
        WriteBuffer& wb = *buffers[dimm_of(p.line)];
        if (wb.TickDue(p.drained)) {
          wb.Tick(p.drained, scratch);
        }
        wb.Write(p.line, p.drained, p.drained + o.write_visible_delay, scratch);
        scratch.clear();
      }));
  layers->emplace_back(
      "imc.wpq_accept_ns",
      TimeLayerCalls(spans, replay_span.id(), "imc.wpq", lines.size(), [&](size_t i) {
        wpqs[dimm_of(lines[i].line)]->Accept(lines[i].issue, 0);
      }));
}

// Runs the measured reps. A rep's serving time is its full Run() minus the
// median twin Run() of all reps: the preload is the same work in every run,
// and one rep's twin would add its own noise to the difference.
void RunServeReps(const Options& opt, const ServeConfig& cfg, const ServeRunner& run,
                  SpanLog& spans, Result* res) {
  res->peak_rss_mb = RepeatFor(RepBudget(opt), kMinReps, [&] {
    const ServeRepOut r = ServeRep(cfg, run, "rep", spans);
    res->reps.push_back(r.rep);
    res->sim = r.sim;
  });
  const double twin_run_s = res->MedianOf(&Rep::twin_run_s);
  for (Rep& r : res->reps) {
    r.timed_s = r.full_run_s - twin_run_s;
  }
}

void RunShared(const Options& opt, const Scale& scale, SpanLog& spans, Result* res) {
  const ServeConfig cfg = SharedConfig(scale, opt.seed);
  RunServeReps(opt, cfg, [&](const ServeConfig& c, int parent) {
    return RunSharedTier(c, nullptr, spans, parent);
  }, spans, res);
  if (!opt.trace) {
    return;
  }
  std::vector<PersistLine> persisted;
  const ServeRepOut traced = ServeRep(cfg, [&](const ServeConfig& c, int parent) {
    persisted.clear();
    return RunSharedTier(c, &persisted, spans, parent);
  }, "rep.traced", spans);
  res->CheckSameAsReps(traced.rep);
  AddServeLayers(traced, &res->layers);
  WriteLayerReplay(persisted, cfg.shards, spans, &res->layers);
  res->layers.emplace_back("trace.overhead_ratio",
                           traced.rep.wall_s / res->MedianOf(&Rep::wall_s));
}

void RunPartitioned(const Options& opt, const Scale& scale, SpanLog& spans, Result* res) {
  // Measured at one engine thread: at two, the condition-variable epoch
  // barrier made serving slower and far noisier on the 4-core host the
  // benchmark was tuned on (NOTES.md). serve.thread_speedup tracks two.
  const ServeConfig cfg = PartitionedConfig(scale, opt.seed, /*engine_threads=*/1);
  const ServeRunner run = [&](const ServeConfig& c, int parent) {
    return RunPartitionedTier(c, spans, parent);
  };
  RunServeReps(opt, cfg, run, spans, res);
  if (!opt.trace) {
    return;
  }
  const ServeRepOut traced = ServeRep(cfg, run, "rep.traced", spans);
  res->CheckSameAsReps(traced.rep);
  // Two-thread serving time varies several-fold from rep to rep, so take
  // the median of a few.
  std::vector<double> two_full_s;
  std::vector<double> two_twin_s;
  for (int i = 0; i < kMinReps; ++i) {
    const ServeRepOut two =
        ServeRep(PartitionedConfig(scale, opt.seed, 2), run, "rep.engine_threads_2", spans);
    res->CheckSameAsReps(two.rep);
    two_full_s.push_back(two.rep.full_run_s);
    two_twin_s.push_back(two.rep.twin_run_s);
  }
  AddServeLayers(traced, &res->layers);
  const ServeRun& f = traced.full;
  const double epochs =
      static_cast<double>(f.end_cycle - f.serve_start) / static_cast<double>(cfg.dispatch_latency);
  const double serve_s = res->MedianOf(&Rep::timed_s);
  Layers& layers = res->layers;
  layers.emplace_back("serve.epochs", epochs);
  layers.emplace_back("serve.host_us_per_epoch", serve_s * 1e6 / epochs);
  layers.emplace_back("serve.ops_per_epoch", static_cast<double>(f.stats.completed) / epochs);
  layers.emplace_back("serve.thread_speedup",
                      serve_s / (Median(two_full_s) - Median(two_twin_s)));
  layers.emplace_back("trace.overhead_ratio", traced.rep.wall_s / res->MedianOf(&Rep::wall_s));
}

// ---------------------------------------------------------------------------

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad argument '" + arg + "' (expected --name=value)");
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "workload") {
      opt.workload = value;
    } else if (name == "seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Die("--seed must be a non-negative integer");
      }
    } else if (name == "seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0)) {
        Die("--seconds must be a positive number");
      }
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        Die("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
    } else if (name == "scale") {
      if (value != "full" && value != "tiny") {
        Die("--scale must be full or tiny");
      }
      opt.tiny = value == "tiny";
    } else if (name == "spans_out") {
      opt.spans_out = value;
    } else {
      Die("unknown flag --" + name);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Scale& scale = opt.tiny ? kTinyScale : kFullScale;
  SpanLog spans;
  Result res;
  if (opt.workload == "media_read") {
    RunMediaRead(opt, scale, spans, &res);
  } else if (opt.workload == "kv_serve_shared") {
    RunShared(opt, scale, spans, &res);
  } else if (opt.workload == "kv_serve_partitioned") {
    RunPartitioned(opt, scale, spans, &res);
  } else {
    Die("unknown --workload '" + opt.workload + "'");
  }
  if (!opt.spans_out.empty() && !spans.WriteTo(opt.spans_out)) {
    Die("cannot write " + opt.spans_out);
  }

  const Sim& sim = res.sim;
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(opt.workload);
  w.Key("seed").Value(opt.seed);
  w.Key("scale").Value(opt.tiny ? "tiny" : "full");
  w.Key("peak_rss_mb").Value(res.peak_rss_mb);
  w.Key("reps").BeginArray();
  for (const Rep& r : res.reps) {
    w.BeginObject();
    w.Key("setup_s").Value(r.setup_s);
    w.Key("timed_s").Value(r.timed_s);
    w.Key("wall_s").Value(r.wall_s);
    w.Key("report_s").Value(r.report_s);
    w.Key("digest").Value(r.digest);
    w.Key("load_cycles").Value(r.load_cycles);
    w.Key("twin_load_cycles").Value(r.twin_load_cycles);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sim").BeginObject();
  w.Key("ops").Value(sim.ops);
  w.Key("cycles_per_op").Value(sim.cycles_per_op);
  w.Key("sojourn_p50").Value(sim.sojourn_p50);
  w.Key("sojourn_p999").Value(sim.sojourn_p999);
  w.Key("samples").Value(sim.samples);
  w.Key("offered").Value(sim.offered);
  w.Key("completed").Value(sim.completed);
  w.Key("rejected").Value(sim.rejected);
  w.Key("not_found").Value(sim.not_found);
  w.Key("outputs_ok").Value(sim.outputs_ok);
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const auto& [name, value] : res.layers) {
    w.Key(name).Value(value);
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
