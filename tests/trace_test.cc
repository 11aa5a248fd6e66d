// Telemetry-layer tests: JSON writer/parser round-trips, per-DIMM and
// per-thread counter scoping/aggregation, and CounterDelta rebase semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "src/common/stats.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/trace/counters.h"
#include "src/trace/json.h"
#include "src/trace/registry.h"
#include "src/trace/sampler.h"
#include "src/trace/trace_events.h"

namespace pmemsim {
namespace {

// --- JSON writer/parser ---

TEST(Json, WriterProducesParsableNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("fig02");
  w.Key("rows").BeginArray();
  w.BeginObject().Key("wss_kb").Value(uint64_t{16}).Key("ra").Value(4.0).EndObject();
  w.BeginObject().Key("wss_kb").Value(uint64_t{18}).Key("ra").Value(1.0).EndObject();
  w.EndArray();
  w.Key("ok").Value(true);
  w.Key("nothing").Null();
  w.EndObject();
  ASSERT_TRUE(w.complete());

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v, &error)) << error << "\n" << w.str();
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_EQ(v.Find("name")->string, "fig02");
  ASSERT_EQ(v.Find("rows")->array.size(), 2u);
  EXPECT_EQ(v.Find("rows")->array[0].Find("wss_kb")->AsUint(), 16u);
  EXPECT_DOUBLE_EQ(v.Find("rows")->array[1].Find("ra")->AsDouble(), 1.0);
  EXPECT_TRUE(v.Find("ok")->boolean);
  EXPECT_EQ(v.Find("nothing")->type, JsonValue::Type::kNull);
}

TEST(Json, EscapingRoundTrips) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  JsonWriter w;
  w.BeginObject().Key("s").Value(nasty).EndObject();
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v));
  EXPECT_EQ(v.Find("s")->string, nasty);
}

TEST(Json, LargeIntegersAreLossless) {
  const uint64_t big = (1ull << 60) + 3;  // not representable as a double
  JsonWriter w;
  w.BeginObject().Key("v").Value(big).EndObject();
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v));
  ASSERT_TRUE(v.Find("v")->is_integer);
  EXPECT_EQ(v.Find("v")->AsUint(), big);
}

TEST(Json, ParserRejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &v));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}", &v));
  EXPECT_FALSE(JsonValue::Parse("[1 2]", &v));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} extra", &v));
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &v));
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("", &v, &error));
  EXPECT_FALSE(error.empty());
}

// --- serialization round-trips ---

TEST(Serialization, CountersRoundTrip) {
  Counters c;
  // Distinct value per field, including one beyond double precision.
  uint64_t next = (1ull << 55) + 1;
  ForEachCounterField(c, [&next](const char*, uint64_t& field) { field = next++; });

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(c.ToJson(), &v, &error)) << error;
  Counters back;
  ASSERT_TRUE(CountersFromJson(v, &back));
  EXPECT_EQ(c, back);

  // The derived block carries the ratio metrics.
  const JsonValue* derived = v.Find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_DOUBLE_EQ(derived->Find("write_amplification")->AsDouble(), c.WriteAmplification());
  EXPECT_DOUBLE_EQ(derived->Find("read_buffer_hit_ratio")->AsDouble(), c.ReadBufferHitRatio());
}

TEST(Serialization, CountersFromJsonRejectsMissingField) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("{\"imc_read_bytes\": 1}", &v));
  Counters c;
  EXPECT_FALSE(CountersFromJson(v, &c));
}

TEST(Serialization, RunningStatRoundTrip) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 10.0}) {
    s.Add(x);
  }
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(s.ToJson(), &v));
  EXPECT_EQ(v.Find("count")->AsUint(), 4u);
  EXPECT_DOUBLE_EQ(v.Find("mean")->AsDouble(), s.mean());
  EXPECT_DOUBLE_EQ(v.Find("stddev")->AsDouble(), s.stddev());
  EXPECT_DOUBLE_EQ(v.Find("min")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(v.Find("max")->AsDouble(), 10.0);
}

TEST(Serialization, HistogramRoundTrip) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(h.ToJson(), &v));
  EXPECT_EQ(v.Find("count")->AsUint(), 1000u);
  EXPECT_EQ(v.Find("min")->AsUint(), 1u);
  EXPECT_EQ(v.Find("max")->AsUint(), 1000u);
  EXPECT_EQ(v.Find("p50")->AsUint(), h.Percentile(50));
  EXPECT_EQ(v.Find("p999")->AsUint(), h.Percentile(99.9));
}

TEST(Serialization, EmptyHistogramIsExplicitNotZero) {
  // A store-free --breakdown run leaves whole stage histograms empty; the
  // empty case must be distinguishable from "measured zero latency".
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);  // documented fallback; callers check count()
  EXPECT_EQ(h.Summary(), "n=0 (empty)");

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(h.ToJson(), &v, &error)) << error;
  EXPECT_EQ(v.Find("count")->AsUint(), 0u);
  for (const char* key : {"mean", "min", "max", "p50", "p90", "p99", "p999"}) {
    ASSERT_NE(v.Find(key), nullptr) << key;
    EXPECT_EQ(v.Find(key)->type, JsonValue::Type::kNull) << key;
  }

  // One sample flips every statistic to concrete values.
  h.Add(7);
  ASSERT_TRUE(JsonValue::Parse(h.ToJson(), &v));
  EXPECT_EQ(v.Find("count")->AsUint(), 1u);
  EXPECT_EQ(v.Find("p50")->AsUint(), 7u);
  EXPECT_EQ(v.Find("max")->AsUint(), 7u);
}

// --- registry scoping and aggregation ---

TEST(CounterRegistry, ScopesAggregateAndStayStable) {
  CounterRegistry registry;
  Counters* a = registry.CreateScope("a");
  // Force a reallocation-sized number of later scopes: `a` must stay valid.
  std::vector<Counters*> rest;
  for (int i = 0; i < 64; ++i) {
    rest.push_back(registry.CreateScope("scope" + std::to_string(i)));
  }
  a->imc_write_bytes = 64;
  a->demand_stores = 1;
  for (size_t i = 0; i < rest.size(); ++i) {
    rest[i]->imc_write_bytes = 64 * (i + 1);
  }

  const Counters total = registry.Aggregate();
  uint64_t expected = 64;
  for (size_t i = 0; i < rest.size(); ++i) {
    expected += 64 * (i + 1);
  }
  EXPECT_EQ(total.imc_write_bytes, expected);
  EXPECT_EQ(total.demand_stores, 1u);
  EXPECT_EQ(registry.scope_count(), 65u);
  EXPECT_EQ(registry.FindScope("a"), a);
  EXPECT_EQ(registry.FindScope("missing"), nullptr);
}

TEST(CounterRegistry, BoundAggregateSyncsOnRead) {
  CounterRegistry registry;
  Counters* scope = registry.CreateScope("only");
  Counters total;
  total.BindAggregate(&registry);

  scope->imc_read_bytes = 128;
  total.Sync();
  EXPECT_EQ(total.imc_read_bytes, 128u);

  // A copy is a plain snapshot: further scope writes don't reach it.
  const Counters snapshot = total;
  scope->imc_read_bytes = 256;
  total.Sync();
  EXPECT_EQ(total.imc_read_bytes, 256u);
  EXPECT_EQ(snapshot.imc_read_bytes, 128u);
}

TEST(CounterRegistry, JsonListsEveryScope) {
  CounterRegistry registry;
  registry.CreateScope("optane_dimm0")->media_write_bytes = 256;
  registry.CreateScope("thread0")->demand_loads = 7;
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(registry.ToJson(), &v, &error)) << error;
  ASSERT_EQ(v.object.size(), 2u);
  EXPECT_EQ(v.Find("optane_dimm0")->Find("media_write_bytes")->AsUint(), 256u);
  EXPECT_EQ(v.Find("thread0")->Find("demand_loads")->AsUint(), 7u);
}

// --- CounterDelta semantics ---

TEST(CounterDelta, DeltaAndRebaseOnPlainCounters) {
  Counters c;
  c.demand_loads = 10;
  CounterDelta d(&c);
  c.demand_loads += 5;
  EXPECT_EQ(d.Delta().demand_loads, 5u);
  d.Rebase();
  EXPECT_EQ(d.Delta().demand_loads, 0u);
  c.demand_loads += 3;
  EXPECT_EQ(d.Delta().demand_loads, 3u);
  // Rebase captures the live value, not the previous base.
  d.Rebase();
  c.demand_loads += 2;
  EXPECT_EQ(d.Delta().demand_loads, 2u);
}

TEST(CounterDelta, SyncsBoundAggregates) {
  CounterRegistry registry;
  Counters* scope = registry.CreateScope("s");
  Counters total;
  total.BindAggregate(&registry);

  scope->media_write_bytes = 256;
  CounterDelta d(&total);  // base must observe the pre-existing 256
  scope->media_write_bytes += 512;
  EXPECT_EQ(d.Delta().media_write_bytes, 512u);
  d.Rebase();
  scope->media_write_bytes += 256;
  EXPECT_EQ(d.Delta().media_write_bytes, 256u);
}

// --- system-level scoping ---

TEST(SystemScopes, PerDimmCountersSumToGlobal) {
  auto system = MakeG1System(/*optane_dimm_count=*/6);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(512), kXPLineSize);
  // Touch every DIMM: strided nt-stores then reads across the interleave.
  for (uint64_t off = 0; off + kCacheLineSize <= region.size; off += KiB(2)) {
    ctx.NtStore64(region.At(off), off);
  }
  ctx.Sfence();
  for (uint64_t off = 0; off + kCacheLineSize <= region.size; off += KiB(2)) {
    ctx.Load64(region.At(off));
  }

  const Counters& global = system->counters();
  Counters dimm_sum;
  size_t dimm_scopes = 0;
  for (const CounterRegistry::Scope& s : system->counter_registry().scopes()) {
    if (s.name.rfind("optane_dimm", 0) == 0) {
      dimm_sum += s.counters;
      ++dimm_scopes;
    }
  }
  EXPECT_EQ(dimm_scopes, 6u);
  // Every DIMM participated.
  for (size_t i = 0; i < system->mc().optane_dimm_count(); ++i) {
    EXPECT_GT(system->mc().optane_dimm_counters(i).imc_write_bytes, 0u) << i;
  }
  // DIMM-owned fields: the per-DIMM scopes are the only writers, so their sum
  // IS the global value.
  EXPECT_EQ(dimm_sum.imc_write_bytes, global.imc_write_bytes);
  EXPECT_EQ(dimm_sum.imc_read_bytes, global.imc_read_bytes);
  EXPECT_EQ(dimm_sum.media_write_bytes, global.media_write_bytes);
  EXPECT_EQ(dimm_sum.media_read_bytes, global.media_read_bytes);
  EXPECT_EQ(dimm_sum.write_buffer_hits + dimm_sum.write_buffer_misses,
            global.write_buffer_hits + global.write_buffer_misses);
  // And the full aggregate equals the sum over every scope.
  EXPECT_EQ(system->counter_registry().Aggregate(), global);
}

TEST(SystemScopes, PerThreadCountersSumToGlobal) {
  auto system = MakeG1System(1);
  ThreadContext& t0 = system->CreateThread();
  ThreadContext& t1 = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(64), kXPLineSize);
  for (int i = 0; i < 100; ++i) {
    t0.Load64(region.At(static_cast<uint64_t>(i) * kCacheLineSize));
  }
  for (int i = 0; i < 40; ++i) {
    t1.Load64(region.At(static_cast<uint64_t>(i) * kCacheLineSize));
  }

  const Counters* s0 = system->counter_registry().FindScope("thread0");
  const Counters* s1 = system->counter_registry().FindScope("thread1");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->demand_loads, 100u);
  EXPECT_EQ(s1->demand_loads, 40u);
  EXPECT_EQ(system->counters().demand_loads, 140u);
}

// --- trace emitter ---

TEST(TraceEvents, EmitsValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "/pmemsim_trace_test.json";
  TraceEmitter& te = TraceEmitter::Global();
  te.Enable(path);
  const int track = te.RegisterTrack("optane_dimm0");
  te.CounterEvent(track, "wpq_occupancy", 100, 3.0);
  te.Instant(track, "write_buffer_evict", 150, "rmw", 1.0);
  ASSERT_TRUE(te.Disable());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(text, &v, &error)) << error;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Track metadata rows + the two events.
  bool saw_counter = false;
  bool saw_instant = false;
  for (const JsonValue& e : events->array) {
    if (e.Find("ph")->string == "C" && e.Find("name")->string == "wpq_occupancy") {
      saw_counter = true;
      EXPECT_EQ(e.Find("ts")->AsUint(), 100u);
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("value")->AsDouble(), 3.0);
    }
    if (e.Find("ph")->string == "i" && e.Find("name")->string == "write_buffer_evict") {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
  std::remove(path.c_str());
}

// --- interval sampler ---

TEST(Sampler, DeltasPartitionTheRunExactly) {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(128), kXPLineSize);
  // Sampler and reference delta snapshot the same pre-run counter state.
  Sampler sampler(&system->counters(), /*interval_cycles=*/10000);
  sampler.SetGaugeSource(
      [&system](Cycles now) { return system->ReadGauges(now); });
  CounterDelta global(&system->counters());

  for (uint64_t i = 0; i < 500; ++i) {
    const Addr a = region.At((i * kCacheLineSize) % region.size);
    ctx.Store64(a, i);
    ctx.Clwb(a);
    ctx.Sfence();
    sampler.AdvanceTo(ctx.clock());
  }
  sampler.Finalize(ctx.clock());

  // The attribution contract: the per-interval series is a partition of the
  // run, so the field-wise sum of sample deltas IS the global counter delta.
  EXPECT_EQ(sampler.SumOfDeltas(), global.Delta());
  EXPECT_EQ(sampler.SumOfDeltas().demand_stores, 500u);

  // The samples tile [0, end] contiguously; the final one may be partial.
  ASSERT_GE(sampler.samples().size(), 2u);
  Cycles prev = 0;
  for (const Sample& s : sampler.samples()) {
    EXPECT_EQ(s.t_begin, prev);
    EXPECT_GE(s.t_end, s.t_begin);
    prev = s.t_end;
  }
  EXPECT_EQ(prev, ctx.clock());
  for (size_t i = 0; i + 1 < sampler.samples().size(); ++i) {
    EXPECT_FALSE(sampler.samples()[i].partial) << i;
  }
}

TEST(Sampler, IdleIntervalsEmitZeroDeltas) {
  // ipmwatch prints idle seconds too: a quiet stretch of simulated time must
  // produce zero-delta samples, not a gap in the series.
  Counters c;
  Sampler sampler(&c, /*interval_cycles=*/100);
  c.demand_loads = 5;
  sampler.AdvanceTo(350);  // boundaries at 100, 200, 300
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].delta.demand_loads, 5u);
  const Counters zero;
  EXPECT_EQ(sampler.samples()[1].delta, zero);
  EXPECT_EQ(sampler.samples()[2].delta, zero);
  sampler.Finalize(350);  // closes [300, 350) as a partial sample
  ASSERT_EQ(sampler.samples().size(), 4u);
  EXPECT_TRUE(sampler.samples()[3].partial);
  EXPECT_EQ(sampler.samples()[3].t_end, 350u);
}

TEST(Sampler, BoundaryExactFinalizeAddsNoEmptySample) {
  Counters c;
  Sampler sampler(&c, /*interval_cycles=*/100);
  c.demand_loads = 2;
  sampler.AdvanceTo(200);
  ASSERT_EQ(sampler.samples().size(), 2u);
  sampler.Finalize(200);  // already closed at the boundary: nothing to add
  EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(Sampler, FinalizeCapturesResidualDeltasAfterLastBoundary) {
  Counters c;
  Sampler sampler(&c, /*interval_cycles=*/100);
  sampler.AdvanceTo(100);
  c.imc_write_bytes = 64;  // lands after the last observation
  sampler.Finalize(100);
  ASSERT_EQ(sampler.samples().size(), 2u);
  EXPECT_TRUE(sampler.samples()[1].partial);
  EXPECT_EQ(sampler.samples()[1].delta.imc_write_bytes, 64u);
  EXPECT_EQ(sampler.SumOfDeltas().imc_write_bytes, 64u);
}

TEST(Sampler, OriginAlignsBoundaries) {
  // The serve timeline joins the memory-plane series at the serve-phase
  // origin: a sampler opened at origin O with interval I must cut boundaries
  // at O + k*I, never at absolute multiples of I.
  Counters c;
  Sampler sampler(&c, /*interval_cycles=*/100, /*origin=*/1000);
  c.imc_read_bytes = 64;
  sampler.AdvanceTo(1150);  // one boundary crossed, at 1100 (not 1000/1100/1200 grid-from-zero)
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_EQ(sampler.samples()[0].t_begin, 1000u);
  EXPECT_EQ(sampler.samples()[0].t_end, 1100u);
  EXPECT_EQ(sampler.samples()[0].delta.imc_read_bytes, 64u);
  c.imc_read_bytes += 36;
  sampler.Finalize(1230);  // closes [1100,1200) and the partial [1200,1230)
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[1].t_begin, 1100u);
  EXPECT_EQ(sampler.samples()[1].t_end, 1200u);
  EXPECT_EQ(sampler.samples()[1].delta.imc_read_bytes, 36u);
  EXPECT_TRUE(sampler.samples()[2].partial);
  EXPECT_EQ(sampler.samples()[2].t_begin, 1200u);
  EXPECT_EQ(sampler.samples()[2].t_end, 1230u);
  EXPECT_EQ(sampler.SumOfDeltas().imc_read_bytes, 100u);
}

TEST(Sampler, WindowCapRefusesAClockPastIt) {
  // The window cap stops a series before it grows: a clock in interval
  // kMaxIntervals fails the CHECK with nothing emitted for it, and the
  // series stays usable up to the last interval below the cap.
  Counters c;
  Sampler sampler(&c, /*interval_cycles=*/1, /*origin=*/10);
  {
    ScopedCheckCapture capture;
    EXPECT_THROW(sampler.AdvanceTo(10 + IntervalGrid::kMaxIntervals), CheckFailure);
  }
  EXPECT_TRUE(sampler.samples().empty());
  sampler.AdvanceTo(10 + IntervalGrid::kMaxIntervals - 1);
  EXPECT_EQ(sampler.samples().size(), IntervalGrid::kMaxIntervals - 1);
}

namespace sampler_determinism {

// One scheduler-driven sampled run: fresh System, fixed workload, fixed
// interval. Returns the serialized sample series.
std::string SampledSeriesJson() {
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(128), kXPLineSize);
  Sampler sampler(&system->counters(), /*interval_cycles=*/20000);
  sampler.SetGaugeSource(
      [&system](Cycles now) { return system->ReadGauges(now); });
  uint64_t i = 0;
  std::vector<SimJob> jobs;
  jobs.push_back({&ctx, [&]() {
                    const Addr a = region.At((i * kCacheLineSize) % region.size);
                    ctx.Store64(a, i);
                    ctx.Clwb(a);
                    ctx.Sfence();
                    return ++i < 400 ? StepResult::kProgress : StepResult::kDone;
                  }});
  Scheduler::Run(jobs, &sampler);
  sampler.Finalize(ctx.clock());
  return sampler.ToJson();
}

// Runs the sampled workload as 4 sweep points under the given --jobs level;
// returns each point's series in submission order.
std::vector<std::string> RunSampledSweep(const char* jobs_arg) {
  const char* argv[] = {"trace_test", jobs_arg};
  pmemsim_bench::Flags flags(2, const_cast<char**>(argv));
  pmemsim_bench::BenchReport report(flags, "sampler_determinism_test");
  pmemsim_bench::SweepRunner runner(flags);
  auto out = std::make_shared<std::vector<std::string>>(4);
  for (int p = 0; p < 4; ++p) {
    runner.Add("point" + std::to_string(p),
               [p, out](pmemsim_bench::SweepPoint&) { (*out)[p] = SampledSeriesJson(); });
  }
  EXPECT_EQ(runner.Run(report), 0);
  return *out;
}

}  // namespace sampler_determinism

TEST(Sampler, SeriesByteIdenticalAcrossRunsAndJobs) {
  using sampler_determinism::RunSampledSweep;
  const std::vector<std::string> serial = RunSampledSweep("--jobs=1");
  const std::vector<std::string> parallel = RunSampledSweep("--jobs=4");
  ASSERT_EQ(serial.size(), 4u);
  for (size_t p = 0; p < serial.size(); ++p) {
    EXPECT_FALSE(serial[p].empty()) << p;
    // Worker-thread interleaving must not leak into the sampled series.
    EXPECT_EQ(serial[p], parallel[p]) << "point " << p;
  }
  // Two identical serial runs are byte-identical too.
  EXPECT_EQ(serial, RunSampledSweep("--jobs=1"));

  // The series parses and covers multiple intervals.
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(serial[0], &v, &error)) << error;
  ASSERT_EQ(v.type, JsonValue::Type::kArray);
  ASSERT_GE(v.array.size(), 3u);
  EXPECT_EQ(v.array[0].Find("t_begin")->AsUint(), 0u);
  ASSERT_NE(v.array[0].Find("delta"), nullptr);
  ASSERT_NE(v.array[0].Find("gauges")->Find("wpq_occupancy"), nullptr);
}

}  // namespace
}  // namespace pmemsim
