// Latency-attribution tests: the conservation identity (per-stage cycle
// totals sum exactly to end-to-end latency, which sums exactly to the clock
// advance of the recorded operations), remainder crediting, and the JSON /
// critical-path renderings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/trace/attribution.h"
#include "src/trace/json.h"

namespace pmemsim {
namespace {

TEST(Attribution, RemainderIsCreditedToCore) {
  AttributionCollector attr;
  AttributionCollector::StageDurations stages;
  stages.v[AttributionCollector::kMediaRead] = 60;
  stages.v[AttributionCollector::kAitLookup] = 10;
  attr.RecordAccess(AttributionCollector::kLoad, 100, stages);

  EXPECT_EQ(attr.access_count(), 1u);
  EXPECT_EQ(attr.end_to_end_total(), 100u);
  EXPECT_EQ(attr.stage_total(AttributionCollector::kMediaRead), 60u);
  EXPECT_EQ(attr.stage_total(AttributionCollector::kAitLookup), 10u);
  // The unattributed 30 cycles land in core, so the sum conserves exactly.
  EXPECT_EQ(attr.stage_total(AttributionCollector::kCore), 30u);
  EXPECT_EQ(attr.StageTotalSum(), attr.end_to_end_total());
}

TEST(Attribution, AsyncAcceptStaysOutsideConservation) {
  AttributionCollector attr;
  attr.RecordAccess(AttributionCollector::kNtStore, 10, {});
  attr.RecordAsyncAccept(500);
  EXPECT_EQ(attr.end_to_end_total(), 10u);
  EXPECT_EQ(attr.StageTotalSum(), 10u);
  EXPECT_EQ(attr.async_accept_hist().count(), 1u);
  EXPECT_EQ(attr.async_accept_hist().Max(), 500u);
}

// RecordStage is RecordAccess with one named stage: a seeded random op
// sequence recorded both ways must leave identical collectors, down to the
// JSON bytes and the overlapped (critical-path) totals.
TEST(Attribution, RecordStageMatchesRecordAccess) {
  using A = AttributionCollector;
  A one_stage;
  A reference;
  Rng rng(0xA77B1);
  for (int i = 0; i < 20000; ++i) {
    const auto op = static_cast<A::Op>(rng.NextBelow(A::kOpCount));
    const auto stage = static_cast<A::Stage>(rng.NextBelow(A::kStageCount));
    // Mostly small latencies, some spanning many histogram octaves, and the
    // edge cases: zero end-to-end, and stage cycles of zero or all of it.
    Cycles end_to_end = rng.NextBelow(600);
    if (rng.NextBelow(8) == 0) {
      end_to_end = rng.NextBelow(Cycles{1} << 30);
    }
    Cycles cycles = 0;
    switch (rng.NextBelow(4)) {
      case 0:
        break;
      case 1:
        cycles = end_to_end;
        break;
      default:
        cycles = rng.NextBelow(end_to_end + 1);
        break;
    }
    one_stage.RecordStage(op, end_to_end, stage, cycles);
    A::StageDurations stages;
    stages.v[stage] = cycles;
    reference.RecordAccess(op, end_to_end, stages);
    if (rng.NextBelow(16) == 0) {
      one_stage.RecordOverlapped(stages);
      reference.RecordOverlapped(stages);
    }
  }
  EXPECT_EQ(one_stage.ToJson(), reference.ToJson());
  EXPECT_EQ(one_stage.access_count(), reference.access_count());
  EXPECT_EQ(one_stage.end_to_end_total(), reference.end_to_end_total());
  EXPECT_EQ(one_stage.StageTotalSum(), one_stage.end_to_end_total());
  for (int s = 0; s < A::kStageCount; ++s) {
    const auto stage = static_cast<A::Stage>(s);
    EXPECT_EQ(one_stage.stage_total(stage), reference.stage_total(stage)) << A::StageName(stage);
    EXPECT_EQ(one_stage.critical_stage_total(stage), reference.critical_stage_total(stage))
        << A::StageName(stage);
  }
}

TEST(Attribution, RecordStageChecksConservation) {
  using A = AttributionCollector;
  A attr;
  ScopedCheckCapture capture;
  EXPECT_THROW(attr.RecordStage(A::kLoad, 10, A::kL1Hit, 11), CheckFailure);
  EXPECT_THROW(attr.RecordStage(A::kFence, 0, A::kWpqWait, 1), CheckFailure);
  EXPECT_EQ(attr.access_count(), 0u);
  EXPECT_NO_THROW(attr.RecordStage(A::kLoad, 10, A::kL1Hit, 10));
  EXPECT_EQ(attr.access_count(), 1u);
}

// The identity the module exists for: drive a mixed trace through a real G1
// system and check cycles are conserved at both levels — stages vs end-to-end
// per the collector, and recorded end-to-end vs the thread's clock advance
// (every op used here records exactly its clock advance).
TEST(Attribution, MixedTraceConservesCyclesExactly) {
  auto system = MakeG1System(1);
  AttributionCollector attr;
  system->SetAttribution(&attr);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(512), kXPLineSize);
  const uint64_t lines = region.size / kCacheLineSize;

  const Cycles start = ctx.clock();
  uint64_t ops = 0;
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    const Addr a = region.At(((i * 7) % lines) * kCacheLineSize);
    switch (i % 5) {
      case 0:
        sink += ctx.Load64(a);
        ops += 1;
        break;
      case 1:
        ctx.Store64(a, i);
        ctx.Clwb(a);
        ctx.Sfence();
        ops += 3;
        break;
      case 2:
        ctx.NtStore64(a, i);
        ctx.Sfence();
        ops += 2;
        break;
      case 3:
        ctx.Store64(a, i);
        ctx.Clflushopt(a);
        ctx.Mfence();
        ops += 3;
        break;
      case 4:
        sink += ctx.Load64(a);
        ops += 1;
        break;
    }
  }
  (void)sink;

  // Every operation recorded exactly once.
  EXPECT_EQ(attr.access_count(), ops);
  uint64_t per_op = 0;
  for (int op = 0; op < AttributionCollector::kOpCount; ++op) {
    per_op += attr.op_hist(static_cast<AttributionCollector::Op>(op)).count();
  }
  EXPECT_EQ(per_op, ops);

  // Conservation level 1: stage totals sum to recorded end-to-end, exactly.
  EXPECT_EQ(attr.StageTotalSum(), attr.end_to_end_total());
  // Conservation level 2: recorded end-to-end sums to the clock advance of
  // the trace, exactly — no simulated cycle is double-counted or dropped.
  EXPECT_EQ(attr.end_to_end_total(), static_cast<uint64_t>(ctx.clock() - start));

  // The trace exercised the memory side: media reads, buffer service and
  // WPQ waits must all have accumulated cycles.
  EXPECT_GT(attr.stage_total(AttributionCollector::kMediaRead), 0u);
  EXPECT_GT(attr.stage_total(AttributionCollector::kReadBuffer), 0u);
  EXPECT_GT(attr.stage_total(AttributionCollector::kWpqWait), 0u);
  EXPECT_GT(attr.async_accept_hist().count(), 0u);
}

TEST(Attribution, JsonSharesSumToOneAndReconcile) {
  auto system = MakeG1System(1);
  AttributionCollector attr;
  system->SetAttribution(&attr);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(64), kXPLineSize);
  for (uint64_t i = 0; i < 200; ++i) {
    const Addr a = region.At((i * kCacheLineSize) % region.size);
    ctx.Store64(a, i);
    ctx.Clwb(a);
    ctx.Sfence();
  }

  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(attr.ToJson(), &v, &error)) << error;
  EXPECT_EQ(v.Find("accesses")->AsUint(), attr.access_count());
  EXPECT_EQ(v.Find("end_to_end_total")->AsUint(), attr.end_to_end_total());
  EXPECT_EQ(v.Find("stage_total_sum")->AsUint(), attr.StageTotalSum());

  // Only stages that accumulated cycles appear; omitted means exactly zero,
  // so the emitted totals/shares still reconcile with the global sums.
  const JsonValue* stages = v.Find("stages");
  ASSERT_NE(stages, nullptr);
  uint64_t total = 0;
  double share = 0.0;
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    const auto stage_id = static_cast<AttributionCollector::Stage>(s);
    const char* name = AttributionCollector::StageName(stage_id);
    const JsonValue* stage = stages->Find(name);
    if (stage == nullptr) {
      EXPECT_EQ(attr.stage_total(stage_id), 0u) << name;
      continue;
    }
    EXPECT_EQ(stage->Find("total_cycles")->AsUint(), attr.stage_total(stage_id)) << name;
    total += stage->Find("total_cycles")->AsUint();
    share += stage->Find("share")->AsDouble();
    // A present stage always carries a populated percentile histogram.
    const JsonValue* hist = stage->Find("hist");
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GT(hist->Find("count")->AsUint(), 0u) << name;
    EXPECT_NE(hist->Find("p50")->type, JsonValue::Type::kNull) << name;
  }
  EXPECT_EQ(total, attr.end_to_end_total());
  EXPECT_NEAR(share, 1.0, 1e-9);

  const JsonValue* async = v.Find("async");
  ASSERT_NE(async, nullptr);
  ASSERT_NE(async->Find("wpq_accept"), nullptr);

  // The critical-path rendering names the dominant stages.
  const std::string table = attr.CriticalPathTable();
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("core"), std::string::npos);
  EXPECT_NE(table.find("wpq_accept"), std::string::npos);
}

TEST(Attribution, CollectorAbsentMeansNoRecording) {
  // The default path: no collector installed. Nothing to assert about the
  // collector itself — this guards that a normal run doesn't require one.
  auto system = MakeG1System(1);
  ThreadContext& ctx = system->CreateThread();
  const PmRegion region = system->AllocatePm(KiB(4), kXPLineSize);
  ctx.Store64(region.At(0), 1);
  ctx.Clwb(region.At(0));
  ctx.Sfence();
  EXPECT_GT(ctx.clock(), 0u);

  // Installing a collector mid-run starts recording from that point only.
  AttributionCollector attr;
  system->SetAttribution(&attr);
  const Cycles t0 = ctx.clock();
  (void)ctx.Load64(region.At(0));
  EXPECT_EQ(attr.access_count(), 1u);
  EXPECT_EQ(attr.end_to_end_total(), static_cast<uint64_t>(ctx.clock() - t0));
}

}  // namespace
}  // namespace pmemsim
