// Windowed serve-phase telemetry: the serving tier's `ipmwatch`.
//
// End-of-run aggregates hide exactly the pathologies the paper's methodology
// is built to expose — a shed burst, a warm-up tail, a write-buffer thrash
// episode are visible only in the *timeline*. ServeMetrics reproduces the
// interval view for the request plane: per `interval_cycles` window of
// simulated time it reports throughput (completions), admissions, sheds, the
// queue-depth gauge at window close, and windowed p50/p99/p999 sojourn
// quantiles. Windows are cut on the memory-plane Sampler's IntervalGrid
// (src/trace/sampler.h): one tiling rule and one window cap for both.
//
// Determinism: events are bucketed by their *simulated* timestamps, and every
// per-window aggregate is commutative (counts sum, histogram adds commute),
// so the materialized timeline depends only on the simulated event set —
// never on host interleaving. The one order-sensitive reading, the
// queue-depth gauge, takes the last observation per window in the owning
// engine's step order, which is itself deterministic per domain. That is what
// makes the emitted timeline byte-identical at any --jobs x --engine_threads.
//
// Conservation (gated by tests and scripts/check_timeline.py): the windows
// tile [origin, end) contiguously (only the final window may be partial), and
// the field-wise window sums equal the whole-run totals exactly — completed,
// admitted, and shed events each land in exactly one window.
//
// ServeTimeline bundles one ServeMetrics (plus optional SpanRecorder) per
// shard and one memory-plane Sampler per System, merges them into the global
// per-window view (whose memory plane sums every System's series), evaluates
// the SLO monitor (--slo_p99_cycles), and serializes the --timeline_json
// artifact. It is also the unwind-flush target: FlushTruncated() finalizes
// whatever was observed so a failed sweep point still emits a well-formed
// (marked truncated) timeline.

#ifndef SRC_TRACE_SERVE_METRICS_H_
#define SRC_TRACE_SERVE_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/trace/counters.h"
#include "src/trace/sampler.h"
#include "src/trace/span.h"

namespace pmemsim {

class JsonWriter;

// One materialized telemetry window: [t_begin, t_end), except the closing
// window which also owns events stamped exactly at its t_end.
struct ServeWindow {
  uint64_t index = 0;
  Cycles t_begin = 0;
  Cycles t_end = 0;
  bool partial = false;  // closing window cut short by Finalize
  uint64_t completed = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t queue_depth = 0;  // occupancy at window close (carried forward)
  Histogram sojourn;         // per-window sojourn latencies -> windowed tails
  bool has_mem = false;      // memory-plane interval joined in
  Counters mem_delta;
  SampleGauges mem_gauges;
};

// Per-shard windowed serve metrics. All recording calls happen on the shard's
// engine thread (lockstep, or the domain's host thread within an epoch);
// Begin/Finalize happen on the coordinator outside engine execution.
class ServeMetrics {
 public:
  explicit ServeMetrics(Cycles interval_cycles);

  // Opens the series at the serve-phase origin. Must precede any Record*.
  void Begin(Cycles origin);

  void RecordAdmission(Cycles t);
  void RecordShed(Cycles t);
  void RecordCompletion(Cycles end, Cycles sojourn);
  // Queue-occupancy gauge: the last observation per window (in call order,
  // which is the owning engine's deterministic step order) closes the window.
  void ObserveQueueDepth(Cycles t, uint64_t depth);

  // Materializes the contiguous window list over [origin, end] (window cap
  // checked first), emitting zero windows for idle intervals, and joins
  // `mem`, this shard's own finalized memory-plane series, when given.
  // Idempotent (later calls are ignored), so the unwind flush may race a
  // completed normal finalize without harm.
  void Finalize(Cycles end, const Sampler* mem = nullptr);
  bool finalized() const { return finalized_; }

  bool begun() const { return begun_; }
  // Largest event timestamp observed; the truncated-flush finalize point.
  Cycles max_observed() const { return max_observed_; }
  uint64_t total_completed() const { return total_completed_; }
  uint64_t total_admitted() const { return total_admitted_; }
  uint64_t total_shed() const { return total_shed_; }

  const std::vector<ServeWindow>& windows() const { return windows_; }

 private:
  struct Bucket {
    uint64_t completed = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    Histogram sojourn;
    bool has_depth = false;
    Cycles depth_time = 0;
    uint64_t depth = 0;
  };

  Bucket& BucketFor(Cycles t);

  IntervalGrid grid_;
  bool begun_ = false;
  bool finalized_ = false;
  Cycles max_observed_ = 0;
  uint64_t total_completed_ = 0;
  uint64_t total_admitted_ = 0;
  uint64_t total_shed_ = 0;
  std::map<uint64_t, Bucket> buckets_;  // sparse, keyed by window index
  std::vector<ServeWindow> windows_;
};

// The whole-point serve timeline (see the file comment).
class ServeTimeline {
 public:
  struct Config {
    std::string mix;
    std::string loop;
    std::string store;
    // "interleaved" (shared layout) or "partitioned" (DomainTier).
    // Deliberately no engine_threads anywhere in the artifact: the timeline
    // must byte-compare across host thread counts.
    std::string engine;
    uint32_t shards = 1;
    Cycles interval_cycles = 0;
    uint64_t slo_p99_cycles = 0;  // 0 = SLO monitor off
  };

  struct SloSummary {
    uint64_t violations = 0;
    uint64_t windows = 0;
    uint64_t windows_with_traffic = 0;
    double burn_rate = 0.0;  // violations / windows_with_traffic
  };

  explicit ServeTimeline(const Config& cfg);

  // Creates one SpanRecorder per shard (off by default: pay-for-use).
  void EnableSpans();

  ServeMetrics* shard(uint32_t s) { return metrics_[s].get(); }
  // nullptr unless EnableSpans() was called.
  SpanRecorder* spans(uint32_t s) {
    return recorders_.empty() ? nullptr : recorders_[s].get();
  }

  // Opens every shard series at the serve-phase origin.
  void Begin(Cycles origin);

  // Adds one memory-plane series over a System's `counters`, on the
  // timeline's grid. Call after Begin, once per System in System order; the
  // owner drives the sampler. `per_shard` marks series i as shard i's own
  // (partitioned layout), which joins it to that shard's windows as well.
  Sampler* AttachMemSampler(const Counters* counters, Sampler::GaugeFn gauges, bool per_shard);
  Sampler* mem_sampler(size_t i) { return mem_[i].get(); }

  // Normal close at the engine's serve end (every shard at the same end, so
  // window counts line up across shards). An end past the window cap fails
  // before anything closes, leaving the timeline to FlushTruncated.
  void Finalize(Cycles end);

  // Unwind-flush path: finalizes at the maximum observed event time so a
  // failing sweep point still yields a well-formed timeline, marked
  // truncated. Safe to call at any point in the lifecycle, repeatedly.
  void FlushTruncated();
  bool truncated() const { return truncated_; }

  // Valid after Finalize/FlushTruncated.
  const std::vector<ServeWindow>& global_windows() const { return global_windows_; }
  SloSummary Slo() const;

  // The per-point --timeline_json artifact (see scripts/check_timeline.py
  // for the schema this must satisfy).
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

  // Compact span export: columnar arrays, one row per span, shards
  // concatenated in index order.
  std::string SpansToJson() const;
  // chrome://tracing export: one "X" (complete) event per span, pid = shard,
  // tid = client, ts/dur in simulated cycles, stage breakdown in args.
  std::string SpansToChromeTrace() const;

 private:
  void MergeGlobal(uint64_t windows);
  void WindowToJson(JsonWriter& w, const ServeWindow& win, bool with_slo) const;

  Config cfg_;
  std::vector<std::unique_ptr<ServeMetrics>> metrics_;
  std::vector<std::unique_ptr<SpanRecorder>> recorders_;
  std::vector<std::unique_ptr<Sampler>> mem_;  // one per System, in System order
  bool mem_per_shard_ = false;                 // mem_[i] is shard i's own series
  std::vector<ServeWindow> global_windows_;
  IntervalGrid grid_;
  Cycles end_ = 0;
  bool begun_ = false;
  bool finalized_ = false;
  bool truncated_ = false;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_SERVE_METRICS_H_
