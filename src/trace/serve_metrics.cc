#include "src/trace/serve_metrics.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/trace/json.h"
#include "src/trace/trace_events.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

// The one join of a memory-plane series onto a window list on the same grid:
// deltas add, and the series' last gauge reading in a window is that
// window's, added to what earlier-joined series (other Systems) put there.
// Samples past the last window (idle clock observed beyond a truncated end)
// clamp into it.
void GraftMem(const Sampler& mem, std::vector<ServeWindow>* windows) {
  std::vector<const SampleGauges*> last(windows->size(), nullptr);
  for (const Sample& s : mem.samples()) {
    const size_t i = std::min<size_t>(s.index, windows->size() - 1);
    (*windows)[i].has_mem = true;
    (*windows)[i].mem_delta += s.delta;
    last[i] = &s.gauges;
  }
  for (size_t i = 0; i < windows->size(); ++i) {
    if (last[i] != nullptr) {
      (*windows)[i].mem_gauges += *last[i];
    }
  }
}

}  // namespace

ServeMetrics::ServeMetrics(Cycles interval_cycles) : grid_{0, interval_cycles} {
  PMEMSIM_CHECK_MSG(interval_cycles > 0, "serve metrics interval must be positive");
}

void ServeMetrics::Begin(Cycles origin) {
  PMEMSIM_CHECK_MSG(!begun_, "ServeMetrics::Begin called twice");
  begun_ = true;
  grid_.origin = origin;
  max_observed_ = origin;
}

ServeMetrics::Bucket& ServeMetrics::BucketFor(Cycles t) {
  PMEMSIM_CHECK_MSG(begun_, "serve metrics event before Begin");
  PMEMSIM_CHECK_MSG(t >= grid_.origin, "serve metrics event predates the series origin");
  Bucket& b = buckets_[grid_.IndexOf(t)];
  max_observed_ = std::max(max_observed_, t);
  return b;
}

void ServeMetrics::RecordAdmission(Cycles t) {
  ++BucketFor(t).admitted;
  ++total_admitted_;
}

void ServeMetrics::RecordShed(Cycles t) {
  ++BucketFor(t).shed;
  ++total_shed_;
}

void ServeMetrics::RecordCompletion(Cycles end, Cycles sojourn) {
  Bucket& b = BucketFor(end);
  ++b.completed;
  b.sojourn.Add(sojourn);
  ++total_completed_;
}

void ServeMetrics::ObserveQueueDepth(Cycles t, uint64_t depth) {
  Bucket& b = BucketFor(t);
  // Latest observation wins; at equal timestamps the later call wins, which
  // within one engine's deterministic step order is itself deterministic.
  if (!b.has_depth || t >= b.depth_time) {
    b.has_depth = true;
    b.depth_time = t;
    b.depth = depth;
  }
}

void ServeMetrics::Finalize(Cycles end, const Sampler* mem) {
  if (finalized_) return;
  PMEMSIM_CHECK_MSG(begun_, "ServeMetrics::Finalize before Begin");
  PMEMSIM_CHECK_MSG(end >= max_observed_,
                    "serve metrics finalized before the last recorded event");
  // An empty or instantaneous serve phase still materializes one (possibly
  // zero-width) closing window so every timeline has windows to gate on.
  const uint64_t total = grid_.CountTo(end);
  finalized_ = true;

  windows_.resize(total);
  for (uint64_t i = 0; i < total; ++i) {
    ServeWindow& win = windows_[i];
    win.index = i;
    win.t_begin = grid_.Begin(i);
    win.t_end = std::min(grid_.Begin(i + 1), end);
    win.partial = (win.t_end - win.t_begin) < grid_.interval;
  }

  // Fold the sparse buckets in. Events stamped exactly at `end` when `end`
  // lies on a boundary indexed one past the last window; the closing window
  // owns its right edge, so clamp them in. The map iterates in index (so
  // time) order: a later bucket's depth observation wins across a clamp.
  std::vector<std::optional<uint64_t>> depth(total);
  for (const auto& [idx, b] : buckets_) {
    ServeWindow& win = windows_[std::min<uint64_t>(idx, total - 1)];
    win.completed += b.completed;
    win.admitted += b.admitted;
    win.shed += b.shed;
    win.sojourn.Merge(b.sojourn);
    if (b.has_depth) {
      depth[win.index] = b.depth;
    }
  }
  buckets_.clear();

  // Queue depth is a gauge: windows without an observation carry the last
  // known occupancy forward (a window with no folds still has a queue).
  uint64_t carry = 0;
  for (uint64_t i = 0; i < total; ++i) {
    carry = depth[i].value_or(carry);
    windows_[i].queue_depth = carry;
  }

  if (mem != nullptr) {
    GraftMem(*mem, &windows_);
  }
}

ServeTimeline::ServeTimeline(const Config& cfg) : cfg_(cfg), grid_{0, cfg.interval_cycles} {
  PMEMSIM_CHECK_MSG(cfg_.shards > 0, "serve timeline needs at least one shard");
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    metrics_.push_back(std::make_unique<ServeMetrics>(cfg_.interval_cycles));
  }
}

void ServeTimeline::EnableSpans() {
  if (!recorders_.empty()) return;
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    recorders_.push_back(std::make_unique<SpanRecorder>(s));
  }
}

void ServeTimeline::Begin(Cycles origin) {
  PMEMSIM_CHECK_MSG(!begun_, "ServeTimeline::Begin called twice");
  begun_ = true;
  grid_.origin = origin;
  for (auto& m : metrics_) m->Begin(origin);
}

Sampler* ServeTimeline::AttachMemSampler(const Counters* counters, Sampler::GaugeFn gauges,
                                         bool per_shard) {
  PMEMSIM_CHECK_MSG(begun_, "AttachMemSampler requires Begin (origin anchors the series)");
  mem_per_shard_ = per_shard;
  mem_.push_back(std::make_unique<Sampler>(counters, grid_.interval, grid_.origin));
  mem_.back()->SetGaugeSource(std::move(gauges));
  return mem_.back().get();
}

void ServeTimeline::Finalize(Cycles end) {
  if (finalized_) return;
  PMEMSIM_CHECK_MSG(begun_, "ServeTimeline::Finalize before Begin");
  // The window cap is checked before any series closes, so an end past it
  // leaves the timeline open for the truncated flush.
  const uint64_t windows = grid_.CountTo(end);
  finalized_ = true;
  end_ = end;
  for (auto& mem : mem_) mem->Finalize(end);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    metrics_[s]->Finalize(end, mem_per_shard_ && s < mem_.size() ? mem_[s].get() : nullptr);
  }
  MergeGlobal(windows);
}

void ServeTimeline::FlushTruncated() {
  if (finalized_) return;
  truncated_ = true;
  if (!begun_) Begin(0);
  Cycles end = grid_.origin;
  for (auto& m : metrics_) end = std::max(end, m->max_observed());
  Finalize(end);
}

void ServeTimeline::MergeGlobal(uint64_t n) {
  // Every shard finalized at the same [origin, end] with the same interval,
  // so the window lists are congruent; the global view is the per-index
  // field-wise merge in fixed shard order (determinism: commutative sums,
  // fixed iteration order for the one double field).
  for (const auto& m : metrics_) {
    PMEMSIM_CHECK_MSG(m->windows().size() == n, "shard window counts diverge");
  }
  global_windows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ServeWindow& g = global_windows_[i];
    const ServeWindow& ref = metrics_[0]->windows()[i];
    g.index = ref.index;
    g.t_begin = ref.t_begin;
    g.t_end = ref.t_end;
    g.partial = ref.partial;
    for (const auto& m : metrics_) {
      const ServeWindow& w = m->windows()[i];
      g.completed += w.completed;
      g.admitted += w.admitted;
      g.shed += w.shed;
      g.queue_depth += w.queue_depth;
      g.sojourn.Merge(w.sojourn);
    }
  }
  // The global memory plane: every System's series, summed in System order.
  for (const auto& mem : mem_) {
    GraftMem(*mem, &global_windows_);
  }
}

ServeTimeline::SloSummary ServeTimeline::Slo() const {
  SloSummary slo;
  slo.windows = global_windows_.size();
  for (const ServeWindow& w : global_windows_) {
    if (w.completed == 0) continue;
    ++slo.windows_with_traffic;
    if (w.sojourn.Quantile(0.99) > cfg_.slo_p99_cycles) ++slo.violations;
  }
  slo.burn_rate = slo.windows_with_traffic
                      ? static_cast<double>(slo.violations) /
                            static_cast<double>(slo.windows_with_traffic)
                      : 0.0;
  return slo;
}

void ServeTimeline::WindowToJson(JsonWriter& w, const ServeWindow& win, bool with_slo) const {
  w.BeginObject();
  w.Key("index").Value(win.index);
  w.Key("t_begin").Value(win.t_begin);
  w.Key("t_end").Value(win.t_end);
  w.Key("partial").Value(win.partial);
  w.Key("completed").Value(win.completed);
  w.Key("admitted").Value(win.admitted);
  w.Key("shed").Value(win.shed);
  w.Key("queue_depth").Value(win.queue_depth);
  for (const auto& [key, q] : {std::pair{"sojourn_p50", 0.50}, std::pair{"sojourn_p99", 0.99},
                               std::pair{"sojourn_p999", 0.999}}) {
    w.Key(key);
    if (win.sojourn.count()) {
      w.Value(win.sojourn.Quantile(q));
    } else {
      w.Null();
    }
  }
  if (with_slo && cfg_.slo_p99_cycles > 0) {
    w.Key("slo_violation")
        .Value(win.completed > 0 && win.sojourn.Quantile(0.99) > cfg_.slo_p99_cycles);
  }
  if (win.has_mem) {
    w.Key("mem").BeginObject();
    w.Key("imc_read_bytes").Value(win.mem_delta.imc_read_bytes);
    w.Key("imc_write_bytes").Value(win.mem_delta.imc_write_bytes);
    w.Key("media_read_bytes").Value(win.mem_delta.media_read_bytes);
    w.Key("media_write_bytes").Value(win.mem_delta.media_write_bytes);
    w.Key("wpq_stall_cycles").Value(win.mem_delta.wpq_stall_cycles);
    w.Key("wpq_occupancy").Value(win.mem_gauges.wpq_occupancy);
    w.Key("read_buffer_entries").Value(win.mem_gauges.read_buffer_entries);
    w.Key("write_buffer_entries").Value(win.mem_gauges.write_buffer_entries);
    w.Key("serve_queue_depth").Value(win.mem_gauges.serve_queue_depth);
    w.EndObject();
  }
  w.EndObject();
}

std::string ServeTimeline::ToJson() const {
  PMEMSIM_CHECK_MSG(finalized_, "serve timeline serialized before Finalize");
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("config").BeginObject();
  w.Key("mix").Value(cfg_.mix);
  w.Key("loop").Value(cfg_.loop);
  w.Key("store").Value(cfg_.store);
  w.Key("engine").Value(cfg_.engine);
  w.Key("shards").Value(uint64_t{cfg_.shards});
  w.Key("interval_cycles").Value(cfg_.interval_cycles);
  w.Key("slo_p99_cycles").Value(cfg_.slo_p99_cycles);
  w.EndObject();
  w.Key("serve_start").Value(grid_.origin);
  w.Key("end").Value(end_);
  w.Key("truncated").Value(truncated_);

  uint64_t completed = 0, admitted = 0, shed = 0;
  for (const auto& m : metrics_) {
    completed += m->total_completed();
    admitted += m->total_admitted();
    shed += m->total_shed();
  }
  w.Key("totals").BeginObject();
  w.Key("completed").Value(completed);
  w.Key("admitted").Value(admitted);
  w.Key("shed").Value(shed);
  w.EndObject();

  if (cfg_.slo_p99_cycles > 0) {
    const SloSummary slo = Slo();
    w.Key("slo").BeginObject();
    w.Key("violations").Value(slo.violations);
    w.Key("windows").Value(slo.windows);
    w.Key("windows_with_traffic").Value(slo.windows_with_traffic);
    w.Key("burn_rate").Value(slo.burn_rate);
    w.EndObject();
  }

  w.Key("global").BeginObject();
  w.Key("windows").BeginArray();
  for (const ServeWindow& win : global_windows_) WindowToJson(w, win, /*with_slo=*/true);
  w.EndArray();
  w.EndObject();

  w.Key("shards").BeginArray();
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    w.BeginObject();
    w.Key("shard").Value(uint64_t{s});
    w.Key("windows").BeginArray();
    for (const ServeWindow& win : metrics_[s]->windows()) {
      WindowToJson(w, win, /*with_slo=*/false);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ServeTimeline::SpansToJson() const {
  // Columnar form: one array per field, rows aligned by position, shards
  // concatenated in index order — ~4x smaller than an object per span and
  // byte-stable across host parallelism by the same argument as the windows.
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("ops").BeginArray();
  for (int i = 0; i < kServeOpCount; ++i) {
    w.Value(ServeOpName(static_cast<ServeOp>(i)));
  }
  w.EndArray();
  w.Key("stages").BeginArray();
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    w.Value(AttributionCollector::StageName(static_cast<AttributionCollector::Stage>(s)));
  }
  w.EndArray();

  uint64_t dropped = 0;
  auto column = [&](const char* name, auto&& get) {
    w.Key(name).BeginArray();
    for (const auto& r : recorders_) {
      for (const RequestSpan& sp : r->spans()) w.Value(get(sp));
    }
    w.EndArray();
  };
  w.Key("spans").BeginObject();
  column("shard", [](const RequestSpan& s) { return uint64_t{s.shard}; });
  column("client", [](const RequestSpan& s) { return uint64_t{s.client}; });
  column("op", [](const RequestSpan& s) { return uint64_t{s.op}; });
  column("arrival", [](const RequestSpan& s) { return s.arrival; });
  column("admit", [](const RequestSpan& s) { return s.admit; });
  column("start", [](const RequestSpan& s) { return s.start; });
  column("end", [](const RequestSpan& s) { return s.end; });
  w.Key("stage_cycles").BeginArray();
  for (int st = 0; st < AttributionCollector::kStageCount; ++st) {
    w.BeginArray();
    for (const auto& r : recorders_) {
      for (const RequestSpan& sp : r->spans()) w.Value(sp.stages[st]);
    }
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();

  for (const auto& r : recorders_) dropped += r->dropped();
  w.Key("dropped").Value(dropped);
  w.EndObject();
  return w.str();
}

std::string ServeTimeline::SpansToChromeTrace() const {
  // chrome://tracing "X" (complete) events; ts/dur are simulated cycles
  // rendered as microseconds by the viewer — relative shape is what matters.
  JsonWriter out;
  WriteChromeTrace(out, [this](JsonWriter& w) {
    for (uint32_t s = 0; s < cfg_.shards; ++s) {
      TraceNameRow(w, s, std::nullopt, "shard " + std::to_string(s));
    }
    for (const auto& r : recorders_) {
      for (const RequestSpan& sp : r->spans()) {
        TraceRow(w, ServeOpName(static_cast<ServeOp>(sp.op)), 'X', sp.shard, sp.client, sp.start,
                 sp.service());
        w.Key("args").BeginObject();
        w.Key("arrival").Value(sp.arrival);
        w.Key("admit").Value(sp.admit);
        w.Key("queue_wait").Value(sp.start - sp.arrival);
        w.Key("stages").BeginObject();
        for (int st = 0; st < AttributionCollector::kStageCount; ++st) {
          if (sp.stages[st] == 0) continue;
          w.Key(AttributionCollector::StageName(static_cast<AttributionCollector::Stage>(st)))
              .Value(sp.stages[st]);
        }
        w.EndObject();
        w.EndObject();
        w.EndObject();
      }
    }
  });
  return out.str();
}

}  // namespace pmemsim
