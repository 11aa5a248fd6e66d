// pmemsim_serve — the sharded KV request-serving tier.
//
// Stands up N shards (each its own datastore instance with M worker threads
// and a bounded admission queue) on one simulated machine per configuration,
// drives YCSB core mixes from closed-loop (fixed clients, exponential think)
// or open-loop (Poisson arrivals) client populations, and reports throughput
// plus exact-rank p50/p99/p999 sojourn tails per shard and globally. The
// per-shard memory-side decomposition (media/buffer/RAP/WPQ) comes from the
// attribution layer and lands in the --stats_json "serve" section.
//
//   $ pmemsim_serve --store=fastfair --mixes=a,b --loop=both --shards=4
//   $ pmemsim_serve --store=cceh --mixes=a --loop=open --arrival_interval=300
//       --queue_depth=16 --stats_json=serve.json
//
// Each (mix, loop) combination is one sweep point with its own System and
// seed-derived randomness, so --jobs=N parallelism keeps stdout and the JSON
// report byte-identical to a serial run.

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "src/common/check.h"
#include "src/core/platform.h"
#include "src/serve/domain_tier.h"
#include "src/serve/tier.h"
#include "src/trace/json.h"
#include "src/trace/serve_metrics.h"
#include "src/workload/ycsb.h"

namespace {

using namespace pmemsim;

struct ServeCliConfig {
  PlatformConfig platform;
  uint32_t dimms = 0;  // 0 = one DIMM per shard, in either layout
  ServeConfig serve;
  std::vector<std::string> mixes;
  std::vector<LoopMode> loops;
  bool partitioned = false;  // --engine_threads present: run the DomainTier engine
  bool quiet = false;
  // Serve observability (all off by default: the hot path pays nothing).
  Cycles sample_interval = 0;     // telemetry window width; 0 = windowing off
  uint64_t slo_p99 = 0;           // per-window p99 SLO threshold; 0 = monitor off
  std::string timeline_path;      // --timeline_json artifact
  std::string spans_path;         // --spans_json compact columnar span export
  std::string span_trace_path;    // --span_trace chrome://tracing span export
  bool observe = false;           // any of the above requested
};

// The sweep point currently running on this worker thread, for the hard-abort
// flush below. Captured failures never reach the process-wide hook (the sweep
// runner catches them in the same frame as its capture scope), so this only
// matters when a CHECK fails outside any capture and the process is about to
// abort.
thread_local ServeTimeline* g_active_timeline = nullptr;
const std::string* g_timeline_path = nullptr;  // set once before runner.Run

void FlushTimelineOnAbort() {
  ServeTimeline* timeline = g_active_timeline;
  if (timeline == nullptr) {
    return;
  }
  timeline->FlushTruncated();
  if (g_timeline_path == nullptr || g_timeline_path->empty()) {
    return;
  }
  // main() never assembles the multi-point artifact on this path; persist the
  // failing point alone, at a side path so the real artifact stays absent.
  const std::string path = *g_timeline_path + ".aborted";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string json = timeline->ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
}

// Serializes the point's timeline into its artifact slot on every exit path.
// Normal completion writes the tier-finalized timeline; a propagating failure
// first flushes it truncated at the last observed event, so a failed sweep
// point still yields a well-formed (marked truncated) timeline. The guard
// must live INSIDE the point body: the sweep runner catches the exception in
// the same frame that holds its ScopedCheckCapture, so only an object in the
// point's own frame destructs while the exception is still in flight. It must
// also be declared after the tier: the flush samples the tier's machines, so
// it has to run before they are destroyed.
class TimelineSlotGuard {
 public:
  TimelineSlotGuard(ServeTimeline* timeline, std::string* slot)
      : timeline_(timeline), slot_(slot) {
    if (timeline_ != nullptr) {
      g_active_timeline = timeline_;
      RegisterCaptureUnwindHook(&FlushTimelineOnAbort);  // hard-abort cover
    }
  }
  ~TimelineSlotGuard() {
    if (timeline_ == nullptr) {
      return;
    }
    g_active_timeline = nullptr;
    timeline_->FlushTruncated();  // no-op after the tier's normal Finalize
    *slot_ = timeline_->ToJson();
  }
  TimelineSlotGuard(const TimelineSlotGuard&) = delete;
  TimelineSlotGuard& operator=(const TimelineSlotGuard&) = delete;

 private:
  ServeTimeline* timeline_;
  std::string* slot_;
};

bool WriteFileOrComplain(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) {
      out.push_back(s.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

void EmitScope(pmemsim_bench::SweepPoint& point, const ServeCliConfig& cli,
               const std::string& mix, LoopMode loop, const std::string& scope,
               const ServiceStats& stats, Cycles serve_start) {
  const double ghz = cli.platform.cpu_ghz;
  const double ops_sec = stats.OpsPerSec(ghz, serve_start);
  const uint64_t p50 = stats.sojourn.Quantile(0.50);
  const uint64_t p99 = stats.sojourn.Quantile(0.99);
  const uint64_t p999 = stats.sojourn.Quantile(0.999);
  if (!cli.quiet) {
    point.Printf("%s,%s,%s,%s,%.0f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 "\n",
                 mix.c_str(), LoopModeName(loop), StoreName(cli.serve.store), scope.c_str(),
                 ops_sec, p50, p99, p999, stats.offered, stats.rejected, stats.completed);
  }
  point.AddRow()
      .Set("mix", mix)
      .Set("loop", LoopModeName(loop))
      .Set("store", StoreName(cli.serve.store))
      .Set("scope", scope)
      .Set("shards", cli.serve.shards)
      .Set("workers_per_shard", cli.serve.workers_per_shard)
      .Set("ops_per_sec", ops_sec)
      .Set("sojourn_p50", p50)
      .Set("sojourn_p99", p99)
      .Set("sojourn_p999", p999)
      .Set("offered", stats.offered)
      .Set("rejected", stats.rejected)
      .Set("completed", stats.completed);
}

void RunPoint(const ServeCliConfig& cli, const std::string& mix, LoopMode loop,
              pmemsim_bench::SweepPoint& point, std::string* serve_json,
              ServeTimeline* timeline, std::string* timeline_json) {
  ServeConfig cfg = cli.serve;
  cfg.mix_name = mix;
  cfg.mix = *MixByName(mix);
  cfg.loop = loop;
  // The shared layout puts every shard on one System (--dimms in total,
  // default one per shard); the partitioned layout gives each shard its own
  // (--dimms per shard, default 1 — the same DIMMs per shard either way).
  std::unique_ptr<System> shared;
  std::unique_ptr<ServeEngine> tier;
  if (cli.partitioned) {
    tier = std::make_unique<DomainTier>(cli.platform, cli.dimms != 0 ? cli.dimms : 1, cfg);
  } else {
    shared = std::make_unique<System>(cli.platform, cli.dimms != 0 ? cli.dimms : cfg.shards);
    tier = std::make_unique<ServiceTier>(shared.get(), cfg);
  }
  TimelineSlotGuard flush_guard(timeline, timeline_json);
  tier->AttachTimeline(timeline);
  tier->Run();
  EmitScope(point, cli, mix, loop, "global", tier->GlobalStats(), tier->serve_start());
  for (const auto& shard : tier->shards()) {
    char scope[16];
    std::snprintf(scope, sizeof(scope), "shard%u", shard->index());
    EmitScope(point, cli, mix, loop, scope, shard->stats(), tier->serve_start());
  }
  *serve_json = tier->ToJson();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: pmemsim_serve [--store=cceh|fastfair|flatlog] [--mixes=a,b,c,d,e,f]\n"
      "                     [--loop=closed|open|both] [--shards=4] [--workers=2]\n"
      "                     [--queue_depth=64] [--batch=8] [--clients=8] [--think=4000]\n"
      "                     [--arrival_interval=1500] [--ops=20000] [--keys=20000]\n"
      "                     [--theta=0.99] [--scan_len=16] [--seed=42]\n"
      "                     [--platform=g1|g2|g2-eadr] [--dimms=0] [--jobs=1]\n"
      "                     [--engine_threads=N] [--dispatch_latency=2048] [--quiet]\n"
      "                     [--sample_interval_cycles=C] [--timeline_json=<path>]\n"
      "                     [--slo_p99_cycles=C] [--spans_json=<path>]\n"
      "                     [--span_trace=<path>]\n"
      "%s"
      "serve observability (off by default; the serve hot path pays nothing):\n"
      "  --sample_interval_cycles=C  windowed serve telemetry: per-C-cycle\n"
      "                      throughput/shed/queue-depth/windowed tails\n"
      "  --timeline_json=<path>  write the per-window timeline artifact\n"
      "                      (enables windowing; default window 20000 cycles)\n"
      "  --slo_p99_cycles=C  per-window p99 sojourn SLO monitor (violations +\n"
      "                      burn rate in the timeline and a 'slo' stats\n"
      "                      section); requires windowing\n"
      "  --spans_json=<path>  per-request spans, columnar JSON (single sweep\n"
      "                      point only: one mix x one loop)\n"
      "  --span_trace=<path>  per-request spans as chrome://tracing events\n"
      "                      (single sweep point only)\n"
      "parallelism (two independent axes; both keep output byte-identical):\n"
      "  --jobs=N            ACROSS sweep points: run N (mix,loop) points\n"
      "                      concurrently, each on its own simulated machine\n"
      "  --engine_threads=N  WITHIN one sweep point: select the partitioned\n"
      "                      engine and advance its shard domains on N host\n"
      "                      threads. Changes the simulated model (per-shard\n"
      "                      machines + client dispatch latency), never the\n"
      "                      results for a given model: any N compares equal\n"
      "  --dispatch_latency=C  partitioned engine only: client->shard dispatch\n"
      "                      latency in cycles (the epoch window; 0 = eager\n"
      "                      sequential fallback)\n",
      pmemsim_bench::kTelemetryFlagsHelp);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(argc, argv);
  if (flags.Has("help")) {
    return Usage();
  }

  ServeCliConfig cli;
  const std::string platform_name = flags.Get("platform", "g1");
  const auto platform = PlatformByName(platform_name);
  if (!platform) {
    pmemsim_bench::Flags::BadValue("platform", platform_name, "g1|g2|g2-eadr");
  }
  cli.platform = *platform;
  cli.dimms = static_cast<uint32_t>(flags.GetU64("dimms", 0));

  const std::string store_name = flags.Get("store", "fastfair");
  const auto store = StoreByName(store_name);
  if (!store) {
    pmemsim_bench::Flags::BadValue("store", store_name, "cceh|fastfair|flatlog");
  }
  cli.serve.store = *store;

  cli.mixes = SplitCsv(flags.Get("mixes", "a,b,c,d,e,f"));
  if (cli.mixes.empty()) {
    pmemsim_bench::Flags::BadValue("mixes", flags.Get("mixes", ""), "comma list of a..f");
  }
  for (const std::string& mix : cli.mixes) {
    if (!MixByName(mix)) {
      pmemsim_bench::Flags::BadValue("mixes", mix, "YCSB core mix a..f");
    }
  }

  const std::string loop = flags.Get("loop", "both");
  if (loop == "closed") {
    cli.loops = {LoopMode::kClosed};
  } else if (loop == "open") {
    cli.loops = {LoopMode::kOpen};
  } else if (loop == "both") {
    cli.loops = {LoopMode::kClosed, LoopMode::kOpen};
  } else {
    pmemsim_bench::Flags::BadValue("loop", loop, "closed|open|both");
  }

  cli.serve.shards = static_cast<uint32_t>(flags.GetU64("shards", 4));
  cli.serve.workers_per_shard = static_cast<uint32_t>(flags.GetU64("workers", 2));
  cli.serve.queue_depth = flags.GetU64("queue_depth", 64);
  cli.serve.batch = flags.GetU64("batch", 8);
  cli.serve.clients = static_cast<uint32_t>(flags.GetU64("clients", 8));
  cli.serve.think_cycles = flags.GetDouble("think", 4000);
  cli.serve.interarrival_cycles = flags.GetDouble("arrival_interval", 1500);
  cli.serve.ops = flags.GetU64("ops", 20000);
  cli.serve.keys = flags.GetU64("keys", 20000);
  cli.serve.theta = flags.GetDouble("theta", 0.99);
  cli.serve.scan_len = static_cast<uint32_t>(flags.GetU64("scan_len", 16));
  cli.serve.seed = flags.GetU64("seed", 42);

  // --engine_threads opts into the partitioned (shard-parallel) engine; its
  // value is host threads per sweep point. --dispatch_latency belongs to that
  // engine's simulated model, so it is rejected without --engine_threads.
  cli.partitioned = !flags.Get("engine_threads", "").empty();
  if (cli.partitioned) {
    cli.serve.engine_threads = static_cast<uint32_t>(flags.GetU64("engine_threads", 1));
    if (cli.serve.engine_threads == 0) {
      pmemsim_bench::Flags::BadValue("engine_threads", "0", "host thread count >= 1");
    }
    cli.serve.dispatch_latency = flags.GetU64("dispatch_latency", 2048);
    if (!flags.Get("trace_out", "").empty() && cli.serve.engine_threads > 1) {
      std::fprintf(stderr,
                   "note: --trace_out forces --engine_threads=1 (the trace "
                   "emitter is a global sink; order must stay deterministic)\n");
      cli.serve.engine_threads = 1;
    }
  } else if (!flags.Get("dispatch_latency", "").empty()) {
    pmemsim_bench::Flags::BadValue("dispatch_latency", flags.Get("dispatch_latency", ""),
                                   "--engine_threads to be set (partitioned engine only)");
  }
  cli.quiet = flags.Has("quiet");
  if (cli.serve.shards == 0 || cli.serve.workers_per_shard == 0 || cli.serve.queue_depth == 0 ||
      cli.serve.batch == 0 || cli.serve.keys == 0) {
    pmemsim_bench::Flags::BadValue("shards", "0", "positive counts");
  }

  // Serve observability: any of the flags below switches the timeline on for
  // every sweep point. --timeline_json / span export imply windowing with a
  // default interval; --slo_p99_cycles is meaningless without windows.
  cli.sample_interval = flags.GetU64("sample_interval_cycles", 0);
  cli.slo_p99 = flags.GetU64("slo_p99_cycles", 0);
  cli.timeline_path = flags.Get("timeline_json", "");
  cli.spans_path = flags.Get("spans_json", "");
  cli.span_trace_path = flags.Get("span_trace", "");
  const bool spans_requested = !cli.spans_path.empty() || !cli.span_trace_path.empty();
  cli.observe =
      cli.sample_interval > 0 || !cli.timeline_path.empty() || spans_requested;
  if (cli.slo_p99 > 0 && !cli.observe) {
    pmemsim_bench::Flags::BadValue(
        "slo_p99_cycles", flags.Get("slo_p99_cycles", ""),
        "windowing to be enabled (--timeline_json or --sample_interval_cycles)");
  }
  if (cli.observe && cli.sample_interval == 0) {
    cli.sample_interval = 20000;  // default telemetry window
  }
  if (spans_requested && cli.mixes.size() * cli.loops.size() != 1) {
    pmemsim_bench::Flags::BadValue(
        "spans_json", !cli.spans_path.empty() ? cli.spans_path : cli.span_trace_path,
        "a single sweep point (one mix, --loop=closed|open)");
  }

  pmemsim_bench::BenchReport report(flags, "pmemsim_serve");
  pmemsim_bench::SweepRunner runner(flags);
  flags.RejectUnknown();

  pmemsim_bench::PrintHeader("pmemsim_serve",
                             "sharded KV serving tier: YCSB mixes, admission, tail latency");
  std::printf("mix,loop,store,scope,ops_per_sec,sojourn_p50,sojourn_p99,sojourn_p999,offered,"
              "rejected,completed\n");

  // One sweep point per (mix, loop): its own System, deterministic per seed.
  // Per-point tier JSON lands in a pre-sized slot so --jobs parallelism keeps
  // the assembled "serve" section in submission order. Timelines live here in
  // main's frame — they must outlive a failing point's unwinding so the flush
  // guard can serialize the truncated artifact into its slot.
  const size_t n_points = cli.mixes.size() * cli.loops.size();
  std::vector<std::string> serve_sections(n_points);
  std::vector<std::unique_ptr<ServeTimeline>> timelines(cli.observe ? n_points : 0);
  std::vector<std::string> timeline_sections(cli.observe ? n_points : 0);
  g_timeline_path = &cli.timeline_path;
  size_t index = 0;
  for (const std::string& mix : cli.mixes) {
    for (const LoopMode mode : cli.loops) {
      std::string* slot = &serve_sections[index];
      ServeTimeline* timeline = nullptr;
      std::string* timeline_slot = nullptr;
      if (cli.observe) {
        ServeTimeline::Config tcfg;
        tcfg.mix = mix;
        tcfg.loop = LoopModeName(mode);
        tcfg.store = StoreName(cli.serve.store);
        tcfg.engine = cli.partitioned ? "partitioned" : "interleaved";
        tcfg.shards = cli.serve.shards;
        tcfg.interval_cycles = cli.sample_interval;
        tcfg.slo_p99_cycles = cli.slo_p99;
        timelines[index] = std::make_unique<ServeTimeline>(tcfg);
        if (spans_requested) {
          timelines[index]->EnableSpans();
        }
        timeline = timelines[index].get();
        timeline_slot = &timeline_sections[index];
      }
      ++index;
      const std::string label = "mix-" + mix + "/" + LoopModeName(mode);
      runner.Add(label,
                 [&cli, mix, mode, slot, timeline, timeline_slot](pmemsim_bench::SweepPoint& point) {
                   RunPoint(cli, mix, mode, point, slot, timeline, timeline_slot);
                 });
    }
  }

  const int failed = runner.Run(report);
  pmemsim::JsonWriter serve;
  serve.BeginArray();
  for (const std::string& section : serve_sections) {
    if (section.empty()) {
      serve.Null();  // failed point: row carries the error, keep indexes stable
    } else {
      serve.Raw(section);
    }
  }
  serve.EndArray();
  report.AddSection("serve", serve.str());

  int io_rc = 0;
  if (cli.slo_p99 > 0) {
    // SLO summary per point, mirrored into the stats report so the monitor is
    // visible without parsing the full timeline artifact.
    pmemsim::JsonWriter slo;
    slo.BeginArray();
    index = 0;
    for (const std::string& mix : cli.mixes) {
      for (const LoopMode mode : cli.loops) {
        const ServeTimeline::SloSummary s = timelines[index++]->Slo();
        slo.BeginObject();
        slo.Key("mix").Value(mix);
        slo.Key("loop").Value(LoopModeName(mode));
        slo.Key("slo_p99_cycles").Value(cli.slo_p99);
        slo.Key("violations").Value(s.violations);
        slo.Key("windows").Value(s.windows);
        slo.Key("windows_with_traffic").Value(s.windows_with_traffic);
        slo.Key("burn_rate").Value(s.burn_rate);
        slo.EndObject();
      }
    }
    slo.EndArray();
    report.AddSection("slo", slo.str());
  }
  if (!cli.timeline_path.empty()) {
    pmemsim::JsonWriter timeline;
    timeline.BeginObject();
    timeline.Key("schema_version").Value(uint64_t{1});
    timeline.Key("bench").Value("pmemsim_serve");
    timeline.Key("points").BeginArray();
    for (const std::string& section : timeline_sections) {
      if (section.empty()) {
        timeline.Null();  // point never ran; keep indexes aligned with rows
      } else {
        timeline.Raw(section);
      }
    }
    timeline.EndArray();
    timeline.EndObject();
    if (!WriteFileOrComplain(cli.timeline_path, timeline.str())) {
      io_rc = 1;
    }
  }
  if (!cli.spans_path.empty() &&
      !WriteFileOrComplain(cli.spans_path, timelines[0]->SpansToJson())) {
    io_rc = 1;
  }
  if (!cli.span_trace_path.empty() &&
      !WriteFileOrComplain(cli.span_trace_path, timelines[0]->SpansToChromeTrace())) {
    io_rc = 1;
  }

  const int rc = report.Finish();
  if (failed > 0) {
    std::fprintf(stderr, "pmemsim_serve: %d point(s) failed\n", failed);
    return 1;
  }
  return rc != 0 ? rc : io_rc;
}
