// pmemsim_watch — `ipmwatch` for the simulated machine.
//
// Runs a named workload and streams one row per sampling interval of
// simulated time, the way the paper watches the real DIMM's media/controller
// counters tick once per second: per-interval iMC and media traffic, the
// derived RA/WA amplifications, buffer hit ratios, occupancy gauges, and
// stall totals. The closing `total` row plus an exact delta-sum check against
// the global counters make the series trustworthy as a partition of the run.
//
//   $ pmemsim_watch --workload=seq_store --platform=g1 --sample_interval_cycles=20000
//   $ pmemsim_watch --workload=rand_load --wss=64M --threads=4 --breakdown
//   $ pmemsim_watch --workload=ntstore --samples_json=samples.json --stats_json=stats.json
//
// --breakdown additionally attaches the per-access latency attributor and
// prints the critical-path table at the end of the run.
//
// --serve_timeline=<path> switches to viewer mode: instead of running a
// workload, renders a pmemsim_serve --timeline_json artifact as per-window
// tables (throughput, sheds, queue depth, windowed tails, SLO verdicts) — the
// same at-a-glance view this tool gives the memory plane, for the request
// plane.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/core/platform.h"
#include "src/cpu/scheduler.h"
#include "src/trace/attribution.h"
#include "src/trace/json.h"
#include "src/trace/sampler.h"

namespace {

using namespace pmemsim;

uint64_t ParseSize(const std::string& s) {
  if (s.empty()) {
    return 0;
  }
  const char suffix = s.back();
  const uint64_t base = std::strtoull(s.c_str(), nullptr, 10);
  switch (suffix) {
    case 'K':
    case 'k':
      return KiB(base);
    case 'M':
    case 'm':
      return MiB(base);
    case 'G':
    case 'g':
      return GiB(base);
    default:
      return base;
  }
}

struct WatchConfig {
  PlatformConfig platform;
  std::string workload = "seq_store";
  uint64_t wss = MiB(4);
  uint64_t stride = kCacheLineSize;
  uint32_t threads = 1;
  uint64_t ops = 200000;
  uint64_t distance = 4;  // rap workload: load-behind distance
  uint32_t dimms = 1;
  Cycles interval = 20000;
  bool breakdown = false;
  bool quiet = false;  // suppress per-interval rows (CI smoke with huge runs)
};

struct Worker {
  ThreadContext* ctx = nullptr;
  Rng rng{0};
  uint64_t done = 0;
  uint64_t pos = 0;
};

// One operation of the named workload; returns false for an unknown name.
bool RunOneOp(const WatchConfig& cfg, const PmRegion& region, uint64_t lines, Worker& w) {
  ThreadContext& ctx = *w.ctx;
  const bool seq = cfg.workload.rfind("seq_", 0) == 0 || cfg.workload == "ntstore";
  const uint64_t index = seq ? (w.pos++ % lines) : w.rng.NextBelow(lines);
  const Addr addr = region.At(index * cfg.stride);
  if (cfg.workload == "seq_load" || cfg.workload == "rand_load") {
    ctx.LoadLine(addr);
  } else if (cfg.workload == "seq_store" || cfg.workload == "rand_store") {
    ctx.Store64(addr, w.done);
    ctx.Clwb(addr);
    ctx.Sfence();
  } else if (cfg.workload == "ntstore") {
    ctx.NtStore64(addr, w.done);
    ctx.Sfence();
  } else if (cfg.workload == "rap") {
    ctx.Store64(addr, w.done);
    ctx.Clwb(addr);
    ctx.Mfence();
    const uint64_t back = (index + lines - (cfg.distance % lines)) % lines;
    ctx.Load64(region.At(back * cfg.stride));
  } else {
    return false;
  }
  return true;
}

void PrintColumns() {
  std::printf("%8s %12s %10s %10s %10s %10s %6s %6s %7s %7s %6s %7s %7s %9s %5s\n",
              "interval", "t_end", "imc_rd_B", "imc_wr_B", "med_rd_B", "med_wr_B", "RA", "WA",
              "rb_hit", "wb_hit", "wpq", "rb_ent", "wb_ent", "rap_cyc", "pwb");
}

void PrintRow(const Sample& s) {
  const Counters& d = s.delta;
  char tag[24];
  if (s.partial) {
    std::snprintf(tag, sizeof(tag), "%" PRIu64 "*", s.index);
  } else {
    std::snprintf(tag, sizeof(tag), "%" PRIu64, s.index);
  }
  std::printf("%8s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %6.2f %6.2f %6.1f%% %6.1f%% %6.1f %7" PRIu64 " %7" PRIu64 " %9" PRIu64
              " %5" PRIu64 "\n",
              tag, static_cast<uint64_t>(s.t_end), d.imc_read_bytes, d.imc_write_bytes,
              d.media_read_bytes, d.media_write_bytes, d.ReadAmplification(),
              d.WriteAmplification(), 100.0 * d.ReadBufferHitRatio(),
              100.0 * d.WriteBufferHitRatio(), s.gauges.wpq_occupancy,
              s.gauges.read_buffer_entries, s.gauges.write_buffer_entries, d.rap_stall_cycles,
              d.periodic_writebacks);
}

void PrintTotals(Cycles end, const Counters& d) {
  std::printf("%8s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %6.2f %6.2f %6.1f%% %6.1f%% %6s %7s %7s %9" PRIu64 " %5" PRIu64 "\n",
              "total", static_cast<uint64_t>(end), d.imc_read_bytes, d.imc_write_bytes,
              d.media_read_bytes, d.media_write_bytes, d.ReadAmplification(),
              d.WriteAmplification(), 100.0 * d.ReadBufferHitRatio(),
              100.0 * d.WriteBufferHitRatio(), "-", "-", "-", d.rap_stall_cycles,
              d.periodic_writebacks);
}

// One cell of a windowed-quantile column: "-" when the window saw no
// completions (the artifact stores null).
const char* QuantileCell(const JsonValue& win, const char* key, char* buf, size_t n) {
  const JsonValue* q = win.Find(key);
  if (q == nullptr || q->type == JsonValue::Type::kNull) {
    return "-";
  }
  std::snprintf(buf, n, "%" PRIu64, q->AsUint());
  return buf;
}

// Viewer mode: renders the global per-window series of every point in a
// pmemsim_serve --timeline_json artifact. Returns a process exit code.
int ViewServeTimeline(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  if (!JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const JsonValue* points = root.Find("points");
  if (points == nullptr || points->type != JsonValue::Type::kArray) {
    std::fprintf(stderr, "error: %s: not a pmemsim_serve timeline artifact\n", path.c_str());
    return 1;
  }

  for (const JsonValue& point : points->array) {
    if (point.type != JsonValue::Type::kObject) {
      std::printf("# point: <failed before flush>\n");
      continue;
    }
    const JsonValue* cfg = point.Find("config");
    const JsonValue* global = point.Find("global");
    const JsonValue* totals = point.Find("totals");
    if (cfg == nullptr || global == nullptr || global->Find("windows") == nullptr ||
        totals == nullptr || point.Find("end") == nullptr) {
      std::fprintf(stderr, "error: %s: point missing required timeline fields\n", path.c_str());
      return 1;
    }
    const JsonValue* truncated = point.Find("truncated");
    std::printf("# point mix=%s loop=%s store=%s engine=%s shards=%" PRIu64
                " interval=%" PRIu64 "%s\n",
                cfg->Find("mix")->string.c_str(), cfg->Find("loop")->string.c_str(),
                cfg->Find("store")->string.c_str(), cfg->Find("engine")->string.c_str(),
                cfg->Find("shards")->AsUint(), cfg->Find("interval_cycles")->AsUint(),
                truncated != nullptr && truncated->boolean ? " TRUNCATED" : "");
    if (const JsonValue* slo = point.Find("slo")) {
      std::printf("# slo p99<=%" PRIu64 ": %" PRIu64 "/%" PRIu64
                  " windows in violation (burn rate %.3f)\n",
                  cfg->Find("slo_p99_cycles")->AsUint(), slo->Find("violations")->AsUint(),
                  slo->Find("windows_with_traffic")->AsUint(),
                  slo->Find("burn_rate")->AsDouble());
    }
    std::printf("%8s %12s %9s %9s %6s %6s %9s %9s %9s %4s\n", "window", "t_end", "completed",
                "admitted", "shed", "depth", "p50", "p99", "p999", "slo");
    const JsonValue* windows = global->Find("windows");
    for (const JsonValue& win : windows->array) {
      char tag[24], p50[24], p99[24], p999[24];
      std::snprintf(tag, sizeof(tag), "%" PRIu64 "%s", win.Find("index")->AsUint(),
                    win.Find("partial")->boolean ? "*" : "");
      const JsonValue* viol = win.Find("slo_violation");
      std::printf("%8s %12" PRIu64 " %9" PRIu64 " %9" PRIu64 " %6" PRIu64 " %6" PRIu64
                  " %9s %9s %9s %4s\n",
                  tag, win.Find("t_end")->AsUint(), win.Find("completed")->AsUint(),
                  win.Find("admitted")->AsUint(), win.Find("shed")->AsUint(),
                  win.Find("queue_depth")->AsUint(),
                  QuantileCell(win, "sojourn_p50", p50, sizeof(p50)),
                  QuantileCell(win, "sojourn_p99", p99, sizeof(p99)),
                  QuantileCell(win, "sojourn_p999", p999, sizeof(p999)),
                  viol == nullptr ? "-" : (viol->boolean ? "VIOL" : "ok"));
    }
    std::printf("%8s %12" PRIu64 " %9" PRIu64 " %9" PRIu64 " %6" PRIu64 "\n", "total",
                point.Find("end")->AsUint(), totals->Find("completed")->AsUint(),
                totals->Find("admitted")->AsUint(), totals->Find("shed")->AsUint());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pmemsim_bench::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: pmemsim_watch [--workload=seq_load|rand_load|seq_store|rand_store|ntstore|rap]\n"
        "                     [--platform=g1|g2|g2-eadr] [--dimms=1] [--threads=1]\n"
        "                     [--wss=4M] [--stride=64] [--ops=200000] [--distance=4]\n"
        "                     [--sample_interval_cycles=20000] [--breakdown] [--quiet]\n"
        "       pmemsim_watch --serve_timeline=<path>   render a pmemsim_serve\n"
        "                     --timeline_json artifact instead of running\n%s",
        pmemsim_bench::kTelemetryFlagsHelp);
    return 0;
  }

  // Viewer mode: no workload run, just render the serve timeline artifact.
  const std::string serve_timeline = flags.Get("serve_timeline", "");
  if (!serve_timeline.empty()) {
    flags.RejectUnknown();
    return ViewServeTimeline(serve_timeline);
  }

  WatchConfig cfg;
  const std::string platform_name = flags.Get("platform", "g1");
  const auto platform = PlatformByName(platform_name);
  if (!platform) {
    pmemsim_bench::Flags::BadValue("platform", platform_name, "g1|g2|g2-eadr");
  }
  cfg.platform = *platform;
  cfg.workload = flags.Get("workload", "seq_store");
  cfg.wss = ParseSize(flags.Get("wss", "4M"));
  cfg.stride = flags.GetU64("stride", kCacheLineSize);
  cfg.threads = static_cast<uint32_t>(flags.GetU64("threads", 1));
  cfg.ops = flags.GetU64("ops", 200000);
  cfg.distance = flags.GetU64("distance", 4);
  cfg.dimms = static_cast<uint32_t>(flags.GetU64("dimms", 1));
  cfg.interval = flags.GetU64("sample_interval_cycles", 20000);
  cfg.breakdown = flags.Has("breakdown");
  cfg.quiet = flags.Has("quiet");
  if (cfg.interval == 0) {
    pmemsim_bench::Flags::BadValue("sample_interval_cycles", "0", "positive cycle count");
  }
  if (cfg.wss < cfg.stride || cfg.stride < kCacheLineSize) {
    pmemsim_bench::Flags::BadValue("wss", flags.Get("wss", "4M"),
                                   "working set of at least one stride");
  }
  pmemsim_bench::BenchReport report(flags, "pmemsim_watch");
  flags.RejectUnknown();

  auto system = std::make_unique<System>(cfg.platform, cfg.dimms);
  AttributionCollector attribution;
  if (cfg.breakdown) {
    system->SetAttribution(&attribution);
  }

  const PmRegion region = system->AllocatePm(cfg.wss, kXPLineSize);
  const uint64_t lines = cfg.wss / cfg.stride;
  std::vector<Worker> workers(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    workers[t].ctx = &system->CreateThread(0);
    workers[t].rng = Rng(0x3A7C + t * 0x51ED);
  }

  // The sampler and the cross-check delta snapshot the same (zero) state, so
  // SumOfDeltas() must reproduce the global delta field-for-field.
  Sampler sampler(&system->counters(), cfg.interval);
  CounterDelta global_delta(&system->counters());
  sampler.SetGaugeSource([&system](Cycles now) { return system->ReadGauges(now); });
  if (!cfg.quiet) {
    std::printf("# pmemsim_watch workload=%s platform=%s dimms=%u threads=%u wss=%" PRIu64
                "K interval=%" PRIu64 " cycles\n",
                cfg.workload.c_str(), cfg.platform.name.c_str(), cfg.dimms, cfg.threads,
                cfg.wss / 1024, static_cast<uint64_t>(cfg.interval));
    PrintColumns();
    sampler.SetOnSample(PrintRow);
  }

  const uint64_t per_thread = cfg.ops / cfg.threads + (cfg.ops % cfg.threads != 0 ? 1 : 0);
  bool bad_workload = false;
  std::vector<SimJob> jobs;
  for (Worker& w : workers) {
    jobs.push_back({w.ctx, [&cfg, &region, lines, &w, per_thread, &bad_workload]() {
                      if (bad_workload || w.done >= per_thread) {
                        return StepResult::kDone;
                      }
                      if (!RunOneOp(cfg, region, lines, w)) {
                        bad_workload = true;
                        return StepResult::kDone;
                      }
                      ++w.done;
                      return StepResult::kProgress;
                    }});
  }
  const Cycles end = Scheduler::Run(jobs, &sampler);
  if (bad_workload) {
    pmemsim_bench::Flags::BadValue("workload", cfg.workload,
                                   "seq_load|rand_load|seq_store|rand_store|ntstore|rap");
  }
  sampler.Finalize(end);

  const Counters global = global_delta.Delta();
  const Counters sum = sampler.SumOfDeltas();
  if (!cfg.quiet) {
    PrintTotals(end, global);
  }
  const bool conserved = sum == global;
  std::printf("# %" PRIu64 " samples over %" PRIu64 " cycles; delta-sum check: %s\n",
              static_cast<uint64_t>(sampler.samples().size()), static_cast<uint64_t>(end),
              conserved ? "OK" : "MISMATCH");
  if (!conserved) {
    std::fprintf(stderr, "error: interval deltas do not sum to the global counters\n");
    std::fprintf(stderr, "  global: %s\n  summed: %s\n", global.ToString().c_str(),
                 sum.ToString().c_str());
  }

  if (cfg.breakdown) {
    std::printf("\n%s", attribution.CriticalPathTable().c_str());
    report.AddSection("attribution", attribution.ToJson());
  }

  report.AddRow()
      .Set("workload", cfg.workload)
      .Set("platform", cfg.platform.name)
      .Set("threads", cfg.threads)
      .Set("interval_cycles", static_cast<uint64_t>(cfg.interval))
      .Set("samples", static_cast<uint64_t>(sampler.samples().size()))
      .Set("end_cycles", static_cast<uint64_t>(end))
      .Set("wa", global.WriteAmplification())
      .Set("ra", global.ReadAmplification());
  report.AddCounters("global_delta", global);
  report.SetSamplesJson(sampler.ToJson());
  const int rc = report.Finish();
  return conserved ? rc : 1;
}
