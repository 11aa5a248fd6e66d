// ServeEngine: the whole serving deployment for one configuration — N shards,
// each a datastore behind a bounded queue with M worker ThreadContexts — in
// one of two machine layouts:
//
//  * shared (ServiceTier): every shard and worker on the caller's one
//    System, so shards contend for its caches, iMC and DIMMs. Each shard has
//    its own clients (ShardClients);
//  * partitioned (DomainTier, src/serve/domain_tier.h): each shard on its
//    own System, sharing nothing with its peers; one client tier
//    (TierDispatcher) routes requests to shards by key hash with a modelled
//    dispatch latency of D = cfg.dispatch_latency cycles.
//
// A run has two phases: load (each shard's first worker preloads its keys)
// and serve (every worker aligned to the common start cycle t0 = the latest
// loader clock; workers loop: catch up admissions to their clock, claim a
// batch, execute one request per step). The serve phase runs one of two
// ways:
//
//  * lockstep: one Scheduler::Run over every worker in (clock, job-index)
//    order. It serves the shared layout, and the partitioned layout at D = 0,
//    where no window exists to run shards concurrently in and global clock
//    order plays the coordinator;
//  * epochs (partitioned layout, D > 0): every message issued at t arrives
//    at t + D at the earliest, so a shard advancing inside [E, E + D) can
//    never receive an arrival it has not already been handed. The engine
//    loops: deliver arrivals < E + D; every shard RunEpoch(E + D) on
//    cfg.engine_threads host threads sharing no state; fold the shards'
//    events at the barrier, sorted by (time, client). Within a shard the
//    scheduler keeps the exact lockstep order and every fold is in a
//    deterministic order, so results are byte-identical at any
//    --engine_threads — the determinism contract, gated in CI like --jobs.
//
// Per-shard attribution collectors are installed on the workers for the
// serve phase only, so the reported memory-side decomposition covers
// serving, not the preload. Stats merge is order-independent: every counter
// is an integer sum or a histogram bucket count, merged in shard order.
//
// Determinism: all randomness derives from cfg.seed. Independent engines on
// separate Systems (one per sweep point) are what make the CLI's --jobs
// parallelism byte-stable.

#ifndef SRC_SERVE_TIER_H_
#define SRC_SERVE_TIER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/core/system.h"
#include "src/serve/service_stats.h"
#include "src/serve/shard.h"

namespace pmemsim {

class JsonWriter;
class TierDispatcher;

class ServeEngine {
 public:
  // Shared layout: cfg.shards shards with cfg.workers_per_shard workers each
  // on `system` (construction builds the stores; preload happens in Run).
  ServeEngine(System* system, const ServeConfig& cfg);
  // Partitioned layout: one System with `dimms_per_shard` Optane DIMMs per
  // shard.
  ServeEngine(const PlatformConfig& platform, uint32_t dimms_per_shard, const ServeConfig& cfg);
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;  // run-time callbacks capture `this`
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Attaches (before Run) the serve-phase observability sink: per-shard
  // windowed metrics + spans, and one memory-plane series per System (the
  // shared one, or each shard's own) whose gauges add the queue depth of the
  // shards on that System. The engine Begins the timeline at serve_start()
  // and Finalizes it at the serve end. Pass nullptr (default) for zero-cost
  // serving.
  void AttachTimeline(ServeTimeline* timeline) { timeline_ = timeline; }

  // Runs load then serve to completion. One-shot.
  void Run();

  Cycles load_end() const { return load_end_; }
  Cycles serve_start() const { return serve_start_; }
  // Max completion cycle across shards (== makespan end of the serve phase).
  Cycles end_cycle() const;

  const ServeConfig& config() const { return cfg_; }
  const std::vector<std::unique_ptr<Shard>>& shards() const { return shards_; }
  // The partitioned layout's name for its shards.
  const std::vector<std::unique_ptr<Shard>>& domains() const { return shards_; }
  ServiceStats GlobalStats() const;  // merged in shard order

  // {"config":{...},"load_cycles":..,"serve_start":..,"end_cycle":..,
  //  "global":{ServiceStats},
  //  "shards":[{"shard":0,"queue":{...},"stats":{...},"attribution":{...}}]}
  // (scripts/check_serve.py schema). The partitioned layout adds
  // config.engine = "partitioned" and config.dispatch_latency — but never
  // engine_threads: the report must byte-compare across thread counts.
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  bool partitioned() const { return dispatcher_ != nullptr; }
  void BeginTimeline();
  bool AllDrained() const;

  ServeConfig cfg_;
  std::vector<std::unique_ptr<System>> systems_;  // partitioned layout only
  std::unique_ptr<TierDispatcher> dispatcher_;    // partitioned layout only
  std::vector<std::unique_ptr<Shard>> shards_;
  ServeTimeline* timeline_ = nullptr;  // not owned
  Cycles load_end_ = 0;
  Cycles serve_start_ = 0;
  Cycles serve_end_ = 0;
  bool ran_ = false;
};

// The shared layout's public name.
using ServiceTier = ServeEngine;

}  // namespace pmemsim

#endif  // SRC_SERVE_TIER_H_
