// One shard of the serving tier: a datastore instance (CCEH, FAST&FAIR, or
// FlatLog) behind a bounded admission queue, served by M worker
// ThreadContexts and fed by a RequestSource. Shard is the serving unit of
// both layouts of the engine (src/serve/tier.h): all shards on one shared
// System, or each shard on its own.
//
// Event model (all in simulated time):
//  * arrivals live in the shard's RequestSource, one of two client models:
//    ShardClients mints each request at admission from per-shard streams
//    (a (time, client) heap for the closed loop, a Poisson cursor for the
//    open loop); RoutedInbox (src/serve/dispatch.h) holds requests the
//    tier's router minted at issue time over one global key space;
//  * admission is processed by whichever worker observes simulated time
//    first: CatchUpAdmissions(now) folds every arrival <= now into the
//    bounded queue in arrival order, shedding on full. The scheduler only
//    ever steps the minimum-clock job, so claims and catch-ups happen in
//    clock order, and queue occupancy — and therefore every shed decision —
//    is a pure function of the seed;
//  * a shed open-loop arrival is dropped; a shed closed-loop client backs
//    off one think time and retries (each retry is a new offered op).
//
// The shard owns a per-shard AttributionCollector, installed on its worker
// contexts for the serving phase only, so the memory-side tail decomposition
// (media/buffer/RAP/WPQ-wait) is reported per shard and covers serving, not
// the preload.

#ifndef SRC_SERVE_SHARD_H_
#define SRC_SERVE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/system.h"
#include "src/cpu/scheduler.h"
#include "src/cpu/thread_context.h"
#include "src/datastores/cceh.h"
#include "src/datastores/fast_fair.h"
#include "src/datastores/flat_log.h"
#include "src/serve/request.h"
#include "src/serve/request_queue.h"
#include "src/serve/service_stats.h"
#include "src/trace/attribution.h"
#include "src/trace/serve_metrics.h"
#include "src/trace/span.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipf.h"

namespace pmemsim {

enum class StoreKind : uint8_t { kCceh, kFastFair, kFlatLog };
const char* StoreName(StoreKind kind);
// nullopt for unknown names ("cceh" | "fastfair" | "flatlog").
std::optional<StoreKind> StoreByName(const std::string& name);

enum class LoopMode : uint8_t { kClosed, kOpen };
const char* LoopModeName(LoopMode mode);

// Decorrelated per-(slot, stream) seed so every stochastic source — load-key
// order, op mix, key skew, think times, arrivals — draws from its own stream.
// Slot s < shards belongs to shard s's own clients; slot `shards` to the
// partitioned layout's router.
uint64_t ServeSubSeed(uint64_t seed, uint32_t shard, uint32_t stream);
// A slot's preload key order; streams 0-4 are its RequestMinter's.
constexpr uint32_t kLoadKeyStream = 5;

// TraceMarker id emitted on every worker context when the measured serve
// phase opens. The marker is the trace-visible twin of the queue's
// BeginPhase() accounting boundary (src/serve/request_queue.h).
constexpr uint32_t kServePhaseMarker = 0x5345u;  // "SE"

// Tier-wide configuration; every count is per shard unless noted.
struct ServeConfig {
  StoreKind store = StoreKind::kFastFair;
  LoopMode loop = LoopMode::kClosed;
  std::string mix_name = "b";
  YcsbMix mix = YcsbMix{0.95, 0.05, 0, 0, 0};
  uint32_t shards = 4;
  uint32_t workers_per_shard = 2;
  uint64_t queue_depth = 64;
  uint64_t batch = 8;              // max requests a worker claims at once
  uint32_t clients = 8;            // closed loop: client population
  double think_cycles = 4000;      // closed loop: mean exponential think time
  double interarrival_cycles = 1500;  // open loop: mean Poisson inter-arrival
  uint64_t ops = 20000;            // admission attempts (offered ops) budget
  uint64_t keys = 20000;           // preloaded key population
  double theta = 0.99;             // Zipfian skew of the hot-key distribution
  uint32_t scan_len = 16;          // YCSB-E scan length
  uint64_t seed = 42;
  // Partitioned layout only (DomainTier): host threads advancing the shards
  // of one point, and the modelled client->shard dispatch latency in cycles
  // — also the conservative epoch window. engine_threads does not change any
  // simulated result (that is the determinism contract); dispatch_latency
  // does (it is part of the simulated model).
  uint32_t engine_threads = 1;
  Cycles dispatch_latency = 2048;
};

// One datastore instance of `kind` behind a uniform point-op API. Owns store
// construction and sizing: `preload_keys` records will be inserted before
// serving and append-only stores additionally reserve `append_budget` writes.
// Construction is timed on `loader`, like a real preload.
class ShardStore {
 public:
  ShardStore(System* system, StoreKind kind, uint64_t preload_keys, uint64_t append_budget,
             ThreadContext& loader);

  bool Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out);
  // False when the key was absent (FAST&FAIR in-place update miss); append
  // exhaustion on FlatLog is counted in store_full() instead.
  bool Update(ThreadContext& ctx, uint64_t key, uint64_t value);
  void Insert(ThreadContext& ctx, uint64_t key, uint64_t value);
  // Ordered range scan; valid only when ordered() (callers emulate ranges on
  // hash-shaped stores as point reads).
  void TreeScan(ThreadContext& ctx, uint64_t from, uint32_t len);
  bool ordered() const { return kind_ == StoreKind::kFastFair; }
  // Durability point after the preload (FlatLog batches its appends).
  void FlushPreload(ThreadContext& ctx);
  uint64_t store_full() const { return store_full_; }

 private:
  StoreKind kind_;
  // Exactly one store is non-null, selected by `kind`.
  std::unique_ptr<Cceh> cceh_;
  std::unique_ptr<FastFairTree> tree_;
  std::unique_ptr<FlatLog> flat_;
  uint64_t store_full_ = 0;  // FlatLog appends refused (log exhausted)
};

// The stochastic side of one client population: op mix, key skew over a
// growing key space, think times, the Poisson arrival cursor and the issue
// budget. Both client models mint through one of these, so a request's
// content is the same function of its stream position in either.
class RequestMinter {
 public:
  // Streams come from ServeSubSeed slot `slot`; keys 1..population exist at
  // the start; at most `budget` requests are issued; open-loop arrivals are
  // Poisson with mean `interarrival` cycles.
  RequestMinter(const ServeConfig& cfg, uint32_t slot, uint64_t population, uint64_t budget,
                double interarrival);

  // A request born at `arrival`: op from the mix, a fresh key for inserts,
  // a skewed existing key otherwise.
  Request Mint(Cycles arrival, uint32_t client);
  Cycles Think();  // exponential, mean cfg.think_cycles, >= 1
  // Keys 1..population() exist (preloaded plus inserted so far).
  uint64_t population() const { return next_insert_key_ - 1; }

  // Closed loop: counts one issue against the budget; false once spent.
  bool TakeIssue();
  // Open loop: arms the cursor at serve start t0.
  void StartOpen(Cycles t0);
  // Issue time of the next open-loop arrival; nullopt once the budget is
  // spent.
  std::optional<Cycles> NextOpen() const;
  // Mints the next open-loop arrival, due at NextOpen() + delay (client =
  // its sequence number), and advances the cursor.
  Request TakeOpen(Cycles delay);

 private:
  uint64_t SkewedKey();

  const ServeConfig& cfg_;
  MixSampler mix_sampler_;
  ZipfGenerator zipf_;
  Rng think_rng_;
  uint64_t key_scramble_salt_;
  bool latest_skew_;  // mix D: reads target the newest keys
  uint64_t next_insert_key_;
  PoissonArrivalGenerator arrivals_;
  uint64_t budget_;
  uint64_t issued_ = 0;
  Cycles open_start_ = 0;
  Cycles next_open_ = 0;
};

// Where a shard's requests come from. The shard's admission loop pops due
// arrivals into its queue and reports sheds and completions back; the two
// implementations are the two client models (see the file comment).
class RequestSource {
 public:
  RequestSource() = default;
  virtual ~RequestSource() = default;
  RequestSource(const RequestSource&) = delete;  // the router holds inboxes' addresses
  RequestSource& operator=(const RequestSource&) = delete;
  // Opens the serve phase at t0.
  virtual void Start(Cycles t0) = 0;
  // Pops the earliest pending arrival with time <= now into *out.
  virtual bool PopDue(Cycles now, Request* out) = 0;
  // When idle workers should next look for an arrival; nullopt when none is
  // scheduled. Once the source will never produce work again on its own it
  // returns nullopt (Shard::Drained relies on this).
  virtual std::optional<Cycles> NextArrival() const = 0;
  // The queue shed `r` at the admitting worker's clock `now`.
  virtual void OnShed(const Request& r, Cycles now) = 0;
  virtual void OnComplete(const Request& r, Cycles end) = 0;
  // Keys a hash-shaped store reads to emulate a `len`-key range scan from
  // `from` (it has no key order); replaces *keys.
  virtual void ScanKeys(uint64_t from, uint32_t len, std::vector<uint64_t>* keys) const = 0;
};

// Per-shard clients (shared layout): a closed-loop population of cfg.clients
// clients or an open-loop Poisson stream, minting each request at admission
// from the shard's own streams over its own key space, so the request stream
// is deterministic per seed whatever the worker interleaving.
class ShardClients : public RequestSource {
 public:
  ShardClients(const ServeConfig& cfg, uint32_t shard);

  void Start(Cycles t0) override;
  bool PopDue(Cycles now, Request* out) override;
  std::optional<Cycles> NextArrival() const override;
  // A shed client backs off one think time from its arrival and retries.
  void OnShed(const Request& r, Cycles now) override;
  void OnComplete(const Request& r, Cycles end) override;
  // Consecutive key ids over the growing population (YCSB's usual
  // adaptation of scans for KV stores).
  void ScanKeys(uint64_t from, uint32_t len, std::vector<uint64_t>* keys) const override;

 private:
  struct PendingArrival {
    Cycles time;
    uint32_t client;
    bool operator>(const PendingArrival& o) const {
      return time != o.time ? time > o.time : client > o.client;
    }
  };

  // Closed loop: client `client` issues again at `time`, budget allowing.
  void Reissue(Cycles time, uint32_t client);

  const ServeConfig& cfg_;
  RequestMinter minter_;
  std::priority_queue<PendingArrival, std::vector<PendingArrival>, std::greater<PendingArrival>>
      pending_;  // closed loop only; the open loop uses the minter's cursor
};

class Shard {
 public:
  // Creates cfg.workers_per_shard worker contexts on `system`, then the store
  // (construction is timed on the first worker, like a real preload).
  // `load_keys` is what this shard preloads; `append_budget` sizes
  // append-only stores.
  Shard(System* system, const ServeConfig& cfg, uint32_t index, std::vector<uint64_t> load_keys,
        uint64_t append_budget, std::unique_ptr<RequestSource> source);
  Shard(const Shard&) = delete;  // worker jobs capture `this`
  Shard& operator=(const Shard&) = delete;

  // --- load phase ---
  // The first worker preloading the whole key list, one key per step.
  SimJob LoadJob();
  Cycles loader_clock() const { return workers_[0].ctx->clock(); }

  // --- serving phase ---
  // Installs (or clears, with nullptrs) the observability sinks for the serve
  // phase. Pay-for-use: with none installed, the hot path costs one pointer
  // test per event. Install before StartServing (which emits the opening
  // queue-depth observation); any pointer may be null independently.
  // `mem_sampler` is the shard's own System's series (partitioned layout),
  // observed in RunEpoch or at each lockstep claim step.
  void SetObservability(ServeMetrics* metrics, SpanRecorder* spans, Sampler* mem_sampler);

  // Aligns the workers to the common serve origin t0, installs attribution,
  // opens the queue's accounting phase and starts the source. With a `quiet`
  // predicate the workers run lockstep with others (see WorkerStep) and
  // retire once it holds; without one they run in epochs (RunEpoch).
  void StartServing(Cycles t0, std::function<bool()> quiet);
  // One job per worker, for a lockstep run.
  const std::vector<SimJob>& worker_jobs() const { return jobs_; }
  // Epoch strategy: advances the workers until every one is parked at clock
  // >= epoch_end. Touches only this shard and its System.
  void RunEpoch(Cycles epoch_end);
  // Clears attribution and copies the queue's counters into stats().
  void FinishServing();

  // No pending arrival, an empty queue, and no claimed request in flight.
  bool Drained() const;

  uint32_t index() const { return index_; }
  System& system() { return *system_; }
  const RequestQueue& queue() const { return queue_; }
  ServiceStats& stats() { return stats_; }
  const ServiceStats& stats() const { return stats_; }
  AttributionCollector& attribution() { return attribution_; }

 private:
  struct Worker {
    ThreadContext* ctx = nullptr;
    std::vector<Request> claimed;
    size_t next = 0;  // cursor into `claimed`
  };

  // Preloads one key on the first worker; false once all are loaded.
  bool LoadStep();
  StepResult WorkerStep(Worker& wk);
  // Folds every due arrival into the bounded queue, in arrival order.
  void CatchUpAdmissions(Cycles now);
  // Executes one request against the store on `ctx` (clock advances).
  void Execute(ThreadContext& ctx, const Request& r);
  // Records the completion (stats, metrics, span) and tells the source.
  void CompleteRequest(const Request& r, Cycles start, Cycles end);
  // Per-stage attribution totals on the critical path. One Execute runs
  // within one uninterrupted step of one worker, so their change across it
  // is the request's span stage decomposition.
  void ReadSpanStages(Cycles* out) const;
  static std::vector<Worker> CreateWorkers(System* system, uint32_t count);

  const ServeConfig& cfg_;
  uint32_t index_;
  System* system_;
  std::vector<Worker> workers_;

  RequestQueue queue_;
  ServiceStats stats_;
  AttributionCollector attribution_;
  ServeMetrics* metrics_ = nullptr;        // not owned; null = observability off
  SpanRecorder* span_recorder_ = nullptr;  // not owned
  Sampler* mem_sampler_ = nullptr;         // not owned
  Cycles span_stage_base_[AttributionCollector::kStageCount] = {};

  ShardStore store_;
  std::unique_ptr<RequestSource> source_;
  std::vector<uint64_t> load_keys_;
  uint64_t loaded_ = 0;
  std::vector<uint64_t> scan_keys_;  // scratch for hash-store scans

  std::function<bool()> quiet_;  // lockstep retire test; empty in epoch mode
  std::vector<SimJob> jobs_;
  std::unique_ptr<Scheduler> epoch_scheduler_;
  Cycles epoch_end_ = 0;
  uint64_t in_flight_ = 0;  // claimed but not yet completed
};

}  // namespace pmemsim

#endif  // SRC_SERVE_SHARD_H_
