#include "src/serve/shard.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace pmemsim {
namespace {

uint32_t CcehDepthFor(uint64_t keys) {
  // One segment holds 1024 slots; start with enough segments that the preload
  // does not spend its whole life splitting (splits still grow it as needed).
  uint32_t depth = 4;
  while ((uint64_t{1} << depth) * Cceh::kBucketsPerSegment * Cceh::kSlotsPerBucket < keys &&
         depth < 24) {
    ++depth;
  }
  return depth;
}

}  // namespace

uint64_t ServeSubSeed(uint64_t seed, uint32_t shard, uint32_t stream) {
  return Mix64(seed + 0x9E3779B97F4A7C15ull * (uint64_t{shard} * 8 + stream + 1));
}

const char* StoreName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kCceh:
      return "cceh";
    case StoreKind::kFastFair:
      return "fastfair";
    case StoreKind::kFlatLog:
      return "flatlog";
  }
  return "?";
}

std::optional<StoreKind> StoreByName(const std::string& name) {
  if (name == "cceh") {
    return StoreKind::kCceh;
  }
  if (name == "fastfair") {
    return StoreKind::kFastFair;
  }
  if (name == "flatlog") {
    return StoreKind::kFlatLog;
  }
  return std::nullopt;
}

const char* LoopModeName(LoopMode mode) {
  return mode == LoopMode::kClosed ? "closed" : "open";
}

ShardStore::ShardStore(System* system, StoreKind kind, uint64_t preload_keys,
                       uint64_t append_budget, ThreadContext& loader)
    : kind_(kind) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_ = std::make_unique<Cceh>(system, loader, CcehDepthFor(preload_keys),
                                     MemoryKind::kOptane);
      break;
    case StoreKind::kFastFair:
      tree_ = std::make_unique<FastFairTree>(system, loader);
      break;
    case StoreKind::kFlatLog: {
      // Every update/insert/rmw appends one record, so size the log for the
      // preload plus the full op budget (rounded up to whole batches).
      uint64_t slots = preload_keys + append_budget + FlatLog::kSlotsPerBatch;
      slots = (slots + FlatLog::kSlotsPerBatch - 1) / FlatLog::kSlotsPerBatch *
              FlatLog::kSlotsPerBatch;
      flat_ = std::make_unique<FlatLog>(system, system->AllocatePm(slots * FlatLog::kSlotSize));
      break;
    }
  }
}

bool ShardStore::Get(ThreadContext& ctx, uint64_t key, uint64_t* value_out) {
  switch (kind_) {
    case StoreKind::kCceh:
      return cceh_->Get(ctx, key, value_out);
    case StoreKind::kFastFair:
      return tree_->Get(ctx, key, value_out);
    case StoreKind::kFlatLog: {
      uint8_t buf[FlatLog::kMaxPayload] = {};
      uint32_t len = 0;
      if (!flat_->Get(ctx, key, buf, &len)) {
        return false;
      }
      std::memcpy(value_out, buf, sizeof(*value_out));
      return true;
    }
  }
  return false;
}

bool ShardStore::Update(ThreadContext& ctx, uint64_t key, uint64_t value) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_->Insert(ctx, key, value);  // CCEH insert updates in place
      return true;
    case StoreKind::kFastFair:
      return tree_->Update(ctx, key, value);
    case StoreKind::kFlatLog:
      if (!flat_->Put(ctx, key, &value, sizeof(value))) {
        ++store_full_;
      }
      return true;
  }
  return true;
}

void ShardStore::Insert(ThreadContext& ctx, uint64_t key, uint64_t value) {
  switch (kind_) {
    case StoreKind::kCceh:
      cceh_->Insert(ctx, key, value);
      break;
    case StoreKind::kFastFair:
      tree_->Insert(ctx, key, value, BTreeUpdateMode::kInPlace);
      break;
    case StoreKind::kFlatLog:
      if (!flat_->Put(ctx, key, &value, sizeof(value))) {
        ++store_full_;
      }
      break;
  }
}

void ShardStore::TreeScan(ThreadContext& ctx, uint64_t from, uint32_t len) {
  PMEMSIM_DCHECK(ordered());
  std::vector<std::pair<uint64_t, uint64_t>> out(len);
  tree_->Scan(ctx, from, len, out.data());
}

void ShardStore::FlushPreload(ThreadContext& ctx) {
  if (flat_ != nullptr) {
    flat_->Flush(ctx);
  }
}

RequestMinter::RequestMinter(const ServeConfig& cfg, uint32_t slot, uint64_t population,
                             uint64_t budget, double interarrival)
    : cfg_(cfg),
      mix_sampler_(cfg.mix, ServeSubSeed(cfg.seed, slot, 0)),
      zipf_(population, cfg.theta, ServeSubSeed(cfg.seed, slot, 1)),
      think_rng_(ServeSubSeed(cfg.seed, slot, 2)),
      key_scramble_salt_(ServeSubSeed(cfg.seed, slot, 3)),
      latest_skew_(!cfg.mix_name.empty() && (cfg.mix_name[0] == 'd' || cfg.mix_name[0] == 'D')),
      next_insert_key_(population + 1),
      arrivals_(interarrival, ServeSubSeed(cfg.seed, slot, 4)),
      budget_(budget) {
  PMEMSIM_CHECK(population > 0);
  PMEMSIM_CHECK_MSG(budget_ <= UINT32_MAX, "open-loop sequence ids are 32-bit");
}

Request RequestMinter::Mint(Cycles arrival, uint32_t client) {
  Request r;
  r.arrival = arrival;
  r.client = client;
  r.op = mix_sampler_.Next();
  switch (r.op) {
    case ServeOp::kInsert:
      r.key = next_insert_key_++;
      break;
    case ServeOp::kScan:
      r.key = SkewedKey();
      r.scan_len = cfg_.scan_len;
      break;
    default:
      r.key = SkewedKey();
      break;
  }
  return r;
}

uint64_t RequestMinter::SkewedKey() {
  const uint64_t rank = zipf_.Next();
  if (latest_skew_) {
    // Mix D: rank 0 is the newest key, per YCSB's latest distribution.
    return population() - rank % population();
  }
  // YCSB-style scrambled zipfian: hot ranks scatter across the key space.
  return 1 + Mix64(rank ^ key_scramble_salt_) % population();
}

Cycles RequestMinter::Think() {
  const double u = think_rng_.NextDouble();
  const double cycles = -cfg_.think_cycles * std::log(1.0 - u);
  return cycles < 1.0 ? Cycles{1} : static_cast<Cycles>(cycles);
}

bool RequestMinter::TakeIssue() {
  if (issued_ >= budget_) {
    return false;
  }
  ++issued_;
  return true;
}

void RequestMinter::StartOpen(Cycles t0) {
  open_start_ = t0;
  if (budget_ > 0) {
    next_open_ = t0 + arrivals_.Next();
  }
}

std::optional<Cycles> RequestMinter::NextOpen() const {
  return issued_ < budget_ ? std::optional<Cycles>(next_open_) : std::nullopt;
}

Request RequestMinter::TakeOpen(Cycles delay) {
  const Request r = Mint(next_open_ + delay, static_cast<uint32_t>(issued_));
  ++issued_;
  if (issued_ < budget_) {
    next_open_ = open_start_ + arrivals_.Next();
  }
  return r;
}

ShardClients::ShardClients(const ServeConfig& cfg, uint32_t shard)
    : cfg_(cfg), minter_(cfg, shard, cfg.keys, cfg.ops, cfg.interarrival_cycles) {}

void ShardClients::Start(Cycles t0) {
  if (cfg_.loop == LoopMode::kOpen) {
    minter_.StartOpen(t0);
    return;
  }
  for (uint32_t c = 0; c < cfg_.clients; ++c) {
    Reissue(t0, c);
  }
}

void ShardClients::Reissue(Cycles time, uint32_t client) {
  if (minter_.TakeIssue()) {
    pending_.push(PendingArrival{time + minter_.Think(), client});
  }
}

bool ShardClients::PopDue(Cycles now, Request* out) {
  if (cfg_.loop == LoopMode::kOpen) {
    const std::optional<Cycles> next = minter_.NextOpen();
    if (!next.has_value() || *next > now) {
      return false;
    }
    *out = minter_.TakeOpen(0);
    return true;
  }
  if (pending_.empty() || pending_.top().time > now) {
    return false;
  }
  *out = minter_.Mint(pending_.top().time, pending_.top().client);
  pending_.pop();
  return true;
}

std::optional<Cycles> ShardClients::NextArrival() const {
  if (cfg_.loop == LoopMode::kOpen) {
    return minter_.NextOpen();
  }
  return pending_.empty() ? std::nullopt : std::optional<Cycles>(pending_.top().time);
}

void ShardClients::OnShed(const Request& r, Cycles) {
  if (cfg_.loop == LoopMode::kClosed) {
    Reissue(r.arrival, r.client);
  }
}

void ShardClients::OnComplete(const Request& r, Cycles end) {
  if (cfg_.loop == LoopMode::kClosed) {
    Reissue(end, r.client);
  }
}

void ShardClients::ScanKeys(uint64_t from, uint32_t len, std::vector<uint64_t>* keys) const {
  const uint64_t population = minter_.population();
  keys->clear();
  for (uint32_t i = 0; i < len; ++i) {
    keys->push_back((from - 1 + i) % population + 1);
  }
}

std::vector<Shard::Worker> Shard::CreateWorkers(System* system, uint32_t count) {
  PMEMSIM_CHECK(count > 0);
  std::vector<Worker> workers(count);
  for (Worker& wk : workers) {
    wk.ctx = &system->CreateThread();
  }
  return workers;
}

Shard::Shard(System* system, const ServeConfig& cfg, uint32_t index,
             std::vector<uint64_t> load_keys, uint64_t append_budget,
             std::unique_ptr<RequestSource> source)
    : cfg_(cfg),
      index_(index),
      system_(system),
      workers_(CreateWorkers(system, cfg.workers_per_shard)),
      queue_(cfg.queue_depth),
      store_(system, cfg.store, load_keys.size(), append_budget, *workers_[0].ctx),
      source_(std::move(source)),
      load_keys_(std::move(load_keys)) {}

bool Shard::LoadStep() {
  if (loaded_ >= load_keys_.size()) {
    return false;
  }
  ThreadContext& loader = *workers_[0].ctx;
  const uint64_t key = load_keys_[loaded_++];
  store_.Insert(loader, key, Mix64(key));
  if (loaded_ == load_keys_.size()) {
    store_.FlushPreload(loader);  // preload durability point before serving
  }
  return true;
}

SimJob Shard::LoadJob() {
  SimJob job;
  job.ctx = workers_[0].ctx;
  job.step = [this] { return LoadStep() ? StepResult::kProgress : StepResult::kDone; };
  return job;
}

void Shard::SetObservability(ServeMetrics* metrics, SpanRecorder* spans, Sampler* mem_sampler) {
  metrics_ = metrics;
  span_recorder_ = spans;
  mem_sampler_ = mem_sampler;
}

void Shard::StartServing(Cycles t0, std::function<bool()> quiet) {
  // The serve phase is a fresh accounting window: preload-time queue state
  // (none today, but the contract holds if warm-up traffic ever precedes it)
  // must not leak into the measured offered/rejected/max_occupancy.
  queue_.BeginPhase();
  if (metrics_ != nullptr) {
    // Opening observation: window 0 starts from the real (inherited)
    // occupancy rather than the carry-forward default of zero.
    metrics_->ObserveQueueDepth(t0, queue_.size());
  }
  // A common serve-phase origin keeps queue-wait and sojourn cycles
  // comparable across shards.
  for (Worker& wk : workers_) {
    wk.ctx->AdvanceTo(t0);
    wk.ctx->SetAttribution(&attribution_);
    // Phase boundary: the trace-visible twin of BeginPhase() above.
    wk.ctx->TraceMarker(kServePhaseMarker);
    jobs_.push_back(SimJob{wk.ctx, [this, &wk] { return WorkerStep(wk); }});
  }
  source_->Start(t0);
  quiet_ = std::move(quiet);
  if (quiet_ == nullptr) {
    epoch_scheduler_ = std::make_unique<Scheduler>(&jobs_);
  }
}

void Shard::RunEpoch(Cycles epoch_end) {
  epoch_end_ = epoch_end;
  // The private scheduler drives the shard's own memory-plane sampler: the
  // series observes this shard's minimum worker clock, exactly as a lockstep
  // run's sampler observes the global minimum.
  epoch_scheduler_->RunUntil(epoch_end, mem_sampler_);
}

void Shard::FinishServing() {
  for (Worker& wk : workers_) {
    wk.ctx->SetAttribution(nullptr);
  }
  stats_.offered = queue_.offered();
  stats_.rejected = queue_.rejected();
}

bool Shard::Drained() const {
  return queue_.empty() && in_flight_ == 0 && !source_->NextArrival().has_value();
}

StepResult Shard::WorkerStep(Worker& wk) {
  // How far an idle lockstep worker advances when no arrival is scheduled but
  // requests are still in flight somewhere. Small enough to observe
  // completions promptly, large enough not to dominate step counts.
  constexpr Cycles kIdleQuantum = 256;
  ThreadContext& ctx = *wk.ctx;
  if (wk.next >= wk.claimed.size()) {
    wk.claimed.clear();
    wk.next = 0;
    const Cycles now = ctx.clock();
    const bool lockstep = quiet_ != nullptr;
    if (lockstep && mem_sampler_ != nullptr) {
      // A shard with its own memory-plane series but no private scheduler
      // (partitioned layout at zero lookahead): this step's clock is the
      // lockstep minimum, a valid non-decreasing observation.
      mem_sampler_->AdvanceTo(now);
    }
    // This step begins at the minimal clock of every worker that can feed
    // this shard (lockstep invariant, or the epoch window's), so folding
    // arrivals <= now reproduces admission order exactly.
    CatchUpAdmissions(now);
    const size_t n = queue_.ClaimBatch(cfg_.batch, &wk.claimed);
    in_flight_ += n;
    if (n > 0 && metrics_ != nullptr) {
      metrics_->ObserveQueueDepth(now, queue_.size());
    }
    if (n == 0) {
      const std::optional<Cycles> next = source_->NextArrival();
      Cycles target;
      if (lockstep) {
        if (quiet_()) {
          return StepResult::kDone;
        }
        target = next.value_or(now + kIdleQuantum);
      } else {
        // Epoch: park at the next arrival or the window edge, whichever
        // comes first. Workers never retire — the tier decides when it is
        // drained — and an idle shard reaches the edge in one cheap step per
        // worker, so it never stalls the barrier.
        target = std::min(next.value_or(epoch_end_), epoch_end_);
      }
      ctx.AdvanceTo(std::max(target, now + 1));
      return StepResult::kProgress;
    }
  }
  const Request r = wk.claimed[wk.next++];
  const Cycles start = ctx.clock();
  if (span_recorder_ != nullptr) {
    ReadSpanStages(span_stage_base_);
  }
  Execute(ctx, r);
  if (ctx.clock() == start) {
    ctx.AddCompute(1);  // scheduler contract: every step advances the clock
  }
  CompleteRequest(r, start, ctx.clock());
  return StepResult::kProgress;
}

void Shard::ReadSpanStages(Cycles* out) const {
  for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
    out[s] = attribution_.critical_stage_total(static_cast<AttributionCollector::Stage>(s));
  }
}

void Shard::CatchUpAdmissions(Cycles now) {
  bool folded = false;
  Request r;
  while (source_->PopDue(now, &r)) {
    folded = true;
    const bool admitted = queue_.Offer(r, now);
    if (metrics_ != nullptr) {
      admitted ? metrics_->RecordAdmission(now) : metrics_->RecordShed(now);
    }
    if (!admitted) {
      source_->OnShed(r, now);
    }
  }
  if (folded && metrics_ != nullptr) {
    metrics_->ObserveQueueDepth(now, queue_.size());
  }
}

void Shard::Execute(ThreadContext& ctx, const Request& r) {
  uint64_t value = 0;
  switch (r.op) {
    case ServeOp::kRead:
      if (!store_.Get(ctx, r.key, &value)) {
        ++stats_.not_found;
      }
      break;
    case ServeOp::kUpdate:
      if (!store_.Update(ctx, r.key, Mix64(r.key + r.arrival))) {
        ++stats_.not_found;
      }
      break;
    case ServeOp::kInsert:
      store_.Insert(ctx, r.key, Mix64(r.key));
      break;
    case ServeOp::kScan:
      if (store_.ordered()) {
        store_.TreeScan(ctx, r.key, r.scan_len);
        break;
      }
      source_->ScanKeys(r.key, r.scan_len, &scan_keys_);
      for (const uint64_t key : scan_keys_) {
        if (!store_.Get(ctx, key, &value)) {
          ++stats_.not_found;
        }
      }
      break;
    case ServeOp::kRmw:
      if (!store_.Get(ctx, r.key, &value)) {
        ++stats_.not_found;
      }
      if (!store_.Update(ctx, r.key, value + 1)) {
        ++stats_.not_found;
      }
      break;
  }
}

void Shard::CompleteRequest(const Request& r, Cycles start, Cycles end) {
  stats_.RecordCompletion(r, start, end);
  PMEMSIM_CHECK(in_flight_ > 0);
  --in_flight_;
  if (metrics_ != nullptr) {
    metrics_->RecordCompletion(end, end - r.arrival);
  }
  if (span_recorder_ != nullptr) {
    Cycles stages[AttributionCollector::kStageCount];
    ReadSpanStages(stages);
    for (int s = 0; s < AttributionCollector::kStageCount; ++s) {
      stages[s] -= span_stage_base_[s];
    }
    span_recorder_->Record(r.client, static_cast<uint8_t>(r.op), r.arrival, r.admit, start, end,
                           stages);
  }
  source_->OnComplete(r, end);
}

}  // namespace pmemsim
