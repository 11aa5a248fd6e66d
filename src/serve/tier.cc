#include "src/serve/tier.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/cpu/scheduler.h"
#include "src/serve/dispatch.h"
#include "src/trace/json.h"

namespace pmemsim {
namespace {

// Persistent barrier-synchronized pool: N-1 host threads plus the caller
// (worker 0). Run(body) executes body(w) for every w in [0, N) and returns
// once all complete; worker exceptions (including captured CHECK failures)
// are rethrown on the caller. All cross-thread state is published under one
// mutex, so every shard write inside body() happens-before the coordinator's
// post-barrier reads — the property that keeps the engine TSan-clean.
class EpochPool {
 public:
  explicit EpochPool(uint32_t n) : n_(n) {
    threads_.reserve(n_ > 0 ? n_ - 1 : 0);
    for (uint32_t w = 1; w < n_; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~EpochPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  EpochPool(const EpochPool&) = delete;
  EpochPool& operator=(const EpochPool&) = delete;

  void Run(const std::function<void(uint32_t)>& body) {
    if (n_ <= 1) {
      body(0);  // sequential reference path: no threads, no barrier
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      remaining_ = n_ - 1;
      ++generation_;
    }
    cv_start_.notify_all();
    RunBody(0);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    body_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr error = std::exchange(error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void WorkerLoop(uint32_t w) {
    // CHECK failures inside a shard must not abort the process from a pool
    // thread: capture them as exceptions and let Run() rethrow on the caller
    // (where the sweep runner's own capture scope can isolate the failure).
    ScopedCheckCapture capture;
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) {
          return;
        }
      }
      RunBody(w);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--remaining_ == 0) {
          cv_done_.notify_one();
        }
      }
    }
  }

  void RunBody(uint32_t w) {
    try {
      (*body_)(w);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_ == nullptr) {
        error_ = std::current_exception();
      }
    }
  }

  const uint32_t n_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(uint32_t)>* body_ = nullptr;
  uint32_t remaining_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_ = nullptr;
};

}  // namespace

ServeEngine::ServeEngine(System* system, const ServeConfig& cfg) : cfg_(cfg) {
  PMEMSIM_CHECK(cfg_.shards > 0);
  shards_.reserve(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    std::vector<uint64_t> keys =
        MakeLoadKeys(cfg_.keys, ServeSubSeed(cfg_.seed, s, kLoadKeyStream));
    shards_.push_back(std::make_unique<Shard>(system, cfg_, s, std::move(keys), cfg_.ops,
                                              std::make_unique<ShardClients>(cfg_, s)));
  }
}

ServeEngine::ServeEngine(const PlatformConfig& platform, uint32_t dimms_per_shard,
                         const ServeConfig& cfg)
    : cfg_(cfg), dispatcher_(std::make_unique<TierDispatcher>(cfg_)) {
  std::vector<std::vector<uint64_t>> keys = dispatcher_->PartitionLoadKeys();
  shards_.reserve(cfg_.shards);
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    systems_.push_back(std::make_unique<System>(platform, dimms_per_shard));
    std::unique_ptr<RoutedInbox> inbox = dispatcher_->MakeInbox(keys[s]);
    // Append-only stores are sized for the tier-wide budget: any op can
    // route to any shard.
    shards_.push_back(std::make_unique<Shard>(systems_.back().get(), cfg_, s, std::move(keys[s]),
                                              dispatcher_->budget(), std::move(inbox)));
  }
}

ServeEngine::~ServeEngine() = default;

void ServeEngine::Run() {
  PMEMSIM_CHECK_MSG(!ran_, "ServeEngine::Run is one-shot");
  ran_ = true;
  // Zero lookahead leaves no window to run shards concurrently in, so
  // engine_threads only matters to the epoch strategy.
  const bool epochs = partitioned() && cfg_.dispatch_latency > 0;
  const uint32_t threads =
      epochs ? std::min<uint32_t>(std::max<uint32_t>(cfg_.engine_threads, 1), cfg_.shards) : 1;
  EpochPool pool(threads);

  // Load phase: each shard's first worker inserts one key per step.
  if (partitioned()) {
    // Each shard on its own System: there is nothing to contend on, so the
    // shards load concurrently with no epoch discipline at all.
    pool.Run([this, threads](uint32_t w) {
      for (size_t d = w; d < shards_.size(); d += threads) {
        std::vector<SimJob> job = {shards_[d]->LoadJob()};
        Scheduler::Run(job);
      }
    });
  } else {
    // The loaders interleave through the shared memory system in clock
    // order, so they contend for it realistically.
    std::vector<SimJob> jobs;
    for (auto& shard : shards_) {
      jobs.push_back(shard->LoadJob());
    }
    Scheduler::Run(jobs);
  }
  for (const auto& shard : shards_) {
    load_end_ = std::max(load_end_, shard->loader_clock());
  }
  serve_start_ = load_end_;

  if (timeline_ != nullptr) {
    BeginTimeline();
  }
  for (auto& shard : shards_) {
    // Lockstep workers retire once nothing can reach their shard again: in
    // the shared layout when the shard drains, behind the router only when
    // the whole tier has (a completion anywhere can issue work here).
    std::function<bool()> quiet;  // none: epoch workers never retire
    if (!epochs && partitioned()) {
      quiet = [this] { return dispatcher_->Exhausted() && AllDrained(); };
    } else if (!epochs) {
      quiet = [unit = shard.get()] { return unit->Drained(); };
    }
    shard->StartServing(serve_start_, std::move(quiet));
  }
  if (partitioned()) {
    dispatcher_->StartServing(serve_start_);
  }

  if (epochs) {
    // Conservative epoch loop (see the file comment). The first window is a
    // warm-up bubble — every first arrival lands at >= t0 + D — which costs
    // one barrier.
    for (Cycles epoch_end = serve_start_ + cfg_.dispatch_latency;;
         epoch_end += cfg_.dispatch_latency) {
      dispatcher_->DeliverBefore(epoch_end);
      pool.Run([this, threads, epoch_end](uint32_t w) {
        for (size_t d = w; d < shards_.size(); d += threads) {
          shards_[d]->RunEpoch(epoch_end);
        }
      });
      dispatcher_->FoldEvents();
      if (dispatcher_->Exhausted() && AllDrained()) {
        // The timeline closes at the final barrier, or later if a request
        // that started before the barrier completed after it.
        serve_end_ = std::max(epoch_end, end_cycle());
        break;
      }
    }
  } else {
    std::vector<SimJob> jobs;
    for (const auto& shard : shards_) {
      jobs.insert(jobs.end(), shard->worker_jobs().begin(), shard->worker_jobs().end());
    }
    // The shared System's series (when a timeline is attached) observes the
    // lockstep minimum clock before every step, giving the same boundary view
    // pmemsim_watch has of a workload; per-shard series observe in WorkerStep.
    Sampler* shared_mem =
        timeline_ != nullptr && !partitioned() ? timeline_->mem_sampler(0) : nullptr;
    serve_end_ = Scheduler::Run(jobs, shared_mem);
  }

  for (auto& shard : shards_) {
    shard->FinishServing();
  }
  if (timeline_ != nullptr) {
    for (auto& shard : shards_) {
      shard->SetObservability(nullptr, nullptr, nullptr);
    }
    // Every shard finalizes at the same engine end, so the per-shard window
    // lists are congruent whatever each shard's local drain time was.
    timeline_->Finalize(serve_end_);
  }
}

void ServeEngine::BeginTimeline() {
  timeline_->Begin(serve_start_);
  // One memory-plane series per System, in System order: the shared one, or
  // each shard's own, which is then also that shard's series. Its gauges add
  // the admission-queue depth of the shards on that System.
  const size_t systems = partitioned() ? shards_.size() : 1;
  for (size_t i = 0; i < systems; ++i) {
    System* system = &shards_[i]->system();
    auto gauges = [this, system](Cycles now) {
      SampleGauges g = system->ReadGauges(now);
      for (const auto& shard : shards_) {
        if (&shard->system() == system) {
          g.serve_queue_depth += shard->queue().size();
        }
      }
      return g;
    };
    timeline_->AttachMemSampler(&system->counters(), gauges, partitioned());
  }
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_[s]->SetObservability(timeline_->shard(s), timeline_->spans(s),
                                 partitioned() ? timeline_->mem_sampler(s) : nullptr);
  }
}

bool ServeEngine::AllDrained() const {
  for (const auto& shard : shards_) {
    if (!shard->Drained()) {
      return false;
    }
  }
  return true;
}

Cycles ServeEngine::end_cycle() const {
  Cycles end = serve_start_;
  for (const auto& shard : shards_) {
    end = std::max(end, shard->stats().last_completion);
  }
  return end;
}

ServiceStats ServeEngine::GlobalStats() const {
  ServiceStats global;
  for (const auto& shard : shards_) {
    global.Merge(shard->stats());
  }
  return global;
}

void ServeEngine::ToJson(JsonWriter& w) const {
  const double ghz = shards_[0]->system().config().cpu_ghz;
  w.BeginObject();
  w.Key("config").BeginObject();
  w.Key("store").Value(StoreName(cfg_.store));
  w.Key("loop").Value(LoopModeName(cfg_.loop));
  w.Key("mix").Value(cfg_.mix_name);
  w.Key("shards").Value(static_cast<uint64_t>(cfg_.shards));
  w.Key("workers_per_shard").Value(static_cast<uint64_t>(cfg_.workers_per_shard));
  w.Key("queue_depth").Value(cfg_.queue_depth);
  w.Key("batch").Value(cfg_.batch);
  w.Key("clients").Value(static_cast<uint64_t>(cfg_.clients));
  w.Key("think_cycles").Value(cfg_.think_cycles);
  w.Key("interarrival_cycles").Value(cfg_.interarrival_cycles);
  w.Key("ops").Value(cfg_.ops);
  w.Key("keys").Value(cfg_.keys);
  w.Key("theta").Value(cfg_.theta);
  w.Key("scan_len").Value(static_cast<uint64_t>(cfg_.scan_len));
  w.Key("seed").Value(cfg_.seed);
  if (partitioned()) {
    w.Key("engine").Value("partitioned");
    w.Key("dispatch_latency").Value(static_cast<uint64_t>(cfg_.dispatch_latency));
  }
  w.EndObject();
  w.Key("load_cycles").Value(static_cast<uint64_t>(load_end_));
  w.Key("serve_start").Value(static_cast<uint64_t>(serve_start_));
  w.Key("end_cycle").Value(static_cast<uint64_t>(end_cycle()));
  w.Key("global");
  GlobalStats().ToJson(w, ghz, serve_start_);
  w.Key("shards").BeginArray();
  for (const auto& shard : shards_) {
    w.BeginObject();
    w.Key("shard").Value(static_cast<uint64_t>(shard->index()));
    w.Key("queue").BeginObject();
    w.Key("depth").Value(static_cast<uint64_t>(shard->queue().depth()));
    w.Key("max_occupancy").Value(shard->queue().max_occupancy());
    w.EndObject();
    w.Key("stats");
    shard->stats().ToJson(w, ghz, serve_start_);
    w.Key("attribution");
    shard->attribution().ToJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::string ServeEngine::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
