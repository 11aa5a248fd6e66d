#include "src/serve/dispatch.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/workload/ycsb.h"

namespace pmemsim {
namespace {

// The router's streams live in ServeSubSeed slot cfg.shards, one past the
// last shard's own clients, so the two client models never share a stream.
constexpr uint32_t kRouteStream = 6;

}  // namespace

TierDispatcher::TierDispatcher(const ServeConfig& cfg)
    : cfg_(cfg),
      shards_(cfg.shards),
      global_keys_(cfg.keys * cfg.shards),
      budget_(cfg.ops * cfg.shards),
      latency_(cfg.dispatch_latency),
      // Global arrival rate: the per-shard mean divided by the shard count,
      // so the tier carries the same total offered load as the shared layout.
      minter_(cfg, cfg.shards, global_keys_, budget_, cfg.interarrival_cycles / cfg.shards),
      route_salt_(ServeSubSeed(cfg.seed, cfg.shards, kRouteStream)) {
  PMEMSIM_CHECK(cfg.shards > 0);
}

uint32_t TierDispatcher::Route(uint64_t key) const {
  return static_cast<uint32_t>(Mix64(key ^ route_salt_) % shards_);
}

std::vector<std::vector<uint64_t>> TierDispatcher::PartitionLoadKeys() const {
  const std::vector<uint64_t> all =
      MakeLoadKeys(global_keys_, ServeSubSeed(cfg_.seed, cfg_.shards, kLoadKeyStream));
  std::vector<std::vector<uint64_t>> per_shard(shards_);
  for (uint32_t s = 0; s < shards_; ++s) {
    per_shard[s].reserve(global_keys_ / shards_ + 1);
  }
  for (const uint64_t key : all) {
    per_shard[Route(key)].push_back(key);
  }
  return per_shard;
}

std::unique_ptr<RoutedInbox> TierDispatcher::MakeInbox(const std::vector<uint64_t>& owned_keys) {
  std::vector<uint64_t> sorted = owned_keys;
  std::sort(sorted.begin(), sorted.end());
  auto inbox = std::make_unique<RoutedInbox>(this, std::move(sorted));
  inboxes_.push_back(inbox.get());
  return inbox;
}

void TierDispatcher::StartServing(Cycles t0) {
  PMEMSIM_CHECK(inboxes_.size() == shards_);
  if (cfg_.loop == LoopMode::kOpen) {
    minter_.StartOpen(t0);
    return;
  }
  const uint64_t clients = uint64_t{cfg_.clients} * shards_;
  for (uint32_t c = 0; c < clients && minter_.TakeIssue(); ++c) {
    Deliver(minter_.Mint(t0 + minter_.Think() + latency_, c));
  }
}

void TierDispatcher::DeliverBefore(Cycles limit) {
  if (cfg_.loop != LoopMode::kOpen) {
    return;
  }
  std::optional<Cycles> next = minter_.NextOpen();
  while (next.has_value() && *next + latency_ < limit) {
    Deliver(minter_.TakeOpen(latency_));
    next = minter_.NextOpen();
  }
}

void TierDispatcher::FoldEvents() {
  merged_.clear();
  for (RoutedInbox* inbox : inboxes_) {
    std::vector<DomainEvent>& events = inbox->events();
    merged_.insert(merged_.end(), events.begin(), events.end());
    events.clear();
  }
  std::sort(merged_.begin(), merged_.end());
  for (const DomainEvent& ev : merged_) {
    OnEvent(ev.time, ev.client);
  }
}

void TierDispatcher::OnEvent(Cycles time, uint32_t client) {
  // Once the budget is spent the client retires.
  if (cfg_.loop == LoopMode::kClosed && minter_.TakeIssue()) {
    Deliver(minter_.Mint(time + minter_.Think() + latency_, client));
  }
}

std::optional<Cycles> TierDispatcher::NextArrivalHint() const {
  if (cfg_.loop != LoopMode::kOpen) {
    return std::nullopt;
  }
  const std::optional<Cycles> next = minter_.NextOpen();
  return next.has_value() ? std::optional<Cycles>(*next + latency_) : std::nullopt;
}

bool TierDispatcher::Exhausted() const {
  return cfg_.loop == LoopMode::kClosed || !minter_.NextOpen().has_value();
}

void TierDispatcher::Deliver(const Request& r) { inboxes_[Route(r.key)]->Accept(r); }

RoutedInbox::RoutedInbox(TierDispatcher* dispatcher, std::vector<uint64_t> owned_sorted)
    : dispatcher_(dispatcher), owned_sorted_(std::move(owned_sorted)) {}

bool RoutedInbox::PopDue(Cycles now, Request* out) {
  if (dispatcher_->eager()) {
    dispatcher_->DeliverBefore(now + 1);
  }
  if (pending_.empty() || pending_.top().arrival > now) {
    return false;
  }
  *out = pending_.top();
  pending_.pop();
  return true;
}

std::optional<Cycles> RoutedInbox::NextArrival() const {
  std::optional<Cycles> next =
      pending_.empty() ? std::nullopt : std::optional<Cycles>(pending_.top().arrival);
  if (dispatcher_->eager()) {
    // The next arrival may not be minted yet. (Once the dispatcher is
    // exhausted the hint is nullopt, so Shard::Drained sees only `pending_`.)
    const std::optional<Cycles> hint = dispatcher_->NextArrivalHint();
    if (hint.has_value() && (!next.has_value() || *hint < *next)) {
      next = hint;
    }
  }
  return next;
}

void RoutedInbox::OnShed(const Request& r, Cycles now) { Report(now, r.client); }

void RoutedInbox::OnComplete(const Request& r, Cycles end) { Report(end, r.client); }

void RoutedInbox::Report(Cycles time, uint32_t client) {
  if (dispatcher_->loop() != LoopMode::kClosed) {
    return;  // open-loop arrivals have no client to resume
  }
  if (dispatcher_->eager()) {
    dispatcher_->OnEvent(time, client);
  } else {
    events_.push_back(DomainEvent{time, client});
  }
}

void RoutedInbox::ScanKeys(uint64_t from, uint32_t len, std::vector<uint64_t>* keys) const {
  keys->clear();
  if (owned_sorted_.empty()) {
    return;
  }
  const size_t start =
      std::lower_bound(owned_sorted_.begin(), owned_sorted_.end(), from) - owned_sorted_.begin();
  for (uint32_t i = 0; i < len; ++i) {
    keys->push_back(owned_sorted_[(start + i) % owned_sorted_.size()]);
  }
}

}  // namespace pmemsim
