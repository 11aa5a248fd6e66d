// TierDispatcher: the client population and front-end router of the
// partitioned layout (DomainTier), and RoutedInbox, each shard's end of it.
//
// In the partitioned layout every shard has its own System; the only
// cross-shard interaction is the client tier dispatching a request to the
// shard that owns its key. The dispatcher owns that tier:
//
//  * routing is by key hash — Route(key) = Mix64(key ^ salt) % shards — over
//    one global key space of cfg.keys * cfg.shards preloaded keys, so every
//    request's destination is a pure function of its content;
//  * each dispatched request takes cfg.dispatch_latency cycles (D) to reach
//    its shard: a request issued at t becomes admission-eligible at t + D.
//    D is the minimum cross-shard interaction latency, which makes it the
//    conservative epoch window (see src/serve/tier.h);
//  * requests are minted at issue time, and every stochastic draw lives in
//    one global RequestMinter consumed on the coordinator thread only, in a
//    deterministic order: open-loop arrivals in generation order, closed-loop
//    client feedback in (event time, client) order at each epoch barrier.
//    Results are therefore independent of how many host threads advance the
//    shards.
//
// Closed-loop feedback: an inbox reports one DomainEvent per completion and
// per shed observation. The dispatcher folds one epoch's events (sorted) and
// issues each live client's next request at event.time + think + D — always
// at least one epoch ahead, which is exactly why barrier-time delivery never
// misses an admission. With zero lookahead (D == 0, the lockstep fallback)
// the inboxes instead pump the dispatcher and report events synchronously
// from inside the one combined lockstep run, where global clock order plays
// the coordinator.

#ifndef SRC_SERVE_DISPATCH_H_
#define SRC_SERVE_DISPATCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "src/common/types.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"

namespace pmemsim {

// One cross-shard fact an inbox reports at the epoch barrier: client
// `client`'s in-flight request resolved (completed, or was shed at admission)
// at cycle `time`. (time, client) pairs are unique within an epoch — a client
// has at most one request in flight — so sorting them is a total order.
struct DomainEvent {
  Cycles time;
  uint32_t client;
  bool operator<(const DomainEvent& o) const {
    return time != o.time ? time < o.time : client < o.client;
  }
};

class RoutedInbox;

class TierDispatcher {
 public:
  explicit TierDispatcher(const ServeConfig& cfg);
  TierDispatcher(const TierDispatcher&) = delete;  // inboxes hold its address
  TierDispatcher& operator=(const TierDispatcher&) = delete;

  // Destination shard for a key (pure function of content + seed).
  uint32_t Route(uint64_t key) const;

  // The seed-shuffled global preload key list, split by Route: element s is
  // shard s's preload list (each shard loads only the keys it owns).
  std::vector<std::vector<uint64_t>> PartitionLoadKeys() const;

  // Creates the next shard's inbox (call once per shard, in shard order);
  // `owned_keys` are the keys that shard preloads.
  std::unique_ptr<RoutedInbox> MakeInbox(const std::vector<uint64_t>& owned_keys);

  // Seeds the closed-loop clients (their first requests are issued at
  // t0 + think and delivered immediately — arrival times are future-dated,
  // the shard admits them when its clock gets there) or arms the open-loop
  // Poisson cursor.
  void StartServing(Cycles t0);

  // Open loop: generates and delivers every arrival with admission-eligible
  // time < limit. The epoch loop calls it once before each epoch with the
  // epoch's end; closed-loop issues come from client feedback instead.
  void DeliverBefore(Cycles limit);

  // Epoch barrier: folds one epoch's events from every inbox — sorted by
  // (time, client) so the fold order is independent of shard count and host
  // threading — issuing each client's next request while the budget lasts.
  void FoldEvents();

  // Closed loop: one completion or shed of `client` at `time`.
  void OnEvent(Cycles time, uint32_t client);

  // The admission-eligible time of the next open-loop arrival the dispatcher
  // will generate (nullopt when closed-loop or exhausted). Idle workers at
  // zero lookahead park just past this instead of spinning in quanta.
  std::optional<Cycles> NextArrivalHint() const;

  // True when the dispatcher will never produce another arrival on its own:
  // open loop once the budget is fully generated; always for the closed loop
  // (future work there is client feedback, visible as undrained shards).
  bool Exhausted() const;

  bool eager() const { return latency_ == 0; }
  uint64_t budget() const { return budget_; }
  LoopMode loop() const { return cfg_.loop; }

 private:
  void Deliver(const Request& r);

  const ServeConfig& cfg_;
  uint32_t shards_;
  uint64_t global_keys_;  // cfg.keys * cfg.shards
  uint64_t budget_;       // cfg.ops * cfg.shards offered-op issues
  Cycles latency_;        // cfg.dispatch_latency (D)
  RequestMinter minter_;
  uint64_t route_salt_;
  std::vector<RoutedInbox*> inboxes_;  // owned by their shards
  std::vector<DomainEvent> merged_;    // FoldEvents scratch
};

// A shard's end of the router (partitioned layout): requests minted by the
// dispatcher wait here until a worker's clock reaches their arrival;
// closed-loop sheds and completions go back to the dispatcher as events —
// logged for the next barrier, or folded at once at zero lookahead.
class RoutedInbox : public RequestSource {
 public:
  RoutedInbox(TierDispatcher* dispatcher, std::vector<uint64_t> owned_sorted);

  // Delivery from the dispatcher (arrival times may be far in the future).
  void Accept(const Request& r) { pending_.push(r); }
  // The epoch's event log, drained at the barrier.
  std::vector<DomainEvent>& events() { return events_; }

  void Start(Cycles) override {}
  // At zero lookahead this step's clock is the global lockstep minimum, so
  // the dispatcher is pumped here first: arrivals reach every inbox in exact
  // admission order.
  bool PopDue(Cycles now, Request* out) override;
  std::optional<Cycles> NextArrival() const override;
  // The client observes a shed at the folding worker's clock `now`, not the
  // arrival cycle, and backs off from there. The observation IS the
  // cross-shard signal, and `now < epoch_end` (workers only step below the
  // window edge) keeps the re-dispatch at now + think + D beyond the epoch.
  void OnShed(const Request& r, Cycles now) override;
  void OnComplete(const Request& r, Cycles end) override;
  // Point reads over the keys this shard owns, ascending from `from` and
  // wrapping: only owned keys exist locally, so consecutive global ids would
  // mostly miss.
  void ScanKeys(uint64_t from, uint32_t len, std::vector<uint64_t>* keys) const override;

 private:
  struct ArrivalOrder {
    bool operator()(const Request& a, const Request& b) const {
      return a.arrival != b.arrival ? a.arrival > b.arrival : a.client > b.client;
    }
  };

  void Report(Cycles time, uint32_t client);

  TierDispatcher* dispatcher_;
  std::vector<uint64_t> owned_sorted_;
  std::priority_queue<Request, std::vector<Request>, ArrivalOrder> pending_;
  std::vector<DomainEvent> events_;
};

}  // namespace pmemsim

#endif  // SRC_SERVE_DISPATCH_H_
