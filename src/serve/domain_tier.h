// DomainTier: the serving engine's partitioned layout. Each shard owns its
// own System (DIMMs, iMC, caches, counter registry) and shares nothing with
// its peers; the client tier (TierDispatcher, src/serve/dispatch.h) routes
// requests to shards by key hash with a modelled dispatch latency D. With
// D > 0 the shards advance in conservative epochs of width D on
// cfg.engine_threads host threads; with D = 0 they run lockstep in one
// scheduler. src/serve/tier.h describes both layouts and run strategies.

#ifndef SRC_SERVE_DOMAIN_TIER_H_
#define SRC_SERVE_DOMAIN_TIER_H_

#include "src/serve/dispatch.h"
#include "src/serve/tier.h"

namespace pmemsim {

// Construct as DomainTier(platform, dimms_per_shard, cfg).
using DomainTier = ServeEngine;

}  // namespace pmemsim

#endif  // SRC_SERVE_DOMAIN_TIER_H_
