// CounterRegistry: named, stable Counters scopes — one per writer (each
// Optane DIMM with its WPQ, the DRAM channel, the iMC itself, each simulated
// thread). This is the simulator's analogue of per-DIMM `ipmwatch` output:
// the paper's §2.4 counter deltas exist per DIMM on real hardware, and model
// regressions localized to one DIMM or one thread are invisible in a global
// sum.
//
// Writers increment only their own scope; the system-wide view is an
// aggregation over scopes (see Counters::BindAggregate), so per-scope values
// sum exactly to the global by construction.

#ifndef SRC_TRACE_REGISTRY_H_
#define SRC_TRACE_REGISTRY_H_

#include <deque>
#include <string>

#include "src/trace/counters.h"

namespace pmemsim {

class CounterRegistry {
 public:
  struct Scope {
    std::string name;
    Counters counters;
  };

  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  // Creates a scope and returns its Counters (address stable for the
  // registry's lifetime). Names must be unique within the registry.
  Counters* CreateScope(const std::string& name);

  // nullptr when no scope has that name.
  const Counters* FindScope(const std::string& name) const;

  size_t scope_count() const { return scopes_.size(); }
  const std::deque<Scope>& scopes() const { return scopes_; }

  Counters Aggregate() const;
  // Sums all scopes into `*out`'s fields (preserving any aggregate binding
  // `*out` carries — assignment copies values only).
  void AggregateInto(Counters* out) const;

  // {"scope_name": {counters...}, ...} in creation order.
  std::string ToJson() const;

 private:
  // deque: scope Counters addresses must survive later CreateScope calls.
  std::deque<Scope> scopes_;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_REGISTRY_H_
