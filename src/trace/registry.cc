#include "src/trace/registry.h"

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

Counters* CounterRegistry::CreateScope(const std::string& name) {
  PMEMSIM_CHECK_MSG(FindScope(name) == nullptr, "duplicate counter scope name");
  scopes_.push_back(Scope{name, Counters{}});
  return &scopes_.back().counters;
}

const Counters* CounterRegistry::FindScope(const std::string& name) const {
  for (const Scope& s : scopes_) {
    if (s.name == name) {
      return &s.counters;
    }
  }
  return nullptr;
}

Counters CounterRegistry::Aggregate() const {
  Counters total;
  for (const Scope& s : scopes_) {
    total += s.counters;
  }
  return total;
}

void CounterRegistry::AggregateInto(Counters* out) const {
  *out = Aggregate();  // value-only assignment; `out`'s binding survives
}

std::string CounterRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  for (const Scope& s : scopes_) {
    w.Key(s.name);
    s.counters.ToJson(w);
  }
  w.EndObject();
  return w.str();
}

}  // namespace pmemsim
