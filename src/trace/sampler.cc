#include "src/trace/sampler.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

uint64_t IntervalGrid::IndexOf(Cycles t) const {
  const uint64_t k = (t - origin) / interval;
  PMEMSIM_CHECK_MSG(k < kMaxIntervals,
                    "series passes the window cap (IntervalGrid::kMaxIntervals "
                    "intervals); raise --sample_interval_cycles");
  return k;
}

Sampler::Sampler(const Counters* counters, Cycles interval_cycles, Cycles origin)
    : grid_{origin, interval_cycles}, next_boundary_(origin + interval_cycles), delta_(counters) {
  PMEMSIM_CHECK(counters != nullptr);
  PMEMSIM_CHECK_MSG(interval_cycles > 0, "sample interval must be positive");
}

void Sampler::Emit(Cycles t_end, bool partial) {
  Sample s;
  s.index = index_;
  s.t_begin = grid_.Begin(index_);
  s.t_end = t_end;
  s.partial = partial;
  s.delta = delta_.Delta();
  delta_.Rebase();
  if (gauge_fn_) {
    s.gauges = gauge_fn_(t_end);
  }
  samples_.push_back(s);
  if (on_sample_) {
    on_sample_(samples_.back());
  }
  ++index_;
  next_boundary_ = grid_.Begin(index_ + 1);
}

void Sampler::AdvanceTo(Cycles now) {
  if (now < next_boundary_) {
    return;
  }
  // Every interval before the one holding `now` closes; IndexOf refuses a
  // clock past the window cap before any of them is emitted.
  const uint64_t open = grid_.IndexOf(now);
  while (index_ < open) {
    Emit(next_boundary_, /*partial=*/false);
  }
}

void Sampler::Finalize(Cycles end) {
  PMEMSIM_CHECK_MSG(!finalized_, "Sampler::Finalize called twice");
  AdvanceTo(end);
  // Close the open interval if it holds any time or residual counter deltas
  // (events can land after the last AdvanceTo observation).
  const Cycles open_begin = grid_.Begin(index_);
  const Counters residual = delta_.Delta();
  const Counters zero;
  if (end > open_begin || residual != zero) {
    Emit(std::max(end, open_begin), /*partial=*/true);
  }
  finalized_ = true;
}

Counters Sampler::SumOfDeltas() const {
  Counters sum;
  for (const Sample& s : samples_) {
    sum += s.delta;
  }
  return sum;
}

std::string Sampler::ToJson() const {
  JsonWriter w;
  w.BeginArray();
  for (const Sample& s : samples_) {
    w.BeginObject();
    w.Key("index").Value(s.index);
    w.Key("t_begin").Value(static_cast<uint64_t>(s.t_begin));
    w.Key("t_end").Value(static_cast<uint64_t>(s.t_end));
    w.Key("partial").Value(s.partial);
    w.Key("delta");
    s.delta.ToJson(w);
    w.Key("gauges").BeginObject();
    w.Key("wpq_occupancy").Value(s.gauges.wpq_occupancy);
    w.Key("read_buffer_entries").Value(s.gauges.read_buffer_entries);
    w.Key("write_buffer_entries").Value(s.gauges.write_buffer_entries);
    w.Key("serve_queue_depth").Value(s.gauges.serve_queue_depth);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace pmemsim
