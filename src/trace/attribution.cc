#include "src/trace/attribution.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

const char* AttributionCollector::OpName(Op op) {
  switch (op) {
    case kLoad:
      return "load";
    case kStore:
      return "store";
    case kNtStore:
      return "ntstore";
    case kFlush:
      return "flush";
    case kFence:
      return "fence";
    default:
      return "?";
  }
}

const char* AttributionCollector::StageName(Stage stage) {
  switch (stage) {
    case kCore:
      return "core";
    case kL1Hit:
      return "l1_hit";
    case kL2Hit:
      return "l2_hit";
    case kL3Hit:
      return "l3_hit";
    case kImcTransit:
      return "imc_transit";
    case kRapStall:
      return "rap_stall";
    case kReadBuffer:
      return "read_buffer";
    case kAitLookup:
      return "ait_lookup";
    case kMediaRead:
      return "media_read";
    case kDram:
      return "dram";
    case kWpqWait:
      return "wpq_wait";
    default:
      return "?";
  }
}

void AttributionCollector::RecordAccess(Op op, Cycles end_to_end,
                                        const StageDurations& stages) {
  Cycles attributed = 0;
  for (int s = 0; s < kStageCount; ++s) {
    attributed += stages.v[s];
  }
  PMEMSIM_CHECK_MSG(attributed <= end_to_end,
                    "attribution: stage sum exceeds end-to-end latency");
  ++access_count_;
  end_to_end_total_ += end_to_end;
  op_hist_[op].Add(end_to_end);
  for (int s = 0; s < kStageCount; ++s) {
    Cycles v = stages.v[s];
    if (s == kCore) {
      v += end_to_end - attributed;  // conservation: remainder -> core
    }
    if (v == 0) {
      continue;
    }
    stage_total_[s] += v;
    stage_hist_[s].Add(v);
  }
}

void AttributionCollector::RecordAsyncAccept(Cycles delay) {
  async_accept_hist_.Add(delay);
}

void AttributionCollector::RecordOverlapped(const StageDurations& stages) {
  for (int s = 0; s < kStageCount; ++s) {
    overlapped_total_[s] += stages.v[s];
  }
}

uint64_t AttributionCollector::StageTotalSum() const {
  uint64_t sum = 0;
  for (int s = 0; s < kStageCount; ++s) {
    sum += stage_total_[s];
  }
  return sum;
}

void AttributionCollector::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("accesses").Value(access_count_);
  w.Key("end_to_end_total").Value(end_to_end_total_);
  w.Key("stage_total_sum").Value(StageTotalSum());
  w.Key("ops").BeginObject();
  for (int op = 0; op < kOpCount; ++op) {
    if (op_hist_[op].count() == 0) {
      continue;
    }
    w.Key(OpName(static_cast<Op>(op)));
    op_hist_[op].ToJson(w);
  }
  w.EndObject();
  w.Key("stages").BeginObject();
  const double total = end_to_end_total_ > 0
                           ? static_cast<double>(end_to_end_total_)
                           : 1.0;
  for (int s = 0; s < kStageCount; ++s) {
    if (stage_hist_[s].count() == 0 && stage_total_[s] == 0) {
      continue;
    }
    w.Key(StageName(static_cast<Stage>(s))).BeginObject();
    w.Key("total_cycles").Value(stage_total_[s]);
    w.Key("share").Value(static_cast<double>(stage_total_[s]) / total);
    w.Key("hist");
    stage_hist_[s].ToJson(w);
    w.EndObject();
  }
  w.EndObject();
  w.Key("async").BeginObject();
  w.Key("wpq_accept");
  async_accept_hist_.ToJson(w);
  w.EndObject();
  w.EndObject();
}

std::string AttributionCollector::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

std::string AttributionCollector::CriticalPathTable() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "latency attribution: %llu accesses, %llu cycles end-to-end\n",
                static_cast<unsigned long long>(access_count_),
                static_cast<unsigned long long>(end_to_end_total_));
  out += line;
  std::snprintf(line, sizeof(line), "%-12s %14s %7s %10s %10s %10s %10s\n",
                "stage", "cycles", "share", "count", "p50", "p90", "p99");
  out += line;
  int order[kStageCount];
  for (int s = 0; s < kStageCount; ++s) {
    order[s] = s;
  }
  std::stable_sort(order, order + kStageCount, [this](int a, int b) {
    return stage_total_[a] > stage_total_[b];
  });
  const double total = end_to_end_total_ > 0
                           ? static_cast<double>(end_to_end_total_)
                           : 1.0;
  for (int i = 0; i < kStageCount; ++i) {
    const int s = order[i];
    if (stage_total_[s] == 0 && stage_hist_[s].count() == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%-12s %14llu %6.1f%% %10llu %10llu %10llu %10llu\n",
                  StageName(static_cast<Stage>(s)),
                  static_cast<unsigned long long>(stage_total_[s]),
                  100.0 * static_cast<double>(stage_total_[s]) / total,
                  static_cast<unsigned long long>(stage_hist_[s].count()),
                  static_cast<unsigned long long>(stage_hist_[s].Percentile(50)),
                  static_cast<unsigned long long>(stage_hist_[s].Percentile(90)),
                  static_cast<unsigned long long>(stage_hist_[s].Percentile(99)));
    out += line;
  }
  if (async_accept_hist_.count() > 0) {
    std::snprintf(
        line, sizeof(line),
        "async wpq_accept: n=%llu p50=%llu p99=%llu (outside conservation)\n",
        static_cast<unsigned long long>(async_accept_hist_.count()),
        static_cast<unsigned long long>(async_accept_hist_.Percentile(50)),
        static_cast<unsigned long long>(async_accept_hist_.Percentile(99)));
    out += line;
  }
  return out;
}

}  // namespace pmemsim
