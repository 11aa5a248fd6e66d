#include "src/trace/trace_events.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "src/common/check.h"

namespace pmemsim {

namespace {
// Capture-unwind hook: when a sweep point CHECK-fails under failure isolation
// (or a hard CHECK aborts the process), flush whatever events were buffered
// so the partial trace reaches disk instead of dying with the run. A later
// successful Flush/Disable simply rewrites the file.
void FlushTraceOnUnwind() {
  TraceEmitter& trace = TraceEmitter::Global();
  if (trace.enabled()) {
    trace.Flush();
  }
}
}  // namespace

std::string WriteChromeTrace(const std::function<void(JsonWriter&)>& rows, uint64_t dropped) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ns");
  w.Key("traceEvents").BeginArray();
  rows(w);
  w.EndArray();
  if (dropped > 0) {
    w.Key("pmemsim_dropped_events").Value(dropped);
  }
  w.EndObject();
  return w.str();
}

void TraceRow(JsonWriter& w, const std::string& name, char ph, uint64_t pid,
              std::optional<uint64_t> tid, std::optional<Cycles> ts, std::optional<Cycles> dur) {
  w.BeginObject();
  w.Key("name").Value(name);
  w.Key("ph").Value(std::string(1, ph));
  w.Key("pid").Value(pid);
  if (tid) w.Key("tid").Value(*tid);
  if (ts) w.Key("ts").Value(*ts);
  if (dur) w.Key("dur").Value(*dur);
}

void TraceNameRow(JsonWriter& w, uint64_t pid, std::optional<uint64_t> tid,
                  const std::string& label) {
  TraceRow(w, tid ? "thread_name" : "process_name", 'M', pid, tid);
  w.Key("args").BeginObject().Key("name").Value(label).EndObject().EndObject();
}

TraceEmitter& TraceEmitter::Global() {
  static TraceEmitter instance;
  return instance;
}

void TraceEmitter::Enable(const std::string& path) {
  // Installed for the process lifetime; the hook no-ops while disabled.
  RegisterCaptureUnwindHook(&FlushTraceOnUnwind);
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
  enabled_.store(true, std::memory_order_relaxed);
  events_.clear();
  dropped_ = 0;
  tracks_.assign(1, "sim");  // a session's file names only its own tracks
}

bool TraceEmitter::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  const bool ok = enabled_.load(std::memory_order_relaxed) ? FlushLocked() : true;
  enabled_.store(false, std::memory_order_relaxed);
  events_.clear();
  return ok;
}

int TraceEmitter::RegisterTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  // Benches construct a fresh System per data point; each re-registers its
  // DIMM tracks. Suffix repeats so the viewer rows stay distinguishable.
  size_t repeats = 0;
  for (const std::string& t : tracks_) {
    if (t == name || t.rfind(name + "#", 0) == 0) {
      ++repeats;
    }
  }
  tracks_.push_back(repeats == 0 ? name : name + "#" + std::to_string(repeats));
  return static_cast<int>(tracks_.size()) - 1;
}

void TraceEmitter::Push(Event e) {
  if (Buffer* buffer = redirect_) {
    // A buffer never holds more than the emitter could take at the merge.
    if (buffer->events.size() < kMaxEvents) {
      buffer->events.push_back(std::move(e));
    } else {
      ++buffer->dropped;
    }
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void TraceEmitter::Merge(std::vector<Buffer>* buffers) {
  if (buffers->empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (Buffer& b : *buffers) {
    const size_t take = std::min(b.events.size(), kMaxEvents - events_.size());
    std::move(b.events.begin(), b.events.begin() + take, std::back_inserter(events_));
    dropped_ += b.dropped + (b.events.size() - take);
    b.events.clear();
    b.dropped = 0;
  }
}

void TraceEmitter::Instant(int track, const std::string& name, Cycles ts) {
  Push(Event{'i', track, name, ts, false, {}, 0.0});
}

void TraceEmitter::Instant(int track, const std::string& name, Cycles ts,
                           const std::string& arg_name, double arg_value) {
  Push(Event{'i', track, name, ts, true, arg_name, arg_value});
}

void TraceEmitter::CounterEvent(int track, const std::string& name, Cycles ts, double value) {
  Push(Event{'C', track, name, ts, true, "value", value});
}

bool TraceEmitter::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

bool TraceEmitter::FlushLocked() {
  auto rows = [this](JsonWriter& w) {
    for (size_t i = 0; i < tracks_.size(); ++i) {
      TraceNameRow(w, 0, i, tracks_[i]);
    }
    for (const Event& e : events_) {
      TraceRow(w, e.name, e.phase, 0, e.track, e.ts);
      if (e.phase == 'i') {
        w.Key("s").Value("t");  // thread-scoped instant
      }
      if (e.has_arg) {
        w.Key("args").BeginObject().Key(e.arg_name).Value(e.arg_value).EndObject();
      }
      w.EndObject();
    }
  };
  const std::string text = WriteChromeTrace(rows, dropped_);
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pmemsim
