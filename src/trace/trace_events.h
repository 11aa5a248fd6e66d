// Optional chrome://tracing (catapult JSON) event emitter for debugging model
// changes: WPQ occupancy, write-buffer allocations/evictions, periodic
// write-backs. Disabled by default; the only cost on the hot path is one
// branch on `enabled()`. Enable per-run via the benches' --trace_out=<path>
// flag or TraceEmitter::Global().Enable(path).
//
// Timestamps are simulated cycles reported in the trace's microsecond field,
// so one trace "us" == one model cycle. Each emitting component registers a
// named track (rendered as a thread row in the viewer) to keep per-DIMM
// streams separate.
//
// The emitter is process-wide and the sweep runner constructs Systems on
// worker threads, so track registration and event pushes are mutex-guarded.
// (The interleaving of events from concurrently running sweep points is not
// deterministic; the runner pins tracing runs to --jobs=1 for that reason.)
//
// Within one sweep point, the partitioned serving engine runs shards on
// several host threads. Each shard then emits into its own Buffer (a
// thread-local Redirect), and the engine appends the buffers in shard order
// after the load and after every epoch barrier: the order one engine thread
// produces, so the trace is byte-identical at any --engine_threads. The
// kMaxEvents cap applies at that merge, so dropped events are deterministic.
//
// WriteChromeTrace is the one chrome-trace serializer; the emitter and the
// span export (ServeTimeline::SpansToChromeTrace) supply only their rows.

#ifndef SRC_TRACE_TRACE_EVENTS_H_
#define SRC_TRACE_TRACE_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/trace/json.h"

namespace pmemsim {

// Writes {"displayTimeUnit":"ns","traceEvents":[...]} into `w`, with
// `rows(w)` writing the array's elements, plus "pmemsim_dropped_events" when
// `dropped` is nonzero.
void WriteChromeTrace(JsonWriter& w, const std::function<void(JsonWriter&)>& rows,
                      uint64_t dropped = 0);

// Opens one row with its leading keys in the order every trace uses: name,
// ph, pid, [tid], then ts and [dur] for events. The caller adds the rest
// ("s", "args") and closes the object.
void TraceRow(JsonWriter& w, const std::string& name, char ph, uint64_t pid,
                     std::optional<uint64_t> tid, std::optional<Cycles> ts = std::nullopt,
                     std::optional<Cycles> dur = std::nullopt);
// A whole "M" row naming process `pid` (process_name) or its thread `tid`
// (thread_name).
void TraceNameRow(JsonWriter& w, uint64_t pid, std::optional<uint64_t> tid,
                  const std::string& label);

class TraceEmitter {
 private:
  // 40 bytes: names point at the callers' string literals, so a trace of
  // millions of events holds no per-event heap strings.
  struct Event {
    char phase;  // 'i' or 'C'
    int track;
    const char* name;
    Cycles ts;
    const char* arg_name;  // nullptr: no argument
    double arg_value;
  };

 public:
  // Process-wide instance: the emitter is a debugging tap, and threading it
  // through every component constructor would dwarf the feature.
  static TraceEmitter& Global();

  // Starts a trace session: drops earlier events and tracks, and buffers new
  // events until Flush()/Disable() writes them to `path`. Build the Systems to
  // trace after this call, since they register their tracks as they are built.
  void Enable(const std::string& path);
  // Flushes and stops emitting. Returns false if the file write failed.
  bool Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Tracks render as separate rows in the viewer. Returns a track id to pass
  // to the event calls; track 0 is a default "sim" row. Thread-safe.
  int RegisterTrack(const std::string& name);

  // Event and argument names must outlive the session: every caller passes
  // a string literal, and the emitter keeps the pointer, not a copy.
  // Instant event ("i" phase), e.g. an eviction.
  void Instant(int track, const char* name, Cycles ts);
  // Instant event with one numeric argument, e.g. a batch write-back count.
  void Instant(int track, const char* name, Cycles ts, const char* arg_name, double arg_value);
  // Counter series ("C" phase), e.g. WPQ occupancy over time.
  void CounterEvent(int track, const char* name, Cycles ts, double value);

  // One shard's events while it runs off the coordinating thread.
  struct Buffer {
    std::vector<Event> events;
    uint64_t dropped = 0;
  };
  // While alive, this thread's events go to `buffer` (nullptr: the emitter).
  class Redirect {
   public:
    explicit Redirect(Buffer* buffer) : prev_(std::exchange(redirect_, buffer)) {}
    ~Redirect() { redirect_ = prev_; }

   private:
    Buffer* prev_;
  };
  // Appends the buffers' events in order, under the kMaxEvents cap, and
  // empties them.
  void Merge(std::vector<Buffer>* buffers);

  // Writes the buffered events as {"traceEvents": [...]}; keeps emitting.
  bool Flush();

 private:
  void Push(const Event& e);
  bool FlushLocked();

  // Bounds memory for long runs; beyond this, events are counted as dropped.
  static constexpr size_t kMaxEvents = 1 << 22;
  // Flush() hands the file this much text at a time.
  static constexpr size_t kFlushChunkBytes = 1 << 20;
  static inline thread_local Buffer* redirect_ = nullptr;

  // Guards tracks_, events_, dropped_, path_ against concurrent sweep-point
  // workers (System construction registers per-DIMM tracks).
  std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::string path_;
  std::vector<std::string> tracks_{"sim"};
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_TRACE_TRACE_EVENTS_H_
