// Lockstep multi-thread driver.
//
// The simulator runs in a single OS thread; simulated concurrency interleaves
// whole operations (e.g. one hash-table insert) across ThreadContexts in
// simulated-clock order: the runnable context with the smallest clock executes
// its next step. Shared resources (media ports, WPQs, the shared L3) observe
// the interleaved request times, which is what produces contention effects.
//
// Contract: every Step() call must either advance its context's clock or
// return kDone. A step that is logically blocked (e.g. a helper thread capped
// at its prefetch depth) should AdvanceTo() just past the clock of whatever it
// waits for and return kProgress.
//
// Run() advances the minimum-clock job in batches: while the top job runs,
// every other job is parked, so the runner-up heap key is constant and is
// computed once per batch rather than once per step (see DESIGN.md §9).
//
// The engine also exists in instantiable form for the partitioned serving
// engine (DESIGN.md §10): a Scheduler object keeps its heap across calls, and
// RunUntil(limit) advances jobs only while the minimum clock is below `limit`
// — one conservative epoch window. Within a window the step order is exactly
// Run()'s (clock, job-index) order, and a job left at clock >= limit resumes
// at the same point in the order next window, so splitting a run into any
// sequence of windows replays the identical interleaving.

#ifndef SRC_CPU_SCHEDULER_H_
#define SRC_CPU_SCHEDULER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cpu/thread_context.h"

namespace pmemsim {

class Sampler;

namespace internal {
class JobHeap;
}  // namespace internal

enum class StepResult {
  kProgress,
  kDone,
};

struct SimJob {
  ThreadContext* ctx = nullptr;
  std::function<StepResult()> step;
};

class Scheduler {
 public:
  static constexpr Cycles kNoLimit = ~Cycles{0};

  // Runs all jobs to completion. Returns the max final clock across jobs.
  //
  // When `sampler` is non-null, its AdvanceTo is called with the global
  // minimum job clock before every step — the only monotone notion of "now"
  // under interleaving — so interval samples observe events in simulated-time
  // order. The caller still owns Sampler::Finalize (warm-up phases may run
  // before the sampled one).
  static Cycles Run(std::vector<SimJob>& jobs, Sampler* sampler = nullptr);

  // Instantiable form. `jobs` is borrowed, must outlive the scheduler, and
  // must not grow, shrink, or move while any job is unfinished.
  explicit Scheduler(std::vector<SimJob>* jobs);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Steps jobs in (clock, job-index) order while the minimum job clock is
  // below `limit` and unfinished jobs remain. A step may carry its context
  // past `limit` (steps are whole operations); the job is then parked until a
  // later window covers its clock. A job whose step returns kDone leaves the
  // heap permanently. RunUntil(kNoLimit) behaves exactly like Run().
  void RunUntil(Cycles limit, Sampler* sampler = nullptr);

  // True once every job has returned kDone.
  bool AllDone() const;

  // Smallest clock among unfinished jobs — the next event time — or kNoLimit
  // when AllDone().
  Cycles NextEventTime() const;

 private:
  std::vector<SimJob>* jobs_;
  std::unique_ptr<internal::JobHeap> heap_;
  uint64_t stuck_guard_ = 0;
};

}  // namespace pmemsim

#endif  // SRC_CPU_SCHEDULER_H_
