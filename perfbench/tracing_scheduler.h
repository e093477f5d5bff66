// TracingScheduler: a transparent Scheduler decorator that counts and times
// every call the Machine makes into a scheduling class.
//
// It is installed from outside the simulator through
// ExperimentSpec::scheduler_factory, wraps the registry-built class and
// forwards every virtual of the Scheduler interface unchanged (including the
// tickless and shard-certification queries, which FaultySched does not
// forward), so a traced run makes exactly the decisions of an untraced one.
//
// Mutating hooks are timed with a span stack: hooks re-enter each other
// (EnqueueTask -> Machine -> TaskTick replay, OnCoreIdle -> steal ->
// EnqueueTask), so a span's self time is its duration minus the time of the
// spans it encloses. The hot side-effect-free queries (TickBoundary,
// RunnableCountOf, LoadOf) are called hundreds of times per event on
// idle-heavy machines; they are counted, not timed, so the clock reads do
// not swamp what they measure.
#ifndef PERFBENCH_TRACING_SCHEDULER_H_
#define PERFBENCH_TRACING_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/sched/sched_class.h"

namespace perfbench {

using schedbattle::CoreId;
using schedbattle::EnqueueKind;
using schedbattle::GroupId;
using schedbattle::Machine;
using schedbattle::Scheduler;
using schedbattle::SimDuration;
using schedbattle::SimThread;
using schedbattle::SimTime;

// Timed hooks. perfbench/run.py reports the first eight per class; the rest
// count towards the share of run time spent inside any hook.
enum Hook : int {
  kSelectTaskRq,
  kEnqueue,
  kPickNext,
  kPutPrev,
  kOnBlock,
  kTaskTick,
  kCheckPreempt,
  kOnCoreIdle,
  kDequeue,
  kYield,
  kRenice,
  kTaskNew,
  kTaskExit,
  kNumHooks,
};
inline constexpr const char* kHookNames[kNumHooks] = {
    "select_task_rq", "enqueue", "pick_next", "put_prev", "on_block",
    "task_tick", "check_preempt", "on_core_idle", "dequeue", "yield",
    "renice", "task_new", "task_exit",
};

// Counted-only queries, all reported by run.py. The other side-effect-free
// queries are forwarded without counting.
enum Query : int {
  kTickBoundary,
  kRunnableCount,
  kLoadOf,
  kNumQueries,
};
inline constexpr const char* kQueryNames[kNumQueries] = {
    "tick_boundary", "runnable_count", "load_of",
};

struct HookStats {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

struct TraceTotals {
  std::array<HookStats, kNumHooks> hooks{};
  std::array<uint64_t, kNumQueries> queries{};
};

inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TracingScheduler final : public Scheduler {
 public:
  // `totals` must outlive the scheduler; the run's Machine owns the decorator.
  TracingScheduler(std::unique_ptr<Scheduler> inner, TraceTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  std::string_view name() const override { return inner_->name(); }
  void Attach(Machine* machine) override { inner_->Attach(machine); }
  void Start() override { inner_->Start(); }
  void DeclareGroup(GroupId id, GroupId parent) override { inner_->DeclareGroup(id, parent); }

  void TaskNew(SimThread* thread, SimThread* parent) override {
    Span s(this, kTaskNew);
    inner_->TaskNew(thread, parent);
  }
  void TaskExit(SimThread* thread) override {
    Span s(this, kTaskExit);
    inner_->TaskExit(thread);
  }
  CoreId SelectTaskRq(SimThread* thread, CoreId origin, EnqueueKind kind) override {
    Span s(this, kSelectTaskRq);
    return inner_->SelectTaskRq(thread, origin, kind);
  }
  void EnqueueTask(CoreId core, SimThread* thread, EnqueueKind kind) override {
    Span s(this, kEnqueue);
    inner_->EnqueueTask(core, thread, kind);
  }
  void DequeueTask(CoreId core, SimThread* thread) override {
    Span s(this, kDequeue);
    inner_->DequeueTask(core, thread);
  }
  SimThread* PickNextTask(CoreId core) override {
    Span s(this, kPickNext);
    return inner_->PickNextTask(core);
  }
  void PutPrevTask(CoreId core, SimThread* thread) override {
    Span s(this, kPutPrev);
    inner_->PutPrevTask(core, thread);
  }
  void OnTaskBlock(CoreId core, SimThread* thread, bool voluntary) override {
    Span s(this, kOnBlock);
    inner_->OnTaskBlock(core, thread, voluntary);
  }
  void YieldTask(CoreId core, SimThread* thread) override {
    Span s(this, kYield);
    inner_->YieldTask(core, thread);
  }
  void TaskTick(CoreId core, SimThread* current) override {
    Span s(this, kTaskTick);
    inner_->TaskTick(core, current);
  }
  void ReniceTask(SimThread* thread) override {
    Span s(this, kRenice);
    inner_->ReniceTask(thread);
  }
  void CheckPreemptWakeup(CoreId core, SimThread* woken) override {
    Span s(this, kCheckPreempt);
    inner_->CheckPreemptWakeup(core, woken);
  }
  void OnCoreIdle(CoreId core) override {
    Span s(this, kOnCoreIdle);
    inner_->OnCoreIdle(core);
  }

  SimDuration TickPeriod() const override { return inner_->TickPeriod(); }
  SimTime TickBoundary(CoreId core, const SimThread* current, SimTime next_tick) const override {
    ++totals_->queries[kTickBoundary];
    return inner_->TickBoundary(core, current, next_tick);
  }
  bool IdleTickIsNoOp() const override { return inner_->IdleTickIsNoOp(); }
  bool ShardParallelSafe() const override { return inner_->ShardParallelSafe(); }
  bool TickMayCross(CoreId core) const override { return inner_->TickMayCross(core); }
  double LoadOf(CoreId core) const override {
    ++totals_->queries[kLoadOf];
    return inner_->LoadOf(core);
  }
  int RunnableCountOf(CoreId core) const override {
    ++totals_->queries[kRunnableCount];
    return inner_->RunnableCountOf(core);
  }
  int InteractivityPenaltyOf(const SimThread* thread) const override {
    return inner_->InteractivityPenaltyOf(thread);
  }
  int64_t MinVruntimeOf(CoreId core) const override { return inner_->MinVruntimeOf(core); }

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };

  // One timed hook call. Its self time excludes the enclosed spans; its full
  // duration is charged to the enclosing span as child time.
  class Span {
   public:
    Span(TracingScheduler* owner, Hook hook) : owner_(owner), hook_(hook) {
      if (owner_->depth_ == static_cast<int>(owner_->stack_.size())) {
        std::fprintf(stderr, "perfbench: hook re-entry deeper than %zu\n", owner_->stack_.size());
        std::abort();
      }
      owner_->stack_[owner_->depth_++] = Frame{SteadyNowNs(), 0};
    }
    ~Span() {
      const Frame f = owner_->stack_[--owner_->depth_];
      const int64_t duration = SteadyNowNs() - f.start_ns;
      HookStats& h = owner_->totals_->hooks[hook_];
      ++h.calls;
      h.self_ns += duration - f.child_ns;
      if (owner_->depth_ > 0) {
        owner_->stack_[owner_->depth_ - 1].child_ns += duration;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TracingScheduler* owner_;
    Hook hook_;
  };

  std::unique_ptr<Scheduler> inner_;
  TraceTotals* totals_;
  // Hook re-entry is bounded by the Machine's call structure (a handful of
  // levels); 64 leaves ample headroom.
  std::array<Frame, 64> stack_{};
  int depth_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_SCHEDULER_H_
