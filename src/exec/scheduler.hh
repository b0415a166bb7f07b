/**
 * @file
 * Work-stealing stage scheduler — the one execution engine under both
 * the design-space `Explorer` and the `FlowService` request verbs.
 *
 * The unit of work is a pipeline *stage* (compile, sim, cosim, synth,
 * pnr, a result-row write): callers `submit` each stage with the
 * handles of the stages it depends on, and wait on the handles they
 * need. Both clients build their stage DAGs that way — FlowService
 * one task per verb stage-table entry, the Explorer a prepare → {sim,
 * synth} → row subgraph per plan point — so a stage may only depend
 * on stages submitted before it, and no cycle can be expressed.
 * Identical in-flight stages are deduplicated one layer up, by the
 * promise-backed entries of `flow::StageCaches`: the first stage to
 * ask for a key computes it on its own worker, racers block on the
 * shared future — so the scheduler never queues the same computation
 * twice, it just runs whatever stage got there first.
 *
 * Execution rules:
 *  - Workers pop their own deque LIFO (cache-warm) and steal FIFO
 *    from victims.
 *  - A stage that throws completes exceptionally; its dependents
 *    never run and complete with the *same* exception, transitively.
 *    Independent stages still run. `Handle::wait` rethrows.
 *  - `cancel` stops a not-yet-started task; its waiters and
 *    dependents observe `TaskCancelled`. Running tasks finish.
 *  - There is no inline mode: a one-thread caller that wants a
 *    deterministic schedule runs its stages itself (as the Explorer
 *    does).
 *
 * Thread-safety: every method is safe to call from any thread,
 * including from inside a running task (but a task must not wait on
 * its own scheduler's unstarted work — block only on work that is
 * computing on some thread, which is exactly what the StageCaches
 * dedup guarantees). The locking discipline is compiler-checked on
 * Clang: all mutable state is `RISSP_GUARDED_BY(mu)` and every
 * `*Locked` helper statically `RISSP_REQUIRES(mu)` (see
 * util/thread_annotations.hh and docs/STATIC_ANALYSIS.md).
 */

#ifndef RISSP_EXEC_SCHEDULER_HH
#define RISSP_EXEC_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.hh"

namespace rissp::exec
{

/** One unit of work. Stages communicate through captured state, not
 *  return values; the scheduler only observes completion or a thrown
 *  exception. */
using TaskFn = std::function<void()>;

/** Delivered to waiters and dependents of a cancelled task. */
class TaskCancelled : public std::runtime_error
{
  public:
    explicit TaskCancelled(const std::string &label)
        : std::runtime_error(label.empty()
                                 ? "task cancelled"
                                 : "task cancelled: " + label)
    {
    }
};

/** The work-stealing stage scheduler. */
class Scheduler
{
  public:
    /** @p threads 0 picks std::thread::hardware_concurrency().
     *  Worker threads start lazily on first use. */
    explicit Scheduler(unsigned threads = 0);

    /** Blocks until every submitted task has settled, then joins. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** A reference to one dynamically submitted task. */
    class Handle
    {
      public:
        struct Task; ///< opaque; defined by the scheduler

        Handle() = default;

        /** Block until the task settles; rethrows the task's
         *  exception (or `TaskCancelled`, or a failed dependency's
         *  exception) if it did not complete cleanly. */
        void wait() const;

        bool valid() const { return task != nullptr; }

      private:
        friend class Scheduler;
        std::shared_ptr<Task> task;
    };

    /**
     * Submit one task to run after every task in @p deps has
     * completed cleanly. Returns immediately. If a dependency has
     * already failed (or gets cancelled), the task never runs and
     * completes with that dependency's exception.
     */
    Handle submit(TaskFn fn, const std::vector<Handle> &deps = {},
                  std::string label = {});

    /**
     * Cancel a submitted task that has not started. Returns true if
     * the task was cancelled (waiters and dependents observe
     * `TaskCancelled`); false if it already started, settled, or the
     * handle is empty. Never interrupts a running task.
     */
    bool cancel(const Handle &handle);

    unsigned threadCount() const { return numThreads; }

    /** Tasks obtained by stealing rather than from the executing
     *  worker's own deque, over the scheduler's lifetime. */
    uint64_t stealCount() const;

    /** Task bodies actually executed (cancelled and dependency-
     *  failed tasks are not counted). */
    uint64_t tasksRun() const;

    /** Tasks accepted by submit() over the scheduler's lifetime
     *  (whether or not they ran) — with tasksRun(), the lag of the
     *  dynamic request path a /metrics endpoint reports. */
    uint64_t submitted() const;

    /** Ready tasks sitting in worker deques right now — the queue
     *  depth a /metrics endpoint reports. Snapshot only: the value
     *  is stale the moment the lock drops. */
    size_t queueDepth() const;

    /** Task bodies executing on a worker right now (snapshot). */
    size_t inFlight() const;

  private:
    using TaskPtr = std::shared_ptr<Handle::Task>;

    void ensureWorkersLocked() RISSP_REQUIRES(mu);
    void workerLoop(unsigned self);
    TaskPtr popLocked(unsigned self) RISSP_REQUIRES(mu);
    void enqueueReadyLocked(const TaskPtr &task) RISSP_REQUIRES(mu);
    void completeLocked(const TaskPtr &task,
                        std::exception_ptr error) RISSP_REQUIRES(mu);

    unsigned numThreads; ///< immutable after construction

    mutable Mutex mu;
    CondVar workCv;  ///< workers: work or stop
    /** One deque per worker. Task structs popped from a deque are
     *  also guarded by `mu` (state transitions and dependents
     *  all happen under it); only `fn` runs unlocked. */
    std::vector<std::deque<TaskPtr>> queues RISSP_GUARDED_BY(mu);
    /** Created once by ensureWorkersLocked() under `mu`; joined by
     *  the destructor after `stopping` is set (no lock: workers need
     *  `mu` to observe the stop and exit). */
    std::vector<std::thread> workers RISSP_GUARDED_BY(mu);
    bool stopping RISSP_GUARDED_BY(mu) = false;
    /** Round-robin slot for the next ready task. */
    unsigned nextQueue RISSP_GUARDED_BY(mu) = 0;
    uint64_t steals RISSP_GUARDED_BY(mu) = 0;
    uint64_t executed RISSP_GUARDED_BY(mu) = 0;
    /** Dynamic tasks accepted by submit(). */
    uint64_t submittedTasks RISSP_GUARDED_BY(mu) = 0;
    /** Task bodies currently executing. */
    size_t running RISSP_GUARDED_BY(mu) = 0;
};

} // namespace rissp::exec

#endif // RISSP_EXEC_SCHEDULER_HH
