/**
 * @file
 * Scheduler implementation: one mutex-guarded task store with
 * per-worker deques (LIFO own pop, FIFO steal), lazy worker start,
 * dependency counting, and failure/cancellation propagation.
 *
 * Stages are heavyweight (a compile, a cosimulated workload run, a
 * 117-point synthesis sweep), so one coarse mutex around the task
 * state is deliberately chosen over lock-free deques: transitions are
 * microseconds apart, and a single lock keeps every state machine —
 * completion, propagation, cancellation — trivially race-free under
 * ThreadSanitizer. `bench_micro`'s `sched_overhead`
 * row keeps the dispatch cost honest.
 */

#include "exec/scheduler.hh"

#include "util/logging.hh"

namespace rissp::exec
{

/** One dynamically submitted task. */
struct Scheduler::Handle::Task
{
    enum class State : uint8_t
    {
        Blocked, ///< has unfinished dependencies
        Ready,   ///< queued on some worker deque
        Running, ///< fn executing on a worker
        Done,    ///< completed cleanly
        Failed,  ///< threw, was cancelled, or a dependency failed
    };

    TaskFn fn;
    std::string label;
    State state = State::Blocked;
    uint32_t pendingDeps = 0;
    std::vector<std::shared_ptr<Task>> dependents;
    std::exception_ptr error; ///< set when state == Failed
    std::promise<void> promise;
    std::shared_future<void> future;
};

namespace
{
using State = Scheduler::Handle::Task::State;
} // namespace

void
Scheduler::Handle::wait() const
{
    if (!task)
        panic("Scheduler::Handle::wait on an empty handle");
    task->future.get();
}

Scheduler::Scheduler(unsigned threads)
    : numThreads(threads)
{
    if (numThreads == 0) {
        numThreads = std::thread::hardware_concurrency();
        if (numThreads == 0)
            numThreads = 1;
    }
}

Scheduler::~Scheduler()
{
    {
        LockGuard lock(mu);
        stopping = true;
    }
    workCv.notify_all();
    // Joining outside the lock on purpose: a worker must reacquire
    // `mu` to observe `stopping` and exit its loop. `workers` is
    // stable here — it is only ever grown under `mu`, and nothing
    // submits during destruction.
    for (std::thread &t : workers)
        t.join();
}

void
Scheduler::ensureWorkersLocked()
{
    if (!workers.empty())
        return;
    queues.resize(numThreads);
    workers.reserve(numThreads);
    for (unsigned w = 0; w < numThreads; ++w)
        workers.emplace_back(&Scheduler::workerLoop, this, w);
}

Scheduler::TaskPtr
Scheduler::popLocked(unsigned self)
{
    // Own deque first, newest task (LIFO keeps caches warm)...
    std::deque<TaskPtr> &own = queues[self];
    if (!own.empty()) {
        TaskPtr task = std::move(own.back());
        own.pop_back();
        return task;
    }
    // ...then steal the oldest task from a victim.
    for (unsigned off = 1; off < numThreads; ++off) {
        std::deque<TaskPtr> &victim =
            queues[(self + off) % numThreads];
        if (!victim.empty()) {
            TaskPtr task = std::move(victim.front());
            victim.pop_front();
            ++steals;
            return task;
        }
    }
    return nullptr;
}

void
Scheduler::enqueueReadyLocked(const TaskPtr &task)
{
    // Round-robin over the deques; which worker executes the task is
    // whoever pops or steals it first.
    task->state = State::Ready;
    queues[nextQueue++ % queues.size()].push_back(task);
    workCv.notify_one();
}

void
Scheduler::completeLocked(const TaskPtr &task,
                          std::exception_ptr error)
{
    if (task->state == State::Done || task->state == State::Failed)
        return; // already settled (e.g. raced by a failing dep)
    task->fn = nullptr; // release captures promptly
    if (error) {
        task->state = State::Failed;
        task->error = error;
        task->promise.set_exception(error);
        // Dependents of a failed (or cancelled) task never run; they
        // complete with the same exception, transitively. Dependents
        // that already settled through another path are left alone.
        for (const TaskPtr &dependent : task->dependents)
            if (dependent->state == State::Blocked)
                completeLocked(dependent, error);
    } else {
        task->state = State::Done;
        task->promise.set_value();
        for (const TaskPtr &dependent : task->dependents)
            if (dependent->state == State::Blocked &&
                --dependent->pendingDeps == 0)
                enqueueReadyLocked(dependent);
    }
    task->dependents.clear();
    if (stopping)
        workCv.notify_all();
}

void
Scheduler::workerLoop(unsigned self)
{
    UniqueLock lock(mu);
    for (;;) {
        TaskPtr task = popLocked(self);
        if (!task) {
            if (stopping)
                break;
            workCv.wait(lock);
            continue;
        }
        // A queued task may have been cancelled (settled) while it
        // sat in the deque; drop stale entries.
        if (task->state != State::Ready)
            continue;
        task->state = State::Running;
        ++running;
        lock.unlock();
        std::exception_ptr error;
        try {
            if (task->fn)
                task->fn(); // a null fn is a pure join node
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        --running;
        ++executed;
        completeLocked(task, error);
    }
}

Scheduler::Handle
Scheduler::submit(TaskFn fn, const std::vector<Handle> &deps,
                  std::string label)
{
    auto task = std::make_shared<Handle::Task>();
    task->fn = std::move(fn);
    task->label = std::move(label);
    task->future = task->promise.get_future().share();
    Handle handle;
    handle.task = task;

    LockGuard lock(mu);
    if (stopping)
        panic("Scheduler::submit during shutdown");
    ensureWorkersLocked();
    ++submittedTasks;

    std::exception_ptr depError;
    uint32_t pending = 0;
    for (const Handle &dep : deps) {
        if (!dep.task)
            continue;
        switch (dep.task->state) {
          case State::Done:
            break;
          case State::Failed:
            if (!depError)
                depError = dep.task->error;
            break;
          default:
            dep.task->dependents.push_back(task);
            ++pending;
        }
    }
    if (depError) {
        // A dependency already failed: the task never runs. (If it
        // was also registered with still-pending deps above, their
        // completion will see it settled and skip it.)
        completeLocked(task, depError);
        return handle;
    }
    task->pendingDeps = pending;
    if (pending == 0)
        enqueueReadyLocked(task);
    return handle;
}

bool
Scheduler::cancel(const Handle &handle)
{
    if (!handle.task)
        return false;
    LockGuard lock(mu);
    const State state = handle.task->state;
    if (state != State::Blocked && state != State::Ready)
        return false;
    completeLocked(handle.task, std::make_exception_ptr(
                                    TaskCancelled(handle.task->label)));
    return true;
}

uint64_t
Scheduler::stealCount() const
{
    LockGuard lock(mu);
    return steals;
}

uint64_t
Scheduler::tasksRun() const
{
    LockGuard lock(mu);
    return executed;
}

uint64_t
Scheduler::submitted() const
{
    LockGuard lock(mu);
    return submittedTasks;
}

size_t
Scheduler::queueDepth() const
{
    LockGuard lock(mu);
    size_t depth = 0;
    for (const std::deque<TaskPtr> &queue : queues)
        for (const TaskPtr &task : queue)
            if (task->state == State::Ready)
                ++depth; // stale (cancelled) entries don't count
    return depth;
}

size_t
Scheduler::inFlight() const
{
    LockGuard lock(mu);
    return running;
}

} // namespace rissp::exec
