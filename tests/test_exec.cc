/**
 * @file
 * Tests for the unified execution layer: dependency ordering of
 * submitted stages, failure and cancellation propagation,
 * exactly-once stage dedup under heavy contention (including the
 * fault-injected cosim batch that pins the no-poisoning contract),
 * and the byte-identical explore output across thread counts that
 * the whole refactor is pinned against.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "compiler/driver.hh"
#include "exec/scheduler.hh"
#include "explore/explorer.hh"
#include "flow/caches.hh"
#include "flow/memo.hh"
#include "verify/integration_verify.hh"

namespace rissp::exec
{
namespace
{

// ------------------------------------------------------- batches

/** Wait on every handle, then rethrow the first failure in
 *  submission order — how a caller runs a batch of stages. */
void
waitAll(const std::vector<Scheduler::Handle> &handles)
{
    std::exception_ptr first;
    for (const Scheduler::Handle &handle : handles) {
        try {
            handle.wait();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

TEST(Scheduler, RunsEveryNodeOnceAcrossThreadCounts)
{
    for (unsigned threads : {1u, 4u, 16u}) {
        std::vector<std::atomic<int>> counts(100);
        Scheduler scheduler(threads);
        std::vector<Scheduler::Handle> handles;
        for (size_t i = 0; i < counts.size(); ++i)
            handles.push_back(
                scheduler.submit([&counts, i] { ++counts[i]; }));
        waitAll(handles);
        for (const std::atomic<int> &count : counts)
            EXPECT_EQ(count.load(), 1) << threads << " threads";
        EXPECT_EQ(scheduler.tasksRun(), counts.size());
    }
}

TEST(Scheduler, DependenciesCompleteBeforeDependentsStart)
{
    // A layered DAG under a contended pool: every edge must be
    // ordered finish(dep) < start(dependent) no matter which worker
    // runs (or steals) which stage.
    constexpr size_t kLayers = 8;
    constexpr size_t kWidth = 12;
    constexpr size_t kNodes = kLayers * kWidth;
    std::atomic<int> clock{0};
    std::vector<std::atomic<int>> started(kNodes);
    std::vector<std::atomic<int>> finished(kNodes);

    Scheduler scheduler(8);
    std::vector<Scheduler::Handle> handles;
    std::vector<std::vector<Scheduler::Handle>> layers(kLayers);
    for (size_t layer = 0; layer < kLayers; ++layer) {
        for (size_t w = 0; w < kWidth; ++w) {
            std::vector<Scheduler::Handle> deps;
            if (layer > 0) {
                // Depend on two nodes of the previous layer.
                deps.push_back(layers[layer - 1][w]);
                deps.push_back(
                    layers[layer - 1][(w + 1) % kWidth]);
            }
            const size_t index = layer * kWidth + w;
            layers[layer].push_back(scheduler.submit(
                [&clock, &started, &finished, index] {
                    started[index] = ++clock;
                    finished[index] = ++clock;
                },
                deps));
            handles.push_back(layers[layer].back());
        }
    }
    waitAll(handles);

    for (size_t layer = 1; layer < kLayers; ++layer) {
        for (size_t w = 0; w < kWidth; ++w) {
            const size_t node = layer * kWidth + w;
            const size_t depA = (layer - 1) * kWidth + w;
            const size_t depB =
                (layer - 1) * kWidth + (w + 1) % kWidth;
            EXPECT_LT(finished[depA].load(), started[node].load());
            EXPECT_LT(finished[depB].load(), started[node].load());
        }
    }
}

// ----------------------------------------------- failure semantics

TEST(Scheduler, FailedNodeSkipsDependentsAndRethrows)
{
    for (unsigned threads : {1u, 4u}) {
        std::atomic<bool> independentRan{false};
        std::atomic<bool> dependentRan{false};
        std::atomic<bool> grandchildRan{false};
        Scheduler scheduler(threads);
        const Scheduler::Handle bad = scheduler.submit(
            [] { throw std::runtime_error("stage failed"); }, {},
            "bad");
        const Scheduler::Handle child = scheduler.submit(
            [&dependentRan] { dependentRan = true; }, {bad});
        const std::vector<Scheduler::Handle> handles{
            bad, child,
            scheduler.submit(
                [&grandchildRan] { grandchildRan = true; }, {child}),
            scheduler.submit(
                [&independentRan] { independentRan = true; })};
        EXPECT_THROW(waitAll(handles), std::runtime_error)
            << threads;
        // Independent work still ran; the failed node's transitive
        // dependents never did.
        EXPECT_TRUE(independentRan.load()) << threads;
        EXPECT_FALSE(dependentRan.load()) << threads;
        EXPECT_FALSE(grandchildRan.load()) << threads;
    }
}

TEST(Scheduler, SubmitWaitRethrowsAndPropagatesToDependents)
{
    Scheduler scheduler(2);
    Scheduler::Handle ok =
        scheduler.submit([] {}, {}, "ok");
    ok.wait(); // completes cleanly

    Scheduler::Handle bad = scheduler.submit(
        [] { throw std::runtime_error("boom"); }, {}, "bad");
    EXPECT_THROW(bad.wait(), std::runtime_error);

    // A dependent of the failed task — whether submitted before or
    // after the failure settled — completes with the same exception
    // without running.
    std::atomic<bool> ran{false};
    Scheduler::Handle dependent = scheduler.submit(
        [&ran] { ran = true; }, {bad}, "dependent");
    EXPECT_THROW(dependent.wait(), std::runtime_error);
    EXPECT_FALSE(ran.load());
    // Only the two executed bodies count as run.
    EXPECT_EQ(scheduler.tasksRun(), 2u);
}

TEST(Scheduler, CancelPreventsExecutionAndPropagates)
{
    Scheduler scheduler(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;

    // Occupy the single worker so the next submissions stay queued.
    Scheduler::Handle blocker = scheduler.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    });
    std::atomic<bool> ran{false};
    Scheduler::Handle victim =
        scheduler.submit([&ran] { ran = true; }, {}, "victim");
    Scheduler::Handle dependent =
        scheduler.submit([&ran] { ran = true; }, {victim});

    EXPECT_TRUE(scheduler.cancel(victim));
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    blocker.wait();

    EXPECT_THROW(victim.wait(), TaskCancelled);
    EXPECT_THROW(dependent.wait(), TaskCancelled);
    EXPECT_FALSE(ran.load());
    // A settled task cannot be cancelled again.
    EXPECT_FALSE(scheduler.cancel(victim));
    EXPECT_FALSE(scheduler.cancel(blocker));
    EXPECT_EQ(scheduler.tasksRun(), 1u); // just the blocker
}

// ------------------------------------------------ stage dedup

TEST(SchedulerDedup, ExactlyOnceUnder32WayContention)
{
    // 32 workers race the stages onto 8 distinct cache keys; the
    // promise-backed entries must compute each key exactly once and
    // give every racer the same value. TSan runs at a fraction of
    // the load — same contention shape, ~10x slower interleavings.
#ifdef RISSP_TSAN
    constexpr int kStages = 128;
#else
    constexpr int kStages = 256;
#endif
    flow::MemoCache<uint64_t, int> cache;
    std::atomic<int> computations{0};
    Scheduler scheduler(32);
    std::vector<Scheduler::Handle> handles;
    for (int i = 0; i < kStages; ++i) {
        handles.push_back(scheduler.submit([&cache, &computations, i] {
            const uint64_t key = i % 8;
            const int value = cache.getOrCompute(key, [&] {
                ++computations;
                return static_cast<int>(key * 100);
            });
            EXPECT_EQ(value, static_cast<int>(key * 100));
        }));
    }
    waitAll(handles);
    EXPECT_EQ(computations.load(), 8);
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.hits(), uint64_t(kStages - 8));
    EXPECT_EQ(cache.size(), 8u);
}

TEST(SchedulerDedup, CosimFaultReachesEveryWaiterWithoutPoisoning)
{
    // The satellite contract: when a deduplicated stage throws, the
    // exception must reach every waiter of that in-flight entry and
    // the key must not be poisoned — a retry recomputes. Exercised
    // end-to-end with a real co-simulation whose injected netlist
    // fault makes the stage throw.
    const char *source =
        "int main(void) { int s = 0;"
        "  for (int i = 1; i <= 10; i++) s += i;"
        "  return s; }";
    const minic::CompileResult compiled =
        minic::compile(source, minic::OptLevel::O2);
    const InstrSubset subset =
        InstrSubset::fromProgram(compiled.program);
    const explore::FingerprintPair key{
        explore::subsetFingerprint(subset), 1};

    flow::StageCaches caches;
    const Mutation fault{Mutation::Kind::CarryChainBreak, 1};
    auto cosimStage = [&](const Mutation *inject) {
        CosimOptions options;
        options.fault = inject;
        options.contextEvents = 0;
        const CosimReport report =
            cosimulate(compiled.program, subset, options);
        if (!report.passed)
            throw std::runtime_error("cosim diverged: " +
                                     report.firstDivergence);
        flow::SimOutcome outcome;
        outcome.cosimPassed = true;
        outcome.cycles = report.instret;
        return outcome;
    };

    // Round 1: every stage of the batch dedups onto one faulty
    // computation; each either owns the throwing compute or waits
    // on it — all 16 must observe the exception, none may hang.
    std::atomic<int> failures{0};
    Scheduler scheduler(8);
    std::vector<Scheduler::Handle> batch;
    for (int i = 0; i < 16; ++i) {
        batch.push_back(scheduler.submit([&] {
            try {
                caches.sim.getOrCompute(
                    key, [&] { return cosimStage(&fault); });
            } catch (const std::runtime_error &) {
                ++failures;
            }
        }));
    }
    waitAll(batch);
    EXPECT_EQ(failures.load(), 16);
    EXPECT_EQ(caches.sim.size(), 0u); // entry erased, not poisoned

    // Round 2: the same key recomputes cleanly without the fault.
    const flow::SimOutcome outcome = caches.sim.getOrCompute(
        key, [&] { return cosimStage(nullptr); });
    EXPECT_TRUE(outcome.cosimPassed);
    EXPECT_GT(outcome.cycles, 0u);
    EXPECT_EQ(caches.sim.size(), 1u);
}

// --------------------------------------------------- determinism

TEST(ExploreDeterminism, ThreadCounts1_4_16EmitIdenticalTables)
{
    explore::ExplorationPlan plan;
    plan.subsets = {
        explore::SubsetSpec::fromWorkload("crc32", "fit-crc32"),
        explore::SubsetSpec::fromWorkload("armpit", "fit-armpit"),
        explore::SubsetSpec::full()};
    plan.workloads = {"crc32", "armpit", "aha-mont64"};

    std::string serialCsv;
    std::string serialJson;
    for (unsigned threads : {1u, 4u, 16u}) {
        explore::ExplorerOptions options;
        options.threads = threads;
        explore::Explorer engine(options);
        const explore::ResultTable table = engine.explore(plan);
        ASSERT_EQ(table.size(), 9u);
        if (threads == 1) {
            serialCsv = table.csv();
            serialJson = table.json();
        } else {
            EXPECT_EQ(table.csv(), serialCsv) << threads;
            EXPECT_EQ(table.json(), serialJson) << threads;
        }
    }
}

} // namespace
} // namespace rissp::exec
