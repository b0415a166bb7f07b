/**
 * @file
 * Tests for the design-space exploration engine: plan expansion and
 * parsing, exactly-once memoization on the stage scheduler,
 * determinism under multi-threaded execution, and the Pareto
 * frontier on hand-computed points.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "exec/scheduler.hh"
#include "explore/explorer.hh"
#include "explore/fingerprint.hh"
#include "flow/memo.hh"

namespace rissp::explore
{
namespace
{

// ---------------------------------------------------------------- plans

TEST(Plan, CartesianExpansion)
{
    ExplorationPlan plan;
    plan.subsets = {SubsetSpec::full("full"),
                    SubsetSpec::fromNames("tiny", {"addi", "jal"})};
    plan.workloads = {"crc32", "armpit", "aha-mont64"};
    EXPECT_EQ(plan.pointCount(), 6u);

    const std::vector<PlanPoint> points = plan.expand();
    ASSERT_EQ(points.size(), 6u);
    // Workload is the innermost axis; indices are row numbers.
    EXPECT_EQ(points[0].subsetIdx, 0u);
    EXPECT_EQ(points[0].workloadIdx, 0u);
    EXPECT_EQ(points[1].workloadIdx, 1u);
    EXPECT_EQ(points[3].subsetIdx, 1u);
    EXPECT_EQ(points[3].workloadIdx, 0u);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
    // No techs listed: every point uses the default slot.
    for (const PlanPoint &pt : points)
        EXPECT_EQ(pt.techIdx, 0u);
}

TEST(Plan, TechAxisMultiplies)
{
    ExplorationPlan plan;
    plan.subsets = {SubsetSpec::full()};
    plan.workloads = {"crc32"};
    plan.techs.resize(3);
    EXPECT_EQ(plan.expand().size(), 3u);
}

TEST(Plan, PairedExpansion)
{
    ExplorationPlan plan = ExplorationPlan::perWorkloadRissps(
        {"crc32", "armpit"}, true);
    EXPECT_EQ(plan.mode, ExplorationPlan::Mode::Paired);
    // Two per-workload subsets plus the full baseline.
    ASSERT_EQ(plan.subsets.size(), 3u);
    EXPECT_EQ(plan.subsets[2].kind, SubsetSpec::Kind::Full);

    const std::vector<PlanPoint> points = plan.expand();
    ASSERT_EQ(points.size(), 3u);
    for (const PlanPoint &pt : points)
        EXPECT_EQ(pt.subsetIdx, pt.workloadIdx);
}

TEST(Plan, PairedSizeMismatchFailsValidation)
{
    ExplorationPlan plan;
    plan.mode = ExplorationPlan::Mode::Paired;
    plan.subsets = {SubsetSpec::full()};
    plan.workloads = {"crc32", "armpit"};
    const Status status = plan.validate();
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("paired"), std::string::npos);
}

TEST(Plan, EmptyAxesFailValidation)
{
    ExplorationPlan plan;
    EXPECT_NE(plan.validate().message().find("no subsets"),
              std::string::npos);
    plan.subsets = {SubsetSpec::full()};
    EXPECT_NE(plan.validate().message().find("no workloads"),
              std::string::npos);
    plan.workloads = {"crc32"};
    EXPECT_TRUE(plan.validate().isOk());
}

TEST(Plan, ParseRoundTrip)
{
    const ExplorationPlan plan = ExplorationPlan::parse(
        "# comment\n"
        "opt O1\n"
        "mode cartesian\n"
        "threads 3\n"
        "workload crc32 armpit\n"
        "subset tiny = addi add lw sw   # trailing comment\n"
        "subset fit  = @crc32\n"
        "subset full = @full\n"
        "tech flexic-0.6um\n"
        "tech flexic-0.6um gateDelayNs=20 ffPowerMultiplier=12\n"
        "tech silicon-65nm:ffPowerRatio=8\n")
        .take();
    EXPECT_EQ(plan.opt, minic::OptLevel::O1);
    EXPECT_EQ(plan.threads, 3u);
    ASSERT_EQ(plan.workloads.size(), 2u);
    ASSERT_EQ(plan.subsets.size(), 3u);
    EXPECT_EQ(plan.subsets[0].kind, SubsetSpec::Kind::Explicit);
    EXPECT_EQ(plan.subsets[0].mnemonics.size(), 4u);
    EXPECT_EQ(plan.subsets[1].kind, SubsetSpec::Kind::FromWorkload);
    EXPECT_EQ(plan.subsets[1].workload, "crc32");
    EXPECT_EQ(plan.subsets[2].kind, SubsetSpec::Kind::Full);
    ASSERT_EQ(plan.techs.size(), 3u);
    EXPECT_DOUBLE_EQ(plan.techs[1].tech.gateDelayNs, 20.0);
    EXPECT_DOUBLE_EQ(plan.techs[1].tech.ffPowerMultiplier, 12.0);
    // Overridden specs — colon or word form — are named after the
    // full spec so their rows never share a label with the base.
    EXPECT_EQ(plan.techs[1].tech.name,
              "flexic-0.6um:gateDelayNs=20,ffPowerMultiplier=12");
    EXPECT_EQ(plan.techs[2].tech.name, "silicon-65nm:ffPowerRatio=8");
    EXPECT_DOUBLE_EQ(plan.techs[2].tech.ffPowerMultiplier, 8.0);
    EXPECT_EQ(plan.pointCount(), 18u);
}

TEST(Plan, ParseRejectsGarbage)
{
    auto errorOf = [](const char *text) {
        const Result<ExplorationPlan> plan =
            ExplorationPlan::parse(text);
        EXPECT_FALSE(plan.isOk());
        EXPECT_EQ(plan.status().code(), ErrorCode::ParseError);
        return plan.isOk() ? std::string()
                           : plan.status().message();
    };
    EXPECT_NE(errorOf("frobnicate everything\n")
                  .find("plan line 1: cannot parse"),
              std::string::npos);
    EXPECT_NE(errorOf("workload not-a-workload\n")
                  .find("unknown workload"),
              std::string::npos);
    // Tech names resolve through the registry; unknown names list
    // the known ones.
    EXPECT_NE(errorOf("tech not-a-tech\n")
                  .find("unknown technology 'not-a-tech'"),
              std::string::npos);
    EXPECT_NE(errorOf("tech not-a-tech\n").find("flexic-0.6um"),
              std::string::npos);
    EXPECT_NE(errorOf("tech flexic-0.6um nosuchknob=1\n")
                  .find("unknown tech constant"),
              std::string::npos);
    EXPECT_NE(errorOf("tech flexic-0.6um:gateDelayNs=-4\n")
                  .find("out of range"),
              std::string::npos);
    // One pass surfaces every problem of a spec, not just the first.
    const std::string multi =
        errorOf("tech flexic-0.6um:nosuchknob=1,voltage=99\n");
    EXPECT_NE(multi.find("nosuchknob"), std::string::npos);
    EXPECT_NE(multi.find("'voltage': value 99 out of range"),
              std::string::npos);
}

// ----------------------------------------------------------- primitives

TEST(Fingerprint, SubsetsAndWorkloadsDistinguished)
{
    const InstrSubset a =
        InstrSubset::fromNames({"add", "addi", "lw"});
    const InstrSubset b =
        InstrSubset::fromNames({"add", "addi", "sw"});
    EXPECT_NE(subsetFingerprint(a), subsetFingerprint(b));
    EXPECT_EQ(subsetFingerprint(a), subsetFingerprint(a));

    EXPECT_NE(workloadFingerprint("x", "int main(){}", 0),
              workloadFingerprint("x", "int main(){}", 2));
    EXPECT_NE(workloadFingerprint("x", "ab", 0),
              workloadFingerprint("xa", "b", 0));

    TechSpec base;
    TechSpec slow;
    slow.set("gateDelayNs", 20.0);
    EXPECT_NE(techFingerprint(base.tech), techFingerprint(slow.tech));
}

TEST(Memo, ExactlyOnceAndCounted)
{
    flow::MemoCache<uint64_t, int> cache;
    std::atomic<int> computions{0};
    exec::Scheduler scheduler(4);
    std::vector<exec::Scheduler::Handle> handles;
    for (int i = 0; i < 40; ++i)
        handles.push_back(scheduler.submit([&cache, &computions, i] {
            const uint64_t key = i % 4;
            const int value = cache.getOrCompute(key, [&] {
                ++computions;
                return static_cast<int>(key * 10);
            });
            EXPECT_EQ(value, static_cast<int>(key * 10));
        }));
    for (const exec::Scheduler::Handle &handle : handles)
        handle.wait();
    // 4 distinct keys: exactly 4 computations no matter the racing.
    EXPECT_EQ(computions.load(), 4);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 36u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(Memo, ThrowingComputeDoesNotPoisonTheKey)
{
    // Regression: a throwing fn() used to leave an unfulfilled
    // promise behind, so every later lookup of the key died with
    // broken_promise instead of retrying.
    flow::MemoCache<uint64_t, int> cache;
    int attempts = 0;
    auto flaky = [&]() -> int {
        if (++attempts == 1)
            throw std::runtime_error("transient failure");
        return 42;
    };
    EXPECT_THROW(cache.getOrCompute(7, flaky), std::runtime_error);
    EXPECT_EQ(cache.size(), 0u); // entry erased, not poisoned
    EXPECT_EQ(cache.getOrCompute(7, flaky), 42);
    EXPECT_EQ(cache.getOrCompute(7, flaky), 42); // cached now
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Memo, ConcurrentWaitersSeeTheExceptionThenRecover)
{
    flow::MemoCache<uint64_t, int> cache;
    std::atomic<int> attempts{0};
    std::atomic<int> failures{0};
    {
        // Round 1: every computation throws; each task either owns a
        // failing compute or waits on one — all must observe the
        // exception, none may hang.
        exec::Scheduler scheduler(4);
        std::vector<exec::Scheduler::Handle> handles;
        for (int i = 0; i < 16; ++i)
            handles.push_back(scheduler.submit([&] {
                try {
                    cache.getOrCompute(9, [&]() -> int {
                        ++attempts;
                        throw std::runtime_error("boom");
                    });
                } catch (const std::runtime_error &) {
                    ++failures;
                }
            }));
        for (const exec::Scheduler::Handle &handle : handles)
            handle.wait();
    }
    EXPECT_EQ(failures.load(), 16);
    EXPECT_EQ(cache.size(), 0u);
    // Round 2: the key recomputes cleanly.
    EXPECT_EQ(cache.getOrCompute(9, [] { return 5; }), 5);
    EXPECT_GE(attempts.load(), 1);
}

// ------------------------------------------------------------- explorer

ExplorationPlan
smallCartesianPlan()
{
    // 3 subsets x 3 workloads = 9 points (>= 8, the acceptance bar).
    ExplorationPlan plan;
    plan.subsets = {SubsetSpec::fromWorkload("crc32", "fit-crc32"),
                    SubsetSpec::fromWorkload("armpit", "fit-armpit"),
                    SubsetSpec::full()};
    plan.workloads = {"crc32", "armpit", "aha-mont64"};
    return plan;
}

TEST(Explorer, MemoizationMakesRepeatsFree)
{
    ExplorerOptions options;
    options.threads = 4;
    Explorer engine(options);
    const ExplorationPlan plan = smallCartesianPlan();
    engine.explore(plan);

    const ExplorerStats first = engine.stats();
    EXPECT_EQ(first.points, 9u);
    // 9 distinct (subset, workload) pairs, 3 distinct synth subjects.
    EXPECT_EQ(first.simMisses, 9u);
    EXPECT_EQ(first.synthMisses, 3u);
    EXPECT_EQ(first.synthHits, 6u);
    // 3 workloads compiled once each despite 9 points + 6
    // subset-resolution lookups.
    EXPECT_EQ(first.compileMisses, 3u);

    // The same plan again: every point is a cache hit.
    engine.explore(plan);
    const ExplorerStats second = engine.stats();
    EXPECT_EQ(second.points, 18u);
    EXPECT_EQ(second.simMisses, first.simMisses);
    EXPECT_EQ(second.synthMisses, first.synthMisses);
    EXPECT_EQ(second.compileMisses, first.compileMisses);
    EXPECT_EQ(second.simHits, first.simHits + 9u);
}

TEST(Explorer, DeterministicAcrossThreadCounts)
{
    const ExplorationPlan plan = smallCartesianPlan();
    std::string serialCsv;
    std::string serialJson;
    for (unsigned threads : {1u, 4u, 7u}) {
        ExplorerOptions options;
        options.threads = threads;
        Explorer engine(options);
        const ResultTable table = engine.explore(plan);
        ASSERT_EQ(table.size(), 9u);
        if (threads == 1) {
            serialCsv = table.csv();
            serialJson = table.json();
        } else {
            EXPECT_EQ(table.csv(), serialCsv) << threads;
            EXPECT_EQ(table.json(), serialJson) << threads;
        }
        // The frontier is derived from the table, so it is identical
        // too; sanity-check it is non-empty and in range.
        const std::vector<size_t> frontier = table.paretoFrontier();
        EXPECT_FALSE(frontier.empty());
        for (size_t i : frontier)
            EXPECT_LT(i, table.size());
    }
}

TEST(Explorer, TrapAndCosimSemantics)
{
    ExplorerOptions options;
    options.threads = 2;
    Explorer engine(options);
    ExplorationPlan plan;
    plan.subsets = {SubsetSpec::fromWorkload("crc32", "fit"),
                    SubsetSpec::fromNames("starved",
                                          {"addi", "jal", "sw"})};
    plan.workloads = {"crc32"};
    const ResultTable table = engine.explore(plan);
    ASSERT_EQ(table.size(), 2u);

    const ExplorationResult &fit = table.row(0);
    EXPECT_FALSE(fit.trapped);
    EXPECT_TRUE(fit.cosimPassed);
    EXPECT_GT(fit.cycles, 0u);
    EXPECT_NE(fit.signature, 0u);

    // A RISSP missing ops the binary uses traps in hardware; that
    // point can never land on the frontier.
    const ExplorationResult &starved = table.row(1);
    EXPECT_TRUE(starved.trapped);
    EXPECT_FALSE(starved.cosimPassed);
    for (size_t i : table.paretoFrontier())
        EXPECT_NE(i, starved.index);
}

TEST(Explorer, CharacterizeOnlySkipsSimAndSynth)
{
    ExplorerOptions options;
    options.simulate = false;
    options.synthesize = false;
    Explorer engine(options);
    ExplorationPlan plan =
        ExplorationPlan::perWorkloadRissps({"crc32"});
    const ResultTable table = engine.explore(plan);
    ASSERT_EQ(table.size(), 1u);
    const ExplorationResult &r = table.row(0);
    EXPECT_FALSE(r.simRun);
    EXPECT_FALSE(r.synthRun);
    EXPECT_GT(r.subsetSize, 0u);
    EXPECT_EQ(r.subsetSize, r.subset.size());
    // Nothing qualifies for the frontier without sim + synth data.
    EXPECT_TRUE(table.paretoFrontier().empty());
}

// ------------------------------------------------------------ csv

/** Count the columns of one RFC-4180 record (quote-aware). */
size_t
csvColumns(const std::string &line)
{
    size_t columns = 1;
    bool quoted = false;
    for (char c : line) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++columns;
    }
    return columns;
}

TEST(ResultTableCsv, CommaBearingTechNamesAreQuoted)
{
    // Overridden-corner tech names carry the full spec — commas
    // included — on every row they label; the emitter must quote
    // them or every later column silently shifts.
    ExplorationPlan plan;
    plan.subsets = {SubsetSpec::fromWorkload("crc32", "fit")};
    plan.workloads = {"crc32"};
    plan.techs = {TechSpec::fromSpec(
                      "flexic-0.6um:voltage=2.8,ffPowerRatio=8")
                      .take()};
    ExplorerOptions options;
    options.threads = 1;
    Explorer engine(options);
    const ResultTable table = engine.explore(plan);
    const std::string csv = table.csv();
    EXPECT_NE(
        csv.find("\"flexic-0.6um:voltage=2.8,ffPowerRatio=8\""),
        std::string::npos)
        << csv;

    std::istringstream lines(csv);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    for (std::string line; std::getline(lines, line);)
        EXPECT_EQ(csvColumns(line), csvColumns(header)) << line;
}

TEST(ResultTableCsv, QuotesCrLfAndEmbeddedQuotesAreEscaped)
{
    ResultTable table(1);
    ExplorationResult row;
    row.index = 0;
    row.subsetName = "a\"b";
    row.workloadName = "w\r1";
    row.techName = "t,x\ny";
    table.set(row);
    const std::string csv = table.csv();
    EXPECT_NE(csv.find("\"a\"\"b\""), std::string::npos) << csv;
    EXPECT_NE(csv.find("\"w\r1\""), std::string::npos) << csv;
    EXPECT_NE(csv.find("\"t,x\ny\""), std::string::npos) << csv;
}

// --------------------------------------------------------------- pareto

ExplorationResult
point(size_t index, uint64_t cycles, double area, double power)
{
    ExplorationResult r;
    r.index = index;
    r.subsetName = "s" + std::to_string(index);
    r.workloadName = "w";
    r.simRun = true;
    r.synthRun = true;
    r.cosimPassed = true;
    r.cycles = cycles;
    r.avgAreaGe = area;
    r.avgPowerMw = power;
    return r;
}

TEST(Pareto, HandComputedThreePoints)
{
    // A: fast and small. B: faster but bigger. C: worse than A on
    // every axis. Frontier = {A, B}.
    ResultTable table(3);
    table.set(point(0, 100, 10.0, 1.0));  // A
    table.set(point(1, 90, 12.0, 1.1));   // B
    table.set(point(2, 110, 11.0, 1.2));  // C
    EXPECT_TRUE(ResultTable::dominates(table.row(0), table.row(2)));
    EXPECT_FALSE(ResultTable::dominates(table.row(0), table.row(1)));
    EXPECT_FALSE(ResultTable::dominates(table.row(1), table.row(0)));
    const std::vector<size_t> frontier = table.paretoFrontier();
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1}));
}

TEST(Pareto, TiesAreKeptAndFailuresExcluded)
{
    ResultTable table(3);
    table.set(point(0, 100, 10.0, 1.0));
    table.set(point(1, 100, 10.0, 1.0)); // exact tie: both kept
    ExplorationResult failed = point(2, 1, 1.0, 0.1); // "best"...
    failed.cosimPassed = false;          // ...but functionally wrong
    table.set(failed);
    const std::vector<size_t> frontier = table.paretoFrontier();
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1}));
}

} // namespace
} // namespace rissp::explore
