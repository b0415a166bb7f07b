/**
 * @file
 * Tests of the benchmark harness itself: the op streams, salting,
 * the percentile helper, the store decorator and the output checks.
 */

#include <filesystem>
#include <map>
#include <gtest/gtest.h>

#include "checks.hh"
#include "compiler/driver.hh"
#include "core/subset.hh"
#include "report.hh"
#include "store/disk_store.hh"
#include "stream.hh"
#include "timed_store.hh"
#include "workloads/workloads.hh"

namespace perfbench
{
namespace
{

using namespace rissp;

std::vector<std::pair<size_t, uint64_t>>
firstOps(uint64_t seed, size_t n)
{
    ColdStream stream(seed);
    std::vector<std::pair<size_t, uint64_t>> ops;
    for (size_t i = 0; i < n; ++i) {
        const ColdOp op = stream.next();
        ops.emplace_back(pairIndex(op.pair), op.salt);
    }
    return ops;
}

TEST(Stream, SameSeedSameOpsOtherSeedOtherOps)
{
    EXPECT_EQ(firstOps(7, 300), firstOps(7, 300));
    EXPECT_NE(firstOps(7, 300), firstOps(8, 300));
}

TEST(Stream, RoundsVisitEveryPairOncePerRound)
{
    const size_t n = allSourcePairs().size();
    const auto ops = firstOps(3, 2 * n);
    for (size_t round = 0; round < 2; ++round) {
        std::vector<int> seen(n, 0);
        for (size_t i = 0; i < n; ++i)
            ++seen[ops[round * n + i].first];
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                  static_cast<long>(n));
    }
}

TEST(Stream, SaltsAreDistinctWithinARun)
{
    const auto ops = firstOps(11, 1000);
    std::set<uint64_t> salts;
    for (const auto &op : ops)
        salts.insert(op.second);
    EXPECT_EQ(salts.size(), ops.size());
}

TEST(Stream, SweepPoolIsSeededAndBalanced)
{
    const auto a = sweepPool(5), b = sweepPool(5), c = sweepPool(6);
    ASSERT_EQ(a.size(), allWorkloads().size());
    bool differs = false;
    std::map<std::string, size_t> uses;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workloads, b[i].workloads);
        differs |= a[i].workloads != c[i].workloads;
        ASSERT_EQ(a[i].workloads.size(), 2 * kSweepWorkloads);
        EXPECT_EQ(a[i].techs.size(), kSweepTechs);
        EXPECT_TRUE(a[i].validate().isOk());
        for (size_t j = 0; j < kSweepWorkloads; ++j)
            ++uses[a[i].workloads[j]];
    }
    EXPECT_TRUE(differs);
    for (const Workload &wl : allWorkloads())
        EXPECT_EQ(uses[wl.name], kSweepWorkloads) << wl.name;
}

TEST(Salt, SaltedSourceCompilesToTheBundledProgram)
{
    for (const char *name : {"crc32", "armpit", "nbody"}) {
        const Workload &wl = workloadByName(name);
        for (minic::OptLevel opt :
             {minic::OptLevel::O0, minic::OptLevel::Oz}) {
            const minic::CompileResult plain =
                minic::compile(wl.source, opt);
            const minic::CompileResult salted =
                minic::compile(saltedSource(wl.source, 12345), opt);
            EXPECT_NE(saltedSource(wl.source, 12345), wl.source);
            EXPECT_EQ(salted.program.textSize, plain.program.textSize);
            EXPECT_EQ(InstrSubset::fromProgram(salted.program),
                      InstrSubset::fromProgram(plain.program));
        }
    }
}

TEST(Percentile, NearestRankWithSampleCount)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Percentile p50 = percentile(v, 0.5);
    EXPECT_EQ(p50.rank, 50u);
    EXPECT_EQ(p50.value, 50);
    EXPECT_EQ(p50.samples, 100u);
    const Percentile p90 = percentile(v, 0.9);
    EXPECT_EQ(p90.rank, 90u);
    EXPECT_EQ(p90.value, 90);
    const Percentile p99 = percentile({1, 2, 3}, 0.99);
    EXPECT_EQ(p99.rank, 3u);
    EXPECT_EQ(p99.value, 3);
    EXPECT_EQ(percentile({4, 5}, 0).rank, 1u);
    EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Percentile, FailedOpsMissTheLimit)
{
    Window w;
    w.latencyMs = {1, 2, kMissed, 4};
    w.seconds = 2;
    EXPECT_EQ(percentile(w.latencyMs, 1.0).value, kMissed);
    EXPECT_DOUBLE_EQ(w.throughput(), 1.5);
}

class ScratchDirs : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = std::filesystem::current_path() /
            ("perfbench-test-" + std::to_string(::getpid()));
        std::filesystem::remove_all(root);
    }

    void TearDown() override { std::filesystem::remove_all(root); }

    std::shared_ptr<store::DiskStore>
    open(const char *name)
    {
        auto opened = store::DiskStore::open((root / name).string());
        EXPECT_TRUE(opened.isOk());
        return opened.take();
    }

    std::filesystem::path root;
};

TEST_F(ScratchDirs, TimedStoreIsATransparentPassThrough)
{
    auto plain = open("plain");
    Tracer tracer;
    tracer.setEnabled(true);
    TimedStore timed(open("wrapped"), tracer);

    const store::ArtifactKey k1{1, 2}, k2{3, 4};
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    for (store::ArtifactStore *s :
         {static_cast<store::ArtifactStore *>(plain.get()),
          static_cast<store::ArtifactStore *>(&timed)}) {
        std::vector<uint8_t> out;
        EXPECT_FALSE(s->load(store::ArtifactKind::Compile, k1, out));
        EXPECT_TRUE(s->publish(store::ArtifactKind::Compile, k1, payload));
        EXPECT_TRUE(s->load(store::ArtifactKind::Compile, k1, out));
        EXPECT_EQ(out, payload);
        EXPECT_FALSE(s->load(store::ArtifactKind::Sim, k2, out));
    }
    const store::StoreStats a = plain->stats(), b = timed.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.writeErrors, b.writeErrors);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(timed.timing().loads, 3u);
    EXPECT_EQ(timed.timing().publishes, 1u);
    EXPECT_EQ(tracer.spans().size(), 4u);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    Span parent{1, 0, 1, "flow:run", 0, 100, 1};
    Span a{2, 1, 1, "store:load", 10, 40, 2};
    Span b{3, 1, 1, "store:load", 30, 50, 3};
    const auto self = selfTimeMsByName({parent, a, b});
    EXPECT_DOUBLE_EQ(self.at("flow:run"), 60 / 1e6);
    EXPECT_DOUBLE_EQ(self.at("store:load"), 50 / 1e6);
}

TEST(Checks, BundledReferenceMatchesAndAWrongOneFails)
{
    const size_t pair =
        pairIndex({static_cast<size_t>(
                       &workloadByName("crc32") - &allWorkloads()[0]),
                   minic::OptLevel::O2});
    const auto refs = flowReferences({pair}, 2);
    const FlowDigest &ref = refs.at(pair);

    flow::FlowService service;
    const FlowJobRequests job = flowJob(
        flow::SourceRef::inlineText(
            saltedSource(workloadByName("crc32").source, 99), "crc32"),
        minic::OptLevel::O2);
    const FlowDigest got = digestFlow(service.characterize(job.characterize),
                                      service.run(job.run),
                                      service.synth(job.synth));
    EXPECT_EQ(diffFlow(got, ref), "");

    FlowDigest wrong = ref;
    wrong.cycles += 1;
    EXPECT_NE(diffFlow(got, wrong), "");
    wrong = ref;
    wrong.appAreaGe *= 1.01;
    EXPECT_NE(diffFlow(got, wrong), "");
    wrong = ref;
    wrong.status = "error";
    EXPECT_NE(diffFlow(got, wrong), "");
}

TEST(Checks, WrongRetargetReferenceFails)
{
    const size_t pair =
        pairIndex({static_cast<size_t>(
                       &workloadByName("slre") - &allWorkloads()[0]),
                   minic::OptLevel::O2});
    const RetargetDigest ref = retargetReferences({pair}, 1).at(pair);
    EXPECT_EQ(diffRetarget(ref, ref), "");
    EXPECT_TRUE(ref.matched);
    RetargetDigest wrong = ref;
    ASSERT_FALSE(wrong.attempts.empty());
    wrong.attempts[0] += 1;
    EXPECT_NE(diffRetarget(ref, wrong), "");
}

} // namespace
} // namespace perfbench
