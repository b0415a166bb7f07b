/**
 * @file
 * Tests for the persistent artifact tier: the byte codecs
 * (flow/persist.hh), the DiskStore's atomic publish / corruption
 * quarantine / eviction machinery (store/disk_store.hh), and the
 * store-aware StageCaches lookups that stitch the two together.
 *
 * The corruption tests simulate every crash point of the publish
 * protocol by hand — truncated records at several byte boundaries,
 * flipped checksum bits, garbled manifests, stale tmp files — and
 * assert the recovery contract: a bad record is a miss plus a
 * quarantined file, never a crash or a wrong answer, and the next
 * compute republishes a clean record.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "flow/persist.hh"
#include "store/bytes.hh"
#include "store/disk_store.hh"

namespace rissp
{
namespace
{

namespace fs = std::filesystem;

/** A fresh directory under the system temp root, removed on exit. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "rissp-store-XXXXXX")
                .string();
        EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    /** A path under the directory (not created). */
    std::string path(const std::string &name) const
    {
        return (fs::path(dir) / name).string();
    }

    std::string dir;
};

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::shared_ptr<store::DiskStore>
openStore(const std::string &dir)
{
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(dir);
    EXPECT_TRUE(opened.isOk()) << opened.status().toString();
    return opened.take();
}

// ------------------------------------------------------ byte layer

TEST(StoreBytes, WriterReaderRoundtrip)
{
    store::ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.f64(-1234.5678);
    w.str("hello");
    const std::vector<uint8_t> bytes = w.take();

    store::ByteReader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f64(), -1234.5678);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(StoreBytes, ReaderIsBoundsCheckedAndSticky)
{
    store::ByteWriter w;
    w.u32(7);
    const std::vector<uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.u32(), 7u);
    // Past the end: zero values, error latched, never UB.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(StoreBytes, ChecksumDetectsEveryByteFlip)
{
    const std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
    const uint64_t sum = store::checksum64(data.data(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
        std::vector<uint8_t> flipped = data;
        flipped[i] ^= 0x40;
        EXPECT_NE(store::checksum64(flipped.data(), flipped.size()),
                  sum)
            << "flip at byte " << i;
    }
}

// ---------------------------------------------------- the codecs

minic::CompileResult
sampleCompile()
{
    minic::CompileResult result;
    result.appAsm = "add x1, x2, x3\n";
    result.helpers = {"__mulsi3", "__divsi3"};
    result.program.entry = 0x100;
    result.program.textBase = 0x100;
    result.program.textSize = 8;
    Segment text;
    text.base = 0x100;
    text.bytes = {0x13, 0x00, 0x00, 0x00, 0x93, 0x00, 0x00, 0x00};
    Segment data;
    data.base = 0x2000;
    data.bytes = {1, 2, 3};
    result.program.segments = {text, data};
    result.program.symbols = {{"main", 0x100}, {"_end", 0x2003}};
    return result;
}

TEST(PersistCodec, CompileRoundtripIsExact)
{
    const Result<minic::CompileResult> value = sampleCompile();
    const std::vector<uint8_t> payload =
        flow::persist::encodeCompile(value);
    const std::optional<Result<minic::CompileResult>> back =
        flow::persist::decodeCompile(payload);
    ASSERT_TRUE(back.has_value());
    ASSERT_TRUE(back->isOk());
    const minic::CompileResult &got = back->value();
    EXPECT_EQ(got.appAsm, value.value().appAsm);
    EXPECT_EQ(got.helpers, value.value().helpers);
    EXPECT_EQ(got.program.entry, 0x100u);
    EXPECT_EQ(got.program.textSize, 8u);
    ASSERT_EQ(got.program.segments.size(), 2u);
    EXPECT_EQ(got.program.segments[0].bytes,
              value.value().program.segments[0].bytes);
    EXPECT_EQ(got.program.segments[1].base, 0x2000u);
    EXPECT_EQ(got.program.symbols, value.value().program.symbols);
    // Determinism: encoding the decoded value is byte-identical.
    EXPECT_EQ(flow::persist::encodeCompile(*back), payload);
}

TEST(PersistCodec, CompileErrorResultRoundtrips)
{
    const Result<minic::CompileResult> error = Status::error(
        ErrorCode::CompileError, "line 3: expected ';'");
    const std::vector<uint8_t> payload =
        flow::persist::encodeCompile(error);
    const std::optional<Result<minic::CompileResult>> back =
        flow::persist::decodeCompile(payload);
    ASSERT_TRUE(back.has_value());
    ASSERT_FALSE(back->isOk());
    EXPECT_EQ(back->status().code(), ErrorCode::CompileError);
    EXPECT_EQ(back->status().message(), "line 3: expected ';'");
}

TEST(PersistCodec, SimOutcomeRoundtripsBitExactly)
{
    flow::SimOutcome sim;
    sim.trapped = false;
    sim.cosimPassed = true;
    sim.cycles = 123456789;
    sim.exitCode = 55;
    sim.signature = 0xFEEDFACECAFEBEEFull;
    const std::optional<flow::SimOutcome> back =
        flow::persist::decodeSim(flow::persist::encodeSim(sim));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->trapped, sim.trapped);
    EXPECT_EQ(back->cosimPassed, sim.cosimPassed);
    EXPECT_EQ(back->cycles, sim.cycles);
    EXPECT_EQ(back->exitCode, sim.exitCode);
    EXPECT_EQ(back->signature, sim.signature);
}

TEST(PersistCodec, SynthOutcomeDoublesTravelAsRawBits)
{
    flow::SynthOutcome synth;
    synth.fmaxKhz = 475.0;
    synth.avgAreaGe = 6543.2109876543;
    synth.avgPowerMw = 0.123456789012345;
    synth.epiNj = 1e-17; // denormal-adjacent values must survive
    synth.physRun = true;
    synth.dieAreaMm2 = 35.999999999999996;
    synth.physPowerMw = 7.25;
    const std::optional<flow::SynthOutcome> back =
        flow::persist::decodeSynth(flow::persist::encodeSynth(synth));
    ASSERT_TRUE(back.has_value());
    // Bit equality, not approximate: the result table must be
    // byte-identical when served from the store.
    EXPECT_EQ(back->fmaxKhz, synth.fmaxKhz);
    EXPECT_EQ(back->avgAreaGe, synth.avgAreaGe);
    EXPECT_EQ(back->avgPowerMw, synth.avgPowerMw);
    EXPECT_EQ(back->epiNj, synth.epiNj);
    EXPECT_EQ(back->physRun, synth.physRun);
    EXPECT_EQ(back->dieAreaMm2, synth.dieAreaMm2);
    EXPECT_EQ(back->physPowerMw, synth.physPowerMw);
}

TEST(PersistCodec, SynthReportRoundtripsWithSweep)
{
    SynthReport report;
    report.name = "RISSP-crc32";
    report.subsetSize = 14;
    report.combGates = 1234.5;
    report.ffCount = 321;
    report.baseAreaGe = 2222.25;
    report.criticalPathNs = 104.5;
    report.fmaxKhz = 475;
    report.avgAreaGe = 2500.5;
    report.avgPowerMw = 0.5;
    report.combActivity = 0.25;
    report.ffActivity = 0.125;
    for (int i = 1; i <= 3; ++i) {
        FreqPoint pt;
        pt.targetKhz = 25.0 * i;
        pt.slackNs = 10.0 - i;
        pt.areaGe = 2000.0 + i;
        pt.powerMw = 0.1 * i;
        report.sweep.push_back(pt);
    }
    const Result<SynthReport> value = report;
    const std::optional<Result<SynthReport>> back =
        flow::persist::decodeSynthReport(
            flow::persist::encodeSynthReport(value));
    ASSERT_TRUE(back.has_value());
    ASSERT_TRUE(back->isOk());
    const SynthReport &got = back->value();
    EXPECT_EQ(got.name, report.name);
    EXPECT_EQ(got.subsetSize, report.subsetSize);
    EXPECT_EQ(got.fmaxKhz, report.fmaxKhz);
    ASSERT_EQ(got.sweep.size(), 3u);
    EXPECT_EQ(got.sweep[2].targetKhz, 75.0);
    EXPECT_EQ(got.sweep[2].slackNs, 7.0);
    EXPECT_EQ(got.sweep[2].areaGe, 2003.0);

    const Result<SynthReport> error = Status::error(
        ErrorCode::InvalidArgument, "impossible corner");
    const std::optional<Result<SynthReport>> errBack =
        flow::persist::decodeSynthReport(
            flow::persist::encodeSynthReport(error));
    ASSERT_TRUE(errBack.has_value());
    EXPECT_FALSE(errBack->isOk());
    EXPECT_EQ(errBack->status().code(), ErrorCode::InvalidArgument);
}

TEST(PersistCodec, DecodersRejectMalformedPayloads)
{
    const std::vector<uint8_t> good =
        flow::persist::encodeSim(flow::SimOutcome{});
    // Truncation at every length strictly inside the payload.
    for (size_t n = 0; n < good.size(); ++n) {
        const std::vector<uint8_t> cut(good.begin(),
                                       good.begin() +
                                           static_cast<long>(n));
        EXPECT_FALSE(flow::persist::decodeSim(cut).has_value())
            << "decoded a " << n << "-byte prefix";
    }
    // Trailing garbage is rejected, not ignored.
    std::vector<uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(flow::persist::decodeSim(padded).has_value());
    // An unknown payload version means "recompute", not "misread".
    std::vector<uint8_t> versioned = good;
    versioned[0] = 0xFF;
    EXPECT_FALSE(flow::persist::decodeSim(versioned).has_value());

    EXPECT_FALSE(flow::persist::decodeCompile({1, 2, 3}).has_value());
    EXPECT_FALSE(
        flow::persist::decodeSynthReport({0xFF, 0xFF}).has_value());
    EXPECT_FALSE(flow::persist::decodeSynth({}).has_value());
}

// --------------------------------------------------- NullStore

TEST(NullStore, IsAStrictNoOp)
{
    store::NullStore null;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(null.load(store::ArtifactKind::Sim, {1, 2},
                           payload));
    EXPECT_TRUE(null.publish(store::ArtifactKind::Sim, {1, 2},
                             {9, 9, 9}));
    EXPECT_FALSE(null.load(store::ArtifactKind::Sim, {1, 2},
                           payload));
    const store::StoreStats stats = null.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.writes, 0u);
}

// --------------------------------------------------- DiskStore

TEST(DiskStore, OpenCreatesLayoutAndManifest)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    auto diskStore = openStore(dir);
    ASSERT_NE(diskStore, nullptr);
    EXPECT_TRUE(fs::is_directory(dir + "/compile"));
    EXPECT_TRUE(fs::is_directory(dir + "/sim"));
    EXPECT_TRUE(fs::is_directory(dir + "/synth"));
    EXPECT_TRUE(fs::is_directory(dir + "/synthreport"));
    EXPECT_TRUE(fs::is_directory(dir + "/tmp"));
    EXPECT_TRUE(fs::is_directory(dir + "/quarantine"));
    EXPECT_TRUE(fs::is_regular_file(dir + "/MANIFEST"));
    EXPECT_TRUE(
        store::DiskStore::open("").status().code() ==
        ErrorCode::InvalidArgument);
}

TEST(DiskStore, PublishLoadRoundtripAndStats)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    const store::ArtifactKey key{0x1111222233334444ull,
                                 0x5555666677778888ull};
    const std::vector<uint8_t> payload = {10, 20, 30, 40, 50};

    std::vector<uint8_t> out;
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Synth, key, out));
    EXPECT_TRUE(
        diskStore->publish(store::ArtifactKind::Synth, key, payload));
    EXPECT_TRUE(
        diskStore->load(store::ArtifactKind::Synth, key, out));
    EXPECT_EQ(out, payload);
    // Kinds shard the namespace: the same key under another kind
    // is a different record.
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Sim, key, out));

    const store::StoreStats stats = diskStore->stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.writeErrors, 0u);
    EXPECT_EQ(stats.bytesWritten, payload.size());
    EXPECT_EQ(stats.bytesRead, payload.size());
    // No publish debris: tmp/ drained, nothing quarantined.
    const store::DiskStore::Usage usage = diskStore->usage();
    EXPECT_EQ(usage.tmpFiles, 0u);
    EXPECT_EQ(usage.quarantineFiles, 0u);
    EXPECT_EQ(usage.records, 1u);
    EXPECT_EQ(
        usage.kinds[static_cast<unsigned>(
                        store::ArtifactKind::Synth)]
            .records,
        1u);
}

TEST(DiskStore, RecordsSurviveReopen)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    const store::ArtifactKey key{42, 43};
    const std::vector<uint8_t> payload = {1, 2, 3};
    {
        auto first = openStore(dir);
        EXPECT_TRUE(first->publish(store::ArtifactKind::Compile,
                                   key, payload));
    }
    auto second = openStore(dir);
    std::vector<uint8_t> out;
    EXPECT_TRUE(
        second->load(store::ArtifactKind::Compile, key, out));
    EXPECT_EQ(out, payload);
}

/** Corrupt-record contract, exercised at every truncation length a
 *  crash mid-write could leave (the publish protocol makes these
 *  impossible under a live name, but bit rot and operator error do
 *  not read protocols). */
TEST(DiskStore, TruncatedRecordIsMissPlusQuarantine)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    const store::ArtifactKey key{7, 9};
    const std::vector<uint8_t> payload = {9, 8, 7, 6, 5, 4, 3, 2, 1};
    ASSERT_TRUE(
        diskStore->publish(store::ArtifactKind::Sim, key, payload));
    const std::string path =
        diskStore->recordPath(store::ArtifactKind::Sim, key);
    const std::vector<uint8_t> intact = readAll(path);

    // A spread of cut points: empty file, inside the magic, inside
    // the header, inside the payload, one byte short of complete.
    const size_t cuts[] = {0, 2, 10, 33, intact.size() / 2,
                           intact.size() - 1};
    uint64_t quarantined = 0;
    for (const size_t cut : cuts) {
        writeAll(path, std::vector<uint8_t>(
                           intact.begin(),
                           intact.begin() + static_cast<long>(cut)));
        std::vector<uint8_t> out;
        EXPECT_FALSE(
            diskStore->load(store::ArtifactKind::Sim, key, out))
            << "served a record truncated to " << cut << " bytes";
        ++quarantined;
        EXPECT_EQ(diskStore->usage().quarantineFiles, quarantined);
        // The bad file was moved aside, so the next load is a plain
        // absent-file miss, and a republish heals the record.
        EXPECT_FALSE(fs::exists(path));
    }
    ASSERT_TRUE(
        diskStore->publish(store::ArtifactKind::Sim, key, payload));
    std::vector<uint8_t> out;
    EXPECT_TRUE(diskStore->load(store::ArtifactKind::Sim, key, out));
    EXPECT_EQ(out, payload);
    EXPECT_EQ(diskStore->stats().quarantined, quarantined);
}

TEST(DiskStore, FlippedBitFailsChecksumAndQuarantines)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    const store::ArtifactKey key{0xAA, 0xBB};
    const std::vector<uint8_t> payload(256, 0x5A);
    ASSERT_TRUE(diskStore->publish(store::ArtifactKind::SynthReport,
                                   key, payload));
    const std::string path =
        diskStore->recordPath(store::ArtifactKind::SynthReport, key);
    std::vector<uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x01; // one bit, mid-payload
    writeAll(path, bytes);

    std::vector<uint8_t> out;
    EXPECT_FALSE(diskStore->load(store::ArtifactKind::SynthReport,
                                 key, out));
    EXPECT_EQ(diskStore->stats().quarantined, 1u);
    EXPECT_EQ(diskStore->usage().quarantineFiles, 1u);
}

TEST(DiskStore, RecordUnderTheWrongNameIsNeverServed)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    const store::ArtifactKey key{1, 1};
    const store::ArtifactKey other{2, 2};
    const std::vector<uint8_t> payload = {0xCA, 0xFE};
    ASSERT_TRUE(
        diskStore->publish(store::ArtifactKind::Compile, key,
                           payload));
    // Simulate a misplaced record (wrong copy, bad script): the
    // key inside the frame disagrees with the file name.
    fs::copy_file(
        diskStore->recordPath(store::ArtifactKind::Compile, key),
        diskStore->recordPath(store::ArtifactKind::Compile, other));
    std::vector<uint8_t> out;
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Compile, other, out));
    // The original is untouched.
    EXPECT_TRUE(
        diskStore->load(store::ArtifactKind::Compile, key, out));
    EXPECT_EQ(out, payload);
}

TEST(DiskStore, GarbledManifestIsQuarantinedAndRewritten)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    const store::ArtifactKey key{5, 6};
    const std::vector<uint8_t> payload = {1, 1, 2, 3, 5, 8};
    {
        auto first = openStore(dir);
        ASSERT_TRUE(first->publish(store::ArtifactKind::Synth, key,
                                   payload));
    }
    writeAll(dir + "/MANIFEST",
             {'b', 'o', 'g', 'u', 's', '\n'});

    auto second = openStore(dir);
    ASSERT_NE(second, nullptr);
    // Manifest restored, bad one kept as evidence, records intact.
    const std::vector<uint8_t> manifest = readAll(dir + "/MANIFEST");
    EXPECT_NE(std::string(manifest.begin(), manifest.end())
                  .find("rissp-artifact-store"),
              std::string::npos);
    EXPECT_EQ(second->usage().quarantineFiles, 1u);
    std::vector<uint8_t> out;
    EXPECT_TRUE(second->load(store::ArtifactKind::Synth, key, out));
    EXPECT_EQ(out, payload);

    // A truncated (empty) manifest recovers the same way.
    writeAll(dir + "/MANIFEST", {});
    auto third = openStore(dir);
    ASSERT_NE(third, nullptr);
    EXPECT_TRUE(third->load(store::ArtifactKind::Synth, key, out));
}

TEST(DiskStore, GcPurgesDebrisAndEvictsBySize)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    // Publish four 1 KiB records with distinct mtimes (oldest
    // first), plus crash debris: a stale tmp file and a quarantined
    // record.
    for (uint64_t i = 0; i < 4; ++i) {
        const std::vector<uint8_t> payload(1024,
                                           static_cast<uint8_t>(i));
        ASSERT_TRUE(diskStore->publish(store::ArtifactKind::Sim,
                                       {i, 0}, payload));
        const fs::path path =
            diskStore->recordPath(store::ArtifactKind::Sim, {i, 0});
        // Backdate so eviction order is deterministic without
        // sleeping: record i is (4 - i) hours old.
        fs::last_write_time(
            path, fs::file_time_type::clock::now() -
                      std::chrono::hours(4 - i));
    }
    writeAll(diskStore->directory() + "/tmp/123-45.tmp",
             {0xDE, 0xAD});
    writeAll(diskStore->directory() + "/quarantine/old.art.1",
             {0xBE, 0xEF});

    store::DiskStore::GcPolicy policy;
    policy.maxTotalBytes = 2200; // room for two records, not three
    const store::DiskStore::GcReport report = diskStore->gc(policy);
    EXPECT_EQ(report.tmpPurged, 1u);
    EXPECT_EQ(report.quarantinePurged, 1u);
    EXPECT_EQ(report.scannedRecords, 4u);
    EXPECT_EQ(report.evictedRecords, 2u);
    EXPECT_EQ(report.remainingRecords, 2u);
    EXPECT_LE(report.remainingBytes, policy.maxTotalBytes);
    EXPECT_EQ(diskStore->stats().evictions, 2u);

    // Oldest evicted, newest kept.
    std::vector<uint8_t> out;
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Sim, {0, 0}, out));
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Sim, {1, 0}, out));
    EXPECT_TRUE(
        diskStore->load(store::ArtifactKind::Sim, {2, 0}, out));
    EXPECT_TRUE(
        diskStore->load(store::ArtifactKind::Sim, {3, 0}, out));
}

TEST(DiskStore, GcEvictsByAge)
{
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    ASSERT_TRUE(diskStore->publish(store::ArtifactKind::Compile,
                                   {1, 0}, {1}));
    ASSERT_TRUE(diskStore->publish(store::ArtifactKind::Compile,
                                   {2, 0}, {2}));
    fs::last_write_time(
        diskStore->recordPath(store::ArtifactKind::Compile, {1, 0}),
        fs::file_time_type::clock::now() - std::chrono::hours(48));

    store::DiskStore::GcPolicy policy;
    policy.maxAgeSeconds = 24 * 3600;
    const store::DiskStore::GcReport report = diskStore->gc(policy);
    EXPECT_EQ(report.evictedRecords, 1u);
    EXPECT_EQ(report.remainingRecords, 1u);
    std::vector<uint8_t> out;
    EXPECT_FALSE(
        diskStore->load(store::ArtifactKind::Compile, {1, 0}, out));
    EXPECT_TRUE(
        diskStore->load(store::ArtifactKind::Compile, {2, 0}, out));
}

TEST(DiskStore, AutoGcBoundsTheDirectory)
{
    TempDir tmp;
    store::DiskStore::Options options;
    options.autoGcBytes = 4096;
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(tmp.path("store"), options);
    ASSERT_TRUE(opened.isOk());
    auto diskStore = opened.take();
    // Publish far past the budget; the publish path must collect.
    for (uint64_t i = 0; i < 16; ++i)
        ASSERT_TRUE(diskStore->publish(store::ArtifactKind::Sim,
                                       {i, i}, std::vector<uint8_t>(
                                                   1024, 0x11)));
    EXPECT_GT(diskStore->stats().evictions, 0u);
    EXPECT_LE(diskStore->usage().bytes, options.autoGcBytes);
}

TEST(DiskStore, ConcurrentPublishersAndLoadersAreSafe)
{
    // The TSan target for the store: many threads hammering
    // overlapping keys with publishes, loads and a gc.
    TempDir tmp;
    auto diskStore = openStore(tmp.path("store"));
    constexpr int kThreads = 8;
    constexpr uint64_t kKeys = 16;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&diskStore, t] {
            std::vector<uint8_t> out;
            for (uint64_t i = 0; i < 64; ++i) {
                const store::ArtifactKey key{i % kKeys, 7};
                const std::vector<uint8_t> payload(
                    64, static_cast<uint8_t>(key.a));
                if ((i + static_cast<uint64_t>(t)) % 3 == 0) {
                    diskStore->publish(store::ArtifactKind::Synth,
                                       key, payload);
                } else if (diskStore->load(
                               store::ArtifactKind::Synth, key,
                               out)) {
                    // Content-addressed: a hit always carries the
                    // one true payload for that key.
                    EXPECT_EQ(out, payload);
                }
            }
        });
    }
    store::DiskStore::GcPolicy policy;
    policy.maxTotalBytes = 2048;
    diskStore->gc(policy);
    for (std::thread &worker : workers)
        worker.join();
    const store::StoreStats stats = diskStore->stats();
    EXPECT_GT(stats.writes, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
}

// --------------------------------- StageCaches over the store

TEST(StageCachesStore, LookupWithoutStoreComputesOnce)
{
    flow::StageCaches caches; // artifacts == nullptr
    int computes = 0;
    bool hit = true;
    const flow::SimOutcome first = caches.simLookup(
        {1, 2},
        [&] {
            ++computes;
            flow::SimOutcome sim;
            sim.cycles = 99;
            return sim;
        },
        &hit);
    EXPECT_FALSE(hit);
    const flow::SimOutcome second = caches.simLookup(
        {1, 2},
        [&] {
            ++computes;
            return flow::SimOutcome{};
        },
        &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.cycles, 99u);
    EXPECT_EQ(second.cycles, 99u);
}

TEST(StageCachesStore, SecondProcessLoadsInsteadOfComputing)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    const explore::FingerprintPair key{11, 22};

    // "First process": computes and publishes.
    {
        flow::StageCaches caches;
        caches.artifacts = openStore(dir);
        const flow::SynthOutcome out = caches.synthLookup(key, [] {
            flow::SynthOutcome synth;
            synth.fmaxKhz = 475;
            synth.avgAreaGe = 2500.125;
            return synth;
        });
        EXPECT_EQ(out.fmaxKhz, 475.0);
    }

    // "Second process": fresh memo caches, same directory. The
    // compute lambda must never run.
    flow::StageCaches caches;
    auto diskStore = openStore(dir);
    caches.artifacts = diskStore;
    bool hit = true;
    const flow::SynthOutcome out = caches.synthLookup(
        key,
        []() -> flow::SynthOutcome {
            ADD_FAILURE() << "computed despite a warm store";
            return {};
        },
        &hit);
    EXPECT_FALSE(hit); // a memo miss served by the store tier
    EXPECT_EQ(out.fmaxKhz, 475.0);
    EXPECT_EQ(out.avgAreaGe, 2500.125);
    EXPECT_EQ(diskStore->stats().hits, 1u);

    // Third lookup in the same process: pure memo hit, no disk.
    caches.synthLookup(
        key,
        []() -> flow::SynthOutcome {
            ADD_FAILURE() << "computed despite a warm memo";
            return {};
        },
        &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(diskStore->stats().hits, 1u);
}

TEST(StageCachesStore, CorruptRecordRecomputesAndRepublishes)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    const uint64_t key = 777;
    {
        flow::StageCaches caches;
        caches.artifacts = openStore(dir);
        caches.compileLookup(key, [] {
            return Result<minic::CompileResult>(sampleCompile());
        });
    }
    // Garble the record on disk.
    auto diskStore = openStore(dir);
    const std::string path = diskStore->recordPath(
        store::ArtifactKind::Compile, {key, 0});
    std::vector<uint8_t> bytes = readAll(path);
    bytes[bytes.size() - 3] ^= 0xFF;
    writeAll(path, bytes);

    flow::StageCaches caches;
    caches.artifacts = diskStore;
    int computes = 0;
    const Result<minic::CompileResult> result =
        caches.compileLookup(key, [&] {
            ++computes;
            return Result<minic::CompileResult>(sampleCompile());
        });
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(computes, 1); // the store miss fell through
    EXPECT_EQ(diskStore->stats().quarantined, 1u);
    EXPECT_EQ(diskStore->stats().writes, 1u); // republished

    // The healed record serves the next fresh cache set.
    flow::StageCaches healed;
    healed.artifacts = diskStore;
    const Result<minic::CompileResult> again = healed.compileLookup(
        key, []() -> Result<minic::CompileResult> {
            ADD_FAILURE() << "computed despite a healed record";
            return Status::error(ErrorCode::Internal, "unreachable");
        });
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again.value().appAsm, sampleCompile().appAsm);
}

TEST(StageCachesStore, ErrorResultsPersistAsValues)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    const uint64_t key = 31337;
    {
        flow::StageCaches caches;
        caches.artifacts = openStore(dir);
        caches.compileLookup(
            key, []() -> Result<minic::CompileResult> {
                return Status::error(ErrorCode::CompileError,
                                     "line 1: no");
            });
    }
    flow::StageCaches caches;
    caches.artifacts = openStore(dir);
    const Result<minic::CompileResult> result = caches.compileLookup(
        key, []() -> Result<minic::CompileResult> {
            ADD_FAILURE() << "recompiled a persisted diagnosis";
            return Status::error(ErrorCode::Internal, "unreachable");
        });
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::CompileError);
    EXPECT_EQ(result.status().message(), "line 1: no");
}

// ------------------------------------- end-to-end through the flow

TEST(FlowServiceStore, WarmBootServesByteIdenticalTables)
{
    TempDir tmp;
    flow::ExploreRequest request;
    request.planText = "mode cartesian\n"
                       "workload crc32\n"
                       "subset fit  = @crc32\n"
                       "subset full = @full\n";
    request.options.threads = 2;

    flow::ServiceOptions cold;
    cold.artifacts = openStore(tmp.path("store"));
    std::string coldJson;
    {
        const flow::FlowService service(cold);
        const flow::ExploreResponse response =
            service.explore(request);
        ASSERT_TRUE(response.status.isOk());
        coldJson = toJson(response);
        ASSERT_TRUE(service.caches()->artifacts != nullptr);
        EXPECT_GT(service.caches()->artifacts->stats().writes, 0u);
    }

    // Warm boot: a new service over the same directory must produce
    // the byte-identical response without recomputing.
    flow::ServiceOptions warmBoot;
    warmBoot.artifacts = openStore(tmp.path("store"));
    const flow::FlowService warmService(warmBoot);
    const flow::ExploreResponse warm = warmService.explore(request);
    ASSERT_TRUE(warm.status.isOk());
    EXPECT_EQ(toJson(warm), coldJson);
    const store::StoreStats stats =
        warmService.caches()->artifacts->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.writes, 0u) << "warm boot recomputed something";
}

TEST(FlowServiceStore, VerifyAndPhysicalKeyTheirOwnEntries)
{
    // `verify` changes the sim outcome and `physical` the synth
    // outcome, so a sweep must never be served an entry written
    // under the other value — neither from the memo tier of one
    // service nor from one store across boots. Either order of
    // either flag: the second sweep's table is a fresh service's.
    flow::ExploreRequest base;
    base.planText = "workload crc32\n"
                    "subset fit  = @crc32\n"
                    "subset full = @full\n";
    base.options.threads = 1;
    auto sweep = [](const flow::FlowService &service,
                    const flow::ExploreRequest &request) {
        const flow::ExploreResponse response = service.explore(request);
        EXPECT_TRUE(response.status.isOk())
            << response.status.toString();
        return response.table.csv();
    };
    using Set = void (*)(explore::ExplorerOptions &, bool);
    const std::pair<const char *, Set> flags[] = {
        {"verify",
         [](explore::ExplorerOptions &o, bool on) { o.verify = on; }},
        {"physical",
         [](explore::ExplorerOptions &o, bool on) { o.physical = on; }},
    };
    for (const auto &[name, set] : flags) {
        for (const bool firstOn : {false, true}) {
            const std::string where =
                std::string(name) + (firstOn ? " on, then off"
                                             : " off, then on");
            flow::ExploreRequest first = base;
            flow::ExploreRequest second = base;
            set(first.options, firstOn);
            set(second.options, !firstOn);
            const std::string want =
                sweep(flow::FlowService(), second);

            const flow::FlowService service;
            sweep(service, first);
            const uint64_t simMisses = service.caches()->sim.misses();
            const uint64_t synthMisses =
                service.caches()->synth.misses();
            EXPECT_EQ(sweep(service, second), want) << where;
            // The second sweep computes its own entries.
            const bool verifyFlag = std::string(name) == "verify";
            EXPECT_GT(verifyFlag ? service.caches()->sim.misses()
                                 : service.caches()->synth.misses(),
                      verifyFlag ? simMisses : synthMisses)
                << where;

            TempDir tmp;
            auto boot = [&tmp] {
                flow::ServiceOptions options;
                options.artifacts = openStore(tmp.path("store"));
                return options;
            };
            sweep(flow::FlowService(boot()), first);
            const flow::FlowService warm(boot());
            EXPECT_EQ(sweep(warm, second), want) << where;
            EXPECT_GT(warm.caches()->artifacts->stats().writes, 0u)
                << where;
        }
    }
}

TEST(FlowServiceStore, CorruptionHealsThroughTheFullStack)
{
    TempDir tmp;
    const std::string dir = tmp.path("store");
    flow::ExploreRequest request;
    request.planText = "workload crc32\nsubset fit = @crc32\n";

    // Each boot opens the directory afresh, as a new process would.
    auto boot = [&dir] {
        flow::ServiceOptions options;
        options.artifacts = openStore(dir);
        return options;
    };
    std::string coldJson;
    {
        const flow::FlowService service(boot());
        const flow::ExploreResponse response =
            service.explore(request);
        ASSERT_TRUE(response.status.isOk());
        coldJson = toJson(response);
    }

    // Torn-write simulation: truncate every record to half size.
    auto diskStore = openStore(dir);
    const store::DiskStore::Usage before = diskStore->usage();
    ASSERT_GT(before.records, 0u);
    for (const char *kind :
         {"compile", "sim", "synth", "synthreport"}) {
        std::error_code ec;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(dir + "/" + kind, ec)) {
            const std::vector<uint8_t> bytes =
                readAll(entry.path().string());
            writeAll(entry.path().string(),
                     std::vector<uint8_t>(
                         bytes.begin(),
                         bytes.begin() +
                             static_cast<long>(bytes.size() / 2)));
        }
    }
    diskStore.reset();

    // The next boot recomputes through the corruption and emits the
    // byte-identical response; the bad records are quarantined.
    const flow::FlowService service(boot());
    const flow::ExploreResponse response = service.explore(request);
    ASSERT_TRUE(response.status.isOk());
    EXPECT_EQ(toJson(response), coldJson);
    const store::StoreStats stats =
        service.caches()->artifacts->stats();
    EXPECT_GT(stats.quarantined, 0u);
    EXPECT_GT(stats.writes, 0u); // healed records republished

    // And the boot after that is clean and warm again.
    const flow::FlowService healedService(boot());
    const flow::ExploreResponse healed =
        healedService.explore(request);
    EXPECT_EQ(toJson(healed), coldJson);
    EXPECT_EQ(healedService.caches()->artifacts->stats().writes, 0u);
}

} // namespace
} // namespace rissp
