/**
 * @file
 * Benchmarks for the persistent artifact store: what a warm
 * --cache-dir actually buys, and what the store itself costs.
 *
 *  - cache_cold_boot / cache_warm_boot: the same explore sweep run
 *    by a fresh FlowService over an empty store directory, then by a
 *    second fresh service over the now-populated one — the process
 *    restart scenario. Reports wall seconds, the store hit rate of
 *    the warm boot and the cold/warm speedup.
 *  - store_publish / store_load: raw DiskStore throughput (MB/s) on
 *    synthetic payloads, isolating the frame+fsync+rename cost from
 *    pipeline compute.
 *
 * Results go to BENCH_cache.json so CI tracks the restart-resume
 * win alongside the other benchmark trajectories.
 *
 *   bench_cache [--json <path>] [--records <n>] [--quick]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "flow/flow.hh"
#include "store/disk_store.hh"
#include "util/json.hh"

namespace
{

using namespace rissp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Open the store at @p dir, or exit: the bench measures it. */
std::shared_ptr<store::DiskStore>
openStore(const std::string &dir)
{
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(dir);
    if (!opened.isOk()) {
        std::fprintf(stderr, "bench_cache: %s\n",
                     opened.status().toString().c_str());
        std::exit(1);
    }
    return opened.take();
}

struct BootResult
{
    double coldSeconds = 0;
    double warmSeconds = 0;
    uint64_t warmStoreHits = 0;
    uint64_t warmStoreMisses = 0;
    uint64_t coldWrites = 0;
    uint64_t storeBytes = 0; ///< on-disk footprint after cold boot

    double speedup() const
    {
        return warmSeconds > 0 ? coldSeconds / warmSeconds : 0;
    }

    double hitRate() const
    {
        const uint64_t total = warmStoreHits + warmStoreMisses;
        return total > 0
            ? static_cast<double>(warmStoreHits) / total : 0;
    }
};

/** The restart scenario: cold explore populating the store, then
 *  the identical sweep from a fresh service over the same dir. */
BootResult
runBootScenario(const std::string &dir, bool quick)
{
    flow::ExploreRequest request;
    request.planText = quick
        ? "mode cartesian\n"
          "workload crc32\n"
          "subset fit  = @crc32\n"
          "subset full = @full\n"
        : "mode cartesian\n"
          "workload crc32 aha-mont64 armpit\n"
          "subset crc32  = @crc32\n"
          "subset armpit = @armpit\n"
          "subset full   = @full\n";

    BootResult result;
    {
        flow::ServiceOptions options;
        options.artifacts = openStore(dir);
        const flow::FlowService cold(options);
        const auto start = Clock::now();
        const flow::ExploreResponse response = cold.explore(request);
        result.coldSeconds = secondsSince(start);
        if (!response.status.isOk()) {
            std::fprintf(stderr, "bench_cache: cold explore: %s\n",
                         response.status.toString().c_str());
            std::exit(1);
        }
        result.coldWrites =
            cold.caches()->artifacts->stats().writes;
    }
    // The warm boot opens the directory afresh, as a new process
    // would.
    flow::ServiceOptions options;
    const std::shared_ptr<store::DiskStore> warmStore = openStore(dir);
    result.storeBytes = warmStore->usage().bytes;
    options.artifacts = warmStore;
    const flow::FlowService warm(options);
    const auto start = Clock::now();
    const flow::ExploreResponse response = warm.explore(request);
    result.warmSeconds = secondsSince(start);
    if (!response.status.isOk()) {
        std::fprintf(stderr, "bench_cache: warm explore: %s\n",
                     response.status.toString().c_str());
        std::exit(1);
    }
    const store::StoreStats stats =
        warm.caches()->artifacts->stats();
    result.warmStoreHits = stats.hits;
    result.warmStoreMisses = stats.misses;
    if (stats.writes != 0)
        std::fprintf(stderr,
                     "bench_cache: WARNING: warm boot recomputed "
                     "%llu artifacts\n",
                     static_cast<unsigned long long>(stats.writes));
    return result;
}

struct IoResult
{
    uint64_t records = 0;
    uint64_t payloadBytes = 0;
    double publishSeconds = 0;
    double loadSeconds = 0;

    double publishMbps() const
    {
        return publishSeconds > 0
            ? payloadBytes / publishSeconds / 1e6 : 0;
    }

    double loadMbps() const
    {
        return loadSeconds > 0
            ? payloadBytes / loadSeconds / 1e6 : 0;
    }
};

/** Raw store throughput on @p records synthetic 16 KiB payloads. */
IoResult
runIoScenario(const std::string &dir, uint64_t records)
{
    IoResult result;
    result.records = records;
    const std::shared_ptr<store::DiskStore> diskStore = openStore(dir);

    constexpr size_t kPayload = 16 * 1024;
    std::vector<uint8_t> payload(kPayload);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 31 + 7);

    const auto publishStart = Clock::now();
    for (uint64_t i = 0; i < records; ++i) {
        payload[0] = static_cast<uint8_t>(i); // distinct contents
        diskStore->publish(store::ArtifactKind::Sim, {i, 0x5EED},
                           payload);
    }
    result.publishSeconds = secondsSince(publishStart);

    std::vector<uint8_t> out;
    const auto loadStart = Clock::now();
    for (uint64_t i = 0; i < records; ++i)
        diskStore->load(store::ArtifactKind::Sim, {i, 0x5EED}, out);
    result.loadSeconds = secondsSince(loadStart);
    result.payloadBytes = records * kPayload;
    return result;
}

void
writeJson(const std::string &path, const BootResult &boot,
          const IoResult &io)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "bench_cache: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n  \"schema\": \"rissp-cache-v1\",\n"
        << "  \"benchmarks\": [\n"
        << "    {\"name\": \"cache_cold_boot\", \"seconds\": "
        << jsonNum(boot.coldSeconds)
        << ", \"store_writes\": " << boot.coldWrites
        << ", \"store_bytes\": " << boot.storeBytes << "},\n"
        << "    {\"name\": \"cache_warm_boot\", \"seconds\": "
        << jsonNum(boot.warmSeconds)
        << ", \"store_hits\": " << boot.warmStoreHits
        << ", \"store_misses\": " << boot.warmStoreMisses
        << ", \"hit_rate\": " << jsonNum(boot.hitRate())
        << ", \"speedup_vs_cold\": " << jsonNum(boot.speedup())
        << "},\n"
        << "    {\"name\": \"store_publish\", \"records\": "
        << io.records
        << ", \"seconds\": " << jsonNum(io.publishSeconds)
        << ", \"mb_per_second\": " << jsonNum(io.publishMbps())
        << "},\n"
        << "    {\"name\": \"store_load\", \"records\": "
        << io.records
        << ", \"seconds\": " << jsonNum(io.loadSeconds)
        << ", \"mb_per_second\": " << jsonNum(io.loadMbps())
        << "}\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_cache.json";
    uint64_t records = 512;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--records") &&
                   i + 1 < argc) {
            records = static_cast<uint64_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
            records = 128;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json <path>] "
                         "[--records <n>] [--quick]\n",
                         argv[0]);
            return 2;
        }
    }

    namespace fs = std::filesystem;
    std::string root =
        (fs::temp_directory_path() / "rissp-bench-cache-XXXXXX")
            .string();
    if (::mkdtemp(root.data()) == nullptr) {
        std::fprintf(stderr,
                     "bench_cache: cannot create temp dir\n");
        return 1;
    }

    const BootResult boot =
        runBootScenario(root + "/boot-store", quick);
    std::printf("cache_cold_boot : %8.3f s (%llu records, %llu "
                "bytes)\n",
                boot.coldSeconds,
                static_cast<unsigned long long>(boot.coldWrites),
                static_cast<unsigned long long>(boot.storeBytes));
    std::printf("cache_warm_boot : %8.3f s (hit rate %.0f%%, "
                "%.1fx vs cold)\n",
                boot.warmSeconds, boot.hitRate() * 100.0,
                boot.speedup());

    const IoResult io = runIoScenario(root + "/io-store", records);
    std::printf("store_publish   : %8.1f MB/s (%llu records)\n",
                io.publishMbps(),
                static_cast<unsigned long long>(io.records));
    std::printf("store_load      : %8.1f MB/s\n", io.loadMbps());

    writeJson(json_path, boot, io);
    std::printf("wrote %s\n", json_path.c_str());

    std::error_code ec;
    fs::remove_all(root, ec);
    return 0;
}
