#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

#include "store/disk_store.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace rissp;

std::string
Context::freshDir(const std::string &tag)
{
    static int serial = 0;
    const std::string dir =
        workDir + "/" + tag + "-" + std::to_string(++serial);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::shared_ptr<TimedStore>
Context::freshStore(const std::string &tag)
{
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(freshDir(tag));
    if (!opened)
        throw std::runtime_error("cannot open a store: " +
                                 opened.status().toString());
    return std::make_shared<TimedStore>(opened.take(), tracer);
}

double
Context::attributionSeconds() const
{
    return std::max(1.0, config.seconds / 4);
}

void
Context::settle() const
{
    const int fd = ::open(workDir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::syncfs(fd);
    ::close(fd);
}

SetUps
Context::setUpRepeatedly(const std::function<void()> &set_up) const
{
    SetUps times;
    for (int i = 0; i < kSetups; ++i) {
        settle();
        const double cpu = processCpuMs();
        const Clock::time_point start = Clock::now();
        set_up();
        times.wallSeconds.push_back(msBetween(start, Clock::now()) / 1e3);
        times.cpuSeconds.push_back((processCpuMs() - cpu) / 1e3);
    }
    settle();
    return times;
}

Counters
readCounters(const flow::FlowService &service, const TimedStore *store,
             bool scheduler)
{
    Counters c;
    const flow::StageCaches &caches = *service.caches();
    c.compileHits = caches.compile.hits();
    c.compileMisses = caches.compile.misses();
    c.simHits = caches.sim.hits();
    c.simMisses = caches.sim.misses();
    c.synthHits = caches.synth.hits() + caches.synthReport.hits();
    c.synthMisses = caches.synth.misses() + caches.synthReport.misses();
    if (scheduler)
        c.submitted = service.scheduler().submitted();
    if (store) {
        c.timing = store->timing();
        c.store = store->stats();
    }
    return c;
}

namespace
{

double
ratio(uint64_t part, uint64_t whole)
{
    return whole ? static_cast<double>(part) / whole : 0;
}

} // namespace

void
setCounterDeltas(LayerValues &v, const Counters &a, const Counters &b,
                 uint64_t ops)
{
    const uint64_t compileHits = b.compileHits - a.compileHits;
    const uint64_t simHits = b.simHits - a.simHits;
    const uint64_t synthHits = b.synthHits - a.synthHits;
    v["flow.compile_hit_ratio"] = ratio(
        compileHits, compileHits + b.compileMisses - a.compileMisses);
    v["flow.sim_hit_ratio"] =
        ratio(simHits, simHits + b.simMisses - a.simMisses);
    v["flow.synth_hit_ratio"] =
        ratio(synthHits, synthHits + b.synthMisses - a.synthMisses);
    v["exec.tasks_per_op"] = ratio(b.submitted - a.submitted, ops);

    const uint64_t hits = b.store.hits - a.store.hits;
    v["store.loads"] = ratio(b.timing.loads - a.timing.loads, ops);
    v["store.hit_ratio"] =
        ratio(hits, hits + b.store.misses - a.store.misses);
    v["store.load_ms"] =
        ops ? (b.timing.loadMs - a.timing.loadMs) / ops : 0;
    v["store.publishes"] =
        ratio(b.timing.publishes - a.timing.publishes, ops);
    v["store.publish_ms"] =
        ops ? (b.timing.publishMs - a.timing.publishMs) / ops : 0;
    v["store.bytes_read"] =
        ratio(b.store.bytesRead - a.store.bytesRead, ops);
    v["store.bytes_written"] =
        ratio(b.store.bytesWritten - a.store.bytesWritten, ops);
    v["store.write_errors"] =
        static_cast<double>(b.store.writeErrors - a.store.writeErrors);
}

} // namespace perfbench
