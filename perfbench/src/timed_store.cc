#include "timed_store.hh"

namespace perfbench
{

using namespace rissp::store;

namespace
{

int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

} // namespace

TimedStore::TimedStore(std::shared_ptr<ArtifactStore> wrapped,
                       Tracer &trace_sink)
    : inner(std::move(wrapped)), tracer(trace_sink)
{
}

bool
TimedStore::load(ArtifactKind kind, const ArtifactKey &key,
                 std::vector<uint8_t> &payload)
{
    ScopedSpan span(tracer, "store:load");
    const Clock::time_point start = Clock::now();
    const bool hit = inner->load(kind, key, payload);
    loadNs.fetch_add(nsSince(start), std::memory_order_relaxed);
    loads.fetch_add(1, std::memory_order_relaxed);
    return hit;
}

bool
TimedStore::publish(ArtifactKind kind, const ArtifactKey &key,
                    const std::vector<uint8_t> &payload)
{
    ScopedSpan span(tracer, "store:publish");
    const Clock::time_point start = Clock::now();
    const bool ok = inner->publish(kind, key, payload);
    publishNs.fetch_add(nsSince(start), std::memory_order_relaxed);
    publishes.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

TimedStore::Timing
TimedStore::timing() const
{
    Timing t;
    t.loads = loads.load();
    t.publishes = publishes.load();
    t.loadMs = loadNs.load() / 1e6;
    t.publishMs = publishNs.load() / 1e6;
    return t;
}

} // namespace perfbench
