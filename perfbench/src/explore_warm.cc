/**
 * @file
 * explore_warm: seeded design-space sweeps, each on a freshly built
 * FlowService over an artifact store populated during set-up — a
 * process restart followed by a sweep.
 *
 * nproc clients, like the other workloads' nproc jobs or
 * connections, each run one op at a time with the sweep on the
 * client's own thread (one explorer thread). A warm 32-point sweep
 * takes a few milliseconds; fanned out over nproc explorer threads
 * its time is set by thread wake-ups, which on a shared host ran it
 * half as fast as on one thread and tripled its p90. The populating
 * sweep in set-up (cold, with co-simulation) uses nproc explorer
 * threads.
 */

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "flow/json.hh"
#include "store/disk_store.hh"
#include "stream.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace rissp;
using namespace rissp::flow;

namespace
{

class ExploreBench
{
  public:
    explicit ExploreBench(Context &context)
        : ctx(context),
          pool(sweepPool(context.config.seed)),
          opsPerPlan(pool.size()), observed(pool.size())
    {
    }

    Outcome run();

  private:
    void setUp();

    struct Restarted
    {
        std::shared_ptr<store::DiskStore> disk;
        std::shared_ptr<TimedStore> timed;
        std::unique_ptr<FlowService> service;
    };
    /** What a process restart does: open the store, build a service. */
    Restarted restart() const;

    ExploreRequest
    request(size_t plan) const
    {
        ExploreRequest r;
        r.plan = pool[plan];
        r.options.threads = 1;
        return r;
    }

    /** What one client did in a window. */
    struct ClientLog
    {
        std::vector<double> latencyMs;
        std::vector<size_t> plans;
        std::vector<std::string> failures;
        std::string error; ///< why the client stopped early, if it did
        Counters totals;
        uint64_t points = 0, memoHits = 0, memoLookups = 0;
        double busySeconds = 0;
        double cpuMs = 0;
    };

    /**
     * nproc clients, each running ops until its own op time adds up
     * to @p seconds. Each response is checked (outside its timed
     * interval) against the first one of its plan. The window's time
     * is the clients' mean op time, its CPU time the sum of the ops'.
     */
    Window measure(double seconds, Outcome &out);
    void client(double seconds, uint64_t seed, ClientLog &log);
    void attribute(Outcome &out, LayerValues &values);

    Context &ctx;
    std::string storeDir;
    const std::vector<explore::ExplorationPlan> pool;
    std::vector<size_t> windowPlans; ///< plan of each window op
    std::vector<uint64_t> opsPerPlan;
    std::atomic<uint64_t> opCount{0};
    uint64_t lane = 20; ///< next client stream

    std::mutex mu; // guards observed
    std::vector<std::string> observed; ///< first response JSON per plan

    // Summed over every client of the window.
    Counters totals;
    uint64_t points = 0, memoHits = 0, memoLookups = 0;
};

void
ExploreBench::setUp()
{
    storeDir = ctx.freshDir("explore");
    Result<std::shared_ptr<store::DiskStore>> disk =
        store::DiskStore::open(storeDir);
    if (!disk)
        throw std::runtime_error("explore_warm: " +
                                 disk.status().toString());
    ServiceOptions options;
    options.artifacts = disk.take();
    const FlowService service(options);
    ExploreRequest full;
    full.plan = fullSweepPlan();
    full.options.threads = ctx.config.nproc;
    const ExploreResponse response = service.explore(full);
    if (!response.status.isOk())
        throw std::runtime_error("explore_warm: populating sweep: " +
                                 response.status.toString());
}

ExploreBench::Restarted
ExploreBench::restart() const
{
    Restarted r;
    Result<std::shared_ptr<store::DiskStore>> disk =
        store::DiskStore::open(storeDir);
    if (!disk)
        throw std::runtime_error("explore_warm: " +
                                 disk.status().toString());
    r.disk = disk.take();
    r.timed = std::make_shared<TimedStore>(r.disk, ctx.tracer);
    ServiceOptions options;
    options.artifacts = r.timed;
    r.service = std::make_unique<FlowService>(options);
    return r;
}

/** Add the counters of @p c to @p totals. */
void
add(Counters &totals, const Counters &c)
{
    totals.compileHits += c.compileHits;
    totals.compileMisses += c.compileMisses;
    totals.simHits += c.simHits;
    totals.simMisses += c.simMisses;
    totals.synthHits += c.synthHits;
    totals.synthMisses += c.synthMisses;
    totals.timing.loads += c.timing.loads;
    totals.timing.publishes += c.timing.publishes;
    totals.timing.loadMs += c.timing.loadMs;
    totals.timing.publishMs += c.timing.publishMs;
    totals.store.hits += c.store.hits;
    totals.store.misses += c.store.misses;
    totals.store.bytesRead += c.store.bytesRead;
    totals.store.bytesWritten += c.store.bytesWritten;
    totals.store.writeErrors += c.store.writeErrors;
}

void
ExploreBench::client(double seconds, uint64_t seed, ClientLog &log)
{
    Rounds rounds(pool.size(), seed);
    while (log.busySeconds < seconds) {
        const size_t plan = rounds.next();
        const uint64_t id = ++opCount;
        const ExploreRequest req = request(plan);
        ExploreResponse response;
        Restarted r;
        const double cpu = threadCpuMs();
        const Clock::time_point start = Clock::now();
        {
            ScopedSpan op(ctx.tracer, "op:explore_warm", id);
            r = restart();
            response = r.service->explore(req);
        }
        const double ms = msBetween(start, Clock::now());
        log.cpuMs += threadCpuMs() - cpu;
        log.busySeconds += ms / 1e3;

        add(log.totals, readCounters(*r.service, r.timed.get(), false));
        const explore::ExplorerStats &s = response.stats;
        log.points += s.points;
        log.memoHits += s.compileHits + s.simHits + s.synthHits;
        log.memoLookups += s.compileHits + s.compileMisses + s.simHits +
            s.simMisses + s.synthHits + s.synthMisses;
        const std::string json = toJson(response);
        bool ok = response.status.isOk();
        {
            std::lock_guard<std::mutex> lock(mu);
            if (observed[plan].empty())
                observed[plan] = json;
            ok = ok && json == observed[plan];
        }
        log.latencyMs.push_back(ok ? ms : kMissed);
        log.plans.push_back(plan);
        if (!ok)
            log.failures.push_back(
                "explore_warm op " + std::to_string(id) +
                ": response differs from the plan's first one");
    }
}

Window
ExploreBench::measure(double seconds, Outcome &out)
{
    const unsigned clients = ctx.config.nproc;
    std::vector<ClientLog> logs(clients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c, seed = laneSeed(ctx.config.seed,
                                                    lane + c)] {
            try {
                client(seconds, seed, logs[c]);
            } catch (const std::exception &e) {
                logs[c].error = e.what();
            }
        });
    for (std::thread &t : threads)
        t.join();
    lane += clients;
    for (const ClientLog &log : logs)
        if (!log.error.empty())
            throw std::runtime_error(log.error);

    Window window;
    totals = Counters();
    points = memoHits = memoLookups = 0;
    windowPlans.clear();
    for (const ClientLog &log : logs) {
        window.seconds += log.busySeconds / clients;
        window.cpuMs += log.cpuMs;
        window.latencyMs.insert(window.latencyMs.end(),
                                log.latencyMs.begin(),
                                log.latencyMs.end());
        windowPlans.insert(windowPlans.end(), log.plans.begin(),
                           log.plans.end());
        for (size_t plan : log.plans)
            ++opsPerPlan[plan];
        for (const std::string &why : log.failures)
            out.fail(why);
        add(totals, log.totals);
        points += log.points;
        memoHits += log.memoHits;
        memoLookups += log.memoLookups;
    }
    return window;
}

/**
 * Per sweep of the pool: a restart + sweep through the service, then
 * the same plan straight on an Explorer over the same store. Store
 * spans on explorer threads attach to the enclosing call through the
 * tracer's ambient parent. Op time = restart + service sweep; the
 * replayed sweep splits into explore (its self time) and store (the
 * wall time its store calls cover); flow is the rest.
 */
void
ExploreBench::attribute(Outcome &out, LayerValues &values)
{
    Tracer &tracer = ctx.tracer;
    std::set<uint64_t> replayIds;
    double restartMs = 0, verbMs = 0, replayMs = 0;
    uint64_t sampled = 0;
    const Clock::time_point budgetEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               ctx.attributionSeconds()));
    for (size_t plan = 0; plan < pool.size(); ++plan) {
        if (sampled && Clock::now() >= budgetEnd)
            break;
        const uint64_t id = ++opCount;
        const ExploreRequest req = request(plan);
        const Clock::time_point t0 = Clock::now();
        Restarted r;
        {
            ScopedSpan span(tracer, "flow:restart", id);
            r = restart();
        }
        const Clock::time_point t1 = Clock::now();
        ExploreResponse response;
        {
            ScopedSpan span(tracer, "flow:explore", id);
            tracer.setAmbient(span.id(), id);
            response = r.service->explore(req);
        }
        const Clock::time_point t2 = Clock::now();
        const Restarted fresh = restart();
        auto caches = std::make_shared<StageCaches>();
        caches->artifacts = fresh.timed;
        explore::ResultTable table;
        const Clock::time_point t3 = Clock::now();
        {
            ScopedSpan span(tracer, "explore:Explorer::explore", id);
            replayIds.insert(span.id());
            tracer.setAmbient(span.id(), id);
            explore::Explorer engine(req.options, caches);
            table = engine.explore(*req.plan);
        }
        const Clock::time_point t4 = Clock::now();
        tracer.setAmbient(0, 0);
        restartMs += msBetween(t0, t1);
        verbMs += msBetween(t1, t2);
        replayMs += msBetween(t3, t4);
        if (table.json() != response.table.json())
            out.fail("explore_warm replay of plan " +
                     std::to_string(plan) +
                     ": Explorer table differs from the service's");
        ++sampled;
    }

    std::vector<Span> replay;
    for (const Span &s : tracer.spans())
        if (replayIds.count(s.id) || replayIds.count(s.parent))
            replay.push_back(s);
    std::map<std::string, double> layers = selfTimeMsByLayer(replay);
    layers["store"] = replayMs - layers["explore"];
    layers["flow"] = restartMs + verbMs - replayMs;
    setLayerTimes(values, layers, callsByLayer(replay),
                  restartMs + verbMs, sampled);
    values["flow.self_ms"] = layers["flow"] / sampled;
    out.notes.push_back("attribution sample: " +
                        std::to_string(sampled) + " sweeps; restart " +
                        std::to_string(restartMs / sampled) +
                        " ms/op of flow.self_ms");
}

Outcome
ExploreBench::run()
{
    Outcome out;
    const SetUps setups = ctx.setUpRepeatedly([this] { setUp(); });

    Window window;
    if (!ctx.config.trace) {
        window = measure(ctx.config.seconds, out);
        out.attempted = window.latencyMs.size();
    } else {
        const Window plain = measure(ctx.config.seconds / 2, out);
        ctx.tracer.setEnabled(true);
        window = measure(ctx.config.seconds / 2, out);
        ctx.tracer.setEnabled(false);
        out.attempted = plain.latencyMs.size() + window.latencyMs.size();
        const uint64_t ops = window.latencyMs.size();
        LayerValues values;
        setCounterDeltas(values, Counters(), totals, ops);
        values["trace.overhead_ratio"] =
            window.throughput() / plain.throughput();
        values["explore.points"] = static_cast<double>(points) / ops;
        values["explore.points_per_s"] =
            perSecond(static_cast<double>(points), window.seconds * 1e3);
        values["explore.memo_hit_ratio"] =
            memoLookups ? static_cast<double>(memoHits) / memoLookups
                        : 0;
        ctx.tracer.setEnabled(true);
        attribute(out, values);
        ctx.tracer.setEnabled(false);
        addLayerMetrics(out, values);
    }
    const double rss = peakRssMb();

    // Every plan's first response against a store-less reference;
    // a mismatch fails every op of that plan.
    const FlowService reference(nullptr, ctx.config.nproc);
    for (size_t plan = 0; plan < pool.size(); ++plan) {
        if (observed[plan].empty() ||
            toJson(reference.explore(request(plan))) == observed[plan])
            continue;
        for (uint64_t i = 0; i < opsPerPlan[plan]; ++i)
            out.fail("explore_warm plan " + std::to_string(plan) +
                     ": warm sweep differs from the reference sweep");
        for (size_t i = 0; i < windowPlans.size(); ++i)
            if (windowPlans[i] == plan)
                window.latencyMs[i] = kMissed;
    }
    if (!ctx.config.trace)
        addEndToEnd(out, window, setups, rss);
    return out;
}

} // namespace

Outcome
runExploreWarm(Context &ctx)
{
    return ExploreBench(ctx).run();
}

} // namespace perfbench
