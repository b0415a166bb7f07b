/**
 * @file
 * app_flow_cold and retarget_cold: seeded streams of salted sources
 * on one long-lived service, nproc jobs in flight.
 *
 * app_flow_cold: one job = characterize, then run --verify, then
 * synth (baselines, P&R) on one salted source.
 * retarget_cold: one job = one retarget request onto the minimal
 * 12-op target with equivalence on.
 */

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>

#include "replay.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;
using namespace rissp::flow;

namespace
{

struct Completed
{
    ColdOp op;
    double latencyMs = 0;
    FlowDigest flow;
    RetargetDigest retarget;
};

/** Shared state of one job in flight. */
struct Pending
{
    ColdOp op;
    Clock::time_point start;
    FlowJobRequests requests;
    CharacterizeResponse characterize;
    RunResponse run;
    SynthResponse synth;
    RetargetResponse retarget;
};

class ColdBench
{
  public:
    ColdBench(Context &context, bool retarget_jobs)
        : ctx(context), isRetarget(retarget_jobs),
          name(retarget_jobs ? "retarget_cold" : "app_flow_cold"),
          stream(context.config.seed)
    {
    }

    // In-flight callbacks hold `this`.
    ColdBench(const ColdBench &) = delete;
    ColdBench &operator=(const ColdBench &) = delete;

    Outcome run();

  private:
    void setUp(int round);
    void submit(const ColdOp &op);
    void settle(const std::shared_ptr<Pending> &job);
    /** Keep nproc jobs in flight for @p seconds, then drain. */
    Window measure(double seconds, std::vector<Completed> &done);
    /** Check every op; marks failed ops' latency as missed. */
    void check(Outcome &out, std::vector<Completed> &done);
    void attribute(Outcome &out, const std::vector<Completed> &traced,
                   LayerValues &values);

    SourceRef
    sourceOf(const ColdOp &op) const
    {
        return SourceRef::inlineText(op.source(), op.workloadName());
    }

    Context &ctx;
    const bool isRetarget;
    const std::string name;
    ColdStream stream;
    std::shared_ptr<TimedStore> store;
    std::unique_ptr<FlowService> service;

    std::mutex mu; // guards the members below
    std::condition_variable cv;
    unsigned inflight = 0;
    std::vector<Completed> completed;
    Clock::time_point lastDone;
    bool spanOps = false;
};

void
ColdBench::setUp(int round)
{
    service.reset();
    store = ctx.freshStore(name);
    ServiceOptions options;
    options.schedulerThreads = ctx.config.nproc;
    options.artifacts = store;
    service = std::make_unique<FlowService>(options);

    // One job through the whole path, so the scheduler's threads
    // and every lazily built table exist before the window opens.
    ColdOp warm;
    warm.pair = {0, minic::OptLevel::O2};
    warm.salt = laneSeed(ctx.config.seed, 100 + round);
    {
        std::lock_guard<std::mutex> lock(mu);
        ++inflight;
    }
    submit(warm);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inflight == 0; });
    const bool ok = isRetarget ? completed.back().retarget.status.empty()
                               : completed.back().flow.status.empty();
    if (!ok)
        throw std::runtime_error(name + ": the warm-up job failed");
    completed.clear();
}

void
ColdBench::submit(const ColdOp &op)
{
    auto job = std::make_shared<Pending>();
    job->op = op;
    job->start = Clock::now();
    const SourceRef source = sourceOf(op);
    if (isRetarget) {
        service->dispatchAsync(
            retargetJob(source, op.pair.opt), [this, job](Response r) {
                job->retarget =
                    std::move(std::get<RetargetResponse>(r));
                settle(job);
            });
        return;
    }
    // The verbs in a client's order, each sent when the previous one
    // has answered (a run or synth is what follows a characterize).
    job->requests = flowJob(source, op.pair.opt);
    service->dispatchAsync(job->requests.characterize, [this, job](
                                                           Response r) {
        job->characterize = std::move(std::get<CharacterizeResponse>(r));
        service->dispatchAsync(job->requests.run, [this, job](Response r) {
            job->run = std::move(std::get<RunResponse>(r));
            service->dispatchAsync(
                job->requests.synth, [this, job](Response r) {
                    job->synth = std::move(std::get<SynthResponse>(r));
                    settle(job);
                });
        });
    });
}

void
ColdBench::settle(const std::shared_ptr<Pending> &job)
{
    const Clock::time_point end = Clock::now();
    Completed c;
    c.op = job->op;
    c.latencyMs = msBetween(job->start, end);
    if (isRetarget)
        c.retarget = digestRetarget(job->retarget);
    else
        c.flow = digestFlow(job->characterize, job->run, job->synth);
    std::lock_guard<std::mutex> lock(mu);
    if (spanOps)
        ctx.tracer.add(isRetarget ? "op:retarget_cold"
                                  : "op:app_flow_cold",
                       c.op.index + 1, 0, job->start, end);
    completed.push_back(std::move(c));
    lastDone = end;
    --inflight;
    cv.notify_all();
}

Window
ColdBench::measure(double seconds, std::vector<Completed> &done)
{
    const double cpuStart = processCpuMs();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::unique_lock<std::mutex> lock(mu);
    spanOps = ctx.tracer.isEnabled();
    completed.clear();
    for (;;) {
        cv.wait_until(lock, deadline,
                      [&] { return inflight < ctx.config.nproc; });
        if (Clock::now() >= deadline)
            break;
        ++inflight;
        lock.unlock();
        submit(stream.next());
        lock.lock();
    }
    cv.wait(lock, [&] { return inflight == 0; });
    Window window;
    window.seconds = msBetween(start, lastDone) / 1e3;
    window.cpuMs = processCpuMs() - cpuStart;
    for (const Completed &c : completed)
        window.latencyMs.push_back(c.latencyMs);
    done = std::move(completed);
    completed.clear();
    return window;
}

void
ColdBench::check(Outcome &out, std::vector<Completed> &done)
{
    std::set<size_t> pairs;
    for (const Completed &c : done)
        pairs.insert(pairIndex(c.op.pair));
    const std::vector<size_t> wanted(pairs.begin(), pairs.end());
    std::map<size_t, FlowDigest> flowRefs;
    std::map<size_t, RetargetDigest> retargetRefs;
    if (isRetarget)
        retargetRefs = retargetReferences(wanted, ctx.config.nproc);
    else
        flowRefs = flowReferences(wanted, ctx.config.nproc);
    for (Completed &c : done) {
        const size_t pair = pairIndex(c.op.pair);
        const std::string diff = isRetarget
            ? diffRetarget(c.retarget, retargetRefs.at(pair))
            : diffFlow(c.flow, flowRefs.at(pair));
        if (diff.empty())
            continue;
        c.latencyMs = kMissed;
        out.fail(name + " op " + std::to_string(c.op.index) + " (" +
                 c.op.workloadName() + " " +
                 minic::optLevelName(c.op.pair.opt) + "): " + diff);
    }
}

/**
 * Re-run the first traced ops synchronously on a fresh service (its
 * own empty store, so compiles miss exactly as in the window), then
 * replay their stages layer by layer. An op's traced time is its
 * async latency in the window = exec wait + synchronous verb time;
 * the verb time = store + replayed layers + flow's own residual.
 */
void
ColdBench::attribute(Outcome &out, const std::vector<Completed> &traced,
                     LayerValues &values)
{
    std::vector<const Completed *> order;
    for (const Completed &c : traced)
        order.push_back(&c);
    std::sort(order.begin(), order.end(),
              [](const Completed *a, const Completed *b) {
                  return a->op.index < b->op.index;
              });

    ServiceOptions options;
    options.artifacts = ctx.freshStore(name + "-attribution");
    FlowService sync(options);
    const StageCaches &caches = *sync.caches();
    Tracer &tracer = ctx.tracer;

    std::set<uint64_t> sampled;
    double asyncMs = 0, syncMs = 0;
    ReplayCounts counts;
    const Clock::time_point budgetEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               ctx.attributionSeconds()));
    for (const Completed *c : order) {
        if (!sampled.empty() && Clock::now() >= budgetEnd)
            break;
        const uint64_t id = c->op.index + 1;
        const std::string text = c->op.source();
        const SourceRef source = sourceOf(c->op);
        const Clock::time_point start = Clock::now();
        std::string diff;
        if (isRetarget) {
            RetargetResponse response;
            {
                ScopedSpan span(tracer, "flow:retarget", id);
                response =
                    sync.retarget(retargetJob(source, c->op.pair.opt));
            }
            syncMs += msBetween(start, Clock::now());
            diff = diffRetarget(
                replayRetarget(tracer, id, text, c->op.pair.opt, counts),
                digestRetarget(response));
        } else {
            const FlowJobRequests job = flowJob(source, c->op.pair.opt);
            CharacterizeResponse cr;
            RunResponse rr;
            SynthResponse sr;
            {
                ScopedSpan span(tracer, "flow:characterize", id);
                cr = sync.characterize(job.characterize);
            }
            {
                ScopedSpan span(tracer, "flow:run", id);
                rr = sync.run(job.run);
            }
            const uint64_t beforeSynth = caches.synthReport.misses();
            {
                ScopedSpan span(tracer, "flow:synth", id);
                sr = sync.synth(job.synth);
            }
            syncMs += msBetween(start, Clock::now());
            // The RV32E baseline misses once per service, first.
            SynthMisses misses;
            const uint64_t missed =
                caches.synthReport.misses() - beforeSynth;
            misses.fullIsa = beforeSynth == 0 && missed > 0;
            misses.app = missed > (misses.fullIsa ? 1u : 0u);
            diff = diffFlow(replayFlowJob(tracer, id, text,
                                          c->op.pair.opt, misses, sr,
                                          counts),
                            digestFlow(cr, rr, sr));
        }
        if (!diff.empty())
            out.fail(name + " replay of op " +
                     std::to_string(c->op.index) + ": " + diff);
        asyncMs += c->latencyMs;
        sampled.insert(id);
    }

    std::vector<Span> spans;
    for (const Span &s : tracer.spans())
        if (sampled.count(s.op) && layerOf(s.name) != "op")
            spans.push_back(s);
    std::map<std::string, double> layers = selfTimeMsByLayer(spans);
    double replayed = 0;
    for (const auto &[layer, ms] : layers)
        if (layer != "flow" && layer != "store")
            replayed += ms;
    layers["flow"] -= replayed;
    layers["exec"] = asyncMs - syncMs;
    const uint64_t ops = sampled.size();
    setLayerTimes(values, layers, callsByLayer(spans), asyncMs, ops);
    values["flow.self_ms"] = layers["flow"] / ops;
    values["exec.wait_ms"] = layers["exec"] / ops;

    values["sim.instret"] = static_cast<double>(counts.simInstret) / ops;
    values["sim.instret_per_s"] = perSecond(
        counts.simInstret, totalMs(spans, "sim:Rissp::run"));
    const double verifyMs = isRetarget
        ? totalMs(spans, "verify:RefSim::run") +
            totalMs(spans, "verify:Rissp::run")
        : totalMs(spans, "verify:cosimulate");
    values["verify.instret"] =
        static_cast<double>(counts.verifyInstret) / ops;
    values["verify.instret_per_s"] =
        perSecond(counts.verifyInstret, verifyMs);
    values["retarget.candidates"] =
        static_cast<double>(counts.candidates) / ops;
    values["retarget.verified_ratio"] = counts.candidates
        ? static_cast<double>(counts.verifiedMacros) / counts.candidates
        : 0;
    out.notes.push_back("attribution sample: " + std::to_string(ops) +
                        " ops, replayed layer calls equal the service's"
                        " outputs unless listed below");
}

Outcome
ColdBench::run()
{
    Outcome out;
    int round = 0;
    const SetUps setups = ctx.setUpRepeatedly([&] { setUp(round++); });

    std::vector<Completed> done;
    if (!ctx.config.trace) {
        Window window = measure(ctx.config.seconds, done);
        const double rss = peakRssMb();
        service.reset();
        out.attempted = done.size();
        check(out, done);
        window.latencyMs.clear();
        for (const Completed &c : done)
            window.latencyMs.push_back(c.latencyMs);
        addEndToEnd(out, window, setups, rss);
        return out;
    }

    std::vector<Completed> untraced;
    const Window plain = measure(ctx.config.seconds / 2, untraced);
    const Counters before = readCounters(*service, store.get(), true);
    ctx.tracer.setEnabled(true);
    const Window traced = measure(ctx.config.seconds / 2, done);
    ctx.tracer.setEnabled(false);
    const Counters after = readCounters(*service, store.get(), true);

    LayerValues values;
    setCounterDeltas(values, before, after, done.size());
    values["trace.overhead_ratio"] =
        traced.throughput() / plain.throughput();
    ctx.tracer.setEnabled(true);
    attribute(out, done, values);
    ctx.tracer.setEnabled(false);
    addLayerMetrics(out, values);

    service.reset();
    done.insert(done.end(), untraced.begin(), untraced.end());
    out.attempted = done.size();
    check(out, done);
    return out;
}

} // namespace

Outcome
runAppFlowCold(Context &ctx)
{
    return ColdBench(ctx, false).run();
}

Outcome
runRetargetCold(Context &ctx)
{
    return ColdBench(ctx, true).run();
}

} // namespace perfbench
