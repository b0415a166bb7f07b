/**
 * @file
 * serve_hot: a closed loop of nproc keep-alive HTTP clients against
 * an in-process `risspgen serve` (net::HttpServer over a FlowService
 * with nproc scheduler threads). Each client cycles through seeded
 * rounds of every characterize/run/synth request on the bundled
 * workloads, all served once during set-up, so compiles and
 * synthesis sweeps are cache hits. `run` is not memoized by the
 * service, so its simulation runs on every request.
 */

#include <future>
#include <thread>

#include "flow/json.hh"
#include "net/rest.hh"
#include "net/server.hh"
#include "replay.hh"
#include "tests/http_client.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;
using namespace rissp::flow;

namespace
{

/** Op ids of the attribution sample start here, above the window's. */
constexpr uint64_t kAttributionOps = 1ull << 40;

Request
parse(const ServeRequest &r)
{
    Result<net::Verb> verb = net::verbFromName(r.verb);
    Result<Request> request = net::requestFromBody(verb.take(), r.body);
    if (!request)
        throw std::runtime_error("serve_hot: bad request body: " +
                                 request.status().toString());
    return request.take();
}

class ServeBench
{
  public:
    explicit ServeBench(Context &context) : ctx(context) {}

    ~ServeBench() { stop(); }

    ServeBench(const ServeBench &) = delete;
    ServeBench &operator=(const ServeBench &) = delete;

    Outcome run();

  private:
    void setUp();
    void stop();
    /** nproc closed-loop clients for @p seconds. */
    Window measure(double seconds, Outcome &out);
    void attribute(Outcome &out, LayerValues &values);

    Context &ctx;
    std::unique_ptr<FlowService> service;
    std::unique_ptr<net::HttpServer> server;
    std::vector<std::string> expected; ///< reference body per request
    uint64_t lane = 10;                ///< next client stream
};

void
ServeBench::stop()
{
    if (server) {
        server->requestShutdown();
        server->waitUntilStopped();
    }
    server.reset();
    service.reset();
}

void
ServeBench::setUp()
{
    stop();
    service = std::make_unique<FlowService>(nullptr, ctx.config.nproc);
    server = std::make_unique<net::HttpServer>(*service);
    const Status started = server->start();
    if (!started)
        throw std::runtime_error("serve_hot: " + started.toString());
    testutil::HttpClient client;
    if (!client.connect(server->port()))
        throw std::runtime_error("serve_hot: cannot connect");
    for (const ServeRequest &r : servePool()) {
        const auto response =
            client.request("POST", r.target(), r.body, true);
        if (!response || response->status != 200)
            throw std::runtime_error("serve_hot: warm-up of " +
                                     r.target() + " failed");
    }
}

Window
ServeBench::measure(double seconds, Outcome &out)
{
    const unsigned clients = ctx.config.nproc;
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::vector<std::string>> failures(clients);
    std::vector<double> clientCpuMs(clients);
    std::atomic<uint64_t> nextOp{1};
    const uint16_t port = server->port();
    const double cpuStart = processCpuMs();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c, seed = laneSeed(ctx.config.seed,
                                                    lane + c)] {
            const double cpu = threadCpuMs();
            Rounds rounds(servePool().size(), seed);
            testutil::HttpClient client;
            // Reserved up front so that vector doubling does not
            // show up in the peak RSS; untouched pages cost nothing.
            latencies[c].reserve(static_cast<size_t>(seconds * 20000));
            while (Clock::now() < deadline) {
                const size_t i = rounds.next();
                const ServeRequest &r = servePool()[i];
                if (!client.connected() && !client.connect(port)) {
                    latencies[c].push_back(kMissed);
                    failures[c].push_back("cannot connect");
                    continue;
                }
                const Clock::time_point t0 = Clock::now();
                const auto response =
                    client.request("POST", r.target(), r.body, true);
                const Clock::time_point t1 = Clock::now();
                ctx.tracer.add("net:roundtrip", nextOp++, 0, t0, t1);
                if (response && response->status == 200 &&
                    response->body == expected[i]) {
                    latencies[c].push_back(msBetween(t0, t1));
                    continue;
                }
                latencies[c].push_back(kMissed);
                failures[c].push_back(
                    r.target() + " " + allWorkloads()[r.workload].name +
                    (response ? ": body differs from the reference"
                              : ": no response"));
                client.disconnect();
            }
            clientCpuMs[c] = threadCpuMs() - cpu;
        });
    for (std::thread &t : threads)
        t.join();
    lane += clients;

    // The server's CPU time: the clients are the benchmark's own.
    Window window;
    window.seconds = msBetween(start, Clock::now()) / 1e3;
    window.cpuMs = processCpuMs() - cpuStart;
    for (unsigned c = 0; c < clients; ++c) {
        window.cpuMs -= clientCpuMs[c];
        window.latencyMs.insert(window.latencyMs.end(),
                                latencies[c].begin(),
                                latencies[c].end());
        for (const std::string &why : failures[c])
            out.fail("serve_hot " + why);
    }
    return window;
}

/**
 * Per sampled request, on one keep-alive connection: the HTTP round
 * trip, the same request through FlowService::dispatchAsync in
 * process, then through the synchronous dispatch, then a replay of
 * the stages a hot request still runs. Round trip = net (reactor,
 * HTTP and JSON codec) + exec (scheduler handoff) + flow (cache
 * lookups, response assembly) + the replayed layers.
 */
void
ServeBench::attribute(Outcome &out, LayerValues &values)
{
    std::vector<Program> programs;
    for (const Workload &wl : allWorkloads())
        programs.push_back(
            minic::compile(wl.source, minic::OptLevel::O2).program);

    Tracer &tracer = ctx.tracer;
    testutil::HttpClient client;
    if (!client.connect(server->port()))
        throw std::runtime_error("serve_hot: cannot connect");
    Rounds rounds(servePool().size(), laneSeed(ctx.config.seed, 5));
    ReplayCounts counts;
    double roundtripMs = 0, asyncMs = 0, syncMs = 0, codecMs = 0;
    uint64_t ops = 0;
    const Clock::time_point budgetEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               ctx.attributionSeconds()));
    while (ops < servePool().size() || Clock::now() < budgetEnd) {
        if (ops >= 4 * servePool().size())
            break;
        const size_t i = rounds.next();
        const ServeRequest &r = servePool()[i];
        const uint64_t id = kAttributionOps + ops;

        const Clock::time_point t0 = Clock::now();
        const auto response =
            client.request("POST", r.target(), r.body, true);
        const Clock::time_point t1 = Clock::now();
        tracer.add("net:roundtrip", id, 0, t0, t1);

        Request request;
        {
            ScopedSpan span(tracer, "net:rest::requestFromBody", id);
            request = parse(r);
        }
        {
            ScopedSpan span(tracer, "exec:FlowService::dispatchAsync", id);
            std::promise<Response> done;
            service->dispatchAsync(request, [&done](Response result) {
                done.set_value(std::move(result));
            });
            done.get_future().get();
        }
        const Clock::time_point t2 = Clock::now();
        Response served;
        {
            ScopedSpan span(tracer, "flow:FlowService::dispatch", id);
            served = service->dispatch(request);
        }
        const Clock::time_point t3 = Clock::now();
        std::string json;
        {
            ScopedSpan span(tracer, "net:flow::toJson", id);
            json = toJson(served);
        }
        const Clock::time_point t4 = Clock::now();
        roundtripMs += msBetween(t0, t1);
        asyncMs += msBetween(t1, t2);
        syncMs += msBetween(t2, t3);
        codecMs += msBetween(t3, t4);
        if (!response || response->body != json || json != expected[i])
            out.fail("serve_hot attribution: " + r.target() +
                     " body differs from the in-process response");
        const std::string diff = replayHot(
            tracer, id, request, programs[r.workload], served, counts);
        if (!diff.empty())
            out.fail("serve_hot " + r.target() + " " + diff);
        ++ops;
    }

    std::vector<Span> replay;
    for (const Span &s : tracer.spans()) {
        const std::string layer = layerOf(s.name);
        if (s.op >= kAttributionOps && layer != "net" && layer != "exec" &&
            layer != "flow")
            replay.push_back(s);
    }
    std::map<std::string, double> layers = selfTimeMsByLayer(replay);
    double replayed = 0;
    for (const auto &[layer, ms] : layers)
        replayed += ms;
    // The parse span is outside the round trip: it measures the
    // codec the server ran inside it, which net.self_ms includes.
    layers["net"] = roundtripMs - asyncMs;
    layers["exec"] = asyncMs - syncMs;
    layers["flow"] = syncMs - replayed;
    setLayerTimes(values, layers, callsByLayer(replay), roundtripMs, ops);
    values["net.self_ms"] = layers["net"] / ops;
    values["exec.wait_ms"] = layers["exec"] / ops;
    values["flow.self_ms"] = layers["flow"] / ops;
    values["sim.instret"] = static_cast<double>(counts.simInstret) / ops;
    values["sim.instret_per_s"] = perSecond(
        counts.simInstret, totalMs(replay, "sim:Rissp::run"));
    out.notes.push_back("attribution sample: " + std::to_string(ops) +
                        " requests; flow::toJson " +
                        std::to_string(codecMs / ops) +
                        " ms/op of net.self_ms");
}

Outcome
ServeBench::run()
{
    Outcome out;
    const SetUps setups = ctx.setUpRepeatedly([this] { setUp(); });

    // The reference bodies, from a separate fresh service.
    {
        const FlowService reference(nullptr, 1);
        for (const ServeRequest &r : servePool())
            expected.push_back(toJson(reference.dispatch(parse(r))));
    }

    if (!ctx.config.trace) {
        const Window window = measure(ctx.config.seconds, out);
        out.attempted = window.latencyMs.size();
        addEndToEnd(out, window, setups, peakRssMb());
        return out;
    }

    const Window plain = measure(ctx.config.seconds / 2, out);
    const net::MetricsSnapshot before = server->metrics();
    const Counters cachesBefore = readCounters(*service, nullptr, false);
    ctx.tracer.setEnabled(true);
    const Window traced = measure(ctx.config.seconds / 2, out);
    ctx.tracer.setEnabled(false);
    const net::MetricsSnapshot after = server->metrics();
    const uint64_t ops = traced.latencyMs.size();
    out.attempted = plain.latencyMs.size() + ops;

    LayerValues values;
    Counters cachesAfter = readCounters(*service, nullptr, false);
    cachesAfter.submitted =
        after.schedulerSubmitted - before.schedulerSubmitted;
    setCounterDeltas(values, cachesBefore, cachesAfter, ops);
    values["trace.overhead_ratio"] =
        traced.throughput() / plain.throughput();
    values["net.roundtrip_p50_ms"] =
        percentile(traced.latencyMs, 0.5).value;
    values["net.accepted"] = static_cast<double>(after.accepted);
    values["net.rejected"] = static_cast<double>(
        after.rejectedShedLoad + after.rejectedQueueFull);

    ctx.tracer.setEnabled(true);
    attribute(out, values);
    ctx.tracer.setEnabled(false);
    addLayerMetrics(out, values);
    return out;
}

} // namespace

Outcome
runServeHot(Context &ctx)
{
    return ServeBench(ctx).run();
}

} // namespace perfbench
