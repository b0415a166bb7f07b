/**
 * @file
 * `risspgen serve` — the HTTP/JSON daemon over FlowService.
 *
 * The PR 5 engine made the pipeline a reentrant request/response
 * service; this layer puts a socket in front of it. Self-contained
 * HTTP/1.1 over plain POSIX sockets (no external dependencies),
 * served by a single-threaded connection reactor (net/reactor.hh):
 * every connection fd is nonblocking and readiness-driven, so parked
 * keep-alive sessions cost file descriptors, not threads. Only a
 * *complete* request is handed to the FlowService's work-stealing
 * scheduler — the same scheduler that runs batch and async requests,
 * so server traffic shares the promise-backed in-flight dedup of the
 * stage caches (a thousand clients asking for the same synth sweep
 * compile and sweep it once) — and the response is queued back to
 * the reactor through its wake pipe. `--threads` sizes *compute*,
 * decoupled from the connection count.
 *
 * Operational semantics, in order of importance:
 *
 *  - **Admission control.** Two independent bounds. Open connections
 *    are capped by `ServeOptions::maxConnections`: over it, the
 *    reactor sheds at accept with a structured 429 (`unavailable`)
 *    delivered through a lingering close, so a client that already
 *    sent its request reads the refusal instead of an RST.
 *    Dispatched-but-unfinished requests are capped by
 *    `ServeOptions::maxQueue`: over it, API requests get the same
 *    429 — while /metrics and /healthz keep answering inline, so a
 *    saturated server is still observable.
 *  - **Graceful drain.** `requestShutdown()` (wired to SIGTERM by
 *    the CLI, and to the POST /shutdown endpoint) is
 *    async-signal-safe: the listener closes (new connections are
 *    refused by the kernel), idle keep-alive connections close
 *    immediately, every in-flight request — including one whose
 *    body is still dribbling in — runs to completion and flushes,
 *    and `waitUntilStopped()` returns.
 *  - **Observability.** GET /metrics reports the reactor's
 *    connection-state gauges (open/reading/dispatched/writing/idle),
 *    dispatch depth, admission and timeout counters, the StageCaches
 *    hit/miss counters, scheduler depth and per-verb totals.
 *
 * Endpoints (see docs/SERVE.md):
 *
 *   POST /api/v1/{characterize,run,synth,retarget,explore}
 *                       body: net/rest.hh JSON schema; response:
 *                       flow::toJson(...) verbatim — byte-identical
 *                       to `risspgen <verb> --json`
 *   GET  /metrics       counters (JSON)
 *   GET  /healthz       liveness probe
 *   POST /shutdown      begin graceful drain
 */

#ifndef RISSP_NET_SERVER_HH
#define RISSP_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "flow/flow.hh"
#include "net/reactor.hh"
#include "net/rest.hh"
#include "util/http.hh"
#include "util/status.hh"

namespace rissp::net
{

struct ServeOptions
{
    /** Loopback by default: exposing the daemon beyond the host is
     *  a deployment decision, not a default. */
    std::string bindAddress = "127.0.0.1";
    uint16_t port = 0;    ///< 0 picks an ephemeral port
    /** Dispatched-but-unfinished request cap: over it, API requests
     *  shed with a structured 429 (inline endpoints still serve). */
    size_t maxQueue = 64;
    /** Open-connection cap: over it, accepts shed with a structured
     *  429 through a lingering close. */
    size_t maxConnections = 1024;
    size_t maxBodyBytes = 4u << 20; ///< request bodies over this: 413
    /** Idle keep-alive connections are reaped after this long
     *  (0 = never). Also bounds mid-request and mid-write stalls. */
    int idleTimeoutMs = 60'000;
    /** SO_SNDBUF for accepted sockets (0 = kernel default); bounds
     *  kernel memory under thousands of connections and makes the
     *  partial-write backpressure path deterministic in tests. */
    int sendBufferBytes = 0;
    /** Force the portable poll(2) readiness backend instead of
     *  epoll (the fallback non-Linux builds always use). */
    bool usePollBackend = false;
};

/** One consistent read of every server counter (plus the cache and
 *  scheduler counters of the FlowService behind it). */
struct MetricsSnapshot
{
    uint64_t accepted = 0;         ///< connections admitted
    uint64_t rejectedShedLoad = 0; ///< shed over maxConnections
    uint64_t rejectedQueueFull = 0; ///< API 429s over maxQueue
    uint64_t httpErrors = 0;       ///< non-2xx responses sent
    uint64_t idleReaped = 0;       ///< idle keep-alives timed out
    uint64_t timedOut = 0;         ///< mid-request stalls reaped
    uint64_t partialWrites = 0;    ///< responses that needed EPOLLOUT
    size_t activeConnections = 0;  ///< open connections (all states)
    size_t readingConnections = 0; ///< receiving head or body
    size_t dispatchDepth = 0;      ///< requests in flight on workers
    size_t writingConnections = 0;
    size_t idleConnections = 0;
    size_t lingeringConnections = 0;
    size_t queueCapacity = 0;      ///< maxQueue
    size_t connectionCapacity = 0; ///< maxConnections
    bool draining = false;
    std::string pollerBackend;     ///< "epoll" or "poll"

    uint64_t verbTotals[kVerbCount] = {}; ///< requests dispatched
    uint64_t verbErrors[kVerbCount] = {}; ///< ...with error status

    unsigned schedulerThreads = 0;
    size_t schedulerQueueDepth = 0;
    size_t schedulerInFlight = 0;
    uint64_t schedulerSubmitted = 0;
    uint64_t schedulerExecuted = 0;
    uint64_t schedulerSteals = 0;

    uint64_t compileHits = 0, compileMisses = 0;
    uint64_t simHits = 0, simMisses = 0;
    uint64_t synthHits = 0, synthMisses = 0;
    uint64_t synthReportHits = 0, synthReportMisses = 0;
    uint64_t macroVerdictHits = 0, macroVerdictMisses = 0;

    /** Persistent artifact-store counters; all zero (and
     *  `storeAttached` false) when the service runs memory-only. */
    bool storeAttached = false;
    uint64_t storeHits = 0, storeMisses = 0;
    uint64_t storeWrites = 0, storeWriteErrors = 0;
    uint64_t storeEvictions = 0, storeQuarantined = 0;
    uint64_t storeBytesRead = 0, storeBytesWritten = 0;
};

/** Render a snapshot as the GET /metrics JSON document. */
std::string toJson(const MetricsSnapshot &snapshot);

/** The daemon. One instance fronts one FlowService. */
class HttpServer
{
  public:
    /** @p service must outlive the server. The service's scheduler
     *  runs the request pipelines, so its thread count is the
     *  *compute* parallelism — connection count is bounded only by
     *  `maxConnections`. */
    explicit HttpServer(const flow::FlowService &service,
                        ServeOptions options = {});

    /** Drains (requestShutdown + waitUntilStopped) if running. */
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind, listen, start the reactor thread. Fails as a value on
     *  an unusable address or an occupied port. */
    Status start();

    /** The bound port (the ephemeral one when options.port was 0).
     *  Valid after start(). */
    uint16_t port() const { return boundPort; }

    /** Begin graceful drain. Async-signal-safe (one atomic store and
     *  one write(2) on the reactor's pre-opened wake pipe) so the
     *  CLI can call it from a SIGTERM handler; also idempotent. */
    void requestShutdown();

    /** Block until the drain completes: listener closed, every
     *  connection finished and flushed, every in-flight dispatch
     *  handed back. */
    void waitUntilStopped();

    bool draining() const
    {
        return drainFlag.load(std::memory_order_acquire);
    }

    MetricsSnapshot metrics() const;

  private:
    /** Route one complete request (reactor thread; must not
     *  block — API verbs are dispatched to the scheduler). */
    Reactor::RequestAction onRequest(Reactor::ConnToken token,
                                     const http::RequestHead &head,
                                     std::string body);
    /** Submit the verb pipeline; the completion hands the response
     *  bytes back to the reactor from a scheduler worker. */
    void dispatchRequest(Reactor::ConnToken token, Verb verb,
                         std::string body, bool keep_alive);
    std::string errorResponse(int http_status, Status status,
                              bool keep_alive);
    void noteResponse(int http_status);

    const flow::FlowService &service;
    ServeOptions options;

    std::unique_ptr<Reactor> reactor;
    std::thread reactorThread;
    uint16_t boundPort = 0;
    bool started = false;

    std::atomic<bool> drainFlag{false};
    /** Dispatches whose completion callback has not yet returned;
     *  waitUntilStopped() waits for zero so the reactor is never
     *  destroyed under a worker still handing a response back. */
    std::atomic<size_t> inflightDispatches{0};

    std::atomic<uint64_t> rejectedQueueFull{0};
    std::atomic<uint64_t> httpErrors{0};
    std::atomic<uint64_t> verbTotals[kVerbCount] = {};
    std::atomic<uint64_t> verbErrors[kVerbCount] = {};
};

} // namespace rissp::net

#endif // RISSP_NET_SERVER_HH
