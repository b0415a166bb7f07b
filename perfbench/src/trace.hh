/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into
 * each layer. Nothing inside the program under test is instrumented:
 * a span covers one call from the benchmark (or from the store
 * decorator the benchmark hands the service) into a layer's public
 * function. Spans stay in memory and are written once, at exit, as
 * Chrome trace-event JSON.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** One recorded interval. `name` is "<layer>:<call>"; the layer is
 *  what the per-layer metrics aggregate over. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t op = 0;     ///< the op the span belongs to (1-based)
    const char *name = ""; ///< a string literal
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t thread = 0;

    double ms() const { return (endNs - startNs) / 1e6; }
};

/** The layer of a span name: the text before the first ':'. */
std::string layerOf(const char *name);

/**
 * Span sink. Disabled tracers record nothing and cost one relaxed
 * load per span. A span's parent is the innermost open span on the
 * same thread or, on a thread the benchmark does not own (a service
 * or explorer worker), the tracer's ambient parent — set by the
 * benchmark while exactly one op is in flight.
 */
class Tracer
{
  public:
    Tracer();

    void setEnabled(bool on) { enabled.store(on); }
    bool isEnabled() const
    {
        return enabled.load(std::memory_order_relaxed);
    }

    /** Parent and op for spans opened on foreign threads (0 = none). */
    void setAmbient(uint64_t parent, uint64_t op);

    /** A fresh span id; ids start at 1. */
    uint64_t newId() { return nextId.fetch_add(1); }

    void record(const Span &span);

    /** Record a completed interval measured by the caller. */
    uint64_t add(const char *name, uint64_t op, uint64_t parent,
                 Clock::time_point start, Clock::time_point end);

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

    int64_t toNs(Clock::time_point t) const;

  private:
    friend class ScopedSpan;

    std::atomic<bool> enabled{false};
    std::atomic<uint64_t> nextId{1};
    std::atomic<uint64_t> ambientParent{0};
    std::atomic<uint64_t> ambientOp{0};
    const Clock::time_point origin;

    mutable std::mutex mu; // guards recorded
    std::vector<Span> recorded;
};

/** RAII span around one call; nests through a thread-local stack. */
class ScopedSpan
{
  public:
    /** @p op 0 inherits the enclosing span's op (or the ambient op). */
    ScopedSpan(Tracer &tracer, const char *name, uint64_t op = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span.id; }

  private:
    Tracer &tracer;
    Span span;
    bool active;
    uint64_t savedId = 0;
    uint64_t savedOp = 0;
};

/**
 * Self time per span name: a span's duration minus the part of its
 * interval that its children cover (the union, so concurrent
 * children on several threads are not double-counted).
 */
std::map<std::string, double>
selfTimeMsByName(const std::vector<Span> &spans);

/** Total duration (ms) of the spans called @p name. */
double totalMs(const std::vector<Span> &spans, const char *name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
