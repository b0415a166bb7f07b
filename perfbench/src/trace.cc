#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench
{

namespace
{

thread_local uint64_t currentSpan = 0;
thread_local uint64_t currentOp = 0;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::string
layerOf(const char *name)
{
    const std::string text(name);
    return text.substr(0, text.find(':'));
}

Tracer::Tracer() : origin(Clock::now()) {}

void
Tracer::setAmbient(uint64_t parent, uint64_t op)
{
    ambientParent.store(parent);
    ambientOp.store(op);
}

int64_t
Tracer::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - origin)
        .count();
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu);
    recorded.push_back(span);
}

uint64_t
Tracer::add(const char *name, uint64_t op, uint64_t parent,
            Clock::time_point start, Clock::time_point end)
{
    if (!isEnabled())
        return 0;
    Span span;
    span.id = newId();
    span.parent = parent;
    span.op = op;
    span.name = name;
    span.startNs = toNs(start);
    span.endNs = toNs(end);
    span.thread = threadNumber();
    record(span);
    return span.id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char line[512];
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(
            line, sizeof line,
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %llu, \"parent\": %llu, "
            "\"op\": %llu}}%s\n",
            s.name, layerOf(s.name).c_str(), s.thread,
            s.startNs / 1e3, (s.endNs - s.startNs) / 1e3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.op),
            i + 1 < all.size() ? "," : "");
        out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer &owner, const char *name, uint64_t op)
    : tracer(owner), active(owner.isEnabled())
{
    if (!active)
        return;
    span.id = tracer.newId();
    span.name = name;
    if (currentSpan != 0) {
        span.parent = currentSpan;
        span.op = op != 0 ? op : currentOp;
    } else {
        span.parent = tracer.ambientParent.load();
        span.op = op != 0 ? op : tracer.ambientOp.load();
    }
    span.thread = threadNumber();
    savedId = currentSpan;
    savedOp = currentOp;
    currentSpan = span.id;
    currentOp = span.op;
    span.startNs = tracer.toNs(Clock::now());
}

ScopedSpan::~ScopedSpan()
{
    if (!active)
        return;
    span.endNs = tracer.toNs(Clock::now());
    currentSpan = savedId;
    currentOp = savedOp;
    tracer.record(span);
}

std::map<std::string, double>
selfTimeMsByName(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<int64_t, int64_t>> parts;
            for (const Span *c : it->second) {
                const int64_t lo = std::max(c->startNs, s.startNs);
                const int64_t hi = std::min(c->endNs, s.endNs);
                if (hi > lo)
                    parts.emplace_back(lo, hi);
            }
            std::sort(parts.begin(), parts.end());
            int64_t lo = 0, hi = -1;
            for (const auto &[a, b] : parts) {
                if (a > hi) {
                    covered += hi > lo ? hi - lo : 0;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += hi > lo ? hi - lo : 0;
        }
        self[s.name] += (s.endNs - s.startNs - covered) / 1e6;
    }
    return self;
}

double
totalMs(const std::vector<Span> &spans, const char *name)
{
    double ms = 0;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0)
            ms += s.ms();
    return ms;
}

} // namespace perfbench
