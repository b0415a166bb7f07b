#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <sys/resource.h>

namespace perfbench
{

namespace
{

/** Every per-layer metric and its unit. BENCHMARK.json lists the
 *  same names; a traced run prints all of them. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"compiler.calls", "count/op"},
    {"compiler.ms_per_op", "ms/op"},
    {"compiler.share", "ratio"},
    {"assembler.calls", "count/op"},
    {"assembler.ms_per_op", "ms/op"},
    {"assembler.share", "ratio"},
    {"sim.instret", "count/op"},
    {"sim.instret_per_s", "1/s"},
    {"sim.share", "ratio"},
    {"verify.instret", "count/op"},
    {"verify.instret_per_s", "1/s"},
    {"verify.share", "ratio"},
    {"synth.calls", "count/op"},
    {"synth.ms_per_op", "ms/op"},
    {"synth.share", "ratio"},
    {"physimpl.calls", "count/op"},
    {"physimpl.ms_per_op", "ms/op"},
    {"physimpl.share", "ratio"},
    {"retarget.calls", "count/op"},
    {"retarget.ms_per_op", "ms/op"},
    {"retarget.share", "ratio"},
    {"retarget.candidates", "count/op"},
    {"retarget.verified_ratio", "ratio"},
    {"flow.self_ms", "ms/op"},
    {"flow.share", "ratio"},
    {"flow.compile_hit_ratio", "ratio"},
    {"flow.sim_hit_ratio", "ratio"},
    {"flow.synth_hit_ratio", "ratio"},
    {"exec.wait_ms", "ms/op"},
    {"exec.share", "ratio"},
    {"exec.tasks_per_op", "count/op"},
    {"store.loads", "count/op"},
    {"store.hit_ratio", "ratio"},
    {"store.load_ms", "ms/op"},
    {"store.publishes", "count/op"},
    {"store.publish_ms", "ms/op"},
    {"store.bytes_read", "B/op"},
    {"store.bytes_written", "B/op"},
    {"store.write_errors", "count"},
    {"store.share", "ratio"},
    {"net.roundtrip_p50_ms", "ms"},
    {"net.self_ms", "ms/op"},
    {"net.share", "ratio"},
    {"net.accepted", "count"},
    {"net.rejected", "count"},
    {"explore.points", "count/op"},
    {"explore.points_per_s", "1/s"},
    {"explore.memo_hit_ratio", "ratio"},
    {"explore.share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** JSON has no infinity: a missed latency prints as the largest
 *  double, which still exceeds every limit. */
std::string
number(double v)
{
    if (std::isnan(v))
        v = 0;
    else if (std::isinf(v))
        v = v > 0 ? std::numeric_limits<double>::max()
                  : std::numeric_limits<double>::lowest();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const double exact = std::ceil(q * samples.size());
    p.rank = std::clamp<size_t>(static_cast<size_t>(exact), 1,
                                samples.size());
    p.value = samples[p.rank - 1];
    return p;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 10)
        failures.push_back(why);
}

void
Outcome::add(const std::string &name, double value,
             const std::string &unit, const std::string &note)
{
    metrics.push_back({name, value, unit, note});
}

double
Window::throughput() const
{
    const auto ok = std::count_if(latencyMs.begin(), latencyMs.end(),
                                  [](double ms) { return ms != kMissed; });
    return seconds > 0 ? ok / seconds : 0;
}

double
processCpuMs()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return t.tv_sec * 1e3 + t.tv_nsec / 1e6;
}

double
threadCpuMs()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return t.tv_sec * 1e3 + t.tv_nsec / 1e6;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

void
addEndToEnd(Outcome &out, const Window &window, const SetUps &setUps,
            double peakRss)
{
    const size_t n = window.latencyMs.size();
    out.add("cpu_ms_per_op", n ? window.cpuMs / n : 0, "ms",
            "n=" + std::to_string(n));
    out.add("setup_s", median(setUps.cpuSeconds), "s",
            "CPU time, median of " +
                std::to_string(setUps.cpuSeconds.size()) + " set-ups");

    out.notes.push_back("wall clock, not reported: throughput_ops_s " +
                        number(window.throughput()) + " 1/s, n=" +
                        std::to_string(n));
    for (const auto &[name, q] :
         {std::pair<const char *, double>{"latency_p50_ms", 0.50},
          {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}}) {
        const Percentile p = percentile(window.latencyMs, q);
        // p99 is only meaningful with ten samples beyond it.
        if (q < 0.99 || p.samples >= 1000)
            out.notes.push_back("wall clock, not reported: " +
                                std::string(name) + " " +
                                number(p.value) + " ms, rank " +
                                std::to_string(p.rank) + " of n=" +
                                std::to_string(p.samples));
    }
    out.notes.push_back("wall clock, not reported: set-up " +
                        number(median(setUps.wallSeconds)) +
                        " s, median of " +
                        std::to_string(setUps.wallSeconds.size()));
    out.notes.push_back("not reported: peak_rss_mb " + number(peakRss) +
                        " MiB");
}

void
setLayerTimes(LayerValues &values,
              const std::map<std::string, double> &layerMs,
              const std::map<std::string, uint64_t> &calls,
              double opMs, uint64_t ops)
{
    double covered = 0;
    for (const auto &[layer, ms] : layerMs) {
        const double share = opMs > 0 ? ms / opMs : 0;
        values[layer + ".share"] = share;
        values[layer + ".ms_per_op"] = ops ? ms / ops : 0;
        auto it = calls.find(layer);
        values[layer + ".calls"] =
            ops && it != calls.end()
                ? static_cast<double>(it->second) / ops : 0;
        covered += share;
    }
    values["trace.coverage_ratio"] = covered;
}

void
addLayerMetrics(Outcome &out, const LayerValues &values)
{
    std::string dominant;
    double top = 0;
    for (const auto &[name, unit] : kLayerMetrics) {
        auto it = values.find(name);
        const double value = it == values.end() ? 0.0 : it->second;
        out.add(name, value, unit);
        const std::string metric = name;
        const size_t dot = metric.find('.');
        if (metric.substr(dot) == ".share" && value > top) {
            top = value;
            dominant = metric.substr(0, dot);
        }
    }
    out.notes.push_back("dominant layer: " + dominant + " (share " +
                        number(top) + " of traced op time)");
}

std::map<std::string, double>
selfTimeMsByLayer(const std::vector<Span> &spans)
{
    std::map<std::string, double> layers;
    for (const auto &[name, ms] : selfTimeMsByName(spans))
        layers[layerOf(name.c_str())] += ms;
    return layers;
}

std::map<std::string, uint64_t>
callsByLayer(const std::vector<Span> &spans)
{
    std::map<std::string, uint64_t> calls;
    for (const Span &s : spans)
        ++calls[layerOf(s.name)];
    return calls;
}

void
printOutcome(const Config &config, const Outcome &out)
{
    for (const std::string &note : out.notes)
        std::printf("  %s\n", note.c_str());
    for (const Metric &m : out.metrics)
        std::printf("  %-26s %14.6g %-9s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
    for (const std::string &why : out.failures)
        std::printf("  FAILED: %s\n", why.c_str());
    if (out.failed > out.failures.size())
        std::printf("  ... and %llu more failures\n",
                    static_cast<unsigned long long>(
                        out.failed - out.failures.size()));
    std::printf("  %s: %llu ops attempted, %llu failed (ratio %s)\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                number(out.attempted
                           ? static_cast<double>(out.failed) /
                                 out.attempted
                           : 0)
                    .c_str());

    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json += (i ? ", " : "") + jsonString(m.name) +
            ": {\"value\": " + number(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

const char *
buildRefusal()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer build";
#elif !defined(__OPTIMIZE__)
    return "an unoptimized build";
#else
    return nullptr;
#endif
}

std::string
buildDescription()
{
#ifdef PERFBENCH_BUILD_FLAGS
    const char *flags = PERFBENCH_BUILD_FLAGS;
#else
    const char *flags = "unknown";
#endif
    return std::string("compiler=\"") + __VERSION__ + "\" flags=\"" +
        flags + "\"";
}

} // namespace perfbench
