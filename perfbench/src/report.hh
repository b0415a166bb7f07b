/**
 * @file
 * What every workload shares: the run configuration, the outcome it
 * fills in (ops attempted and failed, metrics), the percentile
 * helper, and the one printer of the result line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench
{

struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";   ///< traces and scratch stores go here
    unsigned nproc = 1;         ///< scheduler threads and clients
};

/**
 * Nearest-rank percentile: the value at 1-based rank ceil(q * n) of
 * the sorted samples (rank 1 for q = 0), with the rank and the
 * sample count it was taken from. Empty input gives all zeros.
 */
struct Percentile
{
    double value = 0;
    size_t rank = 0;
    size_t samples = 0;
};
Percentile percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note; ///< printed beside the value, e.g. "n=1234"
};

/** What one workload run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log
    std::vector<Metric> metrics;
    std::vector<std::string> notes;    ///< free-form log lines

    /** Count a failed op (or a failed run-level check). */
    void fail(const std::string &why);

    void add(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");
};

/** The latency of a failed op: it misses every latency limit. */
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/** One timed window of ops. */
struct Window
{
    std::vector<double> latencyMs; ///< one per op; kMissed if it failed
    double seconds = 0;            ///< the time the ops were measured
    double cpuMs = 0; ///< CPU time the program spent on the ops

    /** Ops that succeeded, per second. */
    double throughput() const;
};

/** The time each set-up of a run took. */
struct SetUps
{
    std::vector<double> cpuSeconds; ///< CPU time of the whole process
    std::vector<double> wallSeconds;
};

/** @p count per second of @p ms; 0 when nothing was timed. */
inline double
perSecond(double count, double ms)
{
    return ms > 0 ? count / (ms / 1e3) : 0;
}

/** Process peak resident set size in MiB (getrusage high water). */
double peakRssMb();

/** CPU time of every thread of the process so far, in ms. */
double processCpuMs();

/** CPU time of the calling thread so far, in ms. */
double threadCpuMs();

/**
 * Add the end-to-end metrics of an untraced run: cpu_ms_per_op (the
 * window's CPU time per op) and setup_s (the median set-up's CPU
 * time). Wall-clock throughput, latency percentiles over the whole
 * window and set-up time, and @p peakRss (peakRssMb() read right
 * after the window, before the checks), are log lines only: on a
 * shared host they move with the time other guests take from this
 * one's vCPUs, which CPU time leaves out.
 */
void addEndToEnd(Outcome &out, const Window &window,
                 const SetUps &setUps, double peakRss);

/**
 * Per-layer values of a traced run, keyed by metric name (see
 * kLayerMetrics in report.cc). Metrics a workload does not set are
 * reported as 0: the layer is idle there.
 */
using LayerValues = std::map<std::string, double>;

/**
 * Fill "<layer>.ms_per_op", "<layer>.calls" and "<layer>.share" from
 * an attribution sample: @p layerMs and @p calls per layer, over
 * @p ops ops that took @p opMs in total. Also sets
 * trace.coverage_ratio: the share of op time the layers account for.
 */
void setLayerTimes(LayerValues &values,
                   const std::map<std::string, double> &layerMs,
                   const std::map<std::string, uint64_t> &calls,
                   double opMs, uint64_t ops);

/** Add every per-layer metric, in kLayerMetrics order. */
void addLayerMetrics(Outcome &out, const LayerValues &values);

/** Sum of self time per layer (span-name prefix) over @p spans. */
std::map<std::string, double>
selfTimeMsByLayer(const std::vector<Span> &spans);

/** Number of spans per layer. */
std::map<std::string, uint64_t>
callsByLayer(const std::vector<Span> &spans);

/** Print the log lines and, last, the one-line JSON result. */
void printOutcome(const Config &config, const Outcome &out);

/** Why this build must not report, or nullptr. */
const char *buildRefusal();

/** Compiler and flags of this build, for the log. */
std::string buildDescription();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
