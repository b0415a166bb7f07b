/**
 * @file
 * The four workloads and what they share.
 *
 * Every workload runs the same shape: set up (several times; the
 * median is setup_s), measure one window of ops, then check every
 * op's output against a reference outside the window. A traced run
 * (`--trace 1`) measures half the time untraced and half traced (the
 * ratio is trace.overhead_ratio), then attributes a sample of the
 * traced ops to layers by re-running them synchronously and
 * replaying their stages through each layer's public functions.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flow/flow.hh"
#include "report.hh"
#include "timed_store.hh"
#include "trace.hh"

namespace perfbench
{

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

struct Context
{
    Config config;
    Tracer tracer;
    std::string workDir; ///< scratch stores live here; removed at exit

    /** A new, empty directory under workDir. */
    std::string freshDir(const std::string &tag);

    /** A TimedStore over a DiskStore in a fresh directory. */
    std::shared_ptr<TimedStore> freshStore(const std::string &tag);

    /** Time budget of a traced run's attribution sample. */
    double attributionSeconds() const;

    /**
     * Flush the work directory's filesystem. Called before each
     * set-up and before the window, so that writeback left by an
     * earlier set-up (or an earlier run's cleanup) is not timed.
     */
    void settle() const;

    /** Run @p set_up kSetups times, settled, and return the time
     *  each took; the state of the last one stays for the window. */
    SetUps setUpRepeatedly(const std::function<void()> &set_up) const;
};

Outcome runAppFlowCold(Context &ctx);
Outcome runRetargetCold(Context &ctx);
Outcome runServeHot(Context &ctx);
Outcome runExploreWarm(Context &ctx);

/** Cache, scheduler and store counters at one instant. */
struct Counters
{
    uint64_t compileHits = 0, compileMisses = 0;
    uint64_t simHits = 0, simMisses = 0;
    uint64_t synthHits = 0, synthMisses = 0;
    uint64_t submitted = 0;
    TimedStore::Timing timing;
    rissp::store::StoreStats store;
};

/** @p scheduler false leaves the service's lazy scheduler unstarted. */
Counters readCounters(const rissp::flow::FlowService &service,
                      const TimedStore *store, bool scheduler);

/** Set the flow hit ratios, exec.tasks_per_op and store.* metrics
 *  from the counter change over @p ops ops. */
void setCounterDeltas(LayerValues &values, const Counters &before,
                      const Counters &after, uint64_t ops);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
