/**
 * @file
 * Parallel design-space exploration engine.
 *
 * For each expanded plan point the Explorer resolves the instruction
 * subset (Step 1), builds the RISSP and runs the workload on it,
 * lock-step co-simulates against the reference ISS (§3.4.2), and
 * pushes the subset through the synthesis and physical-implementation
 * models (§4.2-4.3). Each point expands into a small stage subgraph
 * (prepare → sim/synth → row) whose stages are submitted, with their
 * dependency handles, to a work-stealing `exec::Scheduler`, so one
 * point's synthesis overlaps another's co-simulation. At one thread
 * there is no scheduler: the caller's thread runs each point's stages
 * in plan order, finishing one point before the next. Simulation
 * results are memoized on (subset fingerprint, workload fingerprint)
 * and synthesis results on (subset fingerprint, tech fingerprint),
 * each key folding in the option that changes its outcome (`verify`,
 * `physical`). Cartesian plans, where the same subset meets many
 * workloads and the same pair meets many corners, thus pay for each
 * distinct computation once. The caches live in a shared
 * `flow::StageCaches` (by default private to the Explorer, but a
 * `FlowService` passes its own), so they persist across explore()
 * calls — and across every other entry point sharing the set:
 * repeated points are free.
 *
 * Every model underneath is deterministic and every point writes its
 * own pre-allocated result row, so the emitted table is identical for
 * any thread count.
 */

#ifndef RISSP_EXPLORE_EXPLORER_HH
#define RISSP_EXPLORE_EXPLORER_HH

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "compiler/driver.hh"
#include "explore/plan.hh"
#include "explore/result_table.hh"
#include "flow/caches.hh"
#include "physimpl/physical.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace rissp::explore
{

/** What the Explorer does at each point. */
struct ExplorerOptions
{
    unsigned threads = 0;     ///< 0 = plan's choice, else hw threads
    bool simulate = true;     ///< run the workload on the RISSP
    bool verify = true;       ///< lock-step cosim vs the reference ISS
    bool synthesize = true;   ///< frequency-sweep synthesis
    bool physical = false;    ///< P&R model (adds die area/power)
};

/** Cache statistics over *this engine's* lookups: a miss is the
 *  first time this Explorer asks for a key, a hit is a repeat — no
 *  matter whether the shared caches (or a persistent store under
 *  them) already held the value from another engine or an earlier
 *  boot. That makes the numbers a pure function of the plans this
 *  engine has swept: deterministic across thread counts, service
 *  warmth and processes, which is what lets two services produce
 *  byte-identical explore responses. (Service-cumulative cache
 *  counters live on the shared `flow::StageCaches`.) */
struct ExplorerStats
{
    uint64_t points = 0;       ///< points explored so far
    uint64_t compileHits = 0;  ///< workload compilations reused
    uint64_t compileMisses = 0;
    uint64_t simHits = 0;      ///< co-simulations reused
    uint64_t simMisses = 0;
    uint64_t synthHits = 0;    ///< synthesis sweeps reused
    uint64_t synthMisses = 0;
};

/** The exploration engine. */
class Explorer
{
  public:
    /** @param caches stage caches to use; by default the Explorer
     *  makes a private set. Pass a shared set (e.g. a FlowService's)
     *  to pool work across engines and request verbs. */
    explicit Explorer(
        ExplorerOptions options = {},
        std::shared_ptr<flow::StageCaches> caches = nullptr);

    /** Explore every point of @p plan; rows come back in plan order.
     *  The plan must validate() (panic() otherwise) — user-provided
     *  plans are validated by parse()/FlowService before they get
     *  here. Returns only after every stage has settled; if any
     *  threw, rethrows the first failure in plan order. */
    ResultTable explore(const ExplorationPlan &plan);

    /** Compile a bundled workload at @p level (memoized; the same
     *  cache the exploration points use). */
    minic::CompileResult compileWorkload(const std::string &name,
                                         minic::OptLevel level);

    /** Resolve a subset spec to concrete ops (compiles the backing
     *  workload for Kind::FromWorkload, memoized). */
    InstrSubset resolveSubset(const SubsetSpec &spec,
                              minic::OptLevel level);

    ExplorerStats stats() const;

    const ExplorerOptions &options() const { return opts; }

  private:
    /** The workload cache key (name, opt level); the same derivation
     *  flow::sourceKey gives request verbs. */
    static uint64_t workloadKey(const std::string &name,
                                minic::OptLevel level);

    flow::SimOutcome
    simulatePoint(const InstrSubset &subset,
                  const minic::CompileResult &compiled);
    flow::SynthOutcome synthesizePoint(const InstrSubset &subset,
                                       const std::string &name,
                                       const Technology &tech);

    /** Record one lookup against this engine's seen-key set; true =
     *  repeat (a hit in the ExplorerStats sense above). */
    bool noteCompileLookup(uint64_t key);
    bool noteSimLookup(const FingerprintPair &key);
    bool noteSynthLookup(const FingerprintPair &key);

    ExplorerOptions opts;
    std::shared_ptr<flow::StageCaches> caches;
    std::atomic<uint64_t> pointCount{0};

    mutable Mutex statsMu;
    std::unordered_set<uint64_t> seenCompile
        RISSP_GUARDED_BY(statsMu);
    std::unordered_set<FingerprintPair, FingerprintPairHash> seenSim
        RISSP_GUARDED_BY(statsMu);
    std::unordered_set<FingerprintPair, FingerprintPairHash>
        seenSynth RISSP_GUARDED_BY(statsMu);
    /** The engine-local hit/miss tallies (points lives in
     *  pointCount). */
    ExplorerStats tallies RISSP_GUARDED_BY(statsMu);
};

} // namespace rissp::explore

#endif // RISSP_EXPLORE_EXPLORER_HH
