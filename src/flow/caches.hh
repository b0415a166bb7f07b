/**
 * @file
 * The shared stage caches of the RISSP pipeline.
 *
 * Compilation, co-simulation, synthesis and retarget macro
 * verification are the expensive stages of every flow, and their
 * results are pure functions of small fingerprints. `StageCaches`
 * bundles five exactly-once memo caches — `compile`, `sim`, `synth`,
 * `synthReport` and `macroVerdict` — so that one set can back *all*
 * entry points at once: the `FlowService` request verbs, the
 * design-space `Explorer`, and any future server front end share one
 * instance, and a characterize request warms the cache the next
 * explore request hits. The caches were originally private to the
 * Explorer; lifting them here is what makes the facade cheap to call
 * repeatedly.
 *
 * All caches are thread-safe (see flow/memo.hh — their internal
 * locking is capability-annotated, so misuse is a compile error on
 * Clang); a StageCaches can be shared freely across concurrent
 * requests.
 *
 * Since PR 8 the in-memory tier can sit over a persistent
 * `store::ArtifactStore` (the `artifacts` member): the `*Lookup`
 * wrappers consult the store inside a memo miss — load before
 * compute, publish after — so a warm on-disk cache turns a process
 * restart into a read instead of a recompute, while exactly-once
 * computation and in-flight dedup still come from the promise-backed
 * memo layer. A null `artifacts` is a strict no-op: the wrappers
 * then behave exactly like calling `getOrCompute` directly. The
 * wrappers are defined in flow/persist.cc next to the payload codecs.
 *
 * Layering: this header is the *leaf* of the flow package — the
 * Explorer includes it, and flow/flow.hh includes the Explorer, so
 * nothing from flow/flow.hh (or any facade-level type) may ever be
 * included here. store/ sits *below* flow/ (it sees only bytes).
 */

#ifndef RISSP_FLOW_CACHES_HH
#define RISSP_FLOW_CACHES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "compiler/driver.hh"
#include "explore/fingerprint.hh"
#include "flow/memo.hh"
#include "isa/op.hh"
#include "store/artifact_store.hh"
#include "synth/synthesis.hh"
#include "util/status.hh"

namespace rissp::flow
{

/** Memoized result of simulating one (subset, workload) point. */
struct SimOutcome
{
    bool trapped = false;
    bool cosimPassed = false;
    uint64_t cycles = 0;
    uint32_t exitCode = 0;
    uint64_t signature = 0;
};

/** Memoized result of synthesizing one (subset, tech) point. */
struct SynthOutcome
{
    double fmaxKhz = 0;
    double avgAreaGe = 0;
    double avgPowerMw = 0;
    double epiNj = 0;
    bool physRun = false;
    double dieAreaMm2 = 0;
    double physPowerMw = 0;
};

/** The shared memo caches of the pipeline. */
struct StageCaches
{
    /** Key: workload/source fingerprint (name, text, opt level).
     *  Failed compilations are cached too — a service retrying a bad
     *  source pays for the diagnosis once. */
    MemoCache<uint64_t, Result<minic::CompileResult>> compile;

    /** Key: (subset fingerprint, workload fingerprint). */
    MemoCache<explore::FingerprintPair, SimOutcome,
              explore::FingerprintPairHash>
        sim;

    /** Key: (subset fingerprint, tech fingerprint). */
    MemoCache<explore::FingerprintPair, SynthOutcome,
              explore::FingerprintPairHash>
        synth;

    /** Key: `synthReportKey` (design name + subset, tech). The
     *  *full* frequency-sweep report a request verb returns, where
     *  the explore `synth` cache keeps only the tabulated summary.
     *  Because the entries are promise-backed, the cache memoizes
     *  in-flight *work*, not just finished results: ten concurrent
     *  synth requests for the same subset sweep it once, the other
     *  nine block on the first one's future. Impossible corners are
     *  cached as error values like failed compiles. */
    MemoCache<explore::FingerprintPair, Result<SynthReport>,
              explore::FingerprintPairHash>
        synthReport;

    /** Key: `macroVerdictKey` (op, candidate body). Whether a
     *  retarget macro candidate passed `Retargeter::verifyMacro` — a
     *  pure function of the pair (it runs on the full-ISA reference,
     *  never on the target subset), so concurrent retargets verify
     *  each candidate once per service and in-flight waiters block
     *  on the first one's future. Rejections are cached as values
     *  like failed compiles. Memory only: no store record. */
    MemoCache<uint64_t, bool> macroVerdict;

    /** Persistent tier under the memo caches; null = memory only.
     *  Set once, before the caches serve traffic (FlowService does
     *  this in its constructor) — the stores themselves are
     *  thread-safe, the pointer is not re-published. */
    std::shared_ptr<store::ArtifactStore> artifacts;

    // Store-aware lookups (flow/persist.cc). Same contract as the
    // underlying getOrCompute — @p compute runs at most once per key
    // per process, errors are cached as values, @p was_hit reports
    // memo-level reuse — plus persistence: a memo miss first tries
    // the artifact store, and a computed value is published back.
    // Corrupt or undecodable records degrade to a recompute, never
    // an error.

    Result<minic::CompileResult> compileLookup(
        uint64_t key,
        const std::function<Result<minic::CompileResult>()> &compute,
        bool *was_hit = nullptr);

    SimOutcome
    simLookup(const explore::FingerprintPair &key,
              const std::function<SimOutcome()> &compute,
              bool *was_hit = nullptr);

    SynthOutcome
    synthLookup(const explore::FingerprintPair &key,
                const std::function<SynthOutcome()> &compute,
                bool *was_hit = nullptr);

    Result<SynthReport> synthReportLookup(
        const explore::FingerprintPair &key,
        const std::function<Result<SynthReport>()> &compute,
        bool *was_hit = nullptr);
};

/** The one derivation of the full-report synthesis cache key: the
 *  report embeds the design name, so the name is part of the key —
 *  two names for the same subset are distinct entries (unlike the
 *  summary cache, which is name-blind by design). */
inline explore::FingerprintPair
synthReportKey(const std::string &name, uint64_t subset_fp,
               uint64_t tech_fp)
{
    return {explore::fnv1a(name, subset_fp), tech_fp};
}

/** The macro verdict cache key: the candidate body, then its op. */
inline uint64_t
macroVerdictKey(Op op, const std::string &body)
{
    const uint8_t tag = static_cast<uint8_t>(op);
    return explore::fnv1a(&tag, 1, explore::fnv1a(body));
}

/** The one place the source cache key is derived from: the same key
 *  must be produced for a workload compiled by an explore plan and
 *  by a request verb, or they stop sharing work. */
inline uint64_t
sourceKey(const std::string &name, const std::string &source,
          minic::OptLevel level)
{
    return explore::workloadFingerprint(name, source,
                                        static_cast<uint8_t>(level));
}

} // namespace rissp::flow

#endif // RISSP_FLOW_CACHES_HH
