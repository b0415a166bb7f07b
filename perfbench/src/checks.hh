/**
 * @file
 * Output checks. Every op's response is reduced to a digest of the
 * fields a salted source must share with its bundled original, and
 * compared against a reference computed by a separate, store-less
 * service — outside the timed window.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/flow.hh"
#include "stream.hh"

namespace perfbench
{

/** One app_flow_cold job: characterize + run --verify + synth. */
struct FlowDigest
{
    std::string status; ///< "" when all three responses are ok
    rissp::InstrSubset subset;
    size_t textBytes = 0;
    uint64_t cycles = 0;
    uint32_t exitCode = 0;
    std::vector<uint32_t> outputWords;
    std::string outputText;
    bool cosimPassed = false;
    uint64_t cosimInstret = 0;
    double appAreaGe = 0;
    double appPowerMw = 0;
    double appFmaxKhz = 0;
    double fullAreaGe = 0;
    double servAreaGe = 0;
    double dieAreaMm2 = 0;
    double physPowerMw = 0;
};

FlowDigest digestFlow(const rissp::flow::CharacterizeResponse &c,
                      const rissp::flow::RunResponse &r,
                      const rissp::flow::SynthResponse &s);

/** One retarget_cold request. */
struct RetargetDigest
{
    std::string status; ///< "" when the response is ok
    size_t textBytes = 0;
    size_t initialTextBytes = 0;
    size_t retargetedTextBytes = 0;
    rissp::InstrSubset initialSubset;
    rissp::InstrSubset finalSubset;
    std::vector<unsigned> attempts; ///< per synthesized macro
    unsigned verifiedMacros = 0;
    bool equivalenceRun = false;
    bool matched = false;
    uint32_t refExit = 0;
    uint32_t dutExit = 0;
};

RetargetDigest
digestRetarget(const rissp::flow::RetargetResponse &response);

/** "" when @p got is healthy and equals @p want; otherwise the first
 *  difference, naming the field. */
std::string diffFlow(const FlowDigest &got, const FlowDigest &want);
std::string diffRetarget(const RetargetDigest &got,
                         const RetargetDigest &want);

/** The requests of one app_flow_cold job on @p source. */
struct FlowJobRequests
{
    rissp::flow::CharacterizeRequest characterize;
    rissp::flow::RunRequest run;
    rissp::flow::SynthRequest synth;
};
FlowJobRequests flowJob(const rissp::flow::SourceRef &source,
                        rissp::minic::OptLevel opt);

/** The retarget_cold request on @p source (minimal 12-op target,
 *  equivalence on). */
rissp::flow::RetargetRequest
retargetJob(const rissp::flow::SourceRef &source,
            rissp::minic::OptLevel opt);

/** Bundled-source references for @p pairs (indices into
 *  allSourcePairs()), served as one batch by a fresh service
 *  without a store. */
std::map<size_t, FlowDigest>
flowReferences(const std::vector<size_t> &pairs, unsigned threads);
std::map<size_t, RetargetDigest>
retargetReferences(const std::vector<size_t> &pairs, unsigned threads);

/** Index of @p pair in allSourcePairs(). */
size_t pairIndex(const SourcePair &pair);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
