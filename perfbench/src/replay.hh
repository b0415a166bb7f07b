/**
 * @file
 * Stage replays: the work a FlowService verb did, redone by calling
 * each layer's public function directly, in the service's order,
 * one span per call. The replayed outputs must equal the service's,
 * which is what ties the per-layer times to the verb they explain.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "checks.hh"
#include "flow/flow.hh"
#include "trace.hh"

namespace perfbench
{

/** Work counts of the replayed calls. */
struct ReplayCounts
{
    uint64_t simInstret = 0;    ///< Rissp::run on the app subset
    uint64_t verifyInstret = 0; ///< cosim and equivalence runs
    uint64_t candidates = 0;    ///< retarget macro candidates tried
    uint64_t verifiedMacros = 0;
};

/** Which synthesis sweeps the service computed (memo misses) for a
 *  synth request; the others it served from its caches. */
struct SynthMisses
{
    bool app = false;
    bool fullIsa = false;
};

/** compile = compileToAsm (compiler) + linkProgram (assembler). */
rissp::minic::CompileResult replayCompile(Tracer &tracer, uint64_t op,
                                          const std::string &text,
                                          rissp::minic::OptLevel opt);

/** An app_flow_cold job: compile once, then the three verbs' stages.
 *  Sweeps the service served from cache are taken from @p served. */
FlowDigest replayFlowJob(Tracer &tracer, uint64_t op,
                         const std::string &text,
                         rissp::minic::OptLevel opt,
                         const SynthMisses &misses,
                         const rissp::flow::SynthResponse &served,
                         ReplayCounts &counts);

/** A retarget_cold request. */
RetargetDigest replayRetarget(Tracer &tracer, uint64_t op,
                              const std::string &text,
                              rissp::minic::OptLevel opt,
                              ReplayCounts &counts);

/**
 * A serve_hot request whose compile (and synthesis) were cache hits:
 * only the uncached stages run. Returns "" when the replay equals
 * @p served, else the first difference.
 */
std::string replayHot(Tracer &tracer, uint64_t op,
                      const rissp::flow::Request &request,
                      const rissp::Program &program,
                      const rissp::flow::Response &served,
                      ReplayCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
