#include "checks.hh"

#include "retarget/retargeter.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;
using namespace rissp::flow;

namespace
{

std::string
firstError(std::initializer_list<const Status *> statuses)
{
    for (const Status *s : statuses)
        if (!s->isOk())
            return s->toString();
    return "";
}

/** Field-by-field comparison that names the first difference. */
class Diff
{
  public:
    template <typename T>
    Diff &
    field(const char *name, const T &got, const T &want)
    {
        if (first.empty() && !(got == want))
            first = std::string(name) + " differs from the reference";
        return *this;
    }

    Diff &
    require(const char *what, bool ok)
    {
        if (first.empty() && !ok)
            first = what;
        return *this;
    }

    std::string first;
};

} // namespace

FlowDigest
digestFlow(const CharacterizeResponse &c, const RunResponse &r,
           const SynthResponse &s)
{
    FlowDigest d;
    d.status = firstError({&c.status, &r.status, &s.status});
    d.subset = c.subset.subset;
    d.textBytes = c.compile.textBytes;
    d.cycles = r.exec.cycles;
    d.exitCode = r.exec.exitCode;
    d.outputWords = r.exec.outputWords;
    d.outputText = r.exec.outputText;
    d.cosimPassed = r.cosim.run && r.cosim.passed;
    d.cosimInstret = r.cosim.instret;
    d.appAreaGe = s.synth.app.avgAreaGe;
    d.appPowerMw = s.synth.app.avgPowerMw;
    d.appFmaxKhz = s.synth.app.fmaxKhz;
    d.fullAreaGe = s.synth.fullIsa.avgAreaGe;
    d.servAreaGe = s.synth.serv.avgAreaGe;
    d.dieAreaMm2 = s.phys.report.dieAreaMm2;
    d.physPowerMw = s.phys.report.powerMw;
    return d;
}

RetargetDigest
digestRetarget(const RetargetResponse &response)
{
    RetargetDigest d;
    d.status = firstError({&response.status});
    d.textBytes = response.compile.textBytes;
    const RetargetResult &result = response.retarget.result;
    d.initialTextBytes = result.initialTextBytes;
    d.retargetedTextBytes = result.retargetedTextBytes;
    d.initialSubset = result.initialSubset;
    d.finalSubset = result.finalSubset;
    for (const MacroExpansion &macro : result.macros) {
        d.attempts.push_back(macro.attempts);
        d.verifiedMacros += macro.verified ? 1 : 0;
    }
    d.equivalenceRun = response.equivalence.run;
    d.matched = response.equivalence.matched;
    d.refExit = response.equivalence.refExit;
    d.dutExit = response.equivalence.dutExit;
    return d;
}

std::string
diffFlow(const FlowDigest &got, const FlowDigest &want)
{
    if (!got.status.empty())
        return "status: " + got.status;
    if (!want.status.empty())
        return "reference status: " + want.status;
    return Diff()
        .require("run: co-simulation did not pass", got.cosimPassed)
        .field("subset", got.subset, want.subset)
        .field("text bytes", got.textBytes, want.textBytes)
        .field("cycles", got.cycles, want.cycles)
        .field("exit code", got.exitCode, want.exitCode)
        .field("output words", got.outputWords, want.outputWords)
        .field("output text", got.outputText, want.outputText)
        .field("cosim instret", got.cosimInstret, want.cosimInstret)
        .field("app area", got.appAreaGe, want.appAreaGe)
        .field("app power", got.appPowerMw, want.appPowerMw)
        .field("app fmax", got.appFmaxKhz, want.appFmaxKhz)
        .field("RV32E area", got.fullAreaGe, want.fullAreaGe)
        .field("Serv area", got.servAreaGe, want.servAreaGe)
        .field("die area", got.dieAreaMm2, want.dieAreaMm2)
        .field("P&R power", got.physPowerMw, want.physPowerMw)
        .first;
}

std::string
diffRetarget(const RetargetDigest &got, const RetargetDigest &want)
{
    if (!got.status.empty())
        return "status: " + got.status;
    if (!want.status.empty())
        return "reference status: " + want.status;
    return Diff()
        .require("retarget: equivalence was not checked",
                 got.equivalenceRun)
        .require("retarget: equivalence did not match", got.matched)
        .field("text bytes", got.textBytes, want.textBytes)
        .field("initial text bytes", got.initialTextBytes,
               want.initialTextBytes)
        .field("retargeted text bytes", got.retargetedTextBytes,
               want.retargetedTextBytes)
        .field("initial subset", got.initialSubset, want.initialSubset)
        .field("final subset", got.finalSubset, want.finalSubset)
        .field("macro attempts", got.attempts, want.attempts)
        .field("verified macros", got.verifiedMacros,
               want.verifiedMacros)
        .field("reference exit", got.refExit, want.refExit)
        .field("retargeted exit", got.dutExit, want.dutExit)
        .first;
}

FlowJobRequests
flowJob(const SourceRef &source, minic::OptLevel opt)
{
    FlowJobRequests job;
    job.characterize.source = source;
    job.characterize.opt = opt;
    job.run.source = source;
    job.run.opt = opt;
    job.run.verify = true;
    job.synth.source = source;
    job.synth.opt = opt;
    return job;
}

RetargetRequest
retargetJob(const SourceRef &source, minic::OptLevel opt)
{
    RetargetRequest request;
    request.source = source;
    request.opt = opt;
    request.target = Retargeter::minimalSubset();
    request.verifyEquivalence = true;
    return request;
}

size_t
pairIndex(const SourcePair &pair)
{
    return pair.workload * minic::allOptLevels().size() +
        static_cast<size_t>(pair.opt);
}

namespace
{

SourceRef
bundled(size_t pair)
{
    return SourceRef::bundled(
        allWorkloads()[allSourcePairs()[pair].workload].name);
}

} // namespace

std::map<size_t, FlowDigest>
flowReferences(const std::vector<size_t> &pairs, unsigned threads)
{
    FlowService service(nullptr, threads);
    std::vector<Request> batch;
    for (size_t pair : pairs) {
        const FlowJobRequests job =
            flowJob(bundled(pair), allSourcePairs()[pair].opt);
        batch.push_back(job.characterize);
        batch.push_back(job.run);
        batch.push_back(job.synth);
    }
    const std::vector<Response> responses = service.runBatch(batch);
    std::map<size_t, FlowDigest> refs;
    for (size_t i = 0; i < pairs.size(); ++i)
        refs[pairs[i]] = digestFlow(
            std::get<CharacterizeResponse>(responses[3 * i]),
            std::get<RunResponse>(responses[3 * i + 1]),
            std::get<SynthResponse>(responses[3 * i + 2]));
    return refs;
}

std::map<size_t, RetargetDigest>
retargetReferences(const std::vector<size_t> &pairs, unsigned threads)
{
    FlowService service(nullptr, threads);
    std::vector<Request> batch;
    for (size_t pair : pairs)
        batch.push_back(
            retargetJob(bundled(pair), allSourcePairs()[pair].opt));
    const std::vector<Response> responses = service.runBatch(batch);
    std::map<size_t, RetargetDigest> refs;
    for (size_t i = 0; i < pairs.size(); ++i)
        refs[pairs[i]] = digestRetarget(
            std::get<RetargetResponse>(responses[i]));
    return refs;
}

} // namespace perfbench
