#include "replay.hh"

#include "core/rissp.hh"
#include "physimpl/physical.hh"
#include "retarget/retargeter.hh"
#include "serv/serv_model.hh"
#include "sim/refsim.hh"
#include "synth/synthesis.hh"
#include "verify/integration_verify.hh"

namespace perfbench
{

using namespace rissp;
using namespace rissp::flow;

minic::CompileResult
replayCompile(Tracer &tracer, uint64_t op, const std::string &text,
              minic::OptLevel opt)
{
    minic::CompileResult compiled;
    {
        ScopedSpan span(tracer, "compiler:minic::compileToAsm", op);
        compiled.appAsm =
            minic::compileToAsm(text, opt, &compiled.helpers);
    }
    {
        ScopedSpan span(tracer, "assembler:minic::linkProgram", op);
        compiled.program =
            minic::linkProgram(compiled.appAsm, compiled.helpers);
    }
    return compiled;
}

namespace
{

InstrSubset
replaySubset(Tracer &tracer, uint64_t op, const Program &program)
{
    ScopedSpan span(tracer, "sim:InstrSubset::fromProgram", op);
    return InstrSubset::fromProgram(program);
}

/** Rissp::run exactly as FlowService's exec stage calls it. */
RunResult
replayExec(Tracer &tracer, uint64_t op, const InstrSubset &subset,
           const Program &program, uint64_t max_steps,
           std::vector<uint32_t> &words, std::string &text)
{
    ScopedSpan span(tracer, "sim:Rissp::run", op);
    Rissp chip(subset, "RISSP");
    chip.reset(program);
    const RunResult run = chip.run(max_steps);
    words = chip.outputWords();
    text = chip.outputText();
    return run;
}

PhysReport
replayImplement(Tracer &tracer, uint64_t op, const Technology &tech,
                const SynthReport &app)
{
    ScopedSpan span(tracer, "physimpl:PhysicalModel::implement", op);
    return PhysicalModel(tech).implement(app, RfStyle::LatchArray);
}

SynthReport
replayServ(Tracer &tracer, uint64_t op, const Technology &tech)
{
    ScopedSpan span(tracer, "synth:ServModel::synthReport", op);
    return ServModel(tech).synthReport();
}

SynthReport
replaySynthesize(Tracer &tracer, uint64_t op, const Technology &tech,
                 const InstrSubset &subset, const char *name)
{
    ScopedSpan span(tracer, "synth:SynthesisModel::synthesize", op);
    return SynthesisModel(tech).synthesize(subset, name);
}

} // namespace

FlowDigest
replayFlowJob(Tracer &tracer, uint64_t op, const std::string &text,
              minic::OptLevel opt, const SynthMisses &misses,
              const SynthResponse &served, ReplayCounts &counts)
{
    const FlowJobRequests job = flowJob(SourceRef(), opt);
    const minic::CompileResult compiled =
        replayCompile(tracer, op, text, opt);
    const Program &program = compiled.program;

    FlowDigest d;
    d.textBytes = program.textSize;
    // characterize, run and synth each derive the subset.
    d.subset = replaySubset(tracer, op, program);
    const InstrSubset subset = replaySubset(tracer, op, program);

    const RunResult run =
        replayExec(tracer, op, subset, program, job.run.maxSteps,
                   d.outputWords, d.outputText);
    d.cycles = run.instret;
    d.exitCode = run.exitCode;
    counts.simInstret += run.instret;
    {
        ScopedSpan span(tracer, "verify:cosimulate", op);
        CosimOptions options;
        options.maxSteps = job.run.maxSteps;
        const CosimReport cosim = cosimulate(program, subset, options);
        d.cosimPassed = cosim.passed;
        d.cosimInstret = cosim.instret;
        counts.verifyInstret += cosim.instret;
    }

    const InstrSubset synthSubset = replaySubset(tracer, op, program);
    const Technology &tech = job.synth.tech.tech;
    const SynthReport app = misses.app
        ? replaySynthesize(tracer, op, tech, synthSubset,
                           job.synth.name.c_str())
        : served.synth.app;
    const SynthReport full = misses.fullIsa
        ? replaySynthesize(tracer, op, tech, InstrSubset::fullRv32e(),
                           "RISSP-RV32E")
        : served.synth.fullIsa;
    const SynthReport serv = replayServ(tracer, op, tech);
    const PhysReport phys = replayImplement(tracer, op, tech, app);
    d.appAreaGe = app.avgAreaGe;
    d.appPowerMw = app.avgPowerMw;
    d.appFmaxKhz = app.fmaxKhz;
    d.fullAreaGe = full.avgAreaGe;
    d.servAreaGe = serv.avgAreaGe;
    d.dieAreaMm2 = phys.dieAreaMm2;
    d.physPowerMw = phys.powerMw;
    return d;
}

RetargetDigest
replayRetarget(Tracer &tracer, uint64_t op, const std::string &text,
               minic::OptLevel opt, ReplayCounts &counts)
{
    const RetargetRequest request = retargetJob(SourceRef(), opt);
    const InstrSubset &target = *request.target;
    const minic::CompileResult compiled =
        replayCompile(tracer, op, text, opt);
    const Program &program = compiled.program;

    RetargetResult result;
    {
        ScopedSpan span(tracer, "retarget:Retargeter::retarget", op);
        Retargeter tool(target);
        result = tool.retarget(program);
    }
    RetargetDigest d;
    d.textBytes = program.textSize;
    d.initialTextBytes = result.initialTextBytes;
    d.retargetedTextBytes = result.retargetedTextBytes;
    d.initialSubset = result.initialSubset;
    d.finalSubset = result.finalSubset;
    for (const MacroExpansion &macro : result.macros) {
        d.attempts.push_back(macro.attempts);
        d.verifiedMacros += macro.verified ? 1 : 0;
        counts.candidates += macro.attempts;
    }
    counts.verifiedMacros += d.verifiedMacros;

    RefSim golden;
    RunResult want;
    {
        ScopedSpan span(tracer, "verify:RefSim::run", op);
        golden.reset(program);
        want = golden.run(request.maxSteps);
    }
    Rissp chip(target, "retarget-dut");
    RunResult got;
    {
        ScopedSpan span(tracer, "verify:Rissp::run", op);
        chip.reset(result.program);
        got = chip.run(request.maxSteps);
    }
    counts.verifyInstret += want.instret + got.instret;
    d.equivalenceRun = true;
    d.matched = want.reason == got.reason &&
        want.exitCode == got.exitCode &&
        golden.outputWords() == chip.outputWords();
    d.refExit = want.exitCode;
    d.dutExit = got.exitCode;
    return d;
}

std::string
replayHot(Tracer &tracer, uint64_t op, const Request &request,
          const Program &program, const Response &served,
          ReplayCounts &counts)
{
    const InstrSubset subset = replaySubset(tracer, op, program);
    if (std::holds_alternative<CharacterizeRequest>(request)) {
        const auto &r = std::get<CharacterizeResponse>(served);
        return subset == r.subset.subset ? "" : "replay: subset";
    }
    if (const auto *run = std::get_if<RunRequest>(&request)) {
        const auto &r = std::get<RunResponse>(served);
        std::vector<uint32_t> words;
        std::string text;
        const RunResult result = replayExec(
            tracer, op, subset, program, run->maxSteps, words, text);
        counts.simInstret += result.instret;
        const bool same = result.instret == r.exec.cycles &&
            result.exitCode == r.exec.exitCode &&
            words == r.exec.outputWords && text == r.exec.outputText &&
            subset == r.subset.subset;
        return same ? "" : "replay: run outputs";
    }
    const auto &synth = std::get<SynthRequest>(request);
    const auto &r = std::get<SynthResponse>(served);
    const Technology &tech = synth.tech.tech;
    const SynthReport serv = replayServ(tracer, op, tech);
    const PhysReport phys =
        replayImplement(tracer, op, tech, r.synth.app);
    const bool same = subset == r.subset.subset &&
        serv.avgAreaGe == r.synth.serv.avgAreaGe &&
        serv.avgPowerMw == r.synth.serv.avgPowerMw &&
        phys.dieAreaMm2 == r.phys.report.dieAreaMm2 &&
        phys.powerMw == r.phys.report.powerMw;
    return same ? "" : "replay: synth outputs";
}

} // namespace perfbench
