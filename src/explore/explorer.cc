/**
 * @file
 * The exploration engine: point execution, memoization, scheduling.
 */

#include "explore/explorer.hh"

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/rissp.hh"
#include "exec/scheduler.hh"
#include "explore/fingerprint.hh"
#include "util/logging.hh"
#include "verify/integration_verify.hh"
#include "workloads/workloads.hh"

namespace rissp::explore
{

namespace
{

/** Cycle budget of each point's run and cosim. */
constexpr uint64_t kMaxSteps = 500'000'000;

/** Tech used when a plan names none: the registry default. */
const TechSpec &
defaultTechSpec()
{
    static const TechSpec spec{};
    return spec;
}

/** Functional signature of a run: exit code plus all MMIO output. */
uint64_t
runSignature(uint32_t exit_code,
             const std::vector<uint32_t> &out_words,
             const std::string &out_text)
{
    uint64_t hash = fnv1a(&exit_code, sizeof exit_code);
    for (uint32_t w : out_words)
        hash = fnv1a(&w, sizeof w, hash);
    return fnv1a(out_text, hash);
}

} // namespace

Explorer::Explorer(ExplorerOptions options,
                   std::shared_ptr<flow::StageCaches> shared_caches)
    : opts(options),
      caches(shared_caches ? std::move(shared_caches)
                           : std::make_shared<flow::StageCaches>())
{
}

uint64_t
Explorer::workloadKey(const std::string &name, minic::OptLevel level)
{
    return flow::sourceKey(name, workloadByName(name).source, level);
}

bool
Explorer::noteCompileLookup(uint64_t key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenCompile.insert(key).second;
    ++(repeat ? tallies.compileHits : tallies.compileMisses);
    return repeat;
}

bool
Explorer::noteSimLookup(const FingerprintPair &key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenSim.insert(key).second;
    ++(repeat ? tallies.simHits : tallies.simMisses);
    return repeat;
}

bool
Explorer::noteSynthLookup(const FingerprintPair &key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenSynth.insert(key).second;
    ++(repeat ? tallies.synthHits : tallies.synthMisses);
    return repeat;
}

minic::CompileResult
Explorer::compileWorkload(const std::string &name,
                          minic::OptLevel level)
{
    const uint64_t key = workloadKey(name, level);
    noteCompileLookup(key);
    // Bundled workloads always compile, so the cached Result is
    // always a value.
    return caches
        ->compileLookup(key,
                        [&]() -> Result<minic::CompileResult> {
                            return minic::compile(
                                workloadByName(name).source, level);
                        })
        .value();
}

InstrSubset
Explorer::resolveSubset(const SubsetSpec &spec, minic::OptLevel level)
{
    switch (spec.kind) {
      case SubsetSpec::Kind::Full:
        return InstrSubset::fullRv32e();
      case SubsetSpec::Kind::Explicit:
        return InstrSubset::fromNames(spec.mnemonics);
      case SubsetSpec::Kind::FromWorkload:
        return InstrSubset::fromProgram(
            compileWorkload(spec.workload, level).program);
    }
    panic("resolveSubset: bad kind");
}

flow::SimOutcome
Explorer::simulatePoint(const InstrSubset &subset,
                        const minic::CompileResult &compiled)
{
    flow::SimOutcome out;
    Rissp chip(subset, "explore");
    chip.reset(compiled.program);
    const RunResult run = chip.run(kMaxSteps);
    out.trapped = run.reason == StopReason::Trapped;
    out.cycles = run.instret;
    out.exitCode = run.exitCode;
    out.signature = runSignature(run.exitCode, chip.outputWords(),
                                 chip.outputText());
    if (run.reason != StopReason::Halted) {
        out.cosimPassed = false;
    } else if (!opts.verify) {
        out.cosimPassed = true; // assumed, not checked
    } else {
        CosimOptions cosim;
        cosim.maxSteps = kMaxSteps;
        cosim.contextEvents = 0; // only the verdict is tabulated
        out.cosimPassed =
            cosimulate(compiled.program, subset, cosim).passed;
    }
    return out;
}

flow::SynthOutcome
Explorer::synthesizePoint(const InstrSubset &subset,
                          const std::string &name,
                          const Technology &tech)
{
    flow::SynthOutcome out;
    const SynthesisModel model(tech);
    const SynthReport report = model.synthesize(subset, name);
    out.fmaxKhz = report.fmaxKhz;
    out.avgAreaGe = report.avgAreaGe;
    out.avgPowerMw = report.avgPowerMw;
    out.epiNj = report.epiNanojoules(1.0, tech); // CPI = 1, §4.2.4
    if (opts.physical) {
        const PhysicalModel phys(tech);
        const PhysReport placed =
            phys.implement(report, RfStyle::LatchArray);
        out.physRun = true;
        out.dieAreaMm2 = placed.dieAreaMm2;
        out.physPowerMw = placed.powerMw;
    }
    return out;
}

ResultTable
Explorer::explore(const ExplorationPlan &plan)
{
    const std::vector<PlanPoint> points = plan.expand();
    ResultTable table(points.size());

    // Per-point state shared between that point's stages. The sim
    // and synth stages write disjoint members of the same row, so
    // the two can run on different workers without a lock.
    struct PointState
    {
        ExplorationResult row;
        const Technology *tech = nullptr;
        minic::CompileResult compiled; ///< filled when simulating
        uint64_t subsetFp = 0;
    };
    std::vector<PointState> states(points.size());

    // Each point runs these stages, at pipeline granularity:
    //
    //      prepare ──► sim ────┐
    //         │    └──► synth ─┴─► row
    //
    // so one point's synthesis overlaps another's co-simulation and
    // the workers steal whichever stage is ready. Deps index earlier
    // entries; a stage runs on point i.
    struct Stage
    {
        const char *label;
        std::function<void(size_t)> fn;
        std::vector<size_t> deps;
    };
    std::vector<Stage> stages;
    stages.push_back({"prepare", [&](size_t i) {
        const PlanPoint &pt = points[i];
        const SubsetSpec &sspec = plan.subsets[pt.subsetIdx];
        const TechSpec &tech = plan.techs.empty()
            ? defaultTechSpec() : plan.techs[pt.techIdx];
        PointState &state = states[i];
        ExplorationResult &row = state.row;
        row.index = pt.index;
        row.subsetName = sspec.name;
        row.workloadName = plan.workloads[pt.workloadIdx];
        row.techName = tech.tech.name;
        row.subset = resolveSubset(sspec, plan.opt);
        row.subsetSize = row.subset.size();
        state.tech = &tech.tech;
        state.subsetFp = subsetFingerprint(row.subset);
        if (opts.simulate)
            state.compiled = compileWorkload(row.workloadName, plan.opt);
    }, {}});
    if (opts.simulate) {
        stages.push_back({"sim", [&](size_t i) {
            PointState &state = states[i];
            ExplorationResult &row = state.row;
            // An assumed-passing unverified outcome must never be
            // served to a verifying sweep, so `verify = false` salts
            // the key (only then: default-keyed records stay valid).
            const uint64_t workloadFp = workloadKey(row.workloadName,
                                                    plan.opt);
            const FingerprintPair simKey{
                state.subsetFp,
                opts.verify ? workloadFp
                            : fnv1a(std::string("no-verify"),
                                    workloadFp)};
            row.simMemoHit = noteSimLookup(simKey);
            const flow::SimOutcome sim = caches->simLookup(simKey, [&] {
                return simulatePoint(row.subset, state.compiled);
            });
            row.simRun = true;
            row.trapped = sim.trapped;
            row.cosimPassed = sim.cosimPassed;
            row.cycles = sim.cycles;
            row.exitCode = sim.exitCode;
            row.signature = sim.signature;
            // The sim stage is the compiled image's only consumer;
            // release it so a large plan holds at most the in-flight
            // images, not one per point for the whole sweep.
            state.compiled = {};
        }, {0}});
    }
    if (opts.synthesize) {
        stages.push_back({"synth", [&](size_t i) {
            PointState &state = states[i];
            ExplorationResult &row = state.row;
            // Likewise the P&R columns: `physical = true` salts.
            const uint64_t techFp = techFingerprint(*state.tech);
            const FingerprintPair synthKey{
                state.subsetFp,
                opts.physical ? fnv1a(std::string("physical"), techFp)
                              : techFp};
            row.synthMemoHit = noteSynthLookup(synthKey);
            const flow::SynthOutcome synth =
                caches->synthLookup(synthKey, [&] {
                    return synthesizePoint(row.subset, row.subsetName,
                                           *state.tech);
                });
            row.synthRun = true;
            row.fmaxKhz = synth.fmaxKhz;
            row.avgAreaGe = synth.avgAreaGe;
            row.avgPowerMw = synth.avgPowerMw;
            row.epiNj = synth.epiNj;
            row.physRun = synth.physRun;
            row.dieAreaMm2 = synth.dieAreaMm2;
            row.physPowerMw = synth.physPowerMw;
        }, {0}});
    }
    std::vector<size_t> rowDeps(stages.size());
    std::iota(rowDeps.begin(), rowDeps.end(), size_t{0});
    stages.push_back({"row", [&](size_t i) {
        pointCount.fetch_add(1, std::memory_order_relaxed);
        table.set(std::move(states[i].row));
    }, rowDeps});

    // A failed stage skips its dependents; independent stages still
    // run. Once every stage has settled, the first failure in plan
    // order (point, then stage) is rethrown.
    std::exception_ptr firstFailure;
    auto settle = [&firstFailure](auto &&run) {
        try {
            run();
            return true;
        } catch (...) {
            if (!firstFailure)
                firstFailure = std::current_exception();
            return false;
        }
    };
    unsigned threads = opts.threads != 0 ? opts.threads : plan.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    if (threads == 1) {
        // No scheduler: the caller runs point after point, stages in
        // table order — the deterministic serial schedule the per-row
        // memo-hit flags are pinned against, holding one point's
        // intermediate state at a time.
        std::vector<uint8_t> ok(stages.size());
        for (size_t i = 0; i < states.size(); ++i) {
            for (size_t s = 0; s < stages.size(); ++s) {
                ok[s] = std::all_of(stages[s].deps.begin(),
                                    stages[s].deps.end(),
                                    [&ok](size_t d) { return ok[d]; }) &&
                        settle([&] { stages[s].fn(i); });
            }
        }
    } else {
        exec::Scheduler scheduler(threads);
        std::vector<exec::Scheduler::Handle> handles;
        for (size_t i = 0; i < states.size(); ++i) {
            const size_t base = handles.size();
            for (const Stage &stage : stages) {
                std::vector<exec::Scheduler::Handle> deps;
                for (size_t dep : stage.deps)
                    deps.push_back(handles[base + dep]);
                handles.push_back(scheduler.submit(
                    [&stage, i] { stage.fn(i); }, deps, stage.label));
            }
        }
        // Every handle, not just each row's: a failed sim fails its
        // row at once while that point's synth may still be writing
        // into `states`. A dependent settles with its dependency's
        // exception, so the first handle to throw in submission order
        // holds the first failure in plan order.
        for (const exec::Scheduler::Handle &handle : handles)
            settle([&handle] { handle.wait(); });
    }
    if (firstFailure)
        std::rethrow_exception(firstFailure);
    return table;
}

ExplorerStats
Explorer::stats() const
{
    ExplorerStats s;
    {
        LockGuard lock(statsMu);
        s = tallies;
    }
    s.points = pointCount.load(std::memory_order_relaxed);
    return s;
}

} // namespace rissp::explore
