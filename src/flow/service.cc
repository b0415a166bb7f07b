/**
 * @file
 * FlowService implementation.
 *
 * Every verb is a static *stage table* over a per-request job
 * struct: each entry names a stage, the function that runs it and
 * the earlier entries it depends on. One runner executes a table in
 * two ways — inline, in table order, for the synchronous verbs and
 * `dispatch()`; or on the shared `exec::Scheduler`, one task per
 * entry labelled with the entry's name, for `submitAsync` and
 * `dispatchAsync`. Both run the same stage functions in an order the
 * dependency edges allow, so the two disciplines produce identical
 * responses by construction. Each stage guards on the job's
 * accumulated status, so a failure short-circuits the remaining
 * stages, while every stage that did complete stays in the response.
 */

#include "flow/flow.hh"

#include <atomic>

#include "core/rissp.hh"
#include "serv/serv_model.hh"
#include "workloads/workloads.hh"

namespace rissp::flow
{

namespace
{

using Caches = std::shared_ptr<StageCaches>;

void
fillCompileStage(CompileStage &stage,
                 const minic::CompileResult &compiled,
                 minic::OptLevel opt)
{
    stage.run = true;
    stage.opt = opt;
    stage.staticInstructions = compiled.staticInstructions();
    stage.textBytes = compiled.program.textSize;
    stage.helpers.assign(compiled.helpers.begin(),
                         compiled.helpers.end());
}

/** Resolve + compile a source, memoized in the shared cache. */
Result<minic::CompileResult>
compileSource(StageCaches &caches, const SourceRef &source,
              minic::OptLevel opt)
{
    const std::string *text = &source.text;
    const std::string *label = &source.label;
    if (!source.workload.empty()) {
        const Workload *wl = findWorkload(source.workload);
        if (!wl)
            return Status::errorf(ErrorCode::NotFound,
                                  "unknown workload '%s'",
                                  source.workload.c_str());
        text = &wl->source;
        label = &wl->name;
    }
    return caches.compileLookup(sourceKey(*label, *text, opt), [&] {
        return minic::tryCompile(*text, opt);
    });
}

/** The pipeline state of one request: the request, the response its
 *  stages fill in, and whatever scratch passes between stages.
 *  Specialized per request type below, each with its stage table. */
template <typename Req>
struct Job;

/** One entry of a verb's stage table. */
template <typename Req>
struct Stage
{
    const char *name; ///< the scheduler task label ("run:compile")
    void (*fn)(const Caches &caches, Job<Req> &job);
    std::vector<size_t> deps; ///< indices of earlier entries
};

/** A verb's stages in a topological order. The last entry is the
 *  sink: it depends, directly or not, on every other entry, so its
 *  completion settles the request. */
template <typename Req>
using StageTable = std::vector<Stage<Req>>;

// --------------------------------------------------- characterize

template <>
struct Job<CharacterizeRequest>
{
    CharacterizeRequest request;
    CharacterizeResponse response;
    static const StageTable<CharacterizeRequest> stages;
};

void
characterizeStage(const Caches &caches, Job<CharacterizeRequest> &job)
{
    const CharacterizeRequest &request = job.request;
    const Result<minic::CompileResult> compiled =
        compileSource(*caches, request.source, request.opt);
    if (!compiled) {
        job.response.status = compiled.status();
        return;
    }
    fillCompileStage(job.response.compile, compiled.value(),
                     request.opt);
    job.response.subset.run = true;
    job.response.subset.subset =
        InstrSubset::fromProgram(compiled.value().program);
}

const StageTable<CharacterizeRequest>
    Job<CharacterizeRequest>::stages = {
        {"characterize:compile", characterizeStage, {}},
};

// ------------------------------------------------------------ run

template <>
struct Job<RunRequest>
{
    RunRequest request;
    RunResponse response;
    std::optional<Result<minic::CompileResult>> compiled;
    static const StageTable<RunRequest> stages;
};

void
runCompileStage(const Caches &caches, Job<RunRequest> &job)
{
    job.compiled.emplace(
        compileSource(*caches, job.request.source, job.request.opt));
    if (!*job.compiled) {
        job.response.status = job.compiled->status();
        return;
    }
    fillCompileStage(job.response.compile, job.compiled->value(),
                     job.request.opt);
    job.response.subset.run = true;
    job.response.subset.subset = job.request.subsetOverride
        ? *job.request.subsetOverride
        : InstrSubset::fromProgram(job.compiled->value().program);
}

void
runExecStage(const Caches &, Job<RunRequest> &job)
{
    if (!job.response.status.isOk())
        return;
    const Program &program = job.compiled->value().program;
    Rissp chip(job.response.subset.subset, "RISSP");
    chip.reset(program);
    const RunResult run = chip.run(job.request.maxSteps);
    ExecStage &exec = job.response.exec;
    exec.run = true;
    exec.reason = run.reason;
    exec.stopPc = run.stopPc;
    exec.cycles = run.instret;
    exec.exitCode = run.exitCode;
    exec.outputWords = chip.outputWords();
    exec.outputText = chip.outputText();

    switch (run.reason) {
      case StopReason::Trapped:
        job.response.status = Status::errorf(
            ErrorCode::Trap,
            "trapped at pc=0x%x: instruction outside the subset",
            run.stopPc);
        break;
      case StopReason::StepLimit:
        job.response.status = Status::errorf(
            ErrorCode::StepLimit,
            "step limit of %llu cycles reached at pc=0x%x",
            static_cast<unsigned long long>(job.request.maxSteps),
            run.stopPc);
        break;
      default:
        break;
    }
}

void
runCosimStage(const Caches &, Job<RunRequest> &job)
{
    // Skips after any upstream failure (including a trap or a step
    // limit in the exec stage) and when verification wasn't asked
    // for.
    if (!job.response.status.isOk() || !job.request.verify)
        return;
    // cosimulate() re-executes DUT and reference lock-step from
    // reset (the DUT in traced blocks, the reference one step()
    // at a time); a verified run therefore executes the program
    // twice, like the Figure 4 flow it mirrors. The exec stage is
    // not derived from the cosim pass: it fails a run that never
    // halts at its step limit, untraced, before any lock-step.
    CosimOptions options;
    options.maxSteps = job.request.maxSteps;
    options.fault = job.request.injectFault
        ? &*job.request.injectFault : nullptr;
    const CosimReport cosim =
        cosimulate(job.compiled->value().program,
                   job.response.subset.subset, options);
    CosimStage &stage = job.response.cosim;
    stage.run = true;
    stage.passed = cosim.passed;
    stage.instret = cosim.instret;
    stage.rvfiEventsChecked = cosim.monitor.eventsChecked;
    stage.firstDivergence = cosim.firstDivergence;
    if (!cosim.passed) {
        job.response.status = Status::error(
            ErrorCode::CosimMismatch,
            "co-simulation diverged: " + cosim.firstDivergence);
    }
}

const StageTable<RunRequest> Job<RunRequest>::stages = {
    {"run:compile", runCompileStage, {}},
    {"run:exec", runExecStage, {0}},
    {"run:cosim", runCosimStage, {1}},
};

// ---------------------------------------------------------- synth

template <>
struct Job<SynthRequest>
{
    SynthRequest request;
    SynthResponse response;
    /** Raw sweep results; applied to the response in deterministic
     *  order by the finish stage, so the app and baseline sweeps
     *  may run on different workers. */
    std::optional<Result<SynthReport>> app;
    std::optional<Result<SynthReport>> fullIsa;
    std::optional<SynthReport> serv;
    static const StageTable<SynthRequest> stages;
};

void
synthSubsetStage(const Caches &caches, Job<SynthRequest> &job)
{
    job.response.subset.run = true;
    if (job.request.subsetOverride) {
        job.response.subset.subset = *job.request.subsetOverride;
        return;
    }
    const Result<minic::CompileResult> compiled =
        compileSource(*caches, job.request.source, job.request.opt);
    if (!compiled) {
        job.response.status = compiled.status();
        return;
    }
    fillCompileStage(job.response.compile, compiled.value(),
                     job.request.opt);
    job.response.subset.subset =
        InstrSubset::fromProgram(compiled.value().program);
}

void
synthAppStage(const Caches &caches, Job<SynthRequest> &job)
{
    if (!job.response.status.isOk())
        return;
    const Technology &tech = job.request.tech.tech;
    const InstrSubset &subset = job.response.subset.subset;
    job.app = caches->synthReportLookup(
        synthReportKey(job.request.name,
                       explore::subsetFingerprint(subset),
                       explore::techFingerprint(tech)),
        [&] {
            return SynthesisModel(tech).trySynthesize(
                subset, job.request.name);
        });
}

void
synthBaselineStage(const Caches &caches, Job<SynthRequest> &job)
{
    // Independent of the app sweep, so it may run concurrently with
    // it: it only reads the tech and writes its own job slots, and
    // the finish stage discards its results if the app sweep failed.
    if (!job.response.status.isOk() || !job.request.baselines)
        return;
    const Technology &tech = job.request.tech.tech;
    const InstrSubset full = InstrSubset::fullRv32e();
    job.fullIsa = caches->synthReportLookup(
        synthReportKey("RISSP-RV32E",
                       explore::subsetFingerprint(full),
                       explore::techFingerprint(tech)),
        [&] {
            return SynthesisModel(tech).trySynthesize(full,
                                                      "RISSP-RV32E");
        });
    if (*job.fullIsa)
        job.serv = ServModel(tech).synthReport();
}

void
synthFinishStage(const Caches &, Job<SynthRequest> &job)
{
    if (!job.response.status.isOk())
        return;
    if (!*job.app) {
        job.response.status = job.app->status();
        return;
    }
    SynthStage &synth = job.response.synth;
    synth.run = true;
    synth.tech = job.request.tech.tech.name;
    // The job's results are detached copies of the cache entries
    // and dead after this stage: move the sweep vectors out.
    synth.app = job.app->take();

    if (job.request.baselines) {
        if (!*job.fullIsa) {
            // The corner is so hostile even the baseline fails; the
            // app numbers above still stand.
            job.response.status = job.fullIsa->status();
            return;
        }
        synth.baselinesRun = true;
        synth.fullIsa = job.fullIsa->take();
        synth.serv = std::move(*job.serv);
    }

    if (job.request.physical) {
        const PhysicalModel phys(job.request.tech.tech);
        job.response.phys.run = true;
        job.response.phys.report =
            phys.implement(synth.app, RfStyle::LatchArray);
    }
}

const StageTable<SynthRequest> Job<SynthRequest>::stages = {
    {"synth:subset", synthSubsetStage, {}},
    {"synth:app", synthAppStage, {0}},
    {"synth:baselines", synthBaselineStage, {0}},
    {"synth:finish", synthFinishStage, {1, 2}},
};

// ------------------------------------------------------- retarget

template <>
struct Job<RetargetRequest>
{
    RetargetRequest request;
    RetargetResponse response;
    std::optional<Result<minic::CompileResult>> compiled;
    InstrSubset target;
    static const StageTable<RetargetRequest> stages;
};

void
retargetCompileStage(const Caches &caches, Job<RetargetRequest> &job)
{
    job.compiled.emplace(
        compileSource(*caches, job.request.source, job.request.opt));
    if (!*job.compiled) {
        job.response.status = job.compiled->status();
        return;
    }
    fillCompileStage(job.response.compile, job.compiled->value(),
                     job.request.opt);
}

void
retargetRewriteStage(const Caches &caches, Job<RetargetRequest> &job)
{
    if (!job.response.status.isOk())
        return;
    job.target = job.request.target
        ? *job.request.target : Retargeter::minimalSubset();
    const Status valid = Retargeter::validateTarget(job.target);
    if (!valid) {
        job.response.status = valid;
        return;
    }
    Retargeter tool(job.target, Retargeter::kDefaultSeed,
                    [&caches](Op op, const std::string &body) {
                        return caches->macroVerdict.getOrCompute(
                            macroVerdictKey(op, body), [&] {
                                return Retargeter::verifyMacro(op, body);
                            });
                    });
    job.response.retarget.run = true;
    job.response.retarget.result =
        tool.retarget(job.compiled->value().program);
    const RetargetResult &result = job.response.retarget.result;
    if (!result.ok) {
        job.response.status = Status::error(ErrorCode::RetargetError,
                                            result.error);
    }
}

void
retargetEquivalenceStage(const Caches &, Job<RetargetRequest> &job)
{
    if (!job.response.status.isOk() ||
        !job.request.verifyEquivalence) {
        return;
    }
    const Program &program = job.compiled->value().program;
    RefSim golden;
    golden.reset(program);
    const RunResult want = golden.run(job.request.maxSteps);
    Rissp chip(job.target, "retarget-dut");
    chip.reset(job.response.retarget.result.program);
    const RunResult got = chip.run(job.request.maxSteps);

    EquivalenceStage &eq = job.response.equivalence;
    eq.run = true;
    eq.refReason = want.reason;
    eq.dutReason = got.reason;
    eq.refExit = want.exitCode;
    eq.dutExit = got.exitCode;
    eq.matched = want.reason == got.reason &&
        want.exitCode == got.exitCode &&
        golden.outputWords() == chip.outputWords();
    if (!eq.matched) {
        job.response.status = Status::error(
            ErrorCode::CosimMismatch,
            "retargeted program diverges from the original");
    }
}

const StageTable<RetargetRequest> Job<RetargetRequest>::stages = {
    {"retarget:compile", retargetCompileStage, {}},
    {"retarget:rewrite", retargetRewriteStage, {0}},
    {"retarget:equivalence", retargetEquivalenceStage, {1}},
};

// -------------------------------------------------------- explore

template <>
struct Job<ExploreRequest>
{
    ExploreRequest request;
    ExploreResponse response;
    static const StageTable<ExploreRequest> stages;
};

/** One stage: the sweep parallelizes internally, on the
 *  Explorer's own scheduler. */
void
exploreStage(const Caches &caches, Job<ExploreRequest> &job)
{
    ExploreResponse &response = job.response;
    if (job.request.plan) {
        response.plan = *job.request.plan;
    } else {
        Result<explore::ExplorationPlan> parsed =
            explore::ExplorationPlan::parse(job.request.planText);
        if (!parsed) {
            response.status = parsed.status();
            return;
        }
        response.plan = parsed.take();
    }
    const Status valid = response.plan.validate();
    if (!valid) {
        response.status = valid;
        return;
    }

    explore::Explorer explorer(job.request.options, caches);
    response.table = explorer.explore(response.plan);
    response.stats = explorer.stats();
}

const StageTable<ExploreRequest> Job<ExploreRequest>::stages = {
    {"explore:sweep", exploreStage, {}},
};

// --------------------------------------------------------- runner

/** Run @p request's table inline on the caller's thread, in table
 *  order; a stage exception propagates to the caller. */
template <typename Req>
auto
runInline(const Caches &caches, const Req &request)
{
    Job<Req> job;
    job.request = request;
    for (const Stage<Req> &stage : Job<Req>::stages)
        stage.fn(caches, job);
    return std::move(job.response);
}

Status
statusFromException(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &ex) {
        return Status::errorf(ErrorCode::Internal,
                              "internal error: %s", ex.what());
    } catch (...) {
        return Status::error(ErrorCode::Internal, "internal error");
    }
}

/** How an async request settles, exactly once: with the sink's
 *  response and a null exception, or — when a stage throws — with a
 *  response of the request's own alternative carrying an Internal
 *  status, plus the exception. */
using Settle = std::function<void(Response, std::exception_ptr)>;

/** A job in flight on the scheduler, shared by its stage tasks. */
template <typename Req>
struct AsyncJob
{
    Job<Req> job;
    Settle settle;
    std::atomic<bool> settled{false};
};

/** Submit one task per table entry, labelled with the entry's name
 *  and wired to its dependencies; returns immediately. A throwing
 *  stage settles the request, and the exception then also
 *  propagates to the scheduler, so dependent stages are skipped. */
template <typename Req>
void
submitStages(exec::Scheduler &sched, const Caches &caches,
             Req request, Settle settle)
{
    auto state = std::make_shared<AsyncJob<Req>>();
    state->job.request = std::move(request);
    state->settle = std::move(settle);
    const StageTable<Req> &table = Job<Req>::stages;
    std::vector<exec::Scheduler::Handle> handles;
    handles.reserve(table.size());
    for (const Stage<Req> &stage : table) {
        std::vector<exec::Scheduler::Handle> deps;
        for (size_t dep : stage.deps)
            deps.push_back(handles[dep]);
        const bool sink = handles.size() + 1 == table.size();
        handles.push_back(sched.submit(
            [state, &caches, fn = stage.fn, sink] {
                try {
                    fn(caches, state->job);
                } catch (...) {
                    if (!state->settled.exchange(true)) {
                        decltype(state->job.response) failed;
                        failed.status = statusFromException(
                            std::current_exception());
                        state->settle(std::move(failed),
                                      std::current_exception());
                    }
                    throw;
                }
                if (sink && !state->settled.exchange(true))
                    state->settle(std::move(state->job.response),
                                  nullptr);
            },
            deps, stage.name));
    }
}

void
submitRequest(exec::Scheduler &sched, const Caches &caches,
              Request request, Settle settle)
{
    std::visit(
        [&](auto &&r) {
            submitStages(sched, caches, std::move(r),
                         std::move(settle));
        },
        std::move(request));
}

} // namespace

const Status &
responseStatus(const Response &response)
{
    return std::visit(
        [](const auto &r) -> const Status & { return r.status; },
        response);
}

FlowService::FlowService(std::shared_ptr<StageCaches> caches,
                         unsigned scheduler_threads)
    : stageCaches(caches ? std::move(caches)
                         : std::make_shared<StageCaches>()),
      schedulerThreads(scheduler_threads)
{
}

FlowService::FlowService(const ServiceOptions &options,
                         std::shared_ptr<StageCaches> caches)
    : FlowService(std::move(caches), options.schedulerThreads)
{
    if (options.artifacts && !stageCaches->artifacts)
        stageCaches->artifacts = options.artifacts;
}

exec::Scheduler &
FlowService::scheduler() const
{
    std::call_once(schedulerOnce, [this] {
        stageScheduler =
            std::make_unique<exec::Scheduler>(schedulerThreads);
    });
    return *stageScheduler;
}

CharacterizeResponse
FlowService::characterize(const CharacterizeRequest &request) const
{
    return runInline(stageCaches, request);
}

RunResponse
FlowService::run(const RunRequest &request) const
{
    return runInline(stageCaches, request);
}

SynthResponse
FlowService::synth(const SynthRequest &request) const
{
    return runInline(stageCaches, request);
}

RetargetResponse
FlowService::retarget(const RetargetRequest &request) const
{
    return runInline(stageCaches, request);
}

ExploreResponse
FlowService::explore(const ExploreRequest &request) const
{
    return runInline(stageCaches, request);
}

Response
FlowService::dispatch(const Request &request) const
{
    return std::visit(
        [this](const auto &r) -> Response {
            return runInline(stageCaches, r);
        },
        request);
}

std::future<Response>
FlowService::submitAsync(Request request) const
{
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> future = promise->get_future();
    submitRequest(scheduler(), stageCaches, std::move(request),
                  [promise](Response response,
                            std::exception_ptr error) {
                      if (error)
                          promise->set_exception(std::move(error));
                      else
                          promise->set_value(std::move(response));
                  });
    return future;
}

void
FlowService::dispatchAsync(Request request,
                           std::function<void(Response)> done) const
{
    submitRequest(scheduler(), stageCaches, std::move(request),
                  [done = std::move(done)](Response response,
                                           std::exception_ptr) {
                      done(std::move(response));
                  });
}

std::vector<Response>
FlowService::runBatch(const std::vector<Request> &requests) const
{
    std::vector<std::future<Response>> futures;
    futures.reserve(requests.size());
    for (const Request &request : requests)
        futures.push_back(submitAsync(request));
    std::vector<Response> responses;
    responses.reserve(futures.size());
    for (std::future<Response> &future : futures)
        responses.push_back(future.get());
    return responses;
}

} // namespace rissp::flow
