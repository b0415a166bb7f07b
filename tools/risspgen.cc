/**
 * @file
 * risspgen — command-line front end for the RISSP generation flow.
 *
 *   risspgen characterize <src.c> [-O2]     subset + codesize report
 *   risspgen run <src.c> [-O2] [--verify]   execute on the generated
 *                                           RISSP (prints exit/MMIO),
 *                                           optionally co-simulated
 *   risspgen synth <src.c> [-O2]            synthesis + physical
 *            [--tech <spec>]                summary vs the baselines
 *   risspgen retarget <src.c> [-O2]         rewrite onto the minimal
 *                                           12-op subset and verify
 *   risspgen explore <plan-file>            sweep a design space
 *   risspgen table3                         regenerate Table 3 for
 *                                           the bundled workloads
 *   risspgen techs                          list the registered
 *                                           technologies
 *   risspgen batch <file|-> [--threads N]   serve many requests
 *                                           concurrently (one per
 *                                           line; see batch grammar
 *                                           below)
 *   risspgen serve [--port N] [--threads N] long-lived HTTP/JSON
 *            [--max-queue N] [--bind ADDR]  daemon over the Flow API
 *            [--max-connections N]          (see docs/SERVE.md)
 *            [--idle-timeout SECONDS]
 *
 * Every verb accepts --json: the machine-readable response from the
 * Flow API, verbatim (see flow/json.hh), instead of the human table.
 *
 * A request's words — `<source> [flags]` after the verb — are not
 * parsed into a request here: they are lowered onto the JSON body
 * the serve daemon reads, and the request codec (net/rest.hh) builds
 * the typed request from it. `@name` becomes "workload", a file path
 * "source" + "label" (read here, at the edge), `-Ox` "opt",
 * `--verify` "verify" and `--tech <spec>` "tech" (tech/registry.hh
 * grammar, e.g. silicon-65nm or flexic-0.6um:voltage=2.4). An
 * unknown, repeated or inapplicable flag, or a stray positional, is
 * a usage error (exit 2) — a typo never silently runs something
 * else.
 *
 * Batch files are line-oriented; '#' starts a comment. Each line is
 * a verb followed by the same words as a one-shot request:
 *
 *   characterize @crc32 -O1
 *   run @armpit --verify
 *   synth @crc32 --tech silicon-65nm
 *   retarget bench.c
 *   explore sweep.plan
 *
 * The whole batch is handed to `FlowService::runBatch`, which
 * decomposes every request into pipeline stages on one shared
 * work-stealing scheduler — identical in-flight work (the same
 * source compiled, the same subset swept) is computed once for the
 * whole batch. Responses print in request order with a per-request
 * status; the exit code is 0 only if every request succeeded.
 *
 * Sources are MiniC (see README). All pipeline logic — and all
 * request validation — lives behind the codec and the service, so a
 * malformed request exits with a structured error, never an abort.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "net/rest.hh"
#include "net/server.hh"
#include "store/disk_store.hh"
#include "tech/registry.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace rissp;

/** The flags every command shares, parsed off the command line. */
struct CliOptions
{
    std::string command;
    std::string cacheDir; ///< --cache-dir value; empty = no store
    bool json = false;
};

/** Open the persistent artifact store named by --cache-dir; a null
 *  result with an ok status means no --cache-dir was given. Unlike
 *  the in-service open (which degrades to memory-only with a
 *  warning), the CLI fails loudly — a user who typed --cache-dir
 *  wants to know it did not attach. */
Result<std::shared_ptr<store::ArtifactStore>>
openCliStore(const CliOptions &cli)
{
    if (cli.cacheDir.empty())
        return std::shared_ptr<store::ArtifactStore>();
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(cli.cacheDir);
    if (!opened)
        return opened.status();
    return std::shared_ptr<store::ArtifactStore>(opened.take());
}

/** Parse a non-negative integer CLI value (no sign, no suffix, at
 *  most @p max); false on anything else. */
bool
parseCount(const std::string &word, unsigned long max,
           unsigned long &out)
{
    size_t used = 0;
    try {
        out = std::stoul(word, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    return !word.empty() && used == word.size() && word[0] != '-' &&
           out <= max;
}

/** Report a failed request and pick the exit code. */
int
reportError(const Status &status, bool json)
{
    if (json)
        std::fputs(flow::toJson(status).c_str(), stdout);
    else
        std::fprintf(stderr, "risspgen: error: %s\n",
                     status.toString().c_str());
    return 1;
}

/** Report a command line that does not spell a request. */
int
usageError(const std::string &message)
{
    std::fprintf(stderr, "risspgen: error: %s\n", message.c_str());
    return 2;
}

/** Read a whole file (MiniC sources, batch files, plan files — all
 *  IO happens here, at the CLI edge; the service never opens
 *  paths). */
Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::errorf(ErrorCode::NotFound,
                              "cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ------------------------------------------------------- requests

/** A request's command-line words lowered onto codec body fields;
 *  the source file, if any, is still to be read. */
struct LoweredRequest
{
    net::Verb verb = net::Verb::Characterize;
    std::vector<JsonValue::Member> fields;
    std::string path; ///< file read into "source" or "plan"
};

/** Lower @p words — `<source> [flags...]` — for @p verb. Words that
 *  do not spell a request (a missing source, a stray positional, an
 *  unknown, repeated or inapplicable flag) are an InvalidArgument
 *  usage error; field values are left for the codec to check. */
Result<LoweredRequest>
lowerWords(net::Verb verb, const std::vector<std::string> &words)
{
    const char *name = net::verbName(verb);
    LoweredRequest lowered;
    lowered.verb = verb;
    if (words.empty() || words[0][0] == '-')
        return Status::errorf(ErrorCode::InvalidArgument,
                              "'%s' needs a %s", name,
                              verb == net::Verb::Explore
                                  ? "plan file"
                                  : "source file or @workload");
    if (verb != net::Verb::Explore && words[0][0] == '@')
        lowered.fields.emplace_back(
            "workload", JsonValue::makeString(words[0].substr(1)));
    else
        lowered.path = words[0];

    for (size_t i = 1; i < words.size(); ++i) {
        const std::string &word = words[i];
        JsonValue::Member field;
        if (word.rfind("-O", 0) == 0) {
            field = {"opt", JsonValue::makeString(word.substr(1))};
        } else if (word == "--verify") {
            field = {"verify", JsonValue::makeBool(true)};
        } else if (word == "--tech") {
            if (i + 1 >= words.size())
                return Status::error(ErrorCode::InvalidArgument,
                                     "--tech needs a value");
            field = {"tech", JsonValue::makeString(words[++i])};
        } else {
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "%s '%s'",
                                  word[0] == '-' ? "unknown flag"
                                                 : "unexpected argument",
                                  word.c_str());
        }
        if (!net::hasField(verb, field.first))
            return Status::errorf(ErrorCode::InvalidArgument,
                                  "'%s' does not take %s", name,
                                  word.c_str());
        for (const JsonValue::Member &seen : lowered.fields)
            if (seen.first == field.first)
                return Status::errorf(ErrorCode::InvalidArgument,
                                      "%s repeats an earlier flag",
                                      word.c_str());
        lowered.fields.push_back(std::move(field));
    }
    return lowered;
}

/** Read the lowered request's file at the edge, then build the
 *  typed request through the codec. */
Result<flow::Request>
buildRequest(LoweredRequest lowered)
{
    if (!lowered.path.empty()) {
        Result<std::string> text = readFile(lowered.path);
        if (!text)
            return text.status();
        if (lowered.verb == net::Verb::Explore) {
            lowered.fields.emplace_back(
                "plan", JsonValue::makeString(text.take()));
        } else {
            lowered.fields.emplace_back(
                "source", JsonValue::makeString(text.take()));
            lowered.fields.emplace_back(
                "label", JsonValue::makeString(lowered.path));
        }
    }
    return net::requestFromJson(
        lowered.verb, JsonValue::makeObject(std::move(lowered.fields)));
}

// ------------------------------------------------------ responses

// Human-readable reports, one per response type. Each prints only
// when the response got as far as its primary stage — a trapped run
// still reports its execution — and says whether it did.

bool
printReport(const flow::CharacterizeResponse &response)
{
    if (!response.status.isOk())
        return false;
    const InstrSubset &subset = response.subset.subset;
    std::printf("optimization   : %s\n",
                minic::optLevelName(response.compile.opt).c_str());
    std::printf("code size      : %zu instructions (%zu bytes)\n",
                response.compile.staticInstructions,
                response.compile.textBytes);
    std::printf("runtime helpers:");
    for (const std::string &h : response.compile.helpers)
        std::printf(" %s", h.c_str());
    std::printf("%s\n",
                response.compile.helpers.empty() ? " (none)" : "");
    std::printf("subset         : %zu of %zu base instructions "
                "(%.0f%%)\n", subset.size(), kFullIsaSize,
                subset.fractionOfFullIsa() * 100.0);
    std::printf("instructions   : %s\n", subset.describe().c_str());
    return true;
}

bool
printReport(const flow::RunResponse &response)
{
    const flow::ExecStage &exec = response.exec;
    if (!exec.run)
        return false;
    const char *why = exec.reason == StopReason::Halted ? "halted"
        : exec.reason == StopReason::Trapped ? "TRAPPED"
        : "step limit";
    std::printf("%s at pc=0x%x after %llu cycles, exit code %u\n",
                why, exec.stopPc,
                static_cast<unsigned long long>(exec.cycles),
                exec.exitCode);
    if (!exec.outputWords.empty()) {
        std::printf("output words  :");
        for (uint32_t w : exec.outputWords)
            std::printf(" %u", w);
        std::printf("\n");
    }
    if (!exec.outputText.empty())
        std::printf("output text   : %s\n", exec.outputText.c_str());
    return true;
}

bool
printReport(const flow::SynthResponse &response)
{
    if (!response.status.isOk())
        return false;
    const SynthReport &mine = response.synth.app;
    const SynthReport &full = response.synth.fullIsa;
    const SynthReport &serv = response.synth.serv;
    const PhysReport &impl = response.phys.report;

    std::printf("%-14s %8s %10s %10s %10s\n", "design", "instrs",
                "fmax kHz", "area GE", "power mW");
    std::printf("%-14s %8zu %10.0f %10.0f %10.3f\n",
                mine.name.c_str(), mine.subsetSize, mine.fmaxKhz,
                mine.avgAreaGe, mine.avgPowerMw);
    std::printf("%-14s %8zu %10.0f %10.0f %10.3f\n",
                full.name.c_str(), full.subsetSize, full.fmaxKhz,
                full.avgAreaGe, full.avgPowerMw);
    std::printf("%-14s %8s %10.0f %10.0f %10.3f\n",
                serv.name.c_str(), "full", serv.fmaxKhz,
                serv.avgAreaGe, serv.avgPowerMw);
    std::printf("\nsavings vs RISSP-RV32E: area %.0f%%, power "
                "%.0f%%\n",
                (1.0 - mine.avgAreaGe / full.avgAreaGe) * 100.0,
                (1.0 - mine.avgPowerMw / full.avgPowerMw) * 100.0);
    // The paper's process keeps its familiar label; any other
    // technology is reported under its registry name.
    const std::string &tech = response.synth.tech;
    std::printf("%s at %.0f kHz: %.0f x %.0f um, %.2f mm2, FF "
                "%.1f%%, %.3f mW\n",
                tech == "flexic-0.6um" ? "FlexIC" : tech.c_str(),
                impl.implKhz, impl.dieXUm, impl.dieYUm,
                impl.dieAreaMm2, impl.ffAreaFraction * 100.0,
                impl.powerMw);
    return true;
}

bool
printReport(const flow::RetargetResponse &response)
{
    if (!response.retarget.run)
        return false;
    const RetargetResult &res = response.retarget.result;
    if (!res.ok) {
        std::printf("retargeting failed: %s\n", res.error.c_str());
        return true;
    }
    std::printf("macros         : %zu synthesized+verified\n",
                res.macros.size());
    std::printf("code size      : %zu -> %zu bytes (%+.1f%%)\n",
                res.initialTextBytes, res.retargetedTextBytes,
                res.codeGrowth() * 100.0);
    std::printf("distinct ops   : %zu -> %zu\n",
                res.initialSubset.size(), res.finalSubset.size());
    const flow::EquivalenceStage &eq = response.equivalence;
    std::printf("equivalence    : %s (exit %u vs %u)\n",
                eq.matched ? "verified" : "MISMATCH", eq.refExit,
                eq.dutExit);
    return true;
}

bool
printReport(const flow::ExploreResponse &response)
{
    if (!response.status.isOk())
        return false;
    std::printf("%zu points swept, %zu on the Pareto frontier\n",
                response.table.size(),
                response.table.paretoFrontier().size());
    return true;
}

/** Print one response — its Flow API JSON, or its human report (an
 *  error line on stderr when it never got that far) — and return
 *  its exit code: 0 only when the request succeeded. */
int
printResponse(const flow::Response &response, bool json)
{
    const Status &status = flow::responseStatus(response);
    if (json)
        std::fputs(flow::toJson(response).c_str(), stdout);
    else if (!std::visit([](const auto &r) { return printReport(r); },
                         response))
        std::fprintf(stderr, "risspgen: error: %s\n",
                     status.toString().c_str());
    return status.isOk() ? 0 : 1;
}

/** A one-shot verb: `risspgen <verb> <source> [flags]`. */
int
cmdRequest(const CliOptions &cli, net::Verb verb,
           const std::vector<std::string> &words)
{
    Result<LoweredRequest> lowered = lowerWords(verb, words);
    if (!lowered)
        return usageError(lowered.status().message());
    Result<flow::Request> request = buildRequest(lowered.take());
    if (!request)
        return reportError(request.status(), cli.json);

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    return printResponse(service.dispatch(request.value()), cli.json);
}

int
cmdTechs(const CliOptions &cli)
{
    const TechRegistry &registry = TechRegistry::builtins();
    if (cli.json) {
        std::printf("[\n");
        const auto &list = registry.list();
        for (size_t i = 0; i < list.size(); ++i) {
            const Technology &t = list[i];
            std::printf("  {\"name\": \"%s\", \"description\": "
                        "\"%s\", \"supply_v\": %g, "
                        "\"gate_delay_ns\": %g, "
                        "\"ff_power_ratio\": %g, "
                        "\"impl_khz\": %g}%s\n",
                        jsonEscape(t.name).c_str(),
                        jsonEscape(t.description).c_str(),
                        t.supplyVoltageV, t.gateDelayNs,
                        t.ffPowerMultiplier, t.implKhz,
                        i + 1 < list.size() ? "," : "");
        }
        std::printf("]\n");
        return 0;
    }
    std::printf("%-22s %8s %12s %8s  %s\n", "name", "supply",
                "gate delay", "FF/NAND2", "description");
    for (const Technology &t : registry.list())
        std::printf("%-22s %6.1f V %9.3f ns %7.0fx  %s\n",
                    t.name.c_str(), t.supplyVoltageV, t.gateDelayNs,
                    t.ffPowerMultiplier, t.description.c_str());
    std::printf("\nspec grammar: <name>[:key=value,...]   e.g. "
                "flexic-0.6um:voltage=2.4,ffPowerRatio=8\n");
    return 0;
}

int
cmdTable3(const CliOptions &cli)
{
    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    bool first = true;
    if (cli.json)
        std::printf("[\n");
    for (const Workload &wl : allWorkloads()) {
        flow::CharacterizeRequest request;
        request.source = flow::SourceRef::bundled(wl.name);
        const flow::CharacterizeResponse response =
            service.characterize(request);
        if (!response.status.isOk())
            return reportError(response.status, cli.json);
        if (cli.json) {
            std::string row = flow::toJson(response);
            row.pop_back(); // the emitter's trailing newline
            std::printf("%s%s", first ? "" : ",\n", row.c_str());
            first = false;
            continue;
        }
        const InstrSubset &subset = response.subset.subset;
        std::printf("%-16s (%2zu) %s\n", wl.name.c_str(),
                    subset.size(), subset.describe().c_str());
    }
    if (cli.json)
        std::printf("\n]\n");
    return 0;
}

// ---------------------------------------------------------- batch

/** One parsed batch-file line. */
struct BatchEntry
{
    std::string text; ///< the request line, verbatim, for reports
    flow::Request request;
};

/** Parse one batch line: a verb, then the one-shot request words. */
Result<flow::Request>
requestFromLine(const std::string &line)
{
    std::istringstream in(line);
    std::string verbWord;
    in >> verbWord;
    Result<net::Verb> verb = net::verbFromName(verbWord);
    if (!verb)
        return verb.status();
    std::vector<std::string> words;
    for (std::string word; in >> word;)
        words.push_back(word);
    Result<LoweredRequest> lowered = lowerWords(verb.value(), words);
    if (!lowered)
        return lowered.status();
    return buildRequest(lowered.take());
}

int
cmdBatch(const CliOptions &cli, const std::vector<std::string> &args)
{
    if (args.empty())
        return usageError("batch needs a file (or - for stdin)");
    unsigned threads = 0;
    for (size_t i = 1; i < args.size(); ++i) {
        unsigned long n = 0;
        if (args[i] == "--threads" && i + 1 < args.size() &&
            parseCount(args[i + 1], 4096, n)) {
            threads = static_cast<unsigned>(n);
            ++i;
            continue;
        }
        return usageError("bad batch flag or value at '" + args[i] +
                          "'");
    }

    std::string text;
    if (args[0] == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        Result<std::string> file = readFile(args[0]);
        if (!file)
            return reportError(file.status(), cli.json);
        text = file.take();
    }

    // Parse every line first; like plan files, one pass reports
    // every malformed line, not just the first.
    std::vector<BatchEntry> entries;
    std::vector<std::string> errors;
    std::istringstream lines(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(lines, line)) {
        ++lineNo;
        // A comment '#' must start a word, so paths containing '#'
        // (e.g. my#file.c) survive.
        for (size_t hash = line.find('#');
             hash != std::string::npos;
             hash = line.find('#', hash + 1)) {
            if (hash == 0 || line[hash - 1] == ' ' ||
                line[hash - 1] == '\t') {
                line.erase(hash);
                break;
            }
        }
        const size_t last = line.find_last_not_of(" \t\r");
        if (last == std::string::npos)
            continue; // blank or comment-only
        line.erase(last + 1);

        Result<flow::Request> request = requestFromLine(line);
        if (!request) {
            errors.push_back(
                "batch line " + std::to_string(lineNo) + ": " +
                request.status().message());
            continue;
        }
        entries.push_back({line, request.take()});
    }
    if (!errors.empty()) {
        for (const std::string &message : errors)
            std::fprintf(stderr, "risspgen: error: %s\n",
                         message.c_str());
        return 2;
    }
    if (entries.empty())
        return usageError("batch file has no requests");

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    std::vector<flow::Request> requests;
    requests.reserve(entries.size());
    for (const BatchEntry &entry : entries)
        requests.push_back(entry.request);
    const std::vector<flow::Response> responses =
        service.runBatch(requests);

    size_t failed = 0;
    if (cli.json)
        std::printf("[\n");
    for (size_t i = 0; i < responses.size(); ++i) {
        const Status &status = flow::responseStatus(responses[i]);
        if (!status.isOk())
            ++failed;
        if (cli.json) {
            std::string row = flow::toJson(responses[i]);
            row.pop_back(); // the emitter's trailing newline
            std::printf("%s%s\n", row.c_str(),
                        i + 1 < responses.size() ? "," : "");
            continue;
        }
        std::printf("%s=== request %zu: %s\n    status: %s\n",
                    i ? "\n" : "", i + 1, entries[i].text.c_str(),
                    status.toString().c_str());
        printResponse(responses[i], false);
    }
    if (cli.json)
        std::printf("]\n");
    else
        std::printf("\n%zu/%zu requests succeeded\n",
                    responses.size() - failed, responses.size());
    return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------- cache

int
printCacheStats(const store::DiskStore &artifact_store, bool json)
{
    const store::DiskStore::Usage usage = artifact_store.usage();
    if (json) {
        std::printf("{\n  \"dir\": \"%s\",\n"
                    "  \"format_version\": %u,\n  \"kinds\": {\n",
                    jsonEscape(artifact_store.directory()).c_str(),
                    store::DiskStore::kFormatVersion);
        for (unsigned k = 0; k < store::kArtifactKindCount; ++k)
            std::printf("    \"%s\": {\"records\": %llu, "
                        "\"bytes\": %llu}%s\n",
                        store::kindName(
                            static_cast<store::ArtifactKind>(k)),
                        static_cast<unsigned long long>(
                            usage.kinds[k].records),
                        static_cast<unsigned long long>(
                            usage.kinds[k].bytes),
                        k + 1 < store::kArtifactKindCount ? ","
                                                          : "");
        std::printf(
            "  },\n  \"records\": %llu,\n  \"bytes\": %llu,\n"
            "  \"quarantine\": {\"files\": %llu, \"bytes\": "
            "%llu},\n  \"tmp_files\": %llu\n}\n",
            static_cast<unsigned long long>(usage.records),
            static_cast<unsigned long long>(usage.bytes),
            static_cast<unsigned long long>(usage.quarantineFiles),
            static_cast<unsigned long long>(usage.quarantineBytes),
            static_cast<unsigned long long>(usage.tmpFiles));
        return 0;
    }
    std::printf("store          : %s (format v%u)\n",
                artifact_store.directory().c_str(),
                store::DiskStore::kFormatVersion);
    for (unsigned k = 0; k < store::kArtifactKindCount; ++k)
        std::printf("%-15s: %llu records, %llu bytes\n",
                    store::kindName(
                        static_cast<store::ArtifactKind>(k)),
                    static_cast<unsigned long long>(
                        usage.kinds[k].records),
                    static_cast<unsigned long long>(
                        usage.kinds[k].bytes));
    std::printf("total          : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(usage.records),
                static_cast<unsigned long long>(usage.bytes));
    std::printf("quarantine     : %llu files, %llu bytes\n",
                static_cast<unsigned long long>(
                    usage.quarantineFiles),
                static_cast<unsigned long long>(
                    usage.quarantineBytes));
    std::printf("tmp            : %llu files\n",
                static_cast<unsigned long long>(usage.tmpFiles));
    return 0;
}

int
printCacheGc(const store::DiskStore::GcReport &report, bool json)
{
    if (json) {
        std::printf(
            "{\n  \"scanned\": {\"records\": %llu, \"bytes\": "
            "%llu},\n  \"evicted\": {\"records\": %llu, "
            "\"bytes\": %llu},\n  \"quarantine_purged\": %llu,\n"
            "  \"tmp_purged\": %llu,\n  \"remaining\": "
            "{\"records\": %llu, \"bytes\": %llu}\n}\n",
            static_cast<unsigned long long>(report.scannedRecords),
            static_cast<unsigned long long>(report.scannedBytes),
            static_cast<unsigned long long>(report.evictedRecords),
            static_cast<unsigned long long>(report.evictedBytes),
            static_cast<unsigned long long>(
                report.quarantinePurged),
            static_cast<unsigned long long>(report.tmpPurged),
            static_cast<unsigned long long>(
                report.remainingRecords),
            static_cast<unsigned long long>(
                report.remainingBytes));
        return 0;
    }
    std::printf("scanned        : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.scannedRecords),
                static_cast<unsigned long long>(
                    report.scannedBytes));
    std::printf("evicted        : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.evictedRecords),
                static_cast<unsigned long long>(
                    report.evictedBytes));
    std::printf("purged         : %llu quarantined, %llu tmp\n",
                static_cast<unsigned long long>(
                    report.quarantinePurged),
                static_cast<unsigned long long>(report.tmpPurged));
    std::printf("remaining      : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.remainingRecords),
                static_cast<unsigned long long>(
                    report.remainingBytes));
    return 0;
}

/** `cache warm`: run the expensive pipeline stages for the named
 *  (default: all bundled) workloads against the store, so the next
 *  boot — or a sibling process — starts hot. Explore requests fill
 *  the compile/sim/synth caches, synth requests the full-report
 *  cache plus the shared baselines. */
int
cmdCacheWarm(const CliOptions &cli,
             std::shared_ptr<store::ArtifactStore> artifact_store,
             const std::vector<std::string> &names, unsigned threads)
{
    std::vector<std::string> workloads;
    if (names.empty()) {
        for (const Workload &wl : allWorkloads())
            workloads.push_back(wl.name);
    } else {
        for (const std::string &name : names)
            workloads.push_back(name[0] == '@' ? name.substr(1)
                                               : name);
    }

    const uint64_t writesBefore = artifact_store->stats().writes;
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = std::move(artifact_store);
    const flow::FlowService service(serviceOptions);

    std::vector<flow::Request> requests;
    for (const std::string &name : workloads) {
        flow::ExploreRequest explore;
        explore.planText = "workload " + name + "\nsubset fit = @" +
                           name + "\n";
        explore.options.threads = 1; // batch provides parallelism
        requests.push_back(std::move(explore));

        flow::SynthRequest synth;
        synth.source = flow::SourceRef::bundled(name);
        synth.name = "RISSP-" + name;
        requests.push_back(std::move(synth));
    }

    const std::vector<flow::Response> responses =
        service.runBatch(requests);
    size_t failed = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        const Status &status = flow::responseStatus(responses[i]);
        if (status.isOk())
            continue;
        ++failed;
        std::fprintf(stderr,
                     "risspgen: cache warm: request %zu (%s): %s\n",
                     i + 1, workloads[i / 2].c_str(),
                     status.toString().c_str());
    }
    const store::StoreStats after =
        service.caches()->artifacts->stats();
    if (cli.json) {
        std::printf("{\n  \"workloads\": %zu,\n  \"requests\": "
                    "%zu,\n  \"failed\": %zu,\n  \"published\": "
                    "%llu,\n  \"store_hits\": %llu\n}\n",
                    workloads.size(), responses.size(), failed,
                    static_cast<unsigned long long>(after.writes -
                                                    writesBefore),
                    static_cast<unsigned long long>(after.hits));
    } else {
        std::printf("warmed %zu workloads (%zu requests, %zu "
                    "failed): %llu records published, %llu "
                    "already hot\n",
                    workloads.size(), responses.size(), failed,
                    static_cast<unsigned long long>(after.writes -
                                                    writesBefore),
                    static_cast<unsigned long long>(after.hits));
    }
    return failed == 0 ? 0 : 1;
}

int
cmdCache(const CliOptions &cli, const std::vector<std::string> &args)
{
    if (args.empty() || args[0][0] == '-') {
        std::fprintf(stderr, "usage: risspgen cache "
                             "<stats|gc|warm> --cache-dir <dir> "
                             "[flags]\n");
        return 2;
    }
    const std::string &sub = args[0];

    unsigned long maxMb = 0;
    unsigned long maxAgeDays = 0;
    unsigned threads = 0;
    std::vector<std::string> names;
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const bool hasValue = i + 1 < args.size();
        unsigned long n = 0;
        if (sub == "gc" && arg == "--max-mb" && hasValue &&
            parseCount(args[i + 1], 1'000'000'000ul, n)) {
            maxMb = n;
            ++i;
        } else if (sub == "gc" && arg == "--max-age-days" &&
                   hasValue &&
                   parseCount(args[i + 1], 100'000ul, n)) {
            maxAgeDays = n;
            ++i;
        } else if (sub == "warm" && arg == "--threads" && hasValue &&
                   parseCount(args[i + 1], 4096, n)) {
            threads = static_cast<unsigned>(n);
            ++i;
        } else if (sub == "warm" && arg[0] != '-') {
            names.push_back(arg);
        } else {
            std::fprintf(stderr,
                         "risspgen: bad cache %s flag or value at "
                         "'%s'\n",
                         sub.c_str(), arg.c_str());
            return 2;
        }
    }

    if (cli.cacheDir.empty()) {
        std::fprintf(stderr, "risspgen: cache %s needs "
                             "--cache-dir <dir>\n",
                     sub.c_str());
        return 2;
    }
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(cli.cacheDir);
    if (!opened)
        return reportError(opened.status(), cli.json);
    std::shared_ptr<store::DiskStore> artifactStore = opened.take();

    if (sub == "stats")
        return printCacheStats(*artifactStore, cli.json);
    if (sub == "gc") {
        store::DiskStore::GcPolicy policy;
        policy.maxTotalBytes = maxMb * 1024 * 1024;
        policy.maxAgeSeconds =
            static_cast<int64_t>(maxAgeDays) * 24 * 3600;
        return printCacheGc(artifactStore->gc(policy), cli.json);
    }
    if (sub == "warm")
        return cmdCacheWarm(cli, artifactStore, names, threads);
    std::fprintf(stderr,
                 "risspgen: unknown cache subcommand '%s' "
                 "(stats, gc, warm)\n",
                 sub.c_str());
    return 2;
}

// ---------------------------------------------------------- serve

/** The running daemon, for the signal handler. The handler only
 *  calls requestShutdown(), which is one write(2) on a pre-opened
 *  pipe — async-signal-safe by construction. */
std::atomic<rissp::net::HttpServer *> g_server{nullptr};

extern "C" void
onTerminate(int)
{
    if (rissp::net::HttpServer *server =
            g_server.load(std::memory_order_acquire))
        server->requestShutdown();
}

int
cmdServe(const CliOptions &cli, const std::vector<std::string> &args)
{
    net::ServeOptions options;
    unsigned threads = 0;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const bool hasValue = i + 1 < args.size();
        unsigned long n = 0;
        if (arg == "--port" && hasValue &&
            parseCount(args[i + 1], 65535, n)) {
            options.port = static_cast<uint16_t>(n);
            ++i;
        } else if (arg == "--threads" && hasValue &&
                   parseCount(args[i + 1], 4096, n)) {
            threads = static_cast<unsigned>(n);
            ++i;
        } else if (arg == "--max-queue" && hasValue &&
                   parseCount(args[i + 1], 1'000'000, n) && n > 0) {
            options.maxQueue = static_cast<size_t>(n);
            ++i;
        } else if (arg == "--max-connections" && hasValue &&
                   parseCount(args[i + 1], 1'000'000, n) && n > 0) {
            options.maxConnections = static_cast<size_t>(n);
            ++i;
        } else if (arg == "--idle-timeout" && hasValue &&
                   parseCount(args[i + 1], 86'400, n)) {
            // Seconds on the CLI; 0 disables idle reaping.
            options.idleTimeoutMs = static_cast<int>(n) * 1000;
            ++i;
        } else if (arg == "--bind" && hasValue) {
            options.bindAddress = args[++i];
        } else {
            std::fprintf(stderr,
                         "risspgen: bad serve flag or value at "
                         "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts) {
        std::fprintf(stderr, "risspgen: error: %s\n",
                     artifacts.status().toString().c_str());
        return 1;
    }
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    net::HttpServer server(service, options);
    const Status status = server.start();
    if (!status.isOk()) {
        std::fprintf(stderr, "risspgen: error: %s\n",
                     status.toString().c_str());
        return 1;
    }
    g_server.store(&server, std::memory_order_release);
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);

    std::printf("risspgen: serving on %s:%u (scheduler threads=%u, "
                "queue=%zu, connections=%zu)\n",
                options.bindAddress.c_str(), server.port(),
                service.scheduler().threadCount(),
                options.maxQueue, options.maxConnections);
    std::fflush(stdout);

    server.waitUntilStopped();
    g_server.store(nullptr, std::memory_order_release);
    std::printf("risspgen: drained, all in-flight requests "
                "completed\n");
    return 0;
}

void
usage()
{
    std::printf(
        "usage: risspgen <command> [args]\n"
        "  characterize <src.c|@workload> [-O0..-Oz] [--json]\n"
        "  run          <src.c|@workload> [-O0..-Oz] [--verify] "
        "[--json]\n"
        "  synth        <src.c|@workload> [-O0..-Oz] [--json]\n"
        "               [--tech <name[:key=value,...]>]\n"
        "  retarget     <src.c|@workload> [-O0..-Oz] [--json]\n"
        "  explore      <plan-file> [--json]\n"
        "  table3 [--json]\n"
        "  techs  [--json]            list registered technologies\n"
        "  batch <file|-> [--threads N] [--json]\n"
        "         serve one request per line concurrently; lines\n"
        "         use the verb syntax above\n"
        "  serve [--port N] [--bind ADDR] [--threads N]\n"
        "        [--max-queue N] [--max-connections N]\n"
        "        [--idle-timeout SECONDS]\n"
        "         long-lived HTTP/JSON daemon over the Flow API:\n"
        "         POST /api/v1/<verb>, GET /metrics, GET /healthz,\n"
        "         POST /shutdown; drains gracefully on SIGTERM\n"
        "         (endpoint + schema reference: docs/SERVE.md)\n"
        "  cache <stats|gc|warm> --cache-dir <dir> [--json]\n"
        "         inspect, garbage-collect (gc: [--max-mb N]\n"
        "         [--max-age-days N]) or pre-populate (warm:\n"
        "         [--threads N] [@workload...]) a persistent\n"
        "         artifact store (docs/CACHE.md)\n"
        "\n"
        "Request flags map onto the REST body fields (docs/SERVE.md);\n"
        "an unknown, repeated or inapplicable flag, or a stray\n"
        "argument, is rejected with exit code 2.\n"
        "Every verb accepts --cache-dir <dir>: persist compile/sim/\n"
        "synth artifacts across runs in a content-addressed store\n"
        "(created on first use).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    // The flags every command shares come out here; each command
    // parses the rest.
    CliOptions cli;
    cli.command = argv[1];
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--cache-dir") {
            if (i + 1 >= argc)
                return usageError("--cache-dir needs a value");
            cli.cacheDir = argv[++i];
        } else {
            args.push_back(arg);
        }
    }

    if (cli.command == "batch")
        return cmdBatch(cli, args);
    if (cli.command == "serve")
        return cmdServe(cli, args);
    if (cli.command == "cache")
        return cmdCache(cli, args);
    if (cli.command == "techs" || cli.command == "table3") {
        if (!args.empty())
            return usageError("unexpected argument '" + args[0] + "'");
        return cli.command == "techs" ? cmdTechs(cli) : cmdTable3(cli);
    }
    Result<net::Verb> verb = net::verbFromName(cli.command);
    if (!verb) {
        usage();
        return 2;
    }
    return cmdRequest(cli, verb.value(), args);
}
