/**
 * @file
 * perfbench — the repository benchmark (BENCHMARK.json).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * Workloads: app_flow_cold, retarget_cold, serve_hot, explore_warm.
 * Prints log lines, then one JSON line: with --trace 0 the
 * end-to-end metrics, with --trace 1 the per-layer metrics (and a
 * Chrome trace at <out-dir>/<workload>.trace.json). Exits 1 when any
 * output check fails, 2 on bad usage or a build that must not report.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>

#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<app_flow_cold|retarget_cold|serve_hot|explore_warm> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, std::function<Outcome(Context &)>>
        workloads = {{"app_flow_cold", runAppFlowCold},
                     {"retarget_cold", runRetargetCold},
                     {"serve_hot", runServeHot},
                     {"explore_warm", runExploreWarm}};

    Config config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            config.seconds = std::strtod(value.c_str(), &end);
        else if (flag == "--trace" && value != "0" && value != "1")
            return usage("--trace must be 0 or 1");
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--out-dir")
            config.outDir = value;
        else
            return usage(("unknown flag " + flag).c_str());
        if (end && *end != '\0')
            return usage(("bad number for " + flag).c_str());
    }
    auto entry = workloads.find(config.workload);
    if (entry == workloads.end())
        return usage("unknown or missing --workload");
    if (!(config.seconds > 0))
        return usage("--seconds must be positive");
    if (const char *why = buildRefusal()) {
        std::fprintf(stderr, "perfbench: refusing to report from %s\n",
                     why);
        return 2;
    }
    config.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::signal(SIGPIPE, SIG_IGN);

    Context ctx;
    ctx.config = config;
    ctx.workDir = config.outDir + "/work-" + std::to_string(getpid());
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u scheduler_threads=%u clients=%u %s\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0, config.nproc,
                config.nproc, config.nproc,
                buildDescription().c_str());

    Outcome out;
    int status = 0;
    try {
        std::filesystem::create_directories(ctx.workDir);
        out = entry->second(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        status = 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(ctx.workDir, ignored);
    if (status != 0)
        return status;

    if (config.trace) {
        const std::string path =
            config.outDir + "/" + config.workload + ".trace.json";
        if (!ctx.tracer.writeChromeTrace(path))
            out.fail("cannot write " + path);
        else
            out.notes.push_back("trace: " + path);
    }
    printOutcome(config, out);
    return out.failed == 0 ? 0 : 1;
}
