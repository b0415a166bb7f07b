/**
 * @file
 * rissp-explore — sweep a design space of (instruction subset,
 * workload, technology) points in parallel and report the Pareto
 * frontier.
 *
 *   rissp-explore <plan-file> [options]
 *   rissp-explore --demo [options]
 *
 * Options:
 *   --threads N    worker threads (overrides the plan; 1 = serial)
 *   --csv FILE     write the full result table as CSV
 *   --json FILE    write the full result table as JSON
 *   --no-verify    skip lock-step co-simulation (faster, unchecked)
 *   --physical     also run the P&R model per point
 *   --quiet        suppress the per-point table, print only summary
 *   --cache-dir D  persist compile/sim/synth artifacts in D so a
 *                  rerun of the same plan replays from disk
 *
 * The plan-file grammar is documented in explore/plan.hh; --demo runs
 * a built-in 3-subset x 3-workload cartesian plan (9 points). Results
 * are deterministic: any --threads value emits identical tables.
 *
 * A thin adapter over `flow::FlowService`: the plan and --threads go
 * through the request codec (net/rest.hh) as an explore body, and
 * --no-verify / --physical, which have no body field, are set on the
 * typed request it returns. A malformed plan exits 1 with every
 * offending line listed; a command line that does not spell a sweep
 * exits 2 naming the offending word.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "flow/flow.hh"
#include "net/rest.hh"
#include "store/disk_store.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace
{

using namespace rissp;
using namespace rissp::explore;

const char *kDemoPlan = R"(# rissp-explore built-in demo plan
# Three candidate subsets against three workloads: does a RISSP built
# for one application run the others, and what does each point cost?
opt O2
mode cartesian
workload crc32 aha-mont64 armpit
subset RISSP-crc32  = @crc32
subset RISSP-armpit = @armpit
subset RISSP-RV32E  = @full
)";

std::string
loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open plan file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
}

void
printTable(const ResultTable &table)
{
    std::printf("%-4s %-18s %-14s %-12s %6s %9s %10s %8s %10s %9s\n",
                "#", "subset", "workload", "tech", "ops", "cosim",
                "cycles", "fmax", "area GE", "power mW");
    for (const ExplorationResult &r : table.rows()) {
        const char *verdict = !r.simRun ? "--"
            : r.trapped ? "TRAP"
            : r.cosimPassed ? "pass"
            : "FAIL";
        std::printf("%-4zu %-18s %-14s %-12s %6zu %9s %10llu "
                    "%8.0f %10.0f %9.3f\n",
                    r.index, r.subsetName.c_str(),
                    r.workloadName.c_str(), r.techName.c_str(),
                    r.subsetSize, verdict,
                    static_cast<unsigned long long>(r.cycles),
                    r.fmaxKhz, r.avgAreaGe, r.avgPowerMw);
    }
}

void
printFrontier(const ResultTable &table)
{
    const std::vector<size_t> frontier = table.paretoFrontier();
    std::printf("\nPareto frontier (min cycles, area, power): "
                "%zu of %zu points\n", frontier.size(),
                table.size());
    for (size_t i : frontier) {
        const ExplorationResult &r = table.row(i);
        std::printf("  #%-3zu %-18s x %-14s cycles=%llu "
                    "area=%.0fGE power=%.3fmW\n", r.index,
                    r.subsetName.c_str(), r.workloadName.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.avgAreaGe, r.avgPowerMw);
    }
}

void
usage()
{
    std::printf(
        "usage: rissp-explore <plan-file>|--demo [options]\n"
        "  --threads N   worker threads (1 = serial)\n"
        "  --csv FILE    write result table as CSV\n"
        "  --json FILE   write result table as JSON\n"
        "  --no-verify   skip lock-step co-simulation\n"
        "  --physical    run the P&R model per point\n"
        "  --quiet       only the frontier and summary\n"
        "  --cache-dir D persist stage artifacts across runs\n");
}

/** Report a command line that does not spell a sweep. */
int
usageError(const std::string &message)
{
    std::fprintf(stderr, "rissp-explore: error: %s\n",
                 message.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }

    std::string plan; ///< a plan file path, or "--demo"
    std::string threads; ///< the --threads word, if given
    std::string csvPath;
    std::string jsonPath;
    std::string cacheDir;
    bool verify = true;
    bool physical = false;
    bool quiet = false;
    std::set<std::string> given; ///< flags seen, to reject repeats

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() > 1 && arg[0] == '-' && arg != "--demo" &&
            !given.insert(arg).second)
            return usageError("'" + arg + "' given twice");
        std::string *value = arg == "--threads" ? &threads
            : arg == "--csv" ? &csvPath
            : arg == "--json" ? &jsonPath
            : arg == "--cache-dir" ? &cacheDir
            : nullptr;
        if (value) {
            if (i + 1 >= argc)
                return usageError(arg + " needs a value");
            *value = argv[++i];
            if (value == &threads &&
                (threads.empty() ||
                 threads.find_first_not_of("0123456789") !=
                     std::string::npos))
                return usageError("bad --threads value '" + threads +
                                  "'");
        } else if (arg == "--demo" || arg.empty() || arg[0] != '-') {
            if (!plan.empty())
                return usageError("'" + arg + "' after '" + plan +
                                  "': give one plan file or --demo");
            plan = arg;
        } else if (arg == "--no-verify") {
            verify = false;
        } else if (arg == "--physical") {
            physical = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            return usageError("unknown flag '" + arg + "'");
        }
    }
    if (plan.empty())
        return usageError("no plan given (file argument or --demo)");

    // The codec owns the schema and the range of --threads.
    std::vector<JsonValue::Member> body;
    body.emplace_back("plan", JsonValue::makeString(
                                  plan == "--demo" ? kDemoPlan
                                                   : loadFile(plan)));
    if (!threads.empty())
        body.emplace_back("threads",
                          JsonValue::makeNumber(
                              std::strtod(threads.c_str(), nullptr)));
    Result<flow::Request> parsed = net::requestFromJson(
        net::Verb::Explore, JsonValue::makeObject(std::move(body)));
    if (!parsed)
        return usageError("bad --threads value '" + threads + "': " +
                          parsed.status().message());
    flow::ExploreRequest request =
        std::get<flow::ExploreRequest>(parsed.take());
    request.options.verify = verify;
    request.options.physical = physical;

    flow::ServiceOptions serviceOptions;
    if (!cacheDir.empty()) {
        // Loud failure at the CLI edge: a user who typed --cache-dir
        // wants to know the store did not attach.
        Result<std::shared_ptr<store::DiskStore>> opened =
            store::DiskStore::open(cacheDir);
        if (!opened)
            fatal("--cache-dir: %s",
                  opened.status().toString().c_str());
        serviceOptions.artifacts = opened.take();
    }
    flow::FlowService service(serviceOptions);
    const flow::ExploreResponse response = service.explore(request);
    if (!response.status.isOk()) {
        std::fprintf(stderr, "rissp-explore: error: %s\n",
                     response.status.toString().c_str());
        return 1;
    }
    const ResultTable &table = response.table;

    if (!quiet)
        printTable(table);
    printFrontier(table);

    const ExplorerStats &stats = response.stats;
    std::printf("\n%llu points | compile %llu/%llu | sim %llu/%llu | "
                "synth %llu/%llu (memo hits/lookups)\n",
                static_cast<unsigned long long>(stats.points),
                static_cast<unsigned long long>(stats.compileHits),
                static_cast<unsigned long long>(stats.compileHits +
                                                stats.compileMisses),
                static_cast<unsigned long long>(stats.simHits),
                static_cast<unsigned long long>(stats.simHits +
                                                stats.simMisses),
                static_cast<unsigned long long>(stats.synthHits),
                static_cast<unsigned long long>(stats.synthHits +
                                                stats.synthMisses));

    if (!csvPath.empty()) {
        writeFile(csvPath, table.csv());
        std::printf("wrote %s\n", csvPath.c_str());
    }
    if (!jsonPath.empty()) {
        writeFile(jsonPath, table.json());
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
