/**
 * @file
 * Black-box tests for the `risspgen` and `rissp-explore` command
 * lines: the real binaries, spawned through the shell, with stdout
 * and the exit code compared against pins.
 *
 * The `--json` pins are the same oracle the serve suite uses: for
 * every verb, what the CLI prints must equal
 * `flow::toJson(dispatch(requestFromBody(verb, body)))` for the REST
 * body that spells the same request, so the CLI, batch files and the
 * daemon can never disagree on what a request means. The human
 * reports, `table3` and the README's batch file are pinned byte for
 * byte. Around that: the command-line grammar rejects what it does
 * not understand (unknown, repeated or inapplicable flags, stray
 * positionals) with exit code 2 instead of silently running
 * something other than what was typed. `rissp-explore` keeps the
 * same exit codes, and its CSV is pinned identical across thread
 * counts.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "net/rest.hh"

#ifndef RISSP_RISSPGEN
#error "test_cli needs RISSP_RISSPGEN, the path of the risspgen binary"
#endif
#ifndef RISSP_RISSP_EXPLORE
#error "test_cli needs RISSP_RISSP_EXPLORE, the path of rissp-explore"
#endif

namespace rissp
{
namespace
{

namespace fs = std::filesystem;

/** A fresh directory under the system temp root, removed on exit. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "rissp-cli-XXXXXX").string();
        EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    /** Write @p text to @p name under the directory; its path. */
    std::string write(const std::string &name,
                      const std::string &text) const
    {
        const std::string path = (fs::path(dir) / name).string();
        std::ofstream(path) << text;
        return path;
    }

    std::string dir;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** What one invocation printed and returned. */
struct CliRun
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

/** Run `<binary> <args>` (a shell word list) and capture it. */
CliRun
spawn(const char *binary, const std::string &args)
{
    TempDir tmp;
    const std::string errPath = (fs::path(tmp.dir) / "stderr").string();
    const std::string command =
        std::string(binary) + " " + args + " 2>" + errPath;
    CliRun run;
    FILE *pipe = ::popen(command.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "cannot spawn: " << command;
        return run;
    }
    char buf[4096];
    for (size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
        run.out.append(buf, n);
    const int status = ::pclose(pipe);
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.err = slurp(errPath);
    return run;
}

CliRun
risspgen(const std::string &args)
{
    return spawn(RISSP_RISSPGEN, args);
}

CliRun
risspExplore(const std::string &args)
{
    return spawn(RISSP_RISSP_EXPLORE, args);
}

/** The response body the daemon serves for @p body on @p verb —
 *  the oracle every `--json` pin compares against. */
std::string
served(const char *verb, const std::string &body)
{
    static const flow::FlowService service;
    Result<net::Verb> parsed = net::verbFromName(verb);
    EXPECT_TRUE(parsed.isOk()) << verb;
    Result<flow::Request> request =
        net::requestFromBody(parsed.value(), body);
    EXPECT_TRUE(request.isOk()) << request.status().toString();
    return flow::toJson(service.dispatch(request.value()));
}

/** @p json without the emitter's trailing newline (a batch row). */
std::string
row(std::string json)
{
    json.pop_back();
    return json;
}

// ------------------------------------------------------ one-shot

TEST(Cli, JsonIsTheServedResponseForEveryVerb)
{
    for (const char *verb :
         {"characterize", "run", "synth", "retarget"}) {
        const CliRun run =
            risspgen(std::string(verb) + " @crc32 --json");
        EXPECT_EQ(run.exitCode, 0) << verb;
        EXPECT_EQ(run.out, served(verb, R"({"workload": "crc32"})"))
            << verb;
    }
}

TEST(Cli, HumanReportsAndExitCodes)
{
    struct Case
    {
        const char *args;
        const char *out;
    };
    const Case cases[] = {
        {"characterize @crc32",
         "optimization   : -O2\n"
         "code size      : 112 instructions (448 bytes)\n"
         "runtime helpers: (none)\n"
         "subset         : 16 of 37 base instructions (43%)\n"
         "instructions   : [add, addi, andi, beq, bge, jal, jalr, "
         "lbu, lui, lw, sb, slli, srli, sw, xor, xori]\n"},
        {"run @crc32",
         "halted at pc=0x8 after 59409 cycles, exit code 57\n"
         "output words  : 2021806649\n"},
        {"synth @crc32",
         "design           instrs   fmax kHz    area GE   power mW\n"
         "RISSP-app            16       1800       3115      0.944\n"
         "RISSP-RV32E          37       1650       4287      1.167\n"
         "Serv               full       2050       1944      1.657\n"
         "\n"
         "savings vs RISSP-RV32E: area 27%, power 19%\n"
         "FlexIC at 300 kHz: 1992 x 1740 um, 3.46 mm2, FF 4.5%, "
         "0.410 mW\n"},
        {"retarget @crc32",
         "macros         : 9 synthesized+verified\n"
         "code size      : 448 -> 1152 bytes (+157.1%)\n"
         "distinct ops   : 16 -> 11\n"
         "equivalence    : verified (exit 57 vs 57)\n"},
    };
    for (const Case &c : cases) {
        const CliRun run = risspgen(c.args);
        EXPECT_EQ(run.exitCode, 0) << c.args;
        EXPECT_EQ(run.out, c.out) << c.args;
    }
}

TEST(Cli, Table3ListsEveryBundledWorkload)
{
    const CliRun run = risspgen("table3");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(
        run.out,
        "aha-mont64       (18) [add, addi, andi, beq, bgeu, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, srli, sub, sw, xor]\n"
        "crc32            (16) [add, addi, andi, beq, bge, jal, jalr, "
        "lbu, lui, lw, sb, slli, srli, sw, xor, xori]\n"
        "cubic            (16) [add, addi, andi, beq, bge, blt, jal, "
        "jalr, lui, lw, sll, slli, sra, srli, sub, sw]\n"
        "edn              (17) [add, addi, andi, beq, bge, jal, jalr, "
        "lh, lui, lw, sh, slli, sra, srai, srli, sub, sw]\n"
        "huffbench        (23) [add, addi, and, andi, beq, bge, blt, "
        "bne, jal, jalr, lbu, lui, lw, or, sb, sll, slli, srai, srl, "
        "srli, sub, sw, xor]\n"
        "matmult-int      (13) [add, addi, andi, beq, bge, jal, jalr, "
        "lui, lw, slli, srli, sub, sw]\n"
        "md5sum           (19) [add, addi, and, andi, beq, bge, jal, "
        "jalr, lui, lw, or, sll, slli, srl, srli, sub, sw, xor, "
        "xori]\n"
        "minver           (19) [add, addi, andi, beq, bge, bltu, bne, "
        "jal, jalr, lui, lw, or, ori, slli, srai, srli, sub, sw, "
        "xori]\n"
        "nbody            (20) [add, addi, andi, beq, bge, blt, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, srai, srli, sub, sw, "
        "xori]\n"
        "nettle-aes       (18) [add, addi, andi, beq, bge, blt, jal, "
        "jalr, lbu, lui, lw, sb, slli, srai, sub, sw, xor, xori]\n"
        "nettle-sha256    (19) [add, addi, and, andi, beq, bge, jal, "
        "jalr, lui, lw, or, sll, slli, srl, srli, sub, sw, xor, "
        "xori]\n"
        "nsichneu         (12) [add, addi, andi, beq, bge, jal, jalr, "
        "lui, lw, slli, srli, sw]\n"
        "picojpeg         (15) [add, addi, and, andi, beq, bge, jal, "
        "jalr, lui, lw, slli, srai, srli, sub, sw]\n"
        "primecount       (19) [add, addi, andi, beq, bge, blt, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, srli, sub, sw, "
        "xori]\n"
        "qrduino          (18) [add, addi, and, andi, beq, bge, blt, "
        "bne, jal, jalr, lbu, lui, lw, sb, slli, sw, xor, xori]\n"
        "sglib-combined   (15) [add, addi, andi, beq, bge, blt, bne, "
        "jal, jalr, lui, lw, slli, srai, srli, sw]\n"
        "slre             (10) [addi, beq, bne, jal, jalr, lb, lui, "
        "lw, sltiu, sw]\n"
        "st               (20) [add, addi, andi, beq, bge, blt, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, srai, srli, sub, sw, "
        "xori]\n"
        "statemate        (21) [add, addi, andi, beq, bge, blt, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, slt, sltiu, srli, "
        "sub, sw, xori]\n"
        "tarfind          (19) [add, addi, andi, beq, bge, bgeu, blt, "
        "bltu, bne, jal, jalr, lbu, lui, lw, sb, slli, srai, srli, "
        "sw]\n"
        "ud               (20) [add, addi, andi, beq, bge, blt, bltu, "
        "bne, jal, jalr, lui, lw, or, ori, slli, srai, srli, sub, sw, "
        "xori]\n"
        "wikisort         (13) [add, addi, and, andi, beq, bge, jal, "
        "jalr, lui, lw, slli, srli, sw]\n"
        "armpit           (13) [add, addi, andi, beq, bge, blt, jal, "
        "jalr, lui, lw, slli, srli, sw]\n"
        "xgboost          (13) [add, addi, andi, beq, bge, blt, jal, "
        "jalr, lui, lw, slli, srli, sw]\n"
        "af_detect        (22) [add, addi, and, andi, beq, bge, blt, "
        "bne, jal, jalr, lbu, lui, lw, or, sb, sll, slli, srai, srli, "
        "sub, sw, xor]\n");
}

TEST(Cli, SourceFileBecomesSourceAndLabel)
{
    TempDir tmp;
    const std::string path = tmp.write(
        "sum.c", "int main(void) { int s = 0; int i;"
                 " for (i = 1; i <= 10; i = i + 1) s = s + i;"
                 " return s; }\n");
    const CliRun run = risspgen("characterize " + path + " -O1 --json");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(run.out,
              served("characterize",
                     "{\"source\": \"" + jsonEscape(slurp(path)) +
                         "\", \"label\": \"" + jsonEscape(path) +
                         "\", \"opt\": \"O1\"}"));
}

TEST(Cli, ServiceErrorsExitOne)
{
    const CliRun missing = risspgen("run @nope --json");
    EXPECT_EQ(missing.exitCode, 1);
    EXPECT_NE(missing.out.find("\"code\": \"not_found\""),
              std::string::npos)
        << missing.out;

    const CliRun tech = risspgen("synth @crc32 --tech not-a-tech");
    EXPECT_EQ(tech.exitCode, 1);
    EXPECT_TRUE(tech.out.empty());
    EXPECT_NE(tech.err.find("error"), std::string::npos);
}

TEST(Cli, FlagTheVerbDoesNotTakeIsAUsageError)
{
    const CliRun run =
        risspgen("characterize @crc32 --tech silicon-65nm");
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_TRUE(run.out.empty());
    EXPECT_NE(run.err.find("--tech"), std::string::npos) << run.err;
}

// Each of these ran something other than what was typed, and exited
// 0, before the command line went through the request codec.
TEST(Cli, TyposAreRejectedNotIgnored)
{
    for (const char *args :
         {"run @crc32 --verfy --json", "run @crc32 -O3 -O0 --bogus",
          "run @crc32 -O3 -O0", "run @crc32 extra",
          "synth @crc32 --tech silicon-65nm --tech flexic-0.6um",
          "characterize @crc32 @edn"}) {
        const CliRun run = risspgen(args);
        EXPECT_EQ(run.exitCode, 2) << args;
        EXPECT_TRUE(run.out.empty()) << args << ": " << run.out;
        EXPECT_NE(run.err.find("risspgen: "), std::string::npos)
            << args;
    }
}

TEST(Cli, OneShotRunVerifies)
{
    const CliRun run = risspgen("run @crc32 --verify --json");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(run.out, served("run", R"({"workload": "crc32",
                                         "verify": true})"));
    EXPECT_NE(run.out.find("\"cosim\": {\"run\": true"),
              std::string::npos);
}

// --------------------------------------------------------- batch

/** The README's batch file. */
const char *kReadmeBatch = "characterize @crc32\n"
                           "run @armpit --verify\n"
                           "synth @crc32 --tech silicon-65nm\n"
                           "retarget @crc32\n";

TEST(CliBatch, ReadmeBatchPrintsEachOneShotReport)
{
    TempDir tmp;
    const std::string file = tmp.write("requests.txt", kReadmeBatch);
    const CliRun run = risspgen("batch " + file + " --threads 4");
    EXPECT_EQ(run.exitCode, 0);

    // Each request reports exactly what its one-shot twin prints.
    std::string want;
    std::istringstream lines(kReadmeBatch);
    size_t n = 0;
    for (std::string line; std::getline(lines, line); ++n) {
        want += (n ? "\n" : "") + std::string("=== request ") +
                std::to_string(n + 1) + ": " + line +
                "\n    status: ok\n" + risspgen(line).out;
    }
    want += "\n4/4 requests succeeded\n";
    EXPECT_EQ(run.out, want);
}

TEST(CliBatch, ReadmeBatchJsonIsTheServedResponses)
{
    TempDir tmp;
    const std::string file = tmp.write("requests.txt", kReadmeBatch);
    const CliRun run = risspgen("batch " + file + " --json");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(run.out,
              "[\n" +
                  row(served("characterize",
                             R"({"workload": "crc32"})")) + ",\n" +
                  row(served("run", R"({"workload": "armpit",
                                        "verify": true})")) + ",\n" +
                  row(served("synth", R"({"workload": "crc32",
                                          "tech": "silicon-65nm"})")) +
                  ",\n" +
                  row(served("retarget", R"({"workload": "crc32"})")) +
                  "\n]\n");
}

TEST(CliBatch, SourceAndPlanFilesAreReadAtTheEdge)
{
    TempDir tmp;
    const std::string source =
        tmp.write("prog.c", "int main(void) { return 7; }\n");
    const std::string plan =
        tmp.write("sweep.plan", "workload crc32\nsubset fit = @crc32\n");
    const std::string file = tmp.write(
        "requests.txt",
        "# comments and blank lines are skipped\n\n"
        "characterize " + source + " -Oz\n"
        "explore " + plan + "\n");
    const CliRun run = risspgen("batch " + file + " --json");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_EQ(run.out,
              "[\n" +
                  row(served("characterize",
                             "{\"source\": \"" +
                                 jsonEscape(slurp(source)) +
                                 "\", \"label\": \"" +
                                 jsonEscape(source) +
                                 "\", \"opt\": \"Oz\"}")) +
                  ",\n" +
                  row(served("explore", "{\"plan\": \"" +
                                            jsonEscape(slurp(plan)) +
                                            "\"}")) +
                  "\n]\n");
}

TEST(CliBatch, EveryMalformedLineIsReportedAndNothingRuns)
{
    TempDir tmp;
    const std::string file = tmp.write(
        "requests.txt", "characterize @crc32\n"
                        "characterize @crc32 --verify\n"
                        "run @crc32 -O1 -O2\n"
                        "explore\n");
    const CliRun run = risspgen("batch " + file);
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_TRUE(run.out.empty());
    for (const char *line : {"batch line 2", "batch line 3",
                             "batch line 4"})
        EXPECT_NE(run.err.find(line), std::string::npos) << run.err;
    EXPECT_EQ(run.err.find("batch line 1"), std::string::npos);
}

// ------------------------------------------------- rissp-explore

// Each of these died through fatal() with exit code 1, or ran a
// sweep other than the one typed, before usage errors exited 2.
TEST(ExploreCli, UsageErrorsExitTwoNamingTheWord)
{
    const struct
    {
        const char *args;
        const char *word;
    } cases[] = {
        {"--demo --threads x", "'x'"},
        {"--demo --threads 5000", "'5000'"},
        {"--demo --csv", "--csv"},
        {"--demo --bogus", "'--bogus'"},
        {"a.plan b.plan", "'b.plan'"},
        {"--demo b.plan", "'b.plan'"},
    };
    for (const auto &c : cases) {
        const CliRun run = risspExplore(c.args);
        EXPECT_EQ(run.exitCode, 2) << c.args;
        EXPECT_TRUE(run.out.empty()) << c.args << ": " << run.out;
        EXPECT_EQ(run.err.rfind("rissp-explore: error: ", 0), 0u)
            << c.args << ": " << run.err;
        EXPECT_NE(run.err.find(c.word), std::string::npos)
            << c.args << ": " << run.err;
    }
}

TEST(ExploreCli, UnreadablePlanExitsOne)
{
    TempDir tmp;
    const CliRun run = risspExplore(tmp.dir + "/missing.plan");
    EXPECT_EQ(run.exitCode, 1);
    EXPECT_TRUE(run.out.empty());
    EXPECT_NE(run.err.find("missing.plan"), std::string::npos)
        << run.err;
}

TEST(ExploreCli, DemoCsvIsIdenticalAcrossThreadCounts)
{
    TempDir tmp;
    const std::string serial = tmp.dir + "/serial.csv";
    const std::string parallel = tmp.dir + "/parallel.csv";
    EXPECT_EQ(risspExplore("--demo --threads 1 --quiet --csv " + serial)
                  .exitCode,
              0);
    EXPECT_EQ(
        risspExplore("--demo --threads 4 --quiet --csv " + parallel)
            .exitCode,
        0);
    const std::string csv = slurp(serial);
    EXPECT_NE(csv.find("RISSP-armpit"), std::string::npos) << csv;
    EXPECT_EQ(slurp(parallel), csv);
}

} // namespace
} // namespace rissp
