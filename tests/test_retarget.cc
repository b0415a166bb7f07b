/**
 * @file
 * Tests for the §5 retargeting flow: per-op macro synthesis with the
 * verify-reject loop, what the verifier compares, whole-program
 * reconstruction, and end-to-end equivalence of the retargeted
 * binaries on the minimal subset.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "compiler/driver.hh"
#include "core/rissp.hh"
#include "retarget/retargeter.hh"
#include "sim/refsim.hh"
#include "workloads/workloads.hh"

namespace rissp
{
namespace
{

InstrSubset
minimal()
{
    return Retargeter::minimalSubset();
}

TEST(MacroLibrary, CoversEveryNonKernelOp)
{
    const InstrSubset target = minimal();
    for (size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (op == Op::Ecall || op == Op::Ebreak ||
            op == Op::Auipc || op == Op::Jal || op == Op::Jalr ||
            isCustom(op))
            continue;
        if (!target.contains(op))
            EXPECT_TRUE(canRetarget(op))
                << "no expansion for " << opName(op);
    }
}

class MacroSynthTest : public ::testing::TestWithParam<int>
{
};

std::string
synthName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(opName(static_cast<Op>(info.param)));
}

TEST_P(MacroSynthTest, SynthesizesVerifiedMacro)
{
    const Op op = static_cast<Op>(GetParam());
    if (!canRetarget(op))
        GTEST_SKIP() << "kernel/native op";
    Retargeter rt(minimal(), /*seed=*/0x5EED);
    MacroExpansion m = rt.synthesizeMacro(op);
    EXPECT_TRUE(m.verified) << opName(op);
    EXPECT_GE(m.attempts, 1u);
    EXPECT_LE(m.attempts, 10u) << "paper bound: < 10 attempts";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, MacroSynthTest,
    ::testing::Range(0, static_cast<int>(kNumOps)), synthName);

TEST(Retargeter, BuggyCandidatesAreRejected)
{
    Retargeter rt(minimal());
    // Seeds that put hallucinated candidates first still converge,
    // and the attempt counter records the rejections.
    bool saw_retry = false;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Retargeter rt2(minimal(), seed);
        MacroExpansion m = rt2.synthesizeMacro(Op::Sub);
        EXPECT_TRUE(m.verified);
        if (m.attempts > 1)
            saw_retry = true;
    }
    EXPECT_TRUE(saw_retry)
        << "generator never produced a rejected candidate";
}

TEST(Retargeter, RejectsTargetWithoutKernelOps)
{
    const Status status = Retargeter::validateTarget(
        InstrSubset::fromNames({"addi", "lw"}));
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("kernel instruction"),
              std::string::npos);
}

TEST(Retargeter, SimpleProgramEquivalence)
{
    // A program exercising many non-kernel ops.
    const char *src = R"(
        int table[8] = {5, -3, 12, 0, 7, -8, 100, 42};
        unsigned char bytes[8];
        short halves[4];
        int main(void) {
            int acc = 0;
            for (int i = 0; i < 8; i++) {
                int v = table[i];
                if (v >= 0) acc += v; else acc -= v * 2;
                acc ^= (unsigned)v >> 3;
                bytes[i] = (unsigned char)(acc & 0xFF);
                if (i < 4) halves[i] = (short)(acc * 3);
            }
            for (int i = 0; i < 8; i++) acc += bytes[i];
            for (int i = 0; i < 4; i++) acc += halves[i];
            return acc & 0xFF;
        }
    )";
    minic::CompileResult cr = minic::compile(src,
                                             minic::OptLevel::O2);
    RefSim ref;
    ref.reset(cr.program);
    RunResult ref_run = ref.run(10'000'000);
    ASSERT_EQ(ref_run.reason, StopReason::Halted);

    Retargeter rt(minimal());
    RetargetResult res = rt.retarget(cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.rewrittenOps.empty());
    EXPECT_GT(res.retargetedTextBytes, res.initialTextBytes);

    // The retargeted binary must produce the same result...
    RefSim sim2;
    sim2.reset(res.program);
    RunResult run2 = sim2.run(50'000'000);
    ASSERT_EQ(run2.reason, StopReason::Halted);
    EXPECT_EQ(run2.exitCode, ref_run.exitCode);

    // ...and run on a RISSP that implements only the minimal subset.
    Rissp rissp(minimal(), "RISSP-minimal");
    rissp.reset(res.program);
    RunResult run3 = rissp.run(50'000'000);
    ASSERT_EQ(run3.reason, StopReason::Halted);
    EXPECT_EQ(run3.exitCode, ref_run.exitCode);

    // Distinct instructions now fit in the 12-op subset.
    EXPECT_LE(res.finalSubset.size(), minimal().size());
}

class EdgeRetargetTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EdgeRetargetTest, ExtremeEdgeAppsRetargetAndMatch)
{
    const Workload &wl = workloadByName(GetParam());
    minic::CompileResult cr =
        minic::compile(wl.source, minic::OptLevel::O2);
    RefSim ref;
    ref.reset(cr.program);
    RunResult ref_run = ref.run(80'000'000);
    ASSERT_EQ(ref_run.reason, StopReason::Halted);

    Retargeter rt(minimal());
    RetargetResult res = rt.retarget(cr.program);
    ASSERT_TRUE(res.ok) << res.error;

    Rissp rissp(minimal(), "RISSP-minimal");
    rissp.reset(res.program);
    RunResult run2 = rissp.run(400'000'000);
    ASSERT_EQ(run2.reason, StopReason::Halted) << wl.name;
    EXPECT_EQ(run2.exitCode, ref_run.exitCode) << wl.name;
    EXPECT_EQ(rissp.outputWords(), ref.outputWords()) << wl.name;

    // Figure 12 shape: code grows, distinct instructions shrink to
    // at most the subset size.
    EXPECT_GT(res.codeGrowth(), 0.0) << wl.name;
    EXPECT_LE(res.finalSubset.size(), 12u) << wl.name;
    EXPECT_GE(res.initialSubset.size(), res.finalSubset.size())
        << wl.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, EdgeRetargetTest,
                         ::testing::Values("armpit", "xgboost",
                                           "af_detect"));

// ------------------------------------------------------ verifier

/** @p body with the first occurrence of @p line removed. */
std::string
withoutLine(const std::string &body, const std::string &line)
{
    std::string out = body;
    const size_t pos = out.find(line);
    EXPECT_NE(pos, std::string::npos) << line;
    if (pos != std::string::npos)
        out.erase(pos, line.size());
    return out;
}

TEST(VerifyMacro, AcceptsEveryCorrectBody)
{
    for (size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (!canRetarget(op))
            continue;
        EXPECT_TRUE(Retargeter::verifyMacro(op, correctMacroBody(op)))
            << opName(op);
    }
}

TEST(VerifyMacro, RejectsBodiesThatBreakTheirRestorePromise)
{
    // Each body still computes the right result; it only leaves a
    // saved register clobbered.
    EXPECT_FALSE(Retargeter::verifyMacro(
        Op::Sub, withoutLine(correctMacroBody(Op::Sub),
                             "    lw ra, 0(sp)\n")));
    EXPECT_FALSE(Retargeter::verifyMacro(
        Op::Sub, withoutLine(correctMacroBody(Op::Sub),
                             "    addi sp, sp, 4\n")));
    EXPECT_FALSE(Retargeter::verifyMacro(
        Op::Sb, withoutLine(correctMacroBody(Op::Sb),
                            "    lw t0, 12(sp)\n")));
}

// --------------------------------------------- shift by zero

TEST(Retargeter, MiniCShiftByZeroKeepsItsValue)
{
    // -O0 keeps the `x >> 0` as `srli rd, rs, 0`, where the srli
    // macro's mask degenerates to zero.
    const char *src = R"(
        unsigned g = 0x80000001;
        int main(void) {
            unsigned x = g;
            return (int)((x >> 0) & 0xFF);
        }
    )";
    const minic::CompileResult cr =
        minic::compile(src, minic::OptLevel::O0);
    RefSim ref;
    ref.reset(cr.program);
    const RunResult want = ref.run(1'000'000);
    ASSERT_EQ(want.reason, StopReason::Halted);
    ASSERT_EQ(want.exitCode, 1u);

    Retargeter rt(minimal());
    const RetargetResult res = rt.retarget(cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.rewrittenOps.count(Op::Srli));
    Rissp chip(minimal(), "RISSP-minimal");
    chip.reset(res.program);
    const RunResult got = chip.run(10'000'000);
    ASSERT_EQ(got.reason, StopReason::Halted);
    EXPECT_EQ(got.exitCode, want.exitCode);
}

TEST(Retargeter, ShiftImmediatesByZeroLowerToAddi)
{
    // Kernel ops set up sp, the MMIO port and 0x80000001; each shift
    // immediate then runs by 0 and by 3, and all six results go out.
    const Program program = assemble(R"(
_start:
    addi sp, zero, 1
    addi t2, zero, 18
    sll sp, sp, t2
    addi t1, zero, -1
    addi t2, zero, 16
    sll t1, t1, t2
    addi a1, zero, 1
    addi t2, zero, 31
    sll a1, a1, t2
    addi a1, a1, 1
    slli a2, a1, 0
    srli a3, a1, 0
    srai a4, a1, 0
    slli a5, a1, 3
    srli s0, a1, 3
    srai s1, a1, 3
    sw a2, 0(t1)
    sw a3, 0(t1)
    sw a4, 0(t1)
    sw a5, 0(t1)
    sw s0, 0(t1)
    sw s1, 0(t1)
    addi a0, zero, 0
    ecall
)");
    Retargeter rt(minimal());
    const std::set<Op> shifts = {Op::Slli, Op::Srli, Op::Srai};
    const Result<std::string> source = rt.reconstruct(program, shifts);
    ASSERT_TRUE(source) << source.status().message();
    for (const char *move :
         {"addi a2, a1, 0\n", "addi a3, a1, 0\n", "addi a4, a1, 0\n"})
        EXPECT_NE(source.value().find(move), std::string::npos) << move;

    const RetargetResult res = rt.retarget(program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.rewrittenOps, shifts);
    Rissp chip(minimal(), "RISSP-minimal");
    chip.reset(res.program);
    ASSERT_EQ(chip.run(100'000).reason, StopReason::Halted);
    const std::vector<uint32_t> want = {
        0x80000001, 0x80000001, 0x80000001,
        0x00000008, 0x10000000, 0xF0000000,
    };
    EXPECT_EQ(chip.outputWords(), want);
}

// ------------------------------------------------ data segments

TEST(Retargeter, DataSegmentsSurviveByteForByte)
{
    for (const char *app : {"crc32", "armpit", "xgboost", "af_detect"}) {
        const minic::CompileResult cr = minic::compile(
            workloadByName(app).source, minic::OptLevel::O2);
        Retargeter rt(minimal());
        const RetargetResult res = rt.retarget(cr.program);
        ASSERT_TRUE(res.ok) << app << ": " << res.error;
        auto data = [](const Program &program) {
            std::vector<Segment> out;
            for (const Segment &seg : program.segments)
                if (seg.base != program.textBase)
                    out.push_back(seg);
            return out;
        };
        const std::vector<Segment> want = data(cr.program);
        const std::vector<Segment> got = data(res.program);
        ASSERT_EQ(got.size(), want.size()) << app;
        ASSERT_FALSE(want.empty()) << app;
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].base, want[i].base) << app;
            EXPECT_EQ(got[i].bytes, want[i].bytes) << app;
        }
    }
}

// Byte-level pins of the Figure 12 outputs at the default seed: code
// sizes, distinct-op counts and how many candidates each macro took.
// Verification speed-ups must leave every one of these unchanged.
struct Fig12Pin
{
    const char *app;
    size_t initialTextBytes;
    size_t retargetedTextBytes;
    size_t initialOps;
    size_t finalOps;
    std::vector<std::pair<Op, unsigned>> attempts;
};

TEST(RetargetPins, Figure12AppsAtTheDefaultSeed)
{
    const Fig12Pin pins[] = {
        {"armpit", 1184, 1932, 13, 11,
         {{Op::Andi, 1}, {Op::Slli, 1}, {Op::Srli, 2}, {Op::Beq, 1},
          {Op::Bge, 2}, {Op::Lui, 2}}},
        {"xgboost", 1436, 2552, 13, 11,
         {{Op::Andi, 1}, {Op::Slli, 1}, {Op::Srli, 2}, {Op::Beq, 1},
          {Op::Bge, 2}, {Op::Lui, 2}}},
        {"af_detect", 2664, 6164, 22, 11,
         {{Op::Sub, 2}, {Op::Xor, 1}, {Op::Or, 1}, {Op::Andi, 1},
          {Op::Slli, 1}, {Op::Srli, 2}, {Op::Srai, 1}, {Op::Lbu, 2},
          {Op::Sb, 1}, {Op::Beq, 1}, {Op::Bne, 2}, {Op::Bge, 2},
          {Op::Lui, 2}}},
    };
    for (const Fig12Pin &pin : pins) {
        const minic::CompileResult cr = minic::compile(
            workloadByName(pin.app).source, minic::OptLevel::O2);
        Retargeter rt(minimal());
        const RetargetResult res = rt.retarget(cr.program);
        ASSERT_TRUE(res.ok) << pin.app << ": " << res.error;
        EXPECT_EQ(res.initialTextBytes, pin.initialTextBytes)
            << pin.app;
        EXPECT_EQ(res.retargetedTextBytes, pin.retargetedTextBytes)
            << pin.app;
        EXPECT_EQ(res.initialSubset.size(), pin.initialOps) << pin.app;
        EXPECT_EQ(res.finalSubset.size(), pin.finalOps) << pin.app;
        std::vector<std::pair<Op, unsigned>> attempts;
        for (const MacroExpansion &m : res.macros)
            attempts.emplace_back(m.target, m.attempts);
        EXPECT_EQ(attempts, pin.attempts) << pin.app;
    }
}

} // namespace
} // namespace rissp
