/**
 * @file
 * Tests for the threaded interpreter core (sim/exec_core.inc): both
 * simulators' run() must retire a byte-identical RVFI stream to their
 * golden engines, and the RISSP mutation contract must hold.
 *
 * The golden stream is always the one the single-step APIs produce:
 * RefSim::step() is the hand-written reference switch, and the
 * RISSP's gate-level engine is the structural model. The interpreter
 * core is only allowed to be faster, never different.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "core/rissp.hh"
#include "core/subset.hh"
#include "sim/refsim.hh"
#include "util/logging.hh"
#include "verify/integration_verify.hh"

namespace rissp
{
namespace
{

/** Field-by-field RetireEvent equality with a readable diff — the
 *  cosim comparator deliberately ignores rs1/rs2; this one must not,
 *  because the contract here is byte-identical streams. */
::testing::AssertionResult
sameEvent(const RetireEvent &a, const RetireEvent &b)
{
    auto fail = [&](const char *field) {
        return ::testing::AssertionFailure()
               << "RetireEvent field '" << field
               << "' differs at order " << a.order << " (pc 0x"
               << std::hex << a.pc << std::dec << ")";
    };
    if (a.order != b.order)
        return fail("order");
    if (a.pc != b.pc)
        return fail("pc");
    if (a.nextPc != b.nextPc)
        return fail("nextPc");
    if (a.raw != b.raw)
        return fail("raw");
    if (a.op != b.op)
        return fail("op");
    if (a.rs1 != b.rs1)
        return fail("rs1");
    if (a.rs2 != b.rs2)
        return fail("rs2");
    if (a.rs1Data != b.rs1Data)
        return fail("rs1Data");
    if (a.rs2Data != b.rs2Data)
        return fail("rs2Data");
    if (a.rd != b.rd)
        return fail("rd");
    if (a.rdData != b.rdData)
        return fail("rdData");
    if (a.memRead != b.memRead)
        return fail("memRead");
    if (a.memWrite != b.memWrite)
        return fail("memWrite");
    if (a.memAddr != b.memAddr)
        return fail("memAddr");
    if (a.memData != b.memData)
        return fail("memData");
    if (a.memBytes != b.memBytes)
        return fail("memBytes");
    if (a.trap != b.trap)
        return fail("trap");
    if (a.halt != b.halt)
        return fail("halt");
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameTrace(const std::vector<RetireEvent> &a,
          const std::vector<RetireEvent> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "trace length differs: " << a.size() << " vs "
               << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        ::testing::AssertionResult r = sameEvent(a[i], b[i]);
        if (!r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

/** Everything observable about one simulator run. */
struct RunSnapshot
{
    RunResult result;
    std::vector<RetireEvent> trace;
    std::array<uint32_t, kNumRegsE> regs{};
    uint32_t pc = 0;
    StopReason stopped = StopReason::Running;
    std::vector<uint32_t> outWords;
    std::string outText;
};

::testing::AssertionResult
sameSnapshot(const RunSnapshot &a, const RunSnapshot &b)
{
    ::testing::AssertionResult tr = sameTrace(a.trace, b.trace);
    if (!tr)
        return tr;
    if (a.result.reason != b.result.reason)
        return ::testing::AssertionFailure() << "stop reason differs";
    if (a.result.exitCode != b.result.exitCode)
        return ::testing::AssertionFailure() << "exit code differs";
    if (a.result.instret != b.result.instret)
        return ::testing::AssertionFailure()
               << "instret differs: " << a.result.instret << " vs "
               << b.result.instret;
    if (a.result.stopPc != b.result.stopPc)
        return ::testing::AssertionFailure() << "stopPc differs";
    if (a.regs != b.regs)
        return ::testing::AssertionFailure()
               << "final register file differs";
    if (a.pc != b.pc)
        return ::testing::AssertionFailure() << "final pc differs";
    if (a.stopped != b.stopped)
        return ::testing::AssertionFailure()
               << "StopReason state differs";
    if (a.outWords != b.outWords)
        return ::testing::AssertionFailure()
               << "output words differ";
    if (a.outText != b.outText)
        return ::testing::AssertionFailure() << "output text differs";
    return ::testing::AssertionSuccess();
}

/** Record @p sim's final architectural state into @p snap. */
template <typename Sim>
void
captureState(const Sim &sim, RunSnapshot &snap)
{
    for (unsigned r = 0; r < kNumRegsE; ++r)
        snap.regs[r] = sim.reg(r);
    snap.pc = sim.pc();
    snap.stopped = sim.stopReason();
    snap.outWords = sim.outputWords();
    snap.outText = sim.outputText();
}

uint64_t
retiredBy(const RefSim &sim)
{
    return sim.instret();
}

uint64_t
retiredBy(const Rissp &chip)
{
    return chip.cycles();
}

/** Drive a single-step API (@p step, one RetireEvent per call) by
 *  hand, replicating run()'s stopping rules. */
template <typename Sim, typename Step>
RunSnapshot
steppedRun(const Sim &sim, uint64_t max_steps, Step step)
{
    RunSnapshot snap;
    snap.result.reason = StopReason::StepLimit;
    for (uint64_t i = 0; i < max_steps; ++i) {
        const RetireEvent ev = step();
        snap.trace.push_back(ev);
        if (ev.halt) {
            snap.result.reason = StopReason::Halted;
            snap.result.exitCode = sim.reg(reg::a0);
            break;
        }
        if (ev.trap) {
            snap.result.reason = StopReason::Trapped;
            break;
        }
    }
    snap.result.instret = retiredBy(sim);
    snap.result.stopPc = snap.result.reason == StopReason::StepLimit
                             ? sim.pc()
                             : snap.trace.back().pc;
    captureState(sim, snap);
    return snap;
}

/** Golden reference: drive RefSim::step() by hand (the independent
 *  switch statement of the semantics, untouched by the interpreter
 *  core). */
RunSnapshot
refGolden(const Program &program, uint64_t max_steps)
{
    RefSim sim;
    sim.reset(program);
    return steppedRun(sim, max_steps, [&] { return sim.step(); });
}

/** Drive Rissp::step(@p mut) by hand: the gate-level single step for
 *  any non-null @p mut, the specialized core's one-record step for
 *  null. */
RunSnapshot
risspStepped(const Program &program, const InstrSubset &subset,
             uint64_t max_steps, const Mutation *mut)
{
    Rissp chip(subset, "dispatch-test");
    chip.reset(program);
    return steppedRun(chip, max_steps, [&] { return chip.step(mut); });
}

/** Drive @p sim's run() in traced calls of at most @p block steps
 *  each, one reused TraceSink buffer, appending every record to
 *  @p trace, until it stops or @p options' budget is spent. A block
 *  of at least the budget is the one-call run. */
template <typename Sim, typename Options>
RunResult
tracedRun(Sim &sim, Options options, std::vector<RetireEvent> &trace,
          uint64_t block)
{
    const uint64_t budget = options.maxSteps;
    std::vector<RetireEvent> buffer(std::min(block, budget));
    uint64_t used = 0;
    RunResult result;
    do {
        const uint64_t steps = std::min(block, budget - used);
        TraceSink sink{buffer.data(), buffer.data() + steps};
        options.maxSteps = steps;
        options.trace = &sink;
        result = sim.run(options);
        trace.insert(trace.end(), buffer.data(), sink.cursor);
        used += steps;
    } while (result.reason == StopReason::StepLimit && used < budget);
    return result;
}

RunSnapshot
refRun(const Program &program, uint64_t max_steps,
       uint64_t block = kCosimBlock)
{
    RefSim sim;
    sim.reset(program);
    RunSnapshot snap;
    SimRunOptions options;
    options.maxSteps = max_steps;
    snap.result = tracedRun(sim, options, snap.trace, block);
    captureState(sim, snap);
    return snap;
}

RunSnapshot
risspRun(const Program &program, const InstrSubset &subset,
         uint64_t max_steps, const RisspRunOptions &base = {},
         uint64_t block = kCosimBlock)
{
    Rissp chip(subset, "dispatch-test");
    chip.reset(program);
    RunSnapshot snap;
    RisspRunOptions options = base;
    options.maxSteps = max_steps;
    snap.result = tracedRun(chip, options, snap.trace, block);
    captureState(chip, snap);
    return snap;
}

/** An inactive fault: under the mutation contract it still routes
 *  Rissp::run() through the gate-level structural engine. */
const Mutation kNoFault{Mutation::Kind::None, 0};

/** Run options of the fault-free gate-level engine. */
RisspRunOptions
gateOptions()
{
    RisspRunOptions options;
    options.fault = &kNoFault;
    return options;
}

/** Both simulators' interpreter core against the two golden streams
 *  (RefSim::step(), RISSP gate level) on one program. */
void
expectAllEnginesAgree(const Program &program,
                      const InstrSubset &subset,
                      uint64_t max_steps = 100'000)
{
    const RunSnapshot golden = refGolden(program, max_steps);
    EXPECT_TRUE(sameSnapshot(golden, refRun(program, max_steps)))
        << "refsim core diverges from step()";

    const RunSnapshot dut_golden =
        risspRun(program, subset, max_steps, gateOptions());
    EXPECT_TRUE(sameSnapshot(dut_golden,
                             risspRun(program, subset, max_steps)))
        << "rissp specialized core diverges from gate level";
    EXPECT_TRUE(sameSnapshot(
        dut_golden, risspStepped(program, subset, max_steps, nullptr)))
        << "rissp single step diverges from gate level";

    // When the whole subset executes cleanly the two simulators also
    // agree with each other (the cosim suite fuzzes that broadly;
    // here it guards the harness itself).
    if (golden.result.reason == StopReason::Halted) {
        EXPECT_TRUE(sameTrace(golden.trace, dut_golden.trace))
            << "reference and gate-level RISSP streams differ";
    }
}

TEST(DispatchDiff, StraightLineHalt)
{
    Program p = assemble(R"(
        li a0, 7
        addi a0, a0, 35
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, MmioOutputAndLoops)
{
    // Tight loop plus both MMIO ports, the shape bench_micro times.
    Program p = assemble(R"(
        li a0, 0
        li a1, 10
        lui a3, 0xFFFF0
    loop:
        addi a0, a0, 1
        sw a0, 0(a3)
        addi a4, a0, 0x41
        sb a4, 4(a3)
        bne a0, a1, loop
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, InvalidEncodingTraps)
{
    // .word an invalid encoding mid-stream: every engine must trap
    // at the same retirement with the same (non-)event fields.
    Program p = assemble(R"(
        li a0, 3
        .word 0
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, WrappingAccessTraps)
{
    Program p = assemble(R"(
        li a0, -2
        lw a1, 0(a0)
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    Program ps = assemble(R"(
        li a0, -1
        sh a0, 0(a0)
        ecall
    )");
    expectAllEnginesAgree(ps, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, OutOfSubsetTrapRecordsOperands)
{
    // 'sub' executes on the reference but traps on a RISSP without
    // it — the unsupported-op path of the specialized core.
    Program p = assemble(R"(
        li a0, 9
        li a1, 4
        sub a2, a0, a1
        ecall
    )");
    InstrSubset no_sub = InstrSubset::fromNames(
        {"addi", "add", "lui", "sw"});
    const RunSnapshot golden = risspRun(p, no_sub, 100, gateOptions());
    ASSERT_EQ(golden.result.reason, StopReason::Trapped);
    EXPECT_TRUE(sameSnapshot(golden, risspRun(p, no_sub, 100)));
    // The trap event records the operand reads (RVFI contract).
    const RetireEvent &trap_ev = golden.trace.back();
    EXPECT_TRUE(trap_ev.trap);
    EXPECT_EQ(trap_ev.rs1, 10);
    EXPECT_EQ(trap_ev.rs2, 11);
}

TEST(DispatchDiff, SmcMidSuperblockInvalidates)
{
    // The store rewrites an instruction *later in the same
    // straight-line superblock*: the threaded core must leave the
    // block at the store and re-enter through the invalidated
    // decode, or it would retire the stale instruction.
    const uint32_t patched = encodeI(Op::Addi, 12, 0, 99);
    Program p = assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        sw a1, 0(a0)
        addi a3, zero, 1
    patch:
        addi a2, zero, 1
        ecall
    )", static_cast<int32_t>(patched)));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.regs[12], 99u);

    // Sub-word patch (imm rewritten through a byte store).
    Program pb = assemble(R"(
        la a0, patch
        li a1, 42
        sb a1, 3(a0)
        addi a3, zero, 1
    patch:
        addi a2, zero, 0
        ecall
    )");
    expectAllEnginesAgree(pb, InstrSubset::fullRv32e());
    const RunSnapshot doneb = refRun(pb, 100);
    EXPECT_EQ(doneb.regs[12], 672u);
}

TEST(DispatchDiff, SmcCanExtendASuperblock)
{
    // The patch turns a *control* instruction into a straight-line
    // one, lengthening the run the store sits in — the run-length
    // repair after invalidate() must extend backwards across the
    // store or the threaded core under-fetches.
    const uint32_t nopw = encodeI(Op::Addi, 0, 0, 0);
    Program p = assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        li a2, 5
        sw a1, 0(a0)
    patch:
        jal zero, skip
        addi a2, a2, 7
    skip:
        ecall
    )", static_cast<int32_t>(nopw)));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    // The patched path falls through the former jump.
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.regs[12], 12u);
}

TEST(DispatchDiff, OffSpanExecutionFallsBack)
{
    // Copy a two-instruction stub far outside the loaded text span
    // and jump to it: the cores must detect the off-span pc and
    // fall back to decode-on-fetch, bit-identically.
    const uint32_t insn0 = encodeI(Op::Addi, 12, 0, 55);
    const uint32_t ecallw = 0x00000073;
    Program p = assemble(strFormat(R"(
        li a0, 0x40000
        li a1, %d
        sw a1, 0(a0)
        li a1, %d
        sw a1, 4(a0)
        jalr a3, 0(a0)
    )", static_cast<int32_t>(insn0),
        static_cast<int32_t>(ecallw)));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.result.reason, StopReason::Halted);
    EXPECT_EQ(done.regs[12], 55u);
}

TEST(DispatchDiff, StepLimitBoundarySweep)
{
    // Sweep the budget across a superblock boundary: StepLimit must
    // cut the trace at exactly the same retirement everywhere, and
    // a resumed... fresh run with budget n+1 extends it by one.
    Program p = assemble(R"(
        li a0, 0
        li a1, 3
    loop:
        addi a0, a0, 1
        addi a2, a0, 2
        addi a3, a2, 3
        bne a0, a1, loop
        ecall
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    std::vector<RetireEvent> prev;
    for (uint64_t budget = 0; budget <= 16; ++budget) {
        const RunSnapshot golden = refGolden(p, budget);
        EXPECT_TRUE(sameSnapshot(golden, refRun(p, budget)))
            << "budget " << budget;
        const RunSnapshot dut_golden =
            risspRun(p, full, budget, gateOptions());
        EXPECT_TRUE(sameSnapshot(dut_golden, risspRun(p, full, budget)))
            << "budget " << budget;
        // Monotone prefix property across budgets.
        ASSERT_GE(golden.trace.size(), prev.size());
        EXPECT_TRUE(sameTrace(
            prev, {golden.trace.begin(),
                   golden.trace.begin() +
                       static_cast<long>(prev.size())}));
        prev = golden.trace;
    }
}

TEST(DispatchDiff, SplitTracedRunsConcatenateToTheOneCallTrace)
{
    // A traced run resumed call after call (what cosimulate() does
    // with its block buffer) must retire exactly the one-call stream:
    // budgets of 1, 7 and one cosim block, against a single call whose
    // sink holds the whole budget, for both simulators' interpreter
    // core and the gate-level engine. The programs halt, stop at
    // the step limit mid-run, and trap, each past one block.
    const Program loop = assemble(R"(
        li a0, 0
        li a1, 900
        lui a3, 0xFFFF0
        la a4, buf
    loop:
        addi a0, a0, 1
        sw a0, 0(a4)
        lw a5, 0(a4)
        sb a5, 4(a3)
        bne a0, a1, loop
        sw a0, 0(a3)
        ecall
        .data
    buf:
        .space 8
    )");
    const Program trap = assemble(R"(
        li a0, 0
        li a1, 700
    loop:
        addi a0, a0, 1
        addi a2, a0, 3
        bne a0, a1, loop
        .word 0
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    struct Case
    {
        const Program *program;
        uint64_t maxSteps;
        StopReason stop;
    };
    for (const Case &c : {Case{&loop, 100'000, StopReason::Halted},
                          Case{&loop, 3'001, StopReason::StepLimit},
                          Case{&trap, 100'000, StopReason::Trapped}}) {
        const RunSnapshot golden = refGolden(*c.program, c.maxSteps);
        ASSERT_EQ(golden.result.reason, c.stop);
        ASSERT_GT(golden.trace.size(), kCosimBlock);
        const RisspRunOptions gate = gateOptions();
        const RisspRunOptions fast;
        const RunSnapshot dut_golden =
            risspRun(*c.program, full, c.maxSteps, gate, c.maxSteps);
        for (uint64_t block : {uint64_t{1}, uint64_t{7}, kCosimBlock}) {
            EXPECT_TRUE(sameSnapshot(
                refRun(*c.program, c.maxSteps, c.maxSteps),
                refRun(*c.program, c.maxSteps, block)))
                << "refsim, block " << block;
            EXPECT_TRUE(sameSnapshot(
                golden, refRun(*c.program, c.maxSteps, block)))
                << "refsim, block " << block;
            EXPECT_TRUE(sameSnapshot(
                risspRun(*c.program, full, c.maxSteps, fast, c.maxSteps),
                risspRun(*c.program, full, c.maxSteps, fast, block)))
                << "rissp, block " << block;
            EXPECT_TRUE(sameSnapshot(
                dut_golden,
                risspRun(*c.program, full, c.maxSteps, fast, block)))
                << "rissp, block " << block;
            EXPECT_TRUE(sameSnapshot(
                dut_golden,
                risspRun(*c.program, full, c.maxSteps, gate, block)))
                << "rissp gate level, block " << block;
        }
    }
}

class DispatchFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(DispatchFuzz, RandomProgramsAreEngineInvariant)
{
    static const std::vector<std::vector<std::string>> kSubsets = {
        {"addi", "add", "sub", "lui", "lw", "lh", "lb", "lbu",
         "lhu", "sw", "sh", "sb", "beq", "bne"},
        {"addi", "xori", "ori", "andi", "slli", "srli", "srai",
         "slt", "sltu", "slti", "sltiu", "lui", "blt", "bgeu",
         "sw"},
    };
    const int idx = GetParam();
    InstrSubset subset =
        idx % 3 == 0 ? InstrSubset::fullRv32e()
                     : InstrSubset::fromNames(kSubsets[idx % 2]);
    Program prog =
        randomProgram(0xD15BA7C4 + idx * 977, 350, subset);
    expectAllEnginesAgree(prog, subset);

    // The interpreter streams also satisfy the RVFI monitors.
    const RunSnapshot t = refRun(prog, 100'000);
    EXPECT_TRUE(checkRvfiStream(t.trace).passed());
    const RunSnapshot d = risspRun(prog, subset, 100'000);
    EXPECT_TRUE(checkRvfiStream(d.trace).passed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchFuzz,
                         ::testing::Range(0, 9));

TEST(MutationContract, EveryKindRoutesThroughGateLevel)
{
    // The pinned contract: a non-null Mutation — Kind::None included
    // — always selects the gate-level engine, so mutation coverage
    // can never silently run on the specialized core. Observable as
    // (a) every faulty run() retiring exactly the stream of the
    // gate-level single step under the same fault, (b) the inactive
    // fault matching the specialized core, and (c) the faults
    // actually biting.
    Program p = archTestProgram(Op::Add);
    const InstrSubset full = InstrSubset::fullRv32e();
    const RunSnapshot clean_run = risspRun(p, full, 100'000);

    static const Mutation::Kind kKinds[] = {
        Mutation::Kind::None,
        Mutation::Kind::StuckSumBit,
        Mutation::Kind::CarryChainBreak,
        Mutation::Kind::DropShiftStage,
        Mutation::Kind::ShiftNoArith,
        Mutation::Kind::InvertLt,
        Mutation::Kind::EqIgnoreByte,
        Mutation::Kind::WrongSignExt,
        Mutation::Kind::StoreLaneStuck,
        Mutation::Kind::BranchPolarity,
        Mutation::Kind::LinkDrop,
        Mutation::Kind::ImmOffByOne,
    };
    for (Mutation::Kind kind : kKinds) {
        const Mutation mut{kind, 3};
        RisspRunOptions opts;
        opts.fault = &mut;
        const RunSnapshot a = risspRun(p, full, 100'000, opts);
        EXPECT_TRUE(
            sameSnapshot(risspStepped(p, full, 100'000, &mut), a))
            << "fault run() diverges from the gate-level step for "
            << mut.describe();
        if (kind == Mutation::Kind::None) {
            // An inactive mutation through the gate-level chain is
            // still bit-identical to the specialized core.
            EXPECT_TRUE(sameSnapshot(clean_run, a));
        }
    }
    // And a known-lethal fault on this add-heavy program must bite:
    // proof the faulty path really ran the structural chains.
    const Mutation lethal{Mutation::Kind::CarryChainBreak, 3};
    RisspRunOptions opts;
    opts.fault = &lethal;
    const RunSnapshot faulty = risspRun(p, full, 100'000, opts);
    EXPECT_FALSE(sameSnapshot(clean_run, faulty))
        << "CarryChainBreak produced a clean run — the fault was "
           "not routed into the structural adder";
}

TEST(MutationContract, CosimVerdictsMatchUnderEveryDispatch)
{
    // cosimulate() runs the RISSP in traced blocks, so its fault path
    // goes through run() with a fault (the gate-level engine) and its
    // clean path through the specialized core: the fault must be
    // caught with the same divergence verdict every time, and the
    // clean run must pass.
    Program p = archTestProgram(Op::Add);
    const InstrSubset full = InstrSubset::fullRv32e();
    const Mutation fault{Mutation::Kind::CarryChainBreak, 3};
    std::vector<std::string> verdicts;
    for (int run = 0; run < 2; ++run) {
        CosimOptions options;
        options.maxSteps = 100'000;
        options.fault = &fault;
        CosimReport rpt = cosimulate(p, full, options);
        EXPECT_FALSE(rpt.passed);
        verdicts.push_back(rpt.firstDivergence);
        CosimReport ok = cosimulate(p, full, 100'000);
        EXPECT_TRUE(ok.passed) << ok.firstDivergence;
    }
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0], verdicts[1]);
}

TEST(DispatchDiff, ExecCountsAreEngineIndependent)
{
    // ModularEx's per-op dynamic counts feed characterization
    // reports; the specialized core must charge them exactly like
    // execute() does (including ops that later trap on a bad
    // address, excluding unsupported ones).
    Program p = assemble(R"(
        li a0, 1
        li a1, 2
        add a2, a0, a1
        add a3, a2, a1
        li a4, -2
        lw a5, 0(a4)
        ecall
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    std::array<std::array<uint64_t, kNumOps>, 2> counts;
    size_t n = 0;
    for (const RisspRunOptions &options :
         {RisspRunOptions{}, gateOptions()}) {
        Rissp chip(full, "counts");
        chip.reset(p);
        chip.run(options);
        counts[n++] = chip.modularEx().execCounts();
    }
    EXPECT_EQ(counts[0], counts[1])
        << "core exec counts diverge from gate level";
    EXPECT_EQ(counts[1][static_cast<size_t>(Op::Add)], 2u);
    // The wrapping lw still charged its block before trapping.
    EXPECT_EQ(counts[1][static_cast<size_t>(Op::Lw)], 1u);
}

} // namespace
} // namespace rissp
