/**
 * @file
 * Tests for the verification substrate itself: the Figure 4 block
 * pre-verification flow and the §3.4.2 integration checks.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "assembler/assembler.hh"
#include "compiler/driver.hh"
#include "verify/block_verify.hh"
#include "verify/integration_verify.hh"
#include "verify/spec.hh"
#include "workloads/workloads.hh"

namespace rissp
{
namespace
{

class BlockCertTest : public ::testing::TestWithParam<int>
{
  protected:
    Op op() const { return static_cast<Op>(GetParam()); }
};

std::string
opParamName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(opName(static_cast<Op>(info.param)));
}

TEST_P(BlockCertTest, TestbenchPassesCleanBlock)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    TestbenchReport rpt = runBlockTestbench(op(), vecs);
    EXPECT_TRUE(rpt.passed()) << rpt.firstFailure;
    EXPECT_GE(rpt.vectorsRun, 196u + 200u);
}

TEST_P(BlockCertTest, PropertiesHold)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    for (const PropertyResult &p :
         checkBlockProperties(op(), vecs))
        EXPECT_EQ(p.violations, 0u)
            << opName(op()) << ": " << p.name;
}

TEST_P(BlockCertTest, MutationCoverageIsComplete)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    MutationReport rpt = runMutationCoverage(op(), vecs);
    EXPECT_TRUE(rpt.fullCoverage())
        << opName(op()) << " survivors: "
        << (rpt.survivors.empty() ? "none" : rpt.survivors[0]);
    EXPECT_EQ(rpt.mutantsGenerated, mutationCatalogue().size());
}

TEST_P(BlockCertTest, ArchTestSignatureMatchesReference)
{
    Program prog = archTestProgram(op());
    // Custom-extension ops are opt-in: stitch them explicitly.
    std::set<Op> ops = InstrSubset::fullRv32e().ops();
    ops.insert(op());
    CosimReport rpt = cosimulate(prog, InstrSubset(ops), 100'000);
    EXPECT_TRUE(rpt.passed)
        << opName(op()) << ": " << rpt.firstDivergence;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BlockCertTest,
    ::testing::Range(0, static_cast<int>(kNumOps)), opParamName);

TEST(Certification, WholeLibraryCertifies)
{
    HwLibrary lib; // fresh instance so certs start clean
    EXPECT_FALSE(lib.fullyVerified());
    certifyLibrary(lib, 0xB10C, 120);
    EXPECT_TRUE(lib.fullyVerified());
    const BlockCert &cert = lib.cert(Op::Add);
    EXPECT_TRUE(cert.functional);
    EXPECT_TRUE(cert.mutationCovered);
    EXPECT_TRUE(cert.formal);
    EXPECT_GT(cert.vectorsRun, 100u);
    EXPECT_GT(cert.mutantsTotal, 20u);
}

TEST(Mutation, InjectedFaultsAreObservable)
{
    // A broken carry chain must flip some add result.
    Mutation mut{Mutation::Kind::CarryChainBreak, 1};
    auto vecs = blockVectors(Op::Add, 0xB10C, 100);
    TestbenchReport rpt = runBlockTestbench(Op::Add, vecs, &mut);
    EXPECT_FALSE(rpt.passed());

    // Branch polarity inversion must be caught on beq.
    Mutation mut2{Mutation::Kind::BranchPolarity, 0};
    auto vecs2 = blockVectors(Op::Beq, 0xB10C, 100);
    EXPECT_FALSE(runBlockTestbench(Op::Beq, vecs2, &mut2).passed());

    // Sign-extension faults must be caught on lb but are equivalent
    // (filtered, not killed) on lbu.
    Mutation mut3{Mutation::Kind::WrongSignExt, 0};
    auto vecs3 = blockVectors(Op::Lb, 0xB10C, 100);
    EXPECT_FALSE(runBlockTestbench(Op::Lb, vecs3, &mut3).passed());
    auto vecs4 = blockVectors(Op::Lbu, 0xB10C, 100);
    EXPECT_TRUE(runBlockTestbench(Op::Lbu, vecs4, &mut3).passed());
}

TEST(RvfiMonitor, AcceptsCleanStream)
{
    Program p = assemble(R"(
        li a0, 10
        li a1, 0
    loop:
        add a1, a1, a0
        addi a0, a0, -1
        bne a0, zero, loop
        sw a1, 0x200(zero)
        lw a2, 0x200(zero)
        ecall
    )");
    Rissp dut(InstrSubset::fullRv32e(), "mon");
    dut.reset(p);
    std::vector<RetireEvent> events;
    while (true) {
        RetireEvent ev = dut.step();
        events.push_back(ev);
        if (ev.halt || ev.trap)
            break;
    }
    MonitorReport rpt = checkRvfiStream(events);
    EXPECT_TRUE(rpt.passed())
        << (rpt.violations.empty() ? "" : rpt.violations[0]);
    EXPECT_EQ(rpt.eventsChecked, events.size());
}

TEST(RvfiMonitor, FlagsBrokenStreams)
{
    RetireEvent a;
    a.order = 0;
    a.pc = 0;
    a.nextPc = 4;
    RetireEvent b = a;
    b.order = 1;
    b.pc = 8; // chain broken (should be 4)
    b.nextPc = 12;
    MonitorReport rpt = checkRvfiStream({a, b});
    EXPECT_FALSE(rpt.passed());
    EXPECT_NE(rpt.violations[0].find("pc chain"), std::string::npos);

    RetireEvent c;
    c.order = 0;
    c.pc = 0;
    c.nextPc = 4;
    c.rd = 0;
    c.rdData = 7; // x0 written
    MonitorReport rpt2 = checkRvfiStream({c});
    EXPECT_FALSE(rpt2.passed());

    RetireEvent d;
    d.order = 5; // wrong order
    d.pc = 0;
    d.nextPc = 4;
    EXPECT_FALSE(checkRvfiStream({d}).passed());
}

/**
 * The RVFI reporter the streaming checker replaced: the original
 * whole-vector implementation, kept verbatim so equivalence of the
 * incremental checker can be asserted against it.
 */
MonitorReport
legacyCheckRvfiStream(const std::vector<RetireEvent> &events)
{
    MonitorReport rpt;
    for (size_t i = 0; i < events.size(); ++i) {
        const RetireEvent &ev = events[i];
        ++rpt.eventsChecked;
        auto flag = [&](const char *what) {
            rpt.violations.push_back(strFormat(
                "event %zu (pc=0x%08x): %s", i, ev.pc, what));
        };
        if (ev.order != i)
            flag("retirement order not monotone");
        if (ev.rd == 0 && ev.rdData != 0)
            flag("x0 written with a non-zero value");
        if (ev.memRead && ev.memWrite)
            flag("simultaneous load and store");
        if ((ev.memRead || ev.memWrite) &&
            ev.memBytes != 1 && ev.memBytes != 2 && ev.memBytes != 4)
            flag("illegal memory access width");
        if (!ev.trap && !ev.halt && (ev.nextPc & 3))
            flag("misaligned next pc");
        if (i + 1 < events.size()) {
            if (ev.halt || ev.trap)
                flag("retirement after halt/trap");
            else if (events[i + 1].pc != ev.nextPc)
                flag("pc chain broken");
        }
    }
    return rpt;
}

void
expectSameReport(const std::vector<RetireEvent> &events)
{
    const MonitorReport legacy = legacyCheckRvfiStream(events);
    RvfiStreamChecker checker;
    for (const RetireEvent &ev : events)
        checker.push(ev);
    const MonitorReport &streamed = checker.report();
    EXPECT_EQ(streamed.eventsChecked, legacy.eventsChecked);
    EXPECT_EQ(streamed.violations, legacy.violations);
    // checkRvfiStream() is a thin wrapper over the checker; keep the
    // public entry point honest too.
    EXPECT_EQ(checkRvfiStream(events).violations, legacy.violations);
}

TEST(RvfiMonitor, StreamingCheckerMatchesLegacyReporter)
{
    // A clean stream from a real run.
    Program p = randomProgram(0xCAFE, 120, InstrSubset::fullRv32e());
    Rissp dut(InstrSubset::fullRv32e(), "legacy-cmp");
    dut.reset(p);
    std::vector<RetireEvent> clean;
    for (int i = 0; i < 100000; ++i) {
        RetireEvent ev = dut.step();
        clean.push_back(ev);
        if (ev.halt || ev.trap)
            break;
    }
    expectSameReport(clean);
    expectSameReport({});

    // Corrupted variants exercising every violation, in every
    // position, so ordering and indices of the reports must agree.
    for (size_t victim : {size_t{0}, clean.size() / 2,
                          clean.size() - 1}) {
        auto corrupt = [&](auto &&mutate) {
            std::vector<RetireEvent> evs = clean;
            mutate(evs[victim]);
            expectSameReport(evs);
        };
        corrupt([](RetireEvent &ev) { ev.order += 5; });
        corrupt([](RetireEvent &ev) { ev.rd = 0; ev.rdData = 9; });
        corrupt([](RetireEvent &ev) {
            ev.memRead = ev.memWrite = true;
        });
        corrupt([](RetireEvent &ev) {
            ev.memRead = true;
            ev.memBytes = 3;
        });
        corrupt([](RetireEvent &ev) { ev.nextPc |= 2; });
        corrupt([](RetireEvent &ev) { ev.halt = true; });
        corrupt([](RetireEvent &ev) { ev.trap = true; });
        corrupt([](RetireEvent &ev) { ev.pc += 4; ev.nextPc += 4; });
    }
}

TEST(Cosim, LoadToX0MatchesReference)
{
    // Regression: the DUT used to zero memData for rd == x0 loads
    // while the reference reported the raw DMEM data, so a legal
    // `lw x0, ...` falsely diverged. Both now report the data.
    Program p = assemble(R"(
        li a0, 0x600
        li a1, 0x89ABCDEF
        sw a1, 0(a0)
        lw zero, 0(a0)
        lh zero, 0(a0)
        lbu zero, 0(a0)
        ecall
    )");
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;

    // And the RVFI record carries the (width-extended) DMEM data.
    Rissp dut(InstrSubset::fullRv32e(), "x0-load");
    dut.reset(p);
    RetireEvent ev;
    do {
        ev = dut.step();
    } while (!ev.memRead);
    EXPECT_EQ(ev.rd, 0);
    EXPECT_EQ(ev.rdData, 0u);       // x0 stays hardwired
    EXPECT_EQ(ev.memData, 0x89ABCDEFu);
    EXPECT_EQ(dut.reg(0), 0u);
}

TEST(Cosim, SelfModifyingCodeStaysInLockstep)
{
    // Covers the *Rissp* side of decoded-cache invalidation (RefSim
    // has its own direct tests): both simulators must fetch the
    // patched instruction, and their traces must stay identical. If
    // the DUT served a stale pre-patch decode, its a2 would differ
    // from the reference's and the cosim would diverge.
    const uint32_t patched = encodeI(Op::Addi, 12, 0, 99);
    Program p = assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        sw a1, 0(a0)
    patch:
        addi a2, zero, 1
        ecall
    )", static_cast<int32_t>(patched)));
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;

    // And the DUT really executed the patched instruction.
    Rissp dut(InstrSubset::fullRv32e(), "smc");
    dut.reset(p);
    RunResult r = dut.run(1000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(dut.reg(12), 99u);

    // Sub-word patch too: byte 3 of an I-type word is imm[11:4], so
    // storing 42 there rewrites the immediate to 672.
    Program pb = assemble(R"(
        la a0, patch
        li a1, 42
        sb a1, 3(a0)
    patch:
        addi a2, zero, 0
        ecall
    )");
    CosimReport rptb =
        cosimulate(pb, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rptb.passed) << rptb.firstDivergence;
    Rissp dutb(InstrSubset::fullRv32e(), "smc-subword");
    dutb.reset(pb);
    EXPECT_EQ(dutb.run(1000).reason, StopReason::Halted);
    EXPECT_EQ(dutb.reg(12), 672u);
}

TEST(Cosim, WrappingAccessTrapsIdentically)
{
    // Address-space wrap is a trap in both simulators (satellite of
    // the Memory wrap fix); lock-step agreement means the cosim run
    // itself passes, with the trap as the final retirement.
    Program p = assemble(R"(
        li a0, -2
        lw a1, 0(a0)
        ecall
    )");
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_EQ(rpt.instret, 2u);

    Program ps = assemble(R"(
        li a0, -1
        sh a0, 0(a0)
        ecall
    )");
    CosimReport rpt2 =
        cosimulate(ps, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt2.passed) << rpt2.firstDivergence;
}

TEST(Cosim, DivergenceKeepsRecentEventContext)
{
    Program p = archTestProgram(Op::Add);
    Mutation fault{Mutation::Kind::CarryChainBreak, 3};
    CosimOptions options;
    options.maxSteps = 100'000;
    options.fault = &fault;
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), options);
    ASSERT_FALSE(rpt.passed);
    ASSERT_FALSE(rpt.recentDut.empty());
    EXPECT_LE(rpt.recentDut.size(), options.contextEvents);
    EXPECT_EQ(rpt.recentDut.size(), rpt.recentRef.size());
    // The divergent step is the newest ring entry, and the ring is
    // chronologically ordered.
    EXPECT_EQ(rpt.recentDut.back().order + 1,
              rpt.monitor.eventsChecked);
    for (size_t i = 1; i < rpt.recentDut.size(); ++i)
        EXPECT_EQ(rpt.recentDut[i].order,
                  rpt.recentDut[i - 1].order + 1);
    // A clean pass retains no context.
    CosimReport ok = cosimulate(p, InstrSubset::fullRv32e(), 100'000);
    EXPECT_TRUE(ok.passed);
    EXPECT_TRUE(ok.recentDut.empty());
    EXPECT_TRUE(ok.recentRef.empty());
}

TEST(Cosim, LongRunMemoryStaysBounded)
{
    // 1.5 M steps against a step budget: the streaming monitor and
    // the fixed ring are the only per-step state, so peak memory no
    // longer scales with instret (the ASan CI job watches this test).
    Program p = assemble("loop: jal zero, loop");
    const uint64_t kBudget = 1'500'000;
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), kBudget);
    EXPECT_FALSE(rpt.passed);
    EXPECT_EQ(rpt.firstDivergence, "step limit reached");
    EXPECT_EQ(rpt.monitor.eventsChecked, kBudget);
    EXPECT_TRUE(rpt.monitor.passed());
    CosimOptions options;
    options.maxSteps = 1000;
    options.contextEvents = 8;
    CosimReport small = cosimulate(p, InstrSubset::fullRv32e(),
                                   options);
    EXPECT_EQ(small.recentDut.size(), 8u);
}

TEST(StructuralFastPath, MatchesGateLevelChains)
{
    // The wire-equivalent fast paths (taken when no Mutation is
    // supplied) must agree bit-for-bit with the gate-level chains (an
    // inactive Mutation forces the structural path).
    Rng rng(0x57AC);
    const Mutation none; // Kind::None: structural path, no fault
    for (int i = 0; i < 20000; ++i) {
        const uint32_t a = rng.next32();
        const uint32_t b = rng.next32();
        const bool cin = rng.below(2) != 0;
        bool fast_cout = false, slow_cout = false;
        EXPECT_EQ(structAdd(a, b, cin, fast_cout, nullptr),
                  structAdd(a, b, cin, slow_cout, &none));
        EXPECT_EQ(fast_cout, slow_cout);
        EXPECT_EQ(structSub(a, b, fast_cout, nullptr),
                  structSub(a, b, slow_cout, &none));
        EXPECT_EQ(fast_cout, slow_cout);
        const unsigned amount = rng.below(64); // includes >31
        EXPECT_EQ(structShiftRight(a, amount, false, nullptr),
                  structShiftRight(a, amount, false, &none));
        EXPECT_EQ(structShiftRight(a, amount, true, nullptr),
                  structShiftRight(a, amount, true, &none));
        EXPECT_EQ(structShiftLeft(a, amount, nullptr),
                  structShiftLeft(a, amount, &none));
        EXPECT_EQ(structMul(a, b, nullptr), structMul(a, b, &none));
        EXPECT_EQ(structLt(a, b, true, nullptr),
                  structLt(a, b, true, &none));
        EXPECT_EQ(structLt(a, b, false, nullptr),
                  structLt(a, b, false, &none));
    }
}

class RandomCosimTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCosimTest, RisspTracksReference)
{
    const uint64_t seed = 0xFACE0000u + GetParam();
    InstrSubset full = InstrSubset::fullRv32e();
    Program prog = randomProgram(seed, 300, full);
    CosimReport rpt = cosimulate(prog, full, 100'000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_TRUE(rpt.monitor.passed());
    EXPECT_GT(rpt.monitor.eventsChecked, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCosimTest,
                         ::testing::Range(0, 12));

/** Lock-step fuzz across instruction-subset shapes, not just the
 *  full ISA: memory-heavy and ALU-only RISSPs must track the
 *  reference on random programs through the pre-decoded fetch and
 *  dense-memory fast paths. */
class SubsetCosimFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SubsetCosimFuzz, RisspTracksReferenceOnSubset)
{
    static const std::vector<std::vector<std::string>> kSubsets = {
        {"addi", "add", "sub", "lui", "lw", "lh", "lb", "lbu",
         "lhu", "sw", "sh", "sb", "beq", "bne"},
        // ALU-heavy; sw stays in because randomProgram dumps the
        // register file into the signature with word stores.
        {"addi", "xori", "ori", "andi", "slli", "srli", "srai",
         "slt", "sltu", "slti", "sltiu", "lui", "blt", "bgeu",
         "sw"},
    };
    const auto [subset_idx, seed_idx] = GetParam();
    InstrSubset subset =
        InstrSubset::fromNames(kSubsets[subset_idx]);
    Program prog = randomProgram(0xB0B0 + seed_idx * 131 + subset_idx,
                                 400, subset);
    CosimReport rpt = cosimulate(prog, subset, 100'000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_GT(rpt.monitor.eventsChecked, 400u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubsetCosimFuzz,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Range(0, 6)));

TEST(Cosim, TrapsOnOutOfSubsetInstruction)
{
    // A RISSP without 'sub' must trap where the reference executes.
    Program p = assemble(R"(
        li a0, 5
        li a1, 3
        sub a2, a0, a1
        ecall
    )");
    InstrSubset no_sub = InstrSubset::fromNames(
        {"addi", "lui", "jal"});
    Rissp dut(no_sub, "no-sub");
    dut.reset(p);
    RunResult rr = dut.run(100);
    EXPECT_EQ(rr.reason, StopReason::Trapped);
    EXPECT_EQ(rr.stopPc, 8u);
}

TEST(Spec, MatchesIssOnRandomInstructions)
{
    // Spec model vs reference ISS: execute single instructions in
    // isolation and compare rd/next-pc behaviour.
    Rng rng(77);
    InstrSubset full = InstrSubset::fullRv32e();
    std::vector<Op> ops(full.ops().begin(), full.ops().end());
    for (int iter = 0; iter < 4000; ++iter) {
        const Op op = ops[rng.below(
            static_cast<uint32_t>(ops.size()))];
        if (isLoad(op) || isStore(op))
            continue; // memory covered by cosim
        auto vecs = blockVectors(op, rng.next(), 1);
        const BlockVector &v = vecs.back();
        SpecEffect fx = specExecute(v.in.insn, v.in.pc,
                                    v.in.rs1Data, v.in.rs2Data);
        // Cross-check against the reference ISS semantics.
        RefSim sim;
        Program stub;
        Segment seg;
        seg.base = v.in.pc;
        for (unsigned b = 0; b < 4; ++b)
            seg.bytes.push_back(
                static_cast<uint8_t>(v.in.insn.raw >> (8 * b)));
        stub.segments.push_back(seg);
        stub.entry = v.in.pc;
        stub.textBase = v.in.pc;
        stub.textSize = 4;
        sim.reset(stub);
        sim.setReg(v.in.insn.rs1, v.in.rs1Data);
        sim.setReg(v.in.insn.rs2, v.in.rs2Data);
        // Read operands back so rs1 == rs2 aliasing is honoured.
        const uint32_t rs1 = sim.reg(v.in.insn.rs1);
        const uint32_t rs2 = sim.reg(v.in.insn.rs2);
        SpecEffect fx0 = specExecute(v.in.insn, v.in.pc, rs1, rs2);
        RetireEvent ev = sim.step();
        if (!fx0.halt)
            EXPECT_EQ(ev.nextPc, fx0.nextPc)
                << disassemble(v.in.insn.raw);
        if (fx0.writesRd && v.in.insn.rd != 0)
            EXPECT_EQ(sim.reg(v.in.insn.rd), fx0.rdValue)
                << disassemble(v.in.insn.raw);
        (void)fx;
    }
}

// ------------------------------------- block-stepped cosim oracle

/** The RISSP-side comparator cosimulate() applies, copied verbatim. */
bool
oracleEventsMatch(const RetireEvent &a, const RetireEvent &b)
{
    return a.pc == b.pc && a.raw == b.raw && a.nextPc == b.nextPc &&
        a.rd == b.rd && a.rdData == b.rdData &&
        a.memRead == b.memRead && a.memWrite == b.memWrite &&
        (!a.memRead && !a.memWrite
         ? true
         : a.memAddr == b.memAddr && a.memData == b.memData &&
             a.memBytes == b.memBytes) &&
        a.halt == b.halt && a.trap == b.trap;
}

std::string
oracleDescribe(const RetireEvent &ev)
{
    return strFormat(
        "pc=0x%08x %s rd=x%u rdData=0x%08x mem%s addr=0x%08x "
        "data=0x%08x", ev.pc,
        disassemble(ev.raw).c_str(), ev.rd, ev.rdData,
        ev.memRead ? "R" : ev.memWrite ? "W" : "-", ev.memAddr,
        ev.memData);
}

/**
 * The oracle: cosimulate()'s lock-step loop as it was before it was
 * block-stepped — both machines one instruction at a time
 * (Rissp::step(), RefSim::step()), every event pushed through the
 * monitor and both context rings. The block-stepped cosimulate()
 * must report exactly what this does.
 */
CosimReport
singleStepCosim(const Program &program, const InstrSubset &subset,
                const CosimOptions &options)
{
    CosimReport rpt;
    RefSim ref;
    ref.reset(program);
    Rissp dut(subset, "cosim-dut");
    dut.reset(program);
    RvfiStreamChecker monitor;
    std::vector<RetireEvent> refRing(options.contextEvents);
    std::vector<RetireEvent> dutRing(options.contextEvents);
    size_t pushed = 0;
    auto divergence_context = [&]() {
        const size_t n = std::min(pushed, refRing.size());
        for (size_t i = 0; i < n; ++i) {
            const size_t at = (pushed - n + i) % refRing.size();
            rpt.recentRef.push_back(refRing[at]);
            rpt.recentDut.push_back(dutRing[at]);
        }
    };
    for (uint64_t i = 0; i < options.maxSteps; ++i) {
        RetireEvent re = ref.step();
        RetireEvent de = dut.step(options.fault);
        monitor.push(de);
        if (!refRing.empty()) {
            refRing[pushed % refRing.size()] = re;
            dutRing[pushed % dutRing.size()] = de;
        }
        ++pushed;
        if (!oracleEventsMatch(re, de)) {
            rpt.firstDivergence = strFormat(
                "step %llu:\n  ref: %s\n  dut: %s",
                static_cast<unsigned long long>(i),
                oracleDescribe(re).c_str(),
                oracleDescribe(de).c_str());
            rpt.monitor = monitor.report();
            divergence_context();
            return rpt;
        }
        if (re.halt || re.trap) {
            rpt.instret = i + 1;
            break;
        }
        if (i + 1 == options.maxSteps) {
            rpt.firstDivergence = "step limit reached";
            rpt.monitor = monitor.report();
            divergence_context();
            return rpt;
        }
    }
    for (unsigned r = 0; r < kNumRegsE; ++r) {
        if (ref.reg(r) != dut.reg(r)) {
            rpt.firstDivergence = strFormat(
                "final x%u: ref=0x%08x dut=0x%08x", r, ref.reg(r),
                dut.reg(r));
            divergence_context();
            return rpt;
        }
    }
    if (program.hasSymbol("signature")) {
        const uint32_t base = program.symbol("signature");
        for (uint32_t off = 0; off < 256; off += 4) {
            const uint32_t rv = ref.memory().loadWord(base + off);
            const uint32_t dv = dut.memory().loadWord(base + off);
            if (rv != dv) {
                rpt.firstDivergence = strFormat(
                    "signature+%u: ref=0x%08x dut=0x%08x", off, rv,
                    dv);
                divergence_context();
                return rpt;
            }
        }
    }
    rpt.monitor = monitor.report();
    rpt.passed = rpt.monitor.passed();
    if (!rpt.passed) {
        rpt.firstDivergence = rpt.monitor.violations.front();
        divergence_context();
    }
    return rpt;
}

bool
sameEvents(const std::vector<RetireEvent> &a,
           const std::vector<RetireEvent> &b)
{
    auto same = [](const RetireEvent &x, const RetireEvent &y) {
        return x.order == y.order && x.pc == y.pc &&
            x.nextPc == y.nextPc && x.raw == y.raw && x.op == y.op &&
            x.rs1 == y.rs1 && x.rs2 == y.rs2 &&
            x.rs1Data == y.rs1Data && x.rs2Data == y.rs2Data &&
            x.rd == y.rd && x.rdData == y.rdData &&
            x.memRead == y.memRead && x.memWrite == y.memWrite &&
            x.memAddr == y.memAddr && x.memData == y.memData &&
            x.memBytes == y.memBytes && x.trap == y.trap &&
            x.halt == y.halt;
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), same);
}

/** cosimulate() against the single-step oracle, whole report. */
::testing::AssertionResult
matchesSingleStep(const Program &program, const InstrSubset &subset,
                  const CosimOptions &options)
{
    const CosimReport want = singleStepCosim(program, subset, options);
    const CosimReport got = cosimulate(program, subset, options);
    auto fail = [&](const char *field) {
        return ::testing::AssertionFailure()
               << "CosimReport::" << field << " differs (oracle: "
               << (want.passed ? "pass" : want.firstDivergence) << ")";
    };
    if (got.passed != want.passed)
        return fail("passed");
    if (got.instret != want.instret)
        return fail("instret");
    if (got.firstDivergence != want.firstDivergence)
        return fail("firstDivergence");
    if (got.monitor.eventsChecked != want.monitor.eventsChecked)
        return fail("monitor.eventsChecked");
    if (got.monitor.violations != want.monitor.violations)
        return fail("monitor.violations");
    if (!sameEvents(got.recentRef, want.recentRef))
        return fail("recentRef");
    if (!sameEvents(got.recentDut, want.recentDut))
        return fail("recentDut");
    return ::testing::AssertionSuccess();
}

CosimOptions
cosimOptions(uint64_t max_steps, unsigned context = 8,
             const Mutation *fault = nullptr)
{
    CosimOptions options;
    options.maxSteps = max_steps;
    options.contextEvents = context;
    options.fault = fault;
    return options;
}

TEST(CosimBlocks, WorkloadsMatchSingleStepOnOwnAndFullSubset)
{
    for (const Workload &w : allWorkloads()) {
        const Program program =
            minic::compile(w.source, minic::OptLevel::O2).program;
        const InstrSubset own = InstrSubset::fromProgram(program);
        EXPECT_TRUE(matchesSingleStep(program, own,
                                      cosimOptions(10'000'000)))
            << w.name << " on its own subset";
        EXPECT_TRUE(matchesSingleStep(program,
                                      InstrSubset::fullRv32e(),
                                      cosimOptions(10'000'000)))
            << w.name << " on the full subset";
    }
}

TEST(CosimBlocks, RandomProgramsMatchSingleStep)
{
    const InstrSubset full = InstrSubset::fullRv32e();
    const InstrSubset alu = InstrSubset::fromNames(
        {"addi", "xori", "ori", "andi", "slli", "srli", "srai", "slt",
         "sltu", "slti", "sltiu", "lui", "blt", "bgeu", "sw"});
    for (uint64_t seed = 0; seed < 8; ++seed) {
        const Program p = randomProgram(0xB10CC0 + seed, 2500, full);
        EXPECT_TRUE(matchesSingleStep(p, full, cosimOptions(100'000)))
            << "seed " << seed;
        // Out-of-subset ops trap the RISSP mid-run: a divergence.
        EXPECT_TRUE(matchesSingleStep(p, alu, cosimOptions(100'000)))
            << "seed " << seed << " on the ALU subset";
    }
}

/** @p lead addi instructions, then one sub — the first instruction a
 *  RISSP without sub cannot execute, so it diverges at step @p lead. */
Program
divergesAt(uint64_t lead)
{
    std::string text = "    .text\n_start:\n";
    for (uint64_t i = 0; i < lead; ++i)
        text += "    addi a0, a0, 1\n";
    text += "    sub a1, a0, a1\n    ecall\n";
    return assemble(text);
}

TEST(CosimBlocks, DivergencesAroundABlockEdgeMatchSingleStep)
{
    const InstrSubset no_sub = InstrSubset::fromNames({"addi", "ecall"});
    for (uint64_t step : {kCosimBlock - 1, kCosimBlock, kCosimBlock + 1,
                          2 * kCosimBlock + 5}) {
        const Program p = divergesAt(step);
        for (unsigned context :
             {0u, 1u, 8u, static_cast<unsigned>(step + 40)}) {
            const CosimOptions options = cosimOptions(100'000, context);
            EXPECT_TRUE(matchesSingleStep(p, no_sub, options))
                << "divergence at step " << step << ", context "
                << context;
            const CosimReport rpt = cosimulate(p, no_sub, options);
            EXPECT_EQ(rpt.firstDivergence.rfind(
                          strFormat("step %llu:",
                                    static_cast<unsigned long long>(
                                        step)),
                          0),
                      0u)
                << rpt.firstDivergence;
            EXPECT_EQ(rpt.recentDut.size(),
                      std::min<uint64_t>(context, step + 1));
        }
    }
}

TEST(CosimBlocks, StepLimitsAroundABlockEdgeMatchSingleStep)
{
    // Never halts: every budget ends at the step limit, or passes
    // at 0 (no step taken).
    const Program spin = assemble(R"(
        li a0, 0
    loop:
        addi a0, a0, 1
        sw a0, 0(zero)
        jal zero, loop
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    for (uint64_t max_steps :
         {uint64_t{0}, uint64_t{1}, kCosimBlock - 1, kCosimBlock,
          kCosimBlock + 1, 3 * kCosimBlock + 2}) {
        for (unsigned context : {0u, 1u, 8u, 5000u}) {
            EXPECT_TRUE(matchesSingleStep(
                spin, full, cosimOptions(max_steps, context)))
                << "maxSteps " << max_steps << ", context " << context;
        }
    }
    // A program that halts exactly at, before and after a block
    // edge, with the budget equal to its length.
    for (uint64_t lead : {kCosimBlock - 2, kCosimBlock - 1,
                          kCosimBlock}) {
        std::string text = "    .text\n_start:\n";
        for (uint64_t i = 0; i < lead; ++i)
            text += "    addi a0, a0, 1\n";
        text += "    ecall\n";
        const Program p = assemble(text);
        for (uint64_t max_steps : {lead, lead + 1, lead + 2}) {
            EXPECT_TRUE(matchesSingleStep(p, full,
                                          cosimOptions(max_steps)))
                << "halt after " << lead << ", maxSteps " << max_steps;
        }
    }
}

TEST(CosimBlocks, EveryFaultKindMatchesSingleStep)
{
    static const Mutation::Kind kKinds[] = {
        Mutation::Kind::None,           Mutation::Kind::StuckSumBit,
        Mutation::Kind::CarryChainBreak, Mutation::Kind::DropShiftStage,
        Mutation::Kind::ShiftNoArith,   Mutation::Kind::InvertLt,
        Mutation::Kind::EqIgnoreByte,   Mutation::Kind::WrongSignExt,
        Mutation::Kind::StoreLaneStuck, Mutation::Kind::BranchPolarity,
        Mutation::Kind::LinkDrop,       Mutation::Kind::ImmOffByOne,
    };
    const InstrSubset full = InstrSubset::fullRv32e();
    for (Op op : full.ops()) {
        const Program p = archTestProgram(op);
        for (Mutation::Kind kind : kKinds) {
            const Mutation fault{kind, 3};
            EXPECT_TRUE(matchesSingleStep(
                p, full, cosimOptions(100'000, 8, &fault)))
                << opName(op) << " under " << fault.describe();
        }
    }
}

} // namespace
} // namespace rissp
